"""Validity checking and countermodel search over frame classes.

A search either proves a formula valid within an explicit scope (all models
up to a state bound, or a seeded batch of random models) or returns a
countermodel.  Verdicts never claim more than the searched scope, and every
countermodel is re-verified by the plain recursive evaluator before being
returned.

Search order is fixed: ascending state count, then the deterministic model
enumeration order, then instance index, then lowest falsified state.  Random
phases derive one sub-seed per trial from the configured seed, so a verdict
is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby, islice
from operator import attrgetter
from typing import Iterable, Iterator, Sequence, Union

from . import semantics
from .formula import (
    And,
    Atom,
    Box,
    BoxNotAllowedError,
    Delta,
    Formula,
    Not,
    and_,
    atom,
    atoms_of,
    box,
    delta,
    iff,
    implies,
    nabla,
    not_,
    or_,
    top,
    RESERVED_ATOM,
)
from .lambdas import Universe, build_theory
from .model import ALL_FRAMES, FrameClassSpec, NeighborhoodModel, model_stream
from .model import random_model  # noqa: F401  (benchmarks/selftest.py traces this binding)
from .proofs import SYSTEM_AXIOMS, system_axioms, system_class

DEFAULT_SEED = 17

DEFAULT_POOL: tuple[Formula, ...] = (
    atom("p"),
    atom("q"),
    not_(atom("p")),
    not_(atom("q")),
    and_(atom("p"), atom("q")),
    or_(atom("p"), atom("q")),
)


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "exhaustive"  # "exhaustive" | "random"
    max_states: int = 2
    trials: int = 1000
    seed: int = DEFAULT_SEED
    atoms: tuple[str, ...] = ("p", "q")
    extended: bool = False

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown search mode {self.mode!r}")

    def scope(self) -> str:
        if self.mode == "exhaustive":
            return f"exhaustive |S|<={self.max_states}"
        return f"random trials={self.trials} |S|={self.max_states} seed={self.seed}"

    def models(self, spec: FrameClassSpec) -> Iterator[NeighborhoodModel]:
        """The model stream this scope searches in spec's class."""
        if self.mode == "exhaustive":
            return model_stream(self.atoms, spec,
                                exhaustive=range(1, self.max_states + 1))
        return model_stream(self.atoms, spec, random_sizes=(self.max_states,),
                            trials=self.trials, seed=self.seed)


@dataclass(frozen=True)
class Valid:
    scope: str
    models_checked: int


@dataclass(frozen=True)
class Countermodel:
    model: NeighborhoodModel
    state: int


Verdict = Union[Valid, Countermodel]


def _require_atoms(names: Iterable[str], cfg: SearchConfig) -> None:
    missing = set(names) - set(cfg.atoms) - {RESERVED_ATOM}
    if missing:
        raise ValueError(f"formula atoms {sorted(missing)} not in cfg.atoms")


def check_validity(f: Formula, spec: FrameClassSpec, cfg: SearchConfig) -> Verdict:
    """Scan spec's model class for a countermodel of f.

    Requires the formula's atoms to be covered by cfg.atoms.  Returns the
    first countermodel in search order, or Valid with the searched scope.
    """
    _require_atoms(atoms_of(f), cfg)
    checked = 0
    for model in cfg.models(spec):
        checked += 1
        mask = semantics.truth_set(model, f, extended=cfg.extended)
        if mask != model.full_mask:
            state = _lowest_missing_state(mask, model.full_mask)
            _verify_countermodel(model, state, f, cfg.extended)
            return Countermodel(model, state)
    return Valid(cfg.scope(), checked)


def _lowest_missing_state(mask: int, full: int) -> int:
    missing = full ^ mask
    return (missing & -missing).bit_length() - 1


def _verify_countermodel(model: NeighborhoodModel, state: int, f: Formula,
                         extended: bool) -> None:
    if semantics.holds_at(model, state, f, extended=extended):
        raise RuntimeError("internal error: countermodel failed re-verification")


# ---------------------------------------------------------------------------
# Schema instance pools.

def schema_instances(schema: str, pool: Sequence[Formula]) -> tuple[Formula, ...]:
    """All instances of a schema with metavariables drawn from the pool.

    Besides the axioms EQU, M, C, N this also builds the implication-form
    variants M' (D a -> D (a -> b) | D (!a -> c)) and C'
    (D (b -> a) & D (!b -> a) -> D a).
    """
    if not pool:
        raise ValueError("instance pool must be nonempty")
    if schema == "EQU":
        return tuple(iff(delta(f), delta(not_(f))) for f in pool)
    if schema == "M":
        return tuple(
            implies(delta(f), or_(delta(or_(f, g)), delta(or_(not_(f), h))))
            for f in pool for g in pool for h in pool)
    if schema == "C":
        return tuple(
            implies(and_(delta(f), delta(g)), delta(and_(f, g)))
            for f in pool for g in pool)
    if schema == "N":
        return (delta(top()),)
    if schema == "M'":
        return tuple(
            implies(delta(f), or_(delta(implies(f, g)), delta(implies(not_(f), h))))
            for f in pool for g in pool for h in pool)
    if schema == "C'":
        return tuple(
            implies(and_(delta(implies(g, f)), delta(implies(not_(g), f))), delta(f))
            for f in pool for g in pool)
    raise ValueError(f"unknown schema {schema!r}")


def almost_definability_instances(pool: Sequence[Formula]) -> tuple[tuple[Formula, Formula, Formula], ...]:
    """(phi, chi, instance) triples of Nb c -> ([] a <-> D a & D (c -> a))."""
    items = []
    for f in pool:
        for c in pool:
            inst = implies(nabla(c), iff(box(f), and_(delta(f), delta(implies(c, f)))))
            items.append((f, c, inst))
    return tuple(items)


# ---------------------------------------------------------------------------
# Compiled evaluation for instance pools.  Formulas are flattened into a
# deduplicated node list, which is evaluated bit-sliced (Biham, FSE 1997)
# over batches of up to _BATCH consecutive models with one state count k.
# A node's value is k ints, one bitplane per state: bit b of plane j says
# whether the node holds at state j of model b.  `!` and `&` cost one int
# operation per plane.  `D` and `[]` split the batch by the child's truth
# set v (the minterms of the child's planes) and AND each part with the
# plane of the models whose collection at state j holds v (for `D`: v or
# its complement).  Countermodels found this way are always re-verified
# through semantics.holds_at.

_ATOM, _NOT, _AND, _DELTA, _BOX = range(5)

# A batch keeps its models until their witnesses are read.  Against one
# model at a time, peak memory of the sound-random benchmark rose 5% with
# batches of 256 and 16% with 1,024; with 64, evaluating R's |S|<=3 class
# took four times as long as with 256.
_BATCH = 256


@dataclass(frozen=True)
class _Program:
    nodes: tuple[tuple, ...]
    roots: tuple[int, ...]


def _compile(formulas: Sequence[Formula]) -> _Program:
    index: dict = {}
    nodes: list[tuple] = []

    def emit(key: tuple) -> int:
        idx = index.get(key)
        if idx is None:
            idx = len(nodes)
            index[key] = idx
            nodes.append(key)
        return idx

    def walk(f: Formula) -> int:
        match f:
            case Atom(name):
                return emit((_ATOM, name, 0))
            case Not(child):
                return emit((_NOT, walk(child), 0))
            case And(left, right):
                return emit((_AND, walk(left), walk(right)))
            case Delta(child):
                return emit((_DELTA, walk(child), 0))
            case Box(child):
                return emit((_BOX, walk(child), 0))
        raise TypeError(f"not a formula: {f!r}")

    roots = tuple(walk(f) for f in formulas)
    return _Program(tuple(nodes), roots)


def _batches(models: Iterable[NeighborhoodModel]) -> Iterator[list[NeighborhoodModel]]:
    """The stream cut into batches of models with one state count.

    For each state count the batches grow from 16 models to _BATCH, so a
    scan that stops early, as a first_only scan does, draws at most about
    twice the models it needed.
    """
    for _, run in groupby(models, key=attrgetter("state_count")):
        size = 16
        while batch := list(islice(run, size)):
            yield batch
            size = min(2 * size, _BATCH)


def _minterms(planes: Sequence[int], ones: int) -> list[tuple[int, int]]:
    """(v, models) for each truth set v the planes take in some model."""
    terms = [(0, ones)]
    for j, plane in enumerate(planes):
        split = []
        for v, bits in terms:
            on = bits & plane
            if on:
                split.append((v | 1 << j, on))
            if on != bits:
                split.append((v, bits ^ on))
        terms = split
    return terms


def _batch_planes(program: _Program, batch: Sequence[NeighborhoodModel],
                  cache: dict | None = None) -> list[list[int]]:
    """Every node's bitplanes over a batch of models with one state count.

    Bit b of planes[node][j] is set iff the node holds at state j of
    batch[b].  cache maps (state count, collection) to the truth sets whose
    D the collection makes true; one scan shares it across its batches.
    """
    k = batch[0].state_count
    full = (1 << k) - 1
    ones = (1 << len(batch)) - 1
    if cache is None:
        cache = {}
    # Per state, the models of the batch grouped by their collection there;
    # the enumeration hands out runs of models with one frame.
    groups: list[dict[frozenset[int], int]] = [{} for _ in range(k)]
    start = 0
    for frame, run in groupby(batch, key=attrgetter("neighborhoods")):
        count = sum(1 for _ in run)
        bits = ((1 << count) - 1) << start
        start += count
        for by_coll, coll in zip(groups, frame):
            by_coll[coll] = by_coll.get(coll, 0) | bits

    def delta_sets(coll: frozenset[int]) -> frozenset[int]:
        key = (k, coll)
        sets = cache.get(key)
        if sets is None:
            sets = cache[key] = coll | {full ^ v for v in coll}
        return sets

    def tables(admitted) -> list[dict[int, int]]:
        # Per state j: truth set v -> the models whose collection at j admits v.
        result = []
        for by_coll in groups:
            table: dict[int, int] = {}
            for coll, bits in by_coll.items():
                for v in admitted(coll):
                    table[v] = table.get(v, 0) | bits
            result.append(table)
        return result

    lookups = {}
    planes: list[list[int]] = []
    append = planes.append
    for op, a, b in program.nodes:
        if op == _AND:
            append([x & y for x, y in zip(planes[a], planes[b])])
        elif op == _NOT:
            append([ones ^ x for x in planes[a]])
        elif op == _ATOM:
            by_value: dict[int, int] = {}
            for i, model in enumerate(batch):
                value = model.valuation.get(a, 0)
                by_value[value] = by_value.get(value, 0) | 1 << i
            append([sum(bits for value, bits in by_value.items() if value >> j & 1)
                    for j in range(k)])
        else:
            if op not in lookups:
                lookups[op] = tables(delta_sets if op == _DELTA else lambda coll: coll)
            terms = _minterms(planes[a], ones)
            row = []
            for table in lookups[op]:
                acc = 0
                for v, bits in terms:
                    acc |= bits & table.get(v, 0)
                row.append(acc)
            append(row)
    return planes


def _scan_instances(instances: Sequence[Formula], spec: FrameClassSpec,
                    cfg: SearchConfig, first_only: bool = False
                    ) -> tuple[int, list[tuple[int, Countermodel]]]:
    """Scan the class for countermodels to any instance.

    Returns (models checked, [(instance index, countermodel), ...]) in
    discovery order: stream position, then instance index.  Each instance
    contributes at most its first witness.  With first_only the scan stops
    at the overall first witness.  Requires the instances' atoms to be
    covered by cfg.atoms, and `[]` only in extended mode.
    """
    program = _compile(instances)
    _require_atoms((a for op, a, _ in program.nodes if op == _ATOM), cfg)
    if not cfg.extended and any(op == _BOX for op, _, _ in program.nodes):
        raise BoxNotAllowedError("box evaluation requires extended mode")
    if not instances:
        return 0, []
    roots = program.roots
    open_instances = set(range(len(instances)))
    found: list[tuple[int, Countermodel]] = []
    checked = 0
    cache: dict = {}
    for batch in _batches(cfg.models(spec)):
        planes = _batch_planes(program, batch, cache)
        ones = (1 << len(batch)) - 1
        hits = []
        for idx in open_instances:
            held = ones
            for plane in planes[roots[idx]]:
                held &= plane
            if held != ones:
                failing = ones ^ held
                hits.append(((failing & -failing).bit_length() - 1, idx))
        # Discovery order within the batch: model position, then instance.
        for b, idx in sorted(hits):
            model = batch[b]
            state = next(j for j, plane in enumerate(planes[roots[idx]])
                         if not plane >> b & 1)
            _verify_countermodel(model, state, instances[idx], cfg.extended)
            found.append((idx, Countermodel(model, state)))
            open_instances.discard(idx)
            if first_only or not open_instances:
                return checked + b + 1, found
        checked += len(batch)
    return checked, found


# ---------------------------------------------------------------------------
# Soundness reports.

@dataclass(frozen=True)
class SchemaSoundness:
    schema: str
    instance_count: int
    countermodels: tuple[tuple[Formula, Countermodel], ...]


@dataclass(frozen=True)
class SoundnessReport:
    system: str | None
    class_name: str
    scope: str
    per_schema: tuple[SchemaSoundness, ...]

    @property
    def ok(self) -> bool:
        return all(not entry.countermodels for entry in self.per_schema)


def _soundness_report(system: str | None, spec: FrameClassSpec,
                      schemas: Sequence[str], pool: Sequence[Formula],
                      cfg: SearchConfig) -> SoundnessReport:
    # One scan over the instances of all schemas; each schema keeps its own
    # witnesses in discovery order.
    groups = [schema_instances(name, pool) for name in schemas]
    instances = [f for group in groups for f in group]
    _, found = _scan_instances(instances, spec, cfg)
    entries = []
    start = 0
    for name, group in zip(schemas, groups):
        end = start + len(group)
        entries.append(SchemaSoundness(
            name, len(group),
            tuple((instances[idx], cm) for idx, cm in found if start <= idx < end)))
        start = end
    return SoundnessReport(system, spec.name(), cfg.scope(), tuple(entries))


def axiom_soundness_report(system: str, pool: Sequence[Formula],
                           cfg: SearchConfig) -> SoundnessReport:
    """Check every axiom instance of the system on its own frame class."""
    return _soundness_report(system, system_class(system), system_axioms(system),
                             pool, cfg)


def schema_soundness(schema: str, spec: FrameClassSpec, pool: Sequence[Formula],
                     cfg: SearchConfig) -> SoundnessReport:
    """Check one schema's instance pool on an arbitrary frame class."""
    return _soundness_report(None, spec, (schema,), pool, cfg)


# ---------------------------------------------------------------------------
# The cube of deductive strength.

class WitnessNotFoundError(Exception):
    """No separation witness within the configured bounds.

    This signals a search-bound problem, not a refutation of strictness.
    """

    def __init__(self, source: str, target: str, axiom: str):
        super().__init__(f"no witness found for {source} -> {target} "
                         f"(axiom {axiom}) within the configured bounds")
        self.arrow = (source, target, axiom)


@dataclass(frozen=True)
class ArrowWitness:
    source: str
    target: str
    axiom: str
    instance: Formula
    model: NeighborhoodModel
    state: int
    phase: str
    inclusion_ok: bool


def cube_arrows() -> tuple[tuple[str, str, str], ...]:
    """The 12 single-axiom extensions among the eight systems."""
    systems = list(SYSTEM_AXIOMS)
    arrows = []
    for source in systems:
        src = set(SYSTEM_AXIOMS[source])
        for target in systems:
            dst = set(SYSTEM_AXIOMS[target])
            extra = dst - src
            if src < dst and len(extra) == 1:
                arrows.append((source, target, extra.pop()))
    return tuple(arrows)


def cube_strictness(pool: Sequence[Formula] = DEFAULT_POOL,
                    max_states: int = 2,
                    trials: int = 2000,
                    random_max_states: int = 4,
                    seed: int = DEFAULT_SEED,
                    atoms: tuple[str, ...] = ("p", "q")) -> tuple[ArrowWitness, ...]:
    """One separation witness per cube arrow.

    For an arrow S1 -> S2 adding axiom A, the witness is a model in S1's
    frame class falsifying an A-instance: together with S1's soundness this
    shows S2 proves something S1 does not.  Syntactic inclusion of axiom
    sets is checked independently and reported alongside.

    Search runs exhaustively up to max_states and then, if needed, through
    seeded random models of escalating size up to random_max_states.  The
    fallback exists because some arrows have no small witnesses: adding C
    over the s or n classes needs three states, and adding M over the i,c
    or n classes needs four.  Raises WitnessNotFoundError when all phases
    come up empty.
    """
    witnesses = []
    for source, target, axiom in cube_arrows():
        spec = system_class(source)
        instances = schema_instances(axiom, pool)
        inclusion_ok = set(system_axioms(source)) < set(system_axioms(target))
        exhaustive_cfg = SearchConfig(mode="exhaustive", max_states=max_states,
                                      atoms=atoms)
        _, found = _scan_instances(instances, spec, exhaustive_cfg, first_only=True)
        phase = f"exhaustive |S|<={max_states}"
        if not found and trials > 0:
            for size in range(max_states + 1, random_max_states + 1):
                random_cfg = SearchConfig(mode="random", max_states=size,
                                          trials=trials, seed=seed, atoms=atoms)
                _, found = _scan_instances(instances, spec, random_cfg,
                                           first_only=True)
                if found:
                    phase = f"random trials={trials} |S|={size} seed={seed}"
                    break
        if not found:
            raise WitnessNotFoundError(source, target, axiom)
        idx, countermodel = found[0]
        witnesses.append(ArrowWitness(source, target, axiom, instances[idx],
                                      countermodel.model, countermodel.state,
                                      phase, inclusion_ok))
    return tuple(witnesses)


# ---------------------------------------------------------------------------
# Experiments around the almost-definability schema and almost monotonicity.

BOX_READING_NOTE = (
    "evidence only: the box is evaluated as plain neighborhood membership "
    "of the truth set, an experimental reading")


@dataclass(frozen=True)
class SchemaExperimentItem:
    phi: Formula
    chi: Formula
    verdict: Verdict


@dataclass(frozen=True)
class SchemaExperimentReport:
    class_name: str
    scope: str
    items: tuple[SchemaExperimentItem, ...]
    note: str = BOX_READING_NOTE

    @property
    def countermodel_count(self) -> int:
        return sum(1 for item in self.items if isinstance(item.verdict, Countermodel))


def schema_validity_experiment(spec: FrameClassSpec, cfg: SearchConfig,
                               pool: Sequence[Formula] = DEFAULT_POOL
                               ) -> SchemaExperimentReport:
    """Per-instance verdicts for Nb c -> ([] a <-> D a & D (c -> a)).

    There is no asserted expected outcome on neighborhood classes; the
    report is labeled evidence and carries the box-reading caveat.
    """
    cfg = replace(cfg, extended=True)
    triples = almost_definability_instances(pool)
    checked, found = _scan_instances([inst for _, _, inst in triples], spec, cfg)
    witnesses = dict(found)
    valid = Valid(cfg.scope(), checked)
    items = tuple(SchemaExperimentItem(phi, chi, witnesses.get(idx, valid))
                  for idx, (phi, chi, _) in enumerate(triples))
    return SchemaExperimentReport(spec.name(), cfg.scope(), items)


@dataclass(frozen=True)
class MonotonicityViolation:
    model: NeighborhoodModel
    state: int
    phi: Formula
    psi: Formula
    qualifier: Formula  # the witness making truth_set(phi) enter the selection


@dataclass(frozen=True)
class MonotonicityReport:
    models_checked: int
    violations: tuple[MonotonicityViolation, ...]
    inconclusive: bool


def _selection_masks(model: NeighborhoodModel, state: int,
                     universe: Universe) -> tuple[dict[int, Formula], list[int]]:
    """The almost-definability style selection at a state.

    A member's truth set qualifies when some member c is contingent here
    while both the member and c -> member are noncontingent.  Returns the
    qualifying truth sets (with one qualifying member each) and the member
    truth sets in member order.
    """
    theory = build_theory(model, state, universe)
    member_masks = [theory.truth_mask(m) for m in universe.members]
    qualifying: dict[int, Formula] = {}
    full = model.full_mask
    for i, f in enumerate(universe.members):
        mask = member_masks[i]
        if mask in qualifying or not theory.delta_true_of_mask(mask):
            continue
        for j, g in enumerate(universe.members):
            g_mask = member_masks[j]
            if theory.delta_true_of_mask(g_mask):
                continue  # g must be contingent here
            imp_mask = (full ^ g_mask) | mask  # truth set of g -> f
            if theory.delta_true_of_mask(imp_mask):
                qualifying[mask] = g
                break
    return qualifying, member_masks


def almost_monotonicity_experiment(universe: Universe, cfg: SearchConfig
                                   ) -> MonotonicityReport:
    """Hunt for monotonicity failures of the almost-definability selection.

    For sampled models, searches for members a, b with the truth set of a
    selected, truth set of a contained in that of b, but the truth set of b
    not selected.  Violations are re-verified by direct evaluation.  With no
    violation found the report says inconclusive rather than failing.
    """
    names = sorted({name for member in universe.members
                    for name in atoms_of(member)} - {RESERVED_ATOM})
    violations: list[MonotonicityViolation] = []
    checked = 0
    for model in model_stream(names, ALL_FRAMES, random_sizes=(cfg.max_states,),
                              trials=cfg.trials, seed=cfg.seed):
        checked += 1
        for state in model.states():
            qualifying, member_masks = _selection_masks(model, state, universe)
            if not qualifying:
                continue
            selected = set(qualifying)
            violation = None
            for i, phi in enumerate(universe.members):
                phi_mask = member_masks[i]
                if phi_mask not in selected:
                    continue
                for j, psi in enumerate(universe.members):
                    psi_mask = member_masks[j]
                    if phi_mask | psi_mask == psi_mask and psi_mask not in selected:
                        violation = MonotonicityViolation(
                            model, state, phi, psi, qualifying[phi_mask])
                        break
                if violation:
                    break
            if violation:
                _verify_violation(violation, universe)
                violations.append(violation)
                break
    return MonotonicityReport(checked, tuple(violations), not violations)


def _verify_violation(v: MonotonicityViolation, universe: Universe) -> None:
    """Recheck a reported violation with literal formula evaluation."""
    model, state = v.model, v.state
    chi = v.qualifier
    ok = (semantics.holds_at(model, state, delta(v.phi))
          and semantics.holds_at(model, state, delta(implies(chi, v.phi)))
          and semantics.holds_at(model, state, nabla(chi)))
    phi_set = semantics.truth_set(model, v.phi)
    psi_set = semantics.truth_set(model, v.psi)
    ok = ok and (phi_set | psi_set == psi_set)
    # psi's truth set must not qualify through any member pair.
    for rho in universe.members:
        if semantics.truth_set(model, rho) != psi_set:
            continue
        for chi2 in universe.members:
            if (semantics.holds_at(model, state, delta(rho))
                    and semantics.holds_at(model, state, delta(implies(chi2, rho)))
                    and semantics.holds_at(model, state, nabla(chi2))):
                ok = False
    if not ok:
        raise RuntimeError("internal error: monotonicity violation failed re-verification")

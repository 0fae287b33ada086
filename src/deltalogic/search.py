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
from inspect import signature
from itertools import groupby, islice, product
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
    RESERVED_ATOM,
)
from .lambdas import Universe
from .model import ALL_FRAMES, FrameClassSpec, NeighborhoodModel, model_stream
from .model import random_model  # noqa: F401  (benchmarks/selftest.py traces this binding)
from .proofs import SCHEMAS, SYSTEM_AXIOMS, system_axioms, system_class

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
    """All instances of a schema in proofs.SCHEMAS, metavariables drawn from
    the pool in product order."""
    if not pool:
        raise ValueError("instance pool must be nonempty")
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    build = SCHEMAS[schema]
    arity = len(signature(build).parameters)
    return tuple(build(*combo) for combo in product(pool, repeat=arity))


def almost_definability_instances(pool: Sequence[Formula]) -> tuple[tuple[Formula, Formula, Formula], ...]:
    """(phi, chi, instance) triples of Nb c -> ([] a <-> D a & D (c -> a))."""
    return tuple((f, c, implies(nabla(c), iff(box(f), and_(delta(f), delta(implies(c, f))))))
                 for f, c in product(pool, repeat=2))


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
    # id(node) -> node index, so a node object shared in the formula DAG (a
    # desugared <-> holds each operand twice) is walked once; the formulas
    # keep every node alive for the whole call.
    walked: dict[int, int] = {}

    def emit(key: tuple) -> int:
        idx = index.get(key)
        if idx is None:
            idx = len(nodes)
            index[key] = idx
            nodes.append(key)
        return idx

    def walk(f: Formula) -> int:
        idx = walked.get(id(f))
        if idx is None:
            idx = walked[id(f)] = emit_node(f)
        return idx

    def emit_node(f: Formula) -> int:
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


def _batch_planes(program: _Program, batch: Sequence[NeighborhoodModel]
                  ) -> list[list[int]]:
    """Every node's bitplanes over a batch of models with one state count.

    Bit b of planes[node][j] is set iff the node holds at state j of
    batch[b].
    """
    k = batch[0].state_count
    ones = (1 << len(batch)) - 1
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

    def tables(op: int) -> list[dict[int, int]]:
        # Per state j: truth set v -> the models whose collection at j admits v.
        result = []
        for by_coll in groups:
            table: dict[int, int] = {}
            for coll, bits in by_coll.items():
                admitted = semantics.noncontingent_sets(coll, k) if op == _DELTA else coll
                for v in admitted:
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
                lookups[op] = tables(op)
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
    for batch in _batches(cfg.models(spec)):
        planes = _batch_planes(program, batch)
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
                     members: Sequence[Formula], masks: Sequence[int]
                     ) -> dict[int, Formula]:
    """The almost-definability style selection at a state.

    masks are the members' truth sets.  A member truth set qualifies when
    it is noncontingent here and some member g is contingent here while
    g -> member is noncontingent; all three are lookups in the state's D
    table.  Returns the qualifying truth sets in first-occurrence order,
    each with the first such g in member order.
    """
    table = semantics.noncontingent_sets(model.neighborhoods[state],
                                         model.state_count)
    contingent = [(g, model.full_mask ^ g_mask)
                  for g, g_mask in zip(members, masks) if g_mask not in table]
    qualifying: dict[int, Formula] = {}
    for mask in dict.fromkeys(masks):
        if mask in table:
            # (full ^ g_mask) | mask is the truth set of g -> member.
            g = next((g for g, not_g in contingent if not_g | mask in table), None)
            if g is not None:
                qualifying[mask] = g
    return qualifying


def almost_monotonicity_experiment(universe: Universe, cfg: SearchConfig
                                   ) -> MonotonicityReport:
    """Hunt for monotonicity failures of the almost-definability selection.

    For sampled models, searches for members a, b with the truth set of a
    selected, truth set of a contained in that of b, but the truth set of b
    not selected.  Member truth sets are evaluated once per model.
    Violations are re-verified by direct evaluation.  With no violation
    found the report says inconclusive rather than failing.
    """
    members = universe.members
    names = sorted({name for member in members
                    for name in atoms_of(member)} - {RESERVED_ATOM})
    violations: list[MonotonicityViolation] = []
    checked = 0
    for model in model_stream(names, ALL_FRAMES, random_sizes=(cfg.max_states,),
                              trials=cfg.trials, seed=cfg.seed):
        checked += 1
        memo: dict = {}
        masks = [semantics.truth_set(model, f, memo=memo) for f in members]
        pairs = list(zip(members, masks))
        for state in model.states():
            qualifying = _selection_masks(model, state, members, masks)
            hit = next(((phi, psi, qualifying[phi_mask])
                        for phi, phi_mask in pairs if phi_mask in qualifying
                        for psi, psi_mask in pairs
                        if phi_mask | psi_mask == psi_mask
                        and psi_mask not in qualifying), None)
            if hit:
                violation = MonotonicityViolation(model, state, *hit)
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

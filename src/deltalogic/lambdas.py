"""Bounded-universe comparison of two canonical selection functions.

Both functions pick out, from a finite universe of formulas, the members
that behave as "necessary at a state".  Kuhn's version selects a member a
when D (a | b) holds for every member b; Humberstone's selects a when D a
holds and D b holds for every member b derivable from a (its simplified
form drops the D a conjunct).  On disjunction-closed universes the two
selections coincide, and the Kuhn-to-Humberstone inclusion needs no
closure at all; the comparison here makes that an executable property.

Maximal consistent sets are replaced by their finite semantic stand-in:
the theory of a model state, whose D-membership questions are settled by
evaluation.  Derivability between members is approximated by the
propositional skeleton oracle, which is all the equality argument uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import semantics
from .formula import (
    RESERVED_ATOM,
    And,
    Formula,
    Not,
    atoms_of,
    implies,
    is_tautology,
    or_,
    render,
)
from .model import ALL_FRAMES, NeighborhoodModel, model_stream


@dataclass(frozen=True)
class Universe:
    """A base list of formulas plus its pairwise-disjunction closure.

    members lists the base first, then each closure level in construction
    order, deduplicated by syntactic identity of the desugared forms.
    """

    base: tuple[Formula, ...]
    depth: int
    members: tuple[Formula, ...]


def close_universe(base: Sequence[Formula], depth: int) -> Universe:
    """Close the base under pairwise disjunction, depth levels deep."""
    if depth not in (1, 2):
        raise ValueError("closure depth must be 1 or 2")
    if not base:
        raise ValueError("universe base must be nonempty")
    members: list[Formula] = []
    seen: set[Formula] = set()
    for f in base:
        if f not in seen:
            seen.add(f)
            members.append(f)
    level = tuple(members)
    for _ in range(depth):
        disjunctions = [or_(f, g) for f in level for g in level]
        for f in disjunctions:
            if f not in seen:
                seen.add(f)
                members.append(f)
        level = tuple(members)
    return Universe(tuple(dict.fromkeys(base)), depth, tuple(members))


@lru_cache(maxsize=None)
def derives(f: Formula, g: Formula) -> bool:
    """True iff f -> g is a tautology at the propositional skeleton level."""
    return is_tautology(implies(f, g))


class TheorySet:
    """The formulas of a universe true at one model state.

    The stored theory is the set of members (and their D-prefixings) that
    hold at the state; D-questions about arbitrary formulas are answered
    semantically, which is what makes this a usable stand-in for a maximal
    consistent set.  Truth sets are cached; D verdicts are lookups in the
    state's semantics.noncontingent_sets table.
    """

    def __init__(self, model: NeighborhoodModel, state: int, universe: Universe):
        if not 0 <= state < model.state_count:
            raise ValueError(f"state {state} out of range")
        self.model = model
        self.state = state
        self.universe = universe
        self._masks: dict[Formula, int] = {}
        self._noncontingent = semantics.noncontingent_sets(
            model.neighborhoods[state], model.state_count)

    def truth_mask(self, f: Formula) -> int:
        mask = self._masks.get(f)
        if mask is None:
            mask = semantics.truth_set(self.model, f)
            self._masks[f] = mask
        return mask

    def delta_true_of_mask(self, mask: int) -> bool:
        """Whether a proposition with this truth set is noncontingent here."""
        return mask in self._noncontingent

    def contains(self, f: Formula) -> bool:
        """Membership of a universe member in the theory."""
        return bool(self.truth_mask(f) >> self.state & 1)

    def contains_delta(self, f: Formula) -> bool:
        """Whether D f belongs to the theory."""
        return self.delta_true_of_mask(self.truth_mask(f))

    def true_members(self) -> tuple[Formula, ...]:
        return tuple(f for f in self.universe.members if self.contains(f))

    def __repr__(self) -> str:
        return (f"TheorySet(state={self.state}, "
                f"true={[render(f) for f in self.true_members()]})")


def build_theory(model: NeighborhoodModel, state: int, universe: Universe) -> TheorySet:
    return TheorySet(model, state, universe)


# ---------------------------------------------------------------------------
# The two selection functions.

def lambda_kuhn(x: TheorySet, universe: Universe) -> tuple[Formula, ...]:
    """Members a with D (a | b) in the theory for every member b."""
    selected = []
    for f in universe.members:
        f_mask = x.truth_mask(f)
        if all(x.delta_true_of_mask(f_mask | x.truth_mask(g))
               for g in universe.members):
            selected.append(f)
    return tuple(selected)


def lambda_humberstone(x: TheorySet, universe: Universe,
                       variant: str = "original") -> tuple[Formula, ...]:
    """Members a whose derivable members are all noncontingent in the theory.

    The original variant additionally requires D a itself; the simplified
    variant drops that conjunct (derivability of a from a makes them agree
    on universe members).
    """
    if variant not in ("original", "simplified"):
        raise ValueError(f"unknown variant {variant!r}")
    selected = []
    for f in universe.members:
        if variant == "original" and not x.contains_delta(f):
            continue
        if all(x.contains_delta(g) for g in universe.members if derives(f, g)):
            selected.append(f)
    return tuple(selected)


# ---------------------------------------------------------------------------
# Comparison reports.

@dataclass(frozen=True)
class LambdaMismatch:
    phi: Formula
    quantifier_witness: Formula | None
    side: str  # "kuhn-only" or "humberstone-only"


@dataclass(frozen=True)
class StateComparison:
    state: int
    universe_size: int
    lambda_k: tuple[Formula, ...]
    lambda_h_original: tuple[Formula, ...]
    lambda_h_simplified: tuple[Formula, ...]
    mismatches: tuple[LambdaMismatch, ...]

    @property
    def equal(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class LambdaComparison:
    model: NeighborhoodModel
    states: tuple[StateComparison, ...]

    @property
    def equal(self) -> bool:
        return all(s.equal for s in self.states)


def _mismatch_witness(x: TheorySet, universe: Universe, phi: Formula,
                      side: str) -> LambdaMismatch:
    # Locate the quantifier instance that separates the two definitions.
    if side == "kuhn-only":
        for g in universe.members:
            if derives(phi, g) and not x.contains_delta(g):
                return LambdaMismatch(phi, g, side)
    else:
        phi_mask = x.truth_mask(phi)
        for g in universe.members:
            if not x.delta_true_of_mask(phi_mask | x.truth_mask(g)):
                return LambdaMismatch(phi, g, side)
    return LambdaMismatch(phi, None, side)


def compare_state(x: TheorySet, universe: Universe) -> StateComparison:
    lk = lambda_kuhn(x, universe)
    lho = lambda_humberstone(x, universe, "original")
    lhs = lambda_humberstone(x, universe, "simplified")
    k_set, ho_set, hs_set = set(lk), set(lho), set(lhs)
    mismatches = []
    for phi in universe.members:
        memberships = (phi in k_set, phi in ho_set, phi in hs_set)
        if all(memberships) or not any(memberships):
            continue
        side = "kuhn-only" if memberships[0] else "humberstone-only"
        mismatches.append(_mismatch_witness(x, universe, phi, side))
    return StateComparison(x.state, len(universe.members), lk, lho, lhs,
                           tuple(mismatches))


def compare_lambdas(model: NeighborhoodModel, universe: Universe) -> LambdaComparison:
    """Compare the two selections at every state of the model."""
    states = tuple(compare_state(build_theory(model, s, universe), universe)
                   for s in model.states())
    return LambdaComparison(model, states)


def kuhn_subset_of_humberstone(x: TheorySet, universe: Universe) -> bool:
    """The inclusion direction that holds for any universe, closed or not."""
    lk = set(lambda_kuhn(x, universe))
    return (lk <= set(lambda_humberstone(x, universe, "original"))
            and lk <= set(lambda_humberstone(x, universe, "simplified")))


@dataclass(frozen=True)
class EqualityScanReport:
    scope: str
    models_checked: int
    differences: tuple[tuple[NeighborhoodModel, StateComparison], ...]

    @property
    def ok(self) -> bool:
        return not self.differences


def _disjunction_plan(members: Sequence[Formula]
                      ) -> tuple[list[tuple[int, int] | None], list[int]]:
    """The disjunction structure of a universe, in member order.

    A member of the shape or_(x, y), with x and y earlier members, gets the
    indexes (a, b) of its parts; every other member is a leaf and gets None.
    Row i has bit j set iff members[i] derives members[j].  A leaf's row
    comes from derives; a disjunction's is the AND of its parts' rows, since
    x | y -> g is a tautology iff x -> g and y -> g both are.
    """
    index: dict[Formula, int] = {}
    parts: list[tuple[int, int] | None] = []
    rows: list[int] = []
    for i, f in enumerate(members):
        match f:
            case Not(And(Not(x), Not(y))) if x in index and y in index:
                a, b = index[x], index[y]
                parts.append((a, b))
                rows.append(rows[a] & rows[b])
            case _:
                parts.append(None)
                rows.append(sum(1 << j for j, g in enumerate(members)
                                if derives(f, g)))
        index.setdefault(f, i)
    return parts, rows


def lambda_equality_scan(base: Sequence[Formula], depth: int,
                         exhaustive_states: int = 0,
                         random_trials: int = 0, random_states: int = 3,
                         seed: int = 17) -> EqualityScanReport:
    """Run the comparison over a model sweep and collect any differences.

    Scans all models up to exhaustive_states over the base's atoms, then
    random_trials seeded random models with random_states states.  The sweep
    works from the universe's disjunction structure (_disjunction_plan): only
    leaf members are evaluated with truth_set and checked with derives, and a
    disjunction's truth set and derivability row come from its parts'.  At
    each state it decides Kuhn membership once per distinct truth set and
    both Humberstone memberships from the row and the members whose truth
    set is not in the state's noncontingent_sets table.  Any state where the
    three disagree is recomputed through the reference selection functions
    (compare_state) before being reported.
    """
    universe = close_universe(base, depth)
    members = universe.members
    names = sorted({name for member in members
                    for name in atoms_of(member)} - {RESERVED_ATOM})
    parts, rows = _disjunction_plan(members)
    differences = []
    checked = 0
    for model in model_stream(names, ALL_FRAMES,
                              exhaustive=range(1, exhaustive_states + 1),
                              random_sizes=(random_states,), trials=random_trials,
                              seed=seed):
        checked += 1
        memo: dict[int, tuple[Formula, int]] = {}
        masks: list[int] = []
        for f, part in zip(members, parts):
            masks.append(semantics.truth_set(model, f, memo=memo) if part is None
                         else masks[part[0]] | masks[part[1]])
        distinct = set(masks)
        for state, coll in enumerate(model.neighborhoods):
            table = semantics.noncontingent_sets(coll, model.state_count)
            in_k = {v: all(v | w in table for w in distinct) for v in distinct}
            bad = sum(1 << j for j, v in enumerate(masks) if v not in table)
            agree = True
            for v, row in zip(masks, rows):
                in_hs = not row & bad
                in_ho = in_hs and v in table
                if not in_k[v] == in_ho == in_hs:
                    agree = False
                    break
            if not agree:
                report = compare_state(build_theory(model, state, universe),
                                       universe)
                if not report.equal:
                    differences.append((model, report))
    scope = (f"exhaustive |S|<={exhaustive_states} plus random trials={random_trials} "
             f"|S|={random_states} seed={seed}")
    return EqualityScanReport(scope, checked, tuple(differences))

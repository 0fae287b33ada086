"""Truth evaluation of formulas on neighborhood models.

Truth sets are int bitmasks over the model's states.  The clauses:

    atom p      the valuation mask of p
    !a          complement
    a & b       intersection
    D a         true at s iff the truth set of a, or its complement,
                belongs to the state's neighborhood collection
    [] a        true at s iff the truth set of a belongs to the collection
                (extended mode only; an experimental necessity reading)

The reserved atom "_t" evaluates to the empty set; it only ever occurs
inside the desugared forms of top and bot, where its value cancels out.
All functions here are pure.
"""

from __future__ import annotations

from .formula import (
    And,
    Atom,
    Box,
    BoxNotAllowedError,
    Delta,
    Formula,
    Not,
    RESERVED_ATOM,
)
from .model import NeighborhoodModel


class UnknownAtomError(Exception):
    def __init__(self, name: str):
        super().__init__(f"atom {name!r} has no valuation in this model")
        self.name = name


def noncontingent_sets(coll: frozenset[int], state_count: int) -> frozenset[int]:
    """The truth sets whose D holds at a state with collection coll.

    This is the one lookup table of the D clause for the fast paths; the
    reference evaluator truth_set keeps the literal clause.
    """
    full = (1 << state_count) - 1
    return coll | {full ^ v for v in coll}


def truth_set(model: NeighborhoodModel, f: Formula, extended: bool = False,
              memo: dict[int, tuple[Formula, int]] | None = None) -> int:
    """The bitmask of states where f holds.

    Results are memoised per subformula object, keyed by id(), so a node
    that occurs many times in the tree (a desugared <-> holds each operand
    twice) is evaluated once, and a lookup costs no hashing of the subtree
    below it; the outcome does not depend on sharing.  Each
    entry also holds its node, which keeps the node alive, so its id
    cannot be reused by another object while the memo exists.  Callers
    evaluating many formulas on one model may pass a shared memo dict.
    """
    full = model.full_mask
    valuation = model.valuation
    neighborhoods = model.neighborhoods
    if memo is None:
        memo = {}

    def walk(g: Formula) -> int:
        cached = memo.get(id(g))
        if cached is not None:
            return cached[1]
        match g:
            case Atom(name):
                if name == RESERVED_ATOM:
                    value = 0
                elif name in valuation:
                    value = valuation[name]
                else:
                    raise UnknownAtomError(name)
            case Not(child):
                value = full ^ walk(child)
            case And(left, right):
                value = walk(left) & walk(right)
            case Delta(child):
                v = walk(child)
                comp = full ^ v
                value = 0
                for state, coll in enumerate(neighborhoods):
                    if v in coll or comp in coll:
                        value |= 1 << state
            case Box(child):
                if not extended:
                    raise BoxNotAllowedError(
                        "box evaluation requires extended mode")
                v = walk(child)
                value = 0
                for state, coll in enumerate(neighborhoods):
                    if v in coll:
                        value |= 1 << state
            case _:
                raise TypeError(f"not a formula: {g!r}")
        memo[id(g)] = (g, value)
        return value

    return walk(f)


def holds_at(model: NeighborhoodModel, state: int, f: Formula,
             extended: bool = False) -> bool:
    if not 0 <= state < model.state_count:
        raise ValueError(f"state {state} out of range")
    return bool(truth_set(model, f, extended) >> state & 1)


def valid_in_model(model: NeighborhoodModel, f: Formula,
                   extended: bool = False) -> bool:
    return truth_set(model, f, extended) == model.full_mask

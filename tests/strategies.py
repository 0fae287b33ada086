"""Hypothesis strategies for formulas and models."""

from hypothesis import strategies as st

from deltalogic.formula import and_, atom, box, delta, not_
from deltalogic.model import NeighborhoodModel


def formulas(atoms=("p", "q", "r"), max_depth=4, extended=False):
    base = st.sampled_from([atom(name) for name in atoms])

    def extend(children):
        unary = [children.map(not_), children.map(delta)]
        if extended:
            unary.append(children.map(box))
        return st.one_of(*unary, st.tuples(children, children).map(lambda t: and_(*t)))

    return st.recursive(base, extend, max_leaves=2 ** max_depth)


def propositional_formulas(atoms=("p", "q", "r", "s_"), max_depth=4):
    base = st.sampled_from([atom(name) for name in atoms])

    def extend(children):
        return st.one_of(
            children.map(not_),
            st.tuples(children, children).map(lambda t: and_(*t)))

    return st.recursive(base, extend, max_leaves=2 ** max_depth)


@st.composite
def models(draw, max_states=3, atoms=("p", "q"), min_states=1):
    state_count = draw(st.integers(min_states, max_states))
    subset = st.integers(0, (1 << state_count) - 1)
    neighborhoods = tuple(
        frozenset(draw(st.lists(subset, max_size=5)))
        for _ in range(state_count))
    valuation = {name: draw(subset) for name in atoms}
    return NeighborhoodModel(state_count, neighborhoods, valuation)

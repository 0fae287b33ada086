import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_core_formula
from strategies import formulas, models

from deltalogic.formula import (
    BoxNotAllowedError,
    atom,
    box,
    delta,
    iff,
    implies,
    nabla,
    not_,
    or_,
    parse,
    top,
)
from deltalogic.model import (
    FrameClassSpec,
    NeighborhoodModel,
    enumerate_models,
    make_model,
    random_model,
)
from deltalogic.semantics import (
    UnknownAtomError,
    holds_at,
    noncontingent_sets,
    truth_set,
    valid_in_model,
)


class TestTruthSet:
    def test_delta_clause(self, two_state_model):
        # At state 0 the truth set {0} is a neighborhood; at state 1 the
        # collection is empty, so nothing is noncontingent there.
        assert truth_set(two_state_model, parse("D p")) == 0b01

    def test_delta_symmetric_in_complement(self, two_state_model):
        assert truth_set(two_state_model, parse("D !p")) == \
            truth_set(two_state_model, parse("D p"))

    def test_top_contingent_on_empty_collection(self):
        m = make_model(1, [[]], {})
        assert truth_set(m, parse("D top")) == 0

    def test_propositional_clauses(self, two_state_model):
        assert truth_set(two_state_model, parse("p")) == 0b01
        assert truth_set(two_state_model, parse("!p")) == 0b10
        assert truth_set(two_state_model, parse("p & !p")) == 0

    def test_unknown_atom(self, two_state_model):
        with pytest.raises(UnknownAtomError):
            truth_set(two_state_model, parse("z"))

    def test_box_needs_extended_mode(self, two_state_model):
        f = box(atom("p"))
        with pytest.raises(BoxNotAllowedError):
            truth_set(two_state_model, f)
        assert truth_set(two_state_model, f, extended=True) == 0b01

    def test_shared_memo_matches_fresh_evaluation(self, two_state_model):
        memo = {}
        f = parse("D p & D !p")
        assert truth_set(two_state_model, f, memo=memo) == \
            truth_set(two_state_model, f)
        assert truth_set(two_state_model, parse("D p"), memo=memo) == 0b01

    @given(models(atoms=("p", "q", "r")), st.lists(st.integers(0, 2 ** 32), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_shared_memo_over_dropped_formulas(self, m, seeds):
        # The memo is keyed by node identity.  Every formula here is built
        # for one call and dropped after it, so its nodes' addresses get
        # reused by the next formula's nodes; the memo must pin its nodes
        # so that no stale entry answers for a new node.
        memo = {}
        for seed in seeds:
            expected = truth_set(m, random_core_formula(random.Random(seed), 5))
            assert truth_set(m, random_core_formula(random.Random(seed), 5),
                             memo=memo) == expected

    @given(models(atoms=("p", "q")))
    @settings(max_examples=25, deadline=None)
    def test_long_iff_chain_is_linear(self, m):
        # q <-> (q <-> (... <-> p)): each iff holds its operands twice, so
        # the tree doubles per level while the object graph grows by a few
        # nodes.  Two levels cancel, so 40 levels are p and 41 are q <-> p.
        p, q = atom("p"), atom("q")
        chain = p
        for level in range(1, 42):
            chain = iff(q, chain)
            if level >= 40:
                expected = m.valuation["p"] if level % 2 == 0 else (
                    m.full_mask ^ m.valuation["p"] ^ m.valuation["q"])
                assert truth_set(m, chain) == expected


class TestNoncontingentSets:
    @given(models(max_states=3, atoms=()))
    @settings(max_examples=150, deadline=None)
    def test_table_agrees_with_the_delta_clause(self, m):
        # Every truth set v, given to p: the fast-path table and the
        # recursive evaluator's D clause must agree at every state.
        for v in range(1 << m.state_count):
            probe = NeighborhoodModel(m.state_count, m.neighborhoods, {"p": v})
            d_mask = truth_set(probe, parse("D p"))
            for state, coll in enumerate(m.neighborhoods):
                assert (v in noncontingent_sets(coll, m.state_count)) == \
                    bool(d_mask >> state & 1)

    def test_complement_of_a_neighborhood_is_noncontingent(self):
        assert noncontingent_sets(frozenset({0b001}), 3) == {0b001, 0b110}
        assert noncontingent_sets(frozenset(), 2) == frozenset()


class TestHoldsAt:
    def test_examples(self, two_state_model):
        assert holds_at(two_state_model, 0, parse("D p"))
        assert holds_at(two_state_model, 1, parse("Nb p"))
        assert holds_at(two_state_model, 0, parse("p | !p"))
        assert holds_at(two_state_model, 1, parse("p | !p"))

    def test_state_range(self, two_state_model):
        with pytest.raises(ValueError):
            holds_at(two_state_model, 2, parse("p"))


class TestValidInModel:
    def test_equivalence_axiom_everywhere(self):
        f = parse("D p <-> D !p")
        for m in enumerate_models(1, ["p"]):
            assert valid_in_model(m, f)
        for seed in range(30):
            assert valid_in_model(random_model(4, ["p"], seed=seed), f)

    def test_delta_top_fails_on_empty_collections(self):
        assert not valid_in_model(make_model(1, [[]], {}), parse("D top"))

    def test_monotony_axiom_on_supplemented_models(self):
        f = parse("D p -> D (p | q) | D (!p | q)")
        spec = FrameClassSpec.parse("s")
        for seed in range(30):
            m = random_model(3, ["p", "q"], spec, seed=seed)
            assert valid_in_model(m, f)


class TestInvariants:
    @given(models(), formulas(atoms=("p", "q")))
    @settings(max_examples=150, deadline=None)
    def test_delta_symmetry(self, m, f):
        assert truth_set(m, delta(f)) == truth_set(m, delta(not_(f)))

    @given(models(), formulas(atoms=("p", "q")))
    @settings(max_examples=150, deadline=None)
    def test_nabla_is_complement_of_delta(self, m, f):
        assert truth_set(m, nabla(f)) == m.full_mask ^ truth_set(m, delta(f))

    @given(models(), formulas(atoms=("p", "q")))
    @settings(max_examples=150, deadline=None)
    def test_extended_bridge(self, m, f):
        bridge = or_(box(f), box(not_(f)))
        assert truth_set(m, delta(f)) == truth_set(m, bridge, extended=True)

    @given(models(max_states=3))
    @settings(max_examples=100, deadline=None)
    def test_monotone_bridge_on_supplemented_models(self, m):
        from deltalogic.model import supplementation

        m = supplementation(m)
        p, q = atom("p"), atom("q")
        pq = or_(p, q)
        for s in m.states():
            if holds_at(m, s, box(p), extended=True):
                assert holds_at(m, s, box(pq), extended=True)

    def test_top_is_globally_true(self, two_state_model):
        assert valid_in_model(two_state_model, top())
        assert truth_set(two_state_model, parse("bot")) == 0

    def test_iff_clause_via_desugaring(self, two_state_model):
        f = iff(atom("p"), atom("p"))
        assert valid_in_model(two_state_model, f)
        g = implies(atom("p"), or_(atom("p"), atom("q")))
        m = make_model(2, [[], []], {"p": [0], "q": [1]})
        assert valid_in_model(m, g)

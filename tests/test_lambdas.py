import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import formulas, models

from deltalogic.formula import (
    RESERVED_ATOM,
    Delta,
    and_,
    atom,
    atoms_of,
    delta,
    iter_subformulas,
    not_,
    or_,
    parse,
    render,
)
from deltalogic.lambdas import (
    Universe,
    _disjunction_plan,
    build_theory,
    close_universe,
    compare_lambdas,
    compare_state,
    derives,
    kuhn_subset_of_humberstone,
    lambda_equality_scan,
    lambda_humberstone,
    lambda_kuhn,
)
from deltalogic.model import ALL_FRAMES, make_model, model_stream, random_model
from deltalogic.semantics import holds_at, noncontingent_sets, truth_set


P, Q = atom("p"), atom("q")


class TestCloseUniverse:
    def test_depth_one_keeps_syntactic_variants(self):
        u = close_universe([P, Q], 1)
        assert u.members == (P, Q, or_(P, P), or_(P, Q), or_(Q, P), or_(Q, Q))

    def test_single_base(self):
        u = close_universe([P], 1)
        assert u.members == (P, or_(P, P))

    def test_depth_two_contains_nested_disjunction(self):
        u = close_universe([P, Q], 2)
        assert or_(or_(P, Q), P) in u.members
        # 2 base + 4 first-level disjunctions + 32 fresh second-level ones.
        assert len(u.members) == 38

    def test_duplicates_removed_by_desugared_identity(self):
        u = close_universe([P, parse("p"), Q], 1)
        assert u.members.count(P) == 1

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            close_universe([P], 3)
        with pytest.raises(ValueError):
            close_universe([], 1)


class TestDerives:
    def test_weakening(self):
        assert derives(P, or_(P, Q))

    def test_no_strengthening(self):
        assert not derives(or_(P, Q), P)

    def test_reflexive(self):
        for f in (P, or_(P, Q), delta(P)):
            assert derives(f, f)

    def test_skeleton_level(self):
        # D p -> p is not a propositional skeleton tautology.
        assert not derives(delta(P), P)


class TestTheorySet:
    def test_membership_matches_evaluation(self, two_state_model):
        u = close_universe([P], 1)
        x = build_theory(two_state_model, 0, u)
        assert x.contains(P)
        assert x.contains_delta(P)
        y = build_theory(two_state_model, 1, u)
        assert not y.contains(P)
        assert not y.contains_delta(P)

    def test_delta_queries_work_beyond_members(self, two_state_model):
        u = close_universe([P], 1)
        x = build_theory(two_state_model, 0, u)
        f = or_(P, not_(P))
        assert x.contains_delta(f) == holds_at(two_state_model, 0, delta(f))

    def test_state_validated(self, two_state_model):
        with pytest.raises(ValueError):
            build_theory(two_state_model, 5, close_universe([P], 1))


class TestLambdaKuhn:
    def test_spec_model(self):
        m = make_model(2, [[[0], [0, 1]], [[0], [0, 1]]], {"p": [0]})
        u = close_universe([P], 1)
        x = build_theory(m, 0, u)
        # Oracle: direct evaluation of every quantifier instance.
        for f in u.members:
            assert all(holds_at(m, 0, delta(or_(f, g))) for g in u.members)
        assert lambda_kuhn(x, u) == u.members

    def test_empty_collections_select_nothing(self):
        m = make_model(2, [[], []], {"p": [0]})
        u = close_universe([P], 1)
        assert lambda_kuhn(build_theory(m, 0, u), u) == ()

    def test_full_powerset_selects_everything(self):
        subsets = [[], [0], [1], [0, 1]]
        m = make_model(2, [subsets, subsets], {"p": [0]})
        u = close_universe([P], 1)
        assert lambda_kuhn(build_theory(m, 0, u), u) == u.members

    def test_agrees_with_literal_construction(self):
        # The mask-based implementation must match building D (f | g) and
        # evaluating it, pair by pair.
        m = random_model(3, ["p", "q"], seed=23)
        u = close_universe([P, Q], 1)
        for state in m.states():
            x = build_theory(m, state, u)
            expected = tuple(
                f for f in u.members
                if all(holds_at(m, state, delta(or_(f, g))) for g in u.members))
            assert lambda_kuhn(x, u) == expected


class TestLambdaHumberstone:
    def test_spec_model_both_variants(self):
        m = make_model(2, [[[0], [0, 1]], [[0], [0, 1]]], {"p": [0]})
        u = close_universe([P], 1)
        x = build_theory(m, 0, u)
        assert lambda_humberstone(x, u, "original") == u.members
        assert lambda_humberstone(x, u, "simplified") == u.members

    def test_empty_collections(self):
        m = make_model(2, [[], []], {"p": [0]})
        u = close_universe([P], 1)
        x = build_theory(m, 0, u)
        assert lambda_humberstone(x, u, "original") == ()
        assert lambda_humberstone(x, u, "simplified") == ()

    def test_variants_agree_on_members(self):
        # derives(f, f) holds, so the simplified form implies D f anyway.
        for seed in range(40):
            m = random_model(3, ["p", "q"], seed=seed)
            u = close_universe([P, Q], 1)
            for state in m.states():
                x = build_theory(m, state, u)
                assert lambda_humberstone(x, u, "original") == \
                    lambda_humberstone(x, u, "simplified")

    def test_unknown_variant(self):
        m = make_model(1, [[]], {"p": [0]})
        u = close_universe([P], 1)
        with pytest.raises(ValueError):
            lambda_humberstone(build_theory(m, 0, u), u, "fast")

    def test_agrees_with_literal_construction(self):
        m = random_model(3, ["p", "q"], seed=29)
        u = close_universe([P, Q], 1)
        for state in m.states():
            x = build_theory(m, state, u)
            expected = tuple(
                f for f in u.members
                if holds_at(m, state, delta(f))
                and all(holds_at(m, state, delta(g))
                        for g in u.members if derives(f, g)))
            assert lambda_humberstone(x, u, "original") == expected


class TestEquality:
    def test_single_state_model_with_empty_set_neighborhood(self):
        m = make_model(1, [[[]]], {"p": [0]})
        u = close_universe([P], 1)
        x = build_theory(m, 0, u)
        assert lambda_kuhn(x, u) == u.members
        assert lambda_humberstone(x, u) == u.members

    def test_compare_lambdas_reports_equality(self):
        m = make_model(2, [[[0]], []], {"p": [0], "q": [1]})
        comparison = compare_lambdas(m, close_universe([P, Q], 1))
        assert comparison.equal
        assert all(s.universe_size == 6 for s in comparison.states)

    def test_exhaustive_two_states_depth_one(self):
        report = lambda_equality_scan([P, Q], 1, exhaustive_states=2)
        assert report.ok
        assert report.models_checked == 16 + 4096

    def test_random_three_states_depth_two(self):
        report = lambda_equality_scan([P, Q], 2, random_trials=300,
                                      random_states=3, seed=11)
        assert report.ok
        assert report.models_checked == 300

    @given(models(max_states=3))
    @settings(max_examples=60, deadline=None)
    def test_equality_property(self, m):
        u = close_universe([P, Q], 1)
        comparison = compare_lambdas(m, u)
        assert comparison.equal


def _reference_sweep(base, depth, exhaustive_states=0, random_trials=0,
                     random_states=3, seed=17):
    """The scan member by member: every pair through derives and truth_set."""
    universe = close_universe(base, depth)
    members = universe.members
    names = sorted({name for f in members for name in atoms_of(f)} - {RESERVED_ATOM})
    derived = [[j for j, g in enumerate(members) if derives(f, g)] for f in members]
    differences = []
    checked = 0
    for model in model_stream(names, ALL_FRAMES,
                              exhaustive=range(1, exhaustive_states + 1),
                              random_sizes=(random_states,), trials=random_trials,
                              seed=seed):
        checked += 1
        masks = [truth_set(model, f) for f in members]
        for state, coll in enumerate(model.neighborhoods):
            ok = noncontingent_sets(coll, model.state_count).__contains__
            for i, row in enumerate(derived):
                in_k = all(ok(masks[i] | v) for v in masks)
                in_hs = all(ok(masks[j]) for j in row)
                in_ho = ok(masks[i]) and in_hs
                if not in_k == in_ho == in_hs:
                    report = compare_state(build_theory(model, state, universe),
                                           universe)
                    if not report.equal:
                        differences.append((model, report))
                    break
    scope = (f"exhaustive |S|<={exhaustive_states} plus random trials={random_trials} "
             f"|S|={random_states} seed={seed}")
    return scope, checked, tuple(differences)


def _scan_result(*args, **kwargs):
    report = lambda_equality_scan(*args, **kwargs)
    return report.scope, report.models_checked, report.differences


def _has_delta(base):
    return any(isinstance(g, Delta) for f in base for g in iter_subformulas(f))


class TestScanPlan:
    """lambda_equality_scan returns what the member-by-member sweep returns."""

    def test_pinned_unclosed_universe_has_differences(self):
        # Depth 1 over three formulas is not disjunction-closed, so states
        # disagree and every difference goes through compare_state.
        base = tuple(map(parse, ("p", "D D p", "q")))
        kwargs = dict(exhaustive_states=1, random_trials=60, random_states=3, seed=5)
        result = _scan_result(base, 1, **kwargs)
        assert result == _reference_sweep(base, 1, **kwargs)
        assert result[1] == 76
        assert len(result[2]) == 30

    @given(st.data(), st.integers(1, 2), st.integers(0, 1), st.integers(0, 12),
           st.integers(2, 3), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_equals_reference_sweep(self, data, depth, exhaustive, trials,
                                    states, seed):
        # Three formulas at depth 2 make about 150 members, and the
        # reference derives every pair, so depth 2 takes at most two.
        base = data.draw(st.lists(formulas(max_depth=2), min_size=1,
                                  max_size=4 - depth, unique=True).filter(_has_delta))
        kwargs = dict(exhaustive_states=exhaustive, random_trials=trials,
                      random_states=states, seed=seed)
        assert _scan_result(base, depth, **kwargs) == \
            _reference_sweep(base, depth, **kwargs)

    @pytest.mark.parametrize("texts,depth", (
        (("p", "q"), 2),
        (("p", "D D p", "q"), 1),
        (("p | q", "p", "q"), 1),
        (("D p & !q", "q | D q"), 2),
    ))
    def test_rows_equal_pairwise_derives(self, texts, depth):
        members = close_universe(tuple(map(parse, texts)), depth).members
        parts, rows = _disjunction_plan(members)
        for i, f in enumerate(members):
            assert rows[i] == sum(1 << j for j, g in enumerate(members)
                                  if derives(f, g)), render(f)
            if parts[i] is not None:
                a, b = parts[i]
                assert a < i and b < i
                assert f == or_(members[a], members[b])

    def test_parts_found_by_shape(self):
        # Only the base members are leaves of the depth-2 universe over p, q;
        # a base member written as a disjunction of earlier ones is split too.
        parts, _ = _disjunction_plan(close_universe([P, Q], 2).members)
        assert [i for i, part in enumerate(parts) if part is None] == [0, 1]
        parts, _ = _disjunction_plan((P, Q, parse("p | q"), parse("q | r")))
        assert parts == [None, None, (0, 1), None]


class TestInclusionWithoutClosure:
    @given(models(max_states=3), st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_kuhn_subset_of_humberstone_any_universe(self, m, seed):
        import random as _random

        from conftest import random_core_formula

        rng = _random.Random(seed)
        members = tuple(dict.fromkeys(
            random_core_formula(rng, 2, atoms=("p", "q"))
            for _ in range(rng.randint(1, 5))))
        universe = Universe(members, 0, members)
        for state in m.states():
            x = build_theory(m, state, universe)
            assert kuhn_subset_of_humberstone(x, universe)

    def test_non_closed_universe_example(self):
        members = (P, Q, and_(P, Q))
        universe = Universe(members, 0, members)
        m = make_model(2, [[[0]], [[1]]], {"p": [0], "q": [1]})
        for state in m.states():
            x = build_theory(m, state, universe)
            assert kuhn_subset_of_humberstone(x, universe)


class TestMismatchReporting:
    def test_difference_on_unclosed_universe_names_witnesses(self):
        # Without disjunction closure the two selections can drift apart:
        # here D p holds but D (p | q) does not, so p is selected by the
        # derivability form and not by the disjunction form.
        members = (P, Q)
        universe = Universe(members, 0, members)
        m = make_model(3, [[[0]]] * 3, {"p": [0], "q": [1]})
        from deltalogic.lambdas import compare_state

        result = compare_state(build_theory(m, 0, universe), universe)
        assert not result.equal
        (mismatch,) = result.mismatches
        assert mismatch.phi == P
        assert mismatch.side == "humberstone-only"
        assert mismatch.quantifier_witness == Q


class TestKuhnAlmostMonotone:
    def test_on_closed_universes(self):
        # If a member is selected and its truth set grows to another member's,
        # that member is selected too, provided the universe is closed enough
        # for the quantifier argument (depth covering the base size).
        u = close_universe([P, Q], 1)
        for seed in range(60):
            m = random_model(3, ["p", "q"], seed=seed)
            for state in m.states():
                x = build_theory(m, state, u)
                selected = set(lambda_kuhn(x, u))
                for f in u.members:
                    for g in u.members:
                        if f in selected and \
                           truth_set(m, f) | truth_set(m, g) == truth_set(m, g):
                            assert g in selected, (seed, state, render(f), render(g))

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from strategies import formulas, models

from deltalogic.formula import (RESERVED_ATOM, BoxNotAllowedError, and_, atom, atoms_of,
                                 box, delta, iff, implies, nabla, not_, or_, parse, top)
from deltalogic.lambdas import build_theory, close_universe
from deltalogic.model import (
    ALL_FRAMES,
    FrameClassSpec,
    NeighborhoodModel,
    QUASI_FILTERS,
    enumerate_models,
    make_model,
    model_stream,
)
from deltalogic.proofs import SCHEMAS, SYSTEM_IDS, match_schema, system_axioms, system_class
from deltalogic.search import (
    Countermodel,
    DEFAULT_POOL,
    MonotonicityReport,
    MonotonicityViolation,
    SearchConfig,
    Valid,
    almost_definability_instances,
    almost_monotonicity_experiment,
    axiom_soundness_report,
    check_validity,
    cube_arrows,
    cube_strictness,
    schema_instances,
    schema_soundness,
    schema_validity_experiment,
    _selection_masks,
    _soundness_report,
)
from deltalogic.semantics import holds_at, truth_set


DELTA_C = parse("D p & D q -> D (p & q)")


class TestCheckValidity:
    def test_textbook_countermodel_confirmed_by_evaluation(self):
        # The classic two-state witness: N(s)={{0}} everywhere, p true at 0,
        # q true at 1.  Both D p and D q hold at state 0 (the q case through
        # the complement), while p & q expresses the empty set, which is
        # neither a neighborhood nor the complement of one.
        m = make_model(2, [[[0]], [[0]]], {"p": [0], "q": [1]})
        assert FrameClassSpec.parse("i").matches(m)
        assert holds_at(m, 0, parse("D p"))
        assert holds_at(m, 0, parse("D q"))
        assert not holds_at(m, 0, parse("D (p & q)"))
        assert not holds_at(m, 0, DELTA_C)

    def test_delta_c_invalid_on_intersection_frames(self):
        verdict = check_validity(DELTA_C, FrameClassSpec.parse("i"),
                                 SearchConfig(mode="exhaustive", max_states=2))
        assert isinstance(verdict, Countermodel)
        assert verdict.model.state_count <= 2
        # Independent re-verification through the plain evaluator.
        assert not holds_at(verdict.model, verdict.state, DELTA_C)
        assert FrameClassSpec.parse("i").matches(verdict.model)

    def test_delta_c_valid_on_quasi_filters(self):
        verdict = check_validity(DELTA_C, QUASI_FILTERS,
                                 SearchConfig(mode="exhaustive", max_states=2))
        assert isinstance(verdict, Valid)

    def test_delta_top_fails_on_quasi_filters(self):
        verdict = check_validity(parse("D top"), QUASI_FILTERS,
                                 SearchConfig(mode="exhaustive", max_states=1))
        assert isinstance(verdict, Countermodel)
        assert verdict.model.neighborhoods == (frozenset(),)

    def test_valid_never_claims_more_than_scope(self):
        verdict = check_validity(parse("D p <-> D !p"), ALL_FRAMES,
                                 SearchConfig(mode="exhaustive", max_states=2))
        assert isinstance(verdict, Valid)
        assert "|S|<=2" in verdict.scope

    def test_exhaustive_visits_full_combinatorial_count(self):
        spec = FrameClassSpec.parse("s")
        verdict = check_validity(parse("D p -> D (p | q) | D (!p | q)"), spec,
                                 SearchConfig(mode="exhaustive", max_states=2))
        expected = sum(1 for k in (1, 2)
                       for _ in enumerate_models(k, ("p", "q"), spec))
        assert isinstance(verdict, Valid)
        assert verdict.models_checked == expected

    def test_random_mode_is_reproducible(self):
        cfg = SearchConfig(mode="random", max_states=3, trials=200, seed=5)
        first = check_validity(DELTA_C, FrameClassSpec.parse("i"), cfg)
        second = check_validity(DELTA_C, FrameClassSpec.parse("i"), cfg)
        assert type(first) is type(second)
        if isinstance(first, Countermodel):
            assert first == second

    def test_atoms_must_cover_formula(self):
        with pytest.raises(ValueError):
            check_validity(parse("D z"), ALL_FRAMES, SearchConfig())

    def test_first_witness_is_deterministic(self):
        cfg = SearchConfig(mode="exhaustive", max_states=2)
        a = check_validity(DELTA_C, FrameClassSpec.parse("i"), cfg)
        b = check_validity(DELTA_C, FrameClassSpec.parse("i"), cfg)
        assert a == b


class TestSchemaInstances:
    def test_counts_over_default_pool(self):
        assert len(schema_instances("EQU", DEFAULT_POOL)) == 6
        assert len(schema_instances("M", DEFAULT_POOL)) == 216
        assert len(schema_instances("C", DEFAULT_POOL)) == 36
        assert len(schema_instances("N", DEFAULT_POOL)) == 1
        assert len(schema_instances("M'", DEFAULT_POOL)) == 216
        assert len(schema_instances("C'", DEFAULT_POOL)) == 36

    def test_n_instance_is_delta_top(self):
        assert schema_instances("N", DEFAULT_POOL) == (delta(top()),)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            schema_instances("EQU", ())

    def test_almost_definability_pairs(self):
        triples = almost_definability_instances((atom("p"), atom("q")))
        assert len(triples) == 4

    @pytest.mark.parametrize("schema, arity", [("EQU", 1), ("M", 3), ("C", 2), ("N", 0),
                                               ("M'", 3), ("C'", 2)])
    def test_instances_match_the_proof_schemas(self, schema, arity):
        # proofs.SCHEMAS builds both the checker's patterns and the pools:
        # each instance must match with phi, psi, chi bound in product order.
        names = ("phi", "psi", "chi")[:arity]
        expected = [dict(zip(names, combo))
                    for combo in product(DEFAULT_POOL, repeat=arity)]
        assert [match_schema(schema, inst)
                for inst in schema_instances(schema, DEFAULT_POOL)] == expected


def _reference_instances(schema, pool):
    """The schema shapes written out independently of proofs.SCHEMAS."""
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
    assert schema == "C'"
    return tuple(
        implies(and_(delta(implies(g, f)), delta(implies(not_(g), f))), delta(f))
        for f in pool for g in pool)


def _reference_almost_definability(pool):
    return tuple((f, c, implies(nabla(c), iff(box(f), and_(delta(f), delta(implies(c, f))))))
                 for f in pool for c in pool)


class TestSchemaReference:
    def test_default_pool(self):
        assert tuple(SCHEMAS) == ("EQU", "M", "C", "N", "M'", "C'")
        for schema in SCHEMAS:
            assert schema_instances(schema, DEFAULT_POOL) == \
                _reference_instances(schema, DEFAULT_POOL), schema
        assert almost_definability_instances(DEFAULT_POOL) == \
            _reference_almost_definability(DEFAULT_POOL)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(formulas(("p", "q"), max_depth=2, extended=True), min_size=1, max_size=3))
    def test_random_pools(self, pool):
        for schema in SCHEMAS:
            assert schema_instances(schema, pool) == _reference_instances(schema, pool)
        assert almost_definability_instances(pool) == _reference_almost_definability(pool)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unknown schema 'X'"):
            schema_instances("X", DEFAULT_POOL)


class TestSoundness:
    @pytest.mark.parametrize("system", SYSTEM_IDS)
    def test_exhaustive_two_states(self, system):
        report = axiom_soundness_report(
            system, DEFAULT_POOL, SearchConfig(mode="exhaustive", max_states=2))
        assert report.ok, report

    def test_random_probe(self):
        report = axiom_soundness_report(
            "K", DEFAULT_POOL,
            SearchConfig(mode="random", max_states=3, trials=500, seed=3))
        assert report.ok

    def test_schema_soundness_m_prime(self):
        report = schema_soundness("M'", FrameClassSpec.parse("s"), DEFAULT_POOL,
                                  SearchConfig(mode="exhaustive", max_states=2))
        assert report.ok

    def test_scan_countermodels_are_reverified(self):
        report = schema_soundness("C", FrameClassSpec.parse("i"), DEFAULT_POOL,
                                  SearchConfig(mode="exhaustive", max_states=2))
        assert not report.ok
        for instance, cm in report.per_schema[0].countermodels:
            assert not holds_at(cm.model, cm.state, instance)

    def test_pool_atoms_must_be_covered(self):
        # Reading the uncovered r as the empty set would hide the witnesses.
        pool = [atom("r"), atom("p")]
        spec = FrameClassSpec.parse("s")
        cfg = SearchConfig(mode="random", max_states=3, trials=3000)
        with pytest.raises(ValueError, match=r"\['r'\] not in cfg.atoms"):
            schema_soundness("C", spec, pool, cfg)
        report = schema_soundness("C", spec, pool, replace(cfg, atoms=("p", "r")))
        assert len(report.per_schema[0].countermodels) == 2

    def test_other_pool_scans_check_atoms(self):
        with pytest.raises(ValueError, match="not in cfg.atoms"):
            cube_strictness(atoms=("p",))
        with pytest.raises(ValueError, match="not in cfg.atoms"):
            schema_validity_experiment(ALL_FRAMES, SearchConfig(atoms=("q",)))

    def test_box_needs_extended_mode_before_any_model(self, monkeypatch):
        import deltalogic.search as search_module

        def no_models(*args, **kwargs):
            raise AssertionError("a model was drawn")

        pool = [box(atom("p"))]
        with monkeypatch.context() as patch:
            patch.setattr(search_module, "model_stream", no_models)
            with pytest.raises(BoxNotAllowedError):
                schema_soundness("EQU", ALL_FRAMES, pool, SearchConfig())
        # D a <-> D !a holds on every frame, whatever a is.
        report = schema_soundness("EQU", ALL_FRAMES, pool, SearchConfig(extended=True))
        assert report.ok
        experiment = schema_validity_experiment(ALL_FRAMES, SearchConfig())
        assert experiment.countermodel_count > 0


SCAN_CONFIGS = (SearchConfig(mode="exhaustive", max_states=2),
                SearchConfig(mode="random", max_states=3, trials=200))


class TestFusedSoundness:
    """One scan per report gives the entries of one scan per schema."""

    @pytest.mark.parametrize("cfg", SCAN_CONFIGS, ids=("exhaustive", "random"))
    @pytest.mark.parametrize("system", SYSTEM_IDS)
    def test_system_report_equals_per_schema_scans(self, system, cfg):
        spec = system_class(system)
        report = axiom_soundness_report(system, DEFAULT_POOL, cfg)
        assert report.per_schema == tuple(
            schema_soundness(name, spec, DEFAULT_POOL, cfg).per_schema[0]
            for name in system_axioms(system))

    @pytest.mark.parametrize("cfg", SCAN_CONFIGS, ids=("exhaustive", "random"))
    @pytest.mark.parametrize("system", SYSTEM_IDS)
    def test_witnesses_equal_per_schema_scans(self, system, cfg):
        # Off the system's own class the schemas fail, so entries carry
        # witnesses, which must match instance for instance and in order.
        pool = (atom("p"), not_(atom("q")), and_(atom("p"), atom("q")))
        schemas = system_axioms(system)
        report = _soundness_report(None, ALL_FRAMES, schemas, pool, cfg)
        assert report.per_schema == tuple(
            schema_soundness(name, ALL_FRAMES, pool, cfg).per_schema[0]
            for name in schemas)

    def test_witnesses_stay_in_discovery_order(self):
        # M instance 5 is refuted by an earlier model than instances 3 and 4,
        # so the entry lists witnesses by stream position, not by instance.
        pool = (atom("p"), atom("q"))
        spec = FrameClassSpec.parse("c")
        cfg = SearchConfig(mode="exhaustive", max_states=2)
        instances = schema_instances("M", pool)
        entry = _soundness_report(None, spec, ("EQU", "M", "C"), pool,
                                  cfg).per_schema[1]
        assert [instances.index(f) for f, _ in entry.countermodels] == [2, 5, 3, 4]
        stream = list(cfg.models(spec))
        positions = [stream.index(cm.model) for _, cm in entry.countermodels]
        assert positions == sorted(positions)
        assert entry == schema_soundness("M", spec, pool, cfg).per_schema[0]


def _reference_scan(instances, spec, cfg, first_only=False):
    """The scan order, one model and one truth_set call at a time."""
    open_instances = list(range(len(instances)))
    found = []
    checked = 0
    for model in cfg.models(spec):
        checked += 1
        for idx in list(open_instances):
            mask = truth_set(model, instances[idx], extended=cfg.extended)
            if mask != model.full_mask:
                missing = model.full_mask ^ mask
                state = (missing & -missing).bit_length() - 1
                found.append((idx, Countermodel(model, state)))
                open_instances.remove(idx)
                if first_only:
                    return checked, found
        if not open_instances:
            break
    return checked, found


# On i,c,n frames over p, q with |S|<=3 (8,068 models: 4, 64, then 8,000 of
# three states), LATE are first refuted at stream positions 479, 791, 2383
# and 2589, the last two in one batch; VALID_ICN holds throughout.
ICN = FrameClassSpec.parse("i,c,n")
ICN_CFG = SearchConfig(mode="exhaustive", max_states=3)
LATE = tuple(parse(text) for text in (
    "!(D p & !D (p & D q) & !p)",
    "!(D q & D D q & !D (D p & !D q))",
    "!(!D q & D D q & !D (p & D q))",
    "!(!D p & D D p & !D (D p & !D q))",
))
VALID_ICN = parse("!(D p & !D (p & q) & !D (p & !q) & !D (!p & q))")


class TestScanOrder:
    """_scan_instances returns what the plain per-model loop returns."""

    def test_first_only_stops_at_first_witness(self):
        from deltalogic.search import _scan_instances

        instances = (LATE[3], LATE[1], LATE[2])
        result = _scan_instances(instances, ICN, ICN_CFG, first_only=True)
        assert result == _reference_scan(instances, ICN, ICN_CFG, first_only=True)
        assert result[0] == 792 and [idx for idx, _ in result[1]] == [1]

    def test_first_only_breaks_ties_by_instance(self):
        from deltalogic.search import _scan_instances

        instances = (LATE[0], atom("q"), atom("p"))
        result = _scan_instances(instances, ICN, ICN_CFG, first_only=True)
        assert result == _reference_scan(instances, ICN, ICN_CFG, first_only=True)
        assert result[0] == 1 and [idx for idx, _ in result[1]] == [1]

    def test_checked_stops_at_closing_model(self):
        from deltalogic.search import _scan_instances

        instances = (LATE[3], parse("D p -> D q"), atom("p"), LATE[0])
        result = _scan_instances(instances, ICN, ICN_CFG)
        assert result == _reference_scan(instances, ICN, ICN_CFG)
        assert result[0] == 2590
        assert [idx for idx, _ in result[1]] == [2, 1, 3, 0]

    @pytest.mark.parametrize("cfg", (ICN_CFG, SearchConfig(
        mode="random", max_states=3, trials=600)), ids=("exhaustive", "random"))
    def test_whole_stream_across_batches_and_sizes(self, cfg):
        from deltalogic.search import _BATCH, _scan_instances

        instances = (VALID_ICN, parse("D p -> D q")) + LATE
        stream_length = sum(1 for _ in cfg.models(ICN))
        assert stream_length > 2 * _BATCH
        result = _scan_instances(instances, ICN, cfg)
        assert result == _reference_scan(instances, ICN, cfg)
        assert result[0] == stream_length
        if cfg.mode == "exhaustive":
            assert [idx for idx, _ in result[1]] == [1, 2, 3, 4, 5]


def _admissible_collections(spec: FrameClassSpec, state_count: int):
    from deltalogic.model import collection_has_property

    subset_space = 1 << state_count
    for index in range(1 << subset_space):
        coll = frozenset(m for m in range(subset_space) if index >> m & 1)
        if all(collection_has_property(coll, p, state_count)
               for p in spec.required):
            yield coll


def _schema_falsifiable(schema: str, spec: FrameClassSpec, state_count: int) -> bool:
    """Whether some in-class model of this size falsifies a pool instance.

    Axiom instances put every atom directly under one noncontingency
    operator, so their truth at a state depends only on the valuation and
    that state's collection: a countermodel of a given size exists iff one
    exists whose states all share one admissible collection, and then the
    instance fails at every state. This check evaluates the schema's truth
    condition directly as mask arithmetic, independently of the package's
    evaluators.
    """
    assert schema in ("M", "C")
    full = (1 << state_count) - 1
    for coll in _admissible_collections(spec, state_count):
        def noncontingent(mask):
            return mask in coll or (full ^ mask) in coll

        for p_mask, q_mask in product(range(full + 1), repeat=2):
            pool = (p_mask, q_mask, full ^ p_mask, full ^ q_mask,
                    p_mask & q_mask, p_mask | q_mask)
            if schema == "M":
                for f in pool:
                    if not noncontingent(f):
                        continue
                    if any(not noncontingent(f | g) for g in pool) and \
                       any(not noncontingent((full ^ f) | h) for h in pool):
                        return True
            else:
                for f in pool:
                    if not noncontingent(f):
                        continue
                    for g in pool:
                        if noncontingent(g) and not noncontingent(f & g):
                            return True
    return False


def _schema_falsifiable_via_ast(schema: str, spec: FrameClassSpec,
                                state_count: int) -> bool:
    """Same question answered through the formula evaluator, for cross-checks."""
    instances = schema_instances(schema, DEFAULT_POOL)
    for coll in _admissible_collections(spec, state_count):
        for p_mask, q_mask in product(range(1 << state_count), repeat=2):
            model = NeighborhoodModel(state_count, (coll,) * state_count,
                                      {"p": p_mask, "q": q_mask})
            memo = {}
            for instance in instances:
                if truth_set(model, instance, memo=memo) != model.full_mask:
                    return True
    return False


class TestMinimalWitnessSizes:
    """Independent confirmation of where separation witnesses can exist."""

    def test_oracles_agree_at_small_sizes(self):
        for schema in ("M", "C"):
            for text in ("i,c", "n", "s"):
                spec = FrameClassSpec.parse(text)
                for k in (1, 2):
                    assert _schema_falsifiable(schema, spec, k) == \
                        _schema_falsifiable_via_ast(schema, spec, k)

    def test_delta_m_needs_four_states_on_ic_frames(self):
        spec = FrameClassSpec.parse("i,c")
        assert not _schema_falsifiable("M", spec, 1)
        assert not _schema_falsifiable("M", spec, 2)
        assert not _schema_falsifiable("M", spec, 3)
        assert _schema_falsifiable("M", spec, 4)

    def test_delta_m_needs_four_states_on_n_frames(self):
        spec = FrameClassSpec.parse("n")
        assert not _schema_falsifiable("M", spec, 1)
        assert not _schema_falsifiable("M", spec, 2)
        assert not _schema_falsifiable("M", spec, 3)
        assert _schema_falsifiable("M", spec, 4)

    def test_delta_m_needs_four_states_on_icn_frames(self):
        spec = FrameClassSpec.parse("i,c,n")
        for k in (1, 2, 3):
            assert not _schema_falsifiable("M", spec, k)
        assert _schema_falsifiable("M", spec, 4)

    def test_delta_c_needs_three_states_on_s_frames(self):
        spec = FrameClassSpec.parse("s")
        assert not _schema_falsifiable("C", spec, 2)
        assert _schema_falsifiable("C", spec, 3)

    def test_delta_c_needs_three_states_on_n_frames(self):
        spec = FrameClassSpec.parse("n")
        assert not _schema_falsifiable("C", spec, 2)
        assert _schema_falsifiable("C", spec, 3)

    def test_delta_c_needs_three_states_on_sn_frames(self):
        spec = FrameClassSpec.parse("s,n")
        assert not _schema_falsifiable("C", spec, 2)
        assert _schema_falsifiable("C", spec, 3)

    def test_hand_built_witnesses_exist_at_size_four(self):
        # i,c collection {0,1},{2,3} with complements; p={0,1}, q={1,2}.
        m = make_model(4, [[[], [0, 1], [2, 3], [0, 1, 2, 3]]] * 4,
                       {"p": [0, 1], "q": [1, 2]})
        assert FrameClassSpec.parse("i,c,n").matches(m)
        instance = parse("D p -> D (p | q) | D (!p | q)")
        assert not holds_at(m, 0, instance)


class TestCube:
    def test_twelve_arrows(self):
        arrows = cube_arrows()
        assert len(arrows) == 12
        expected = {
            ("E", "M", "M"), ("E", "EC", "C"), ("E", "EN", "N"),
            ("M", "R", "C"), ("M", "EMN", "N"),
            ("EC", "R", "M"), ("EC", "ECN", "N"),
            ("EN", "EMN", "M"), ("EN", "ECN", "C"),
            ("R", "K", "N"), ("EMN", "K", "C"), ("ECN", "K", "M"),
        }
        assert set(arrows) == expected

    def test_all_witnesses_found_and_reverified(self):
        witnesses = cube_strictness()
        assert len(witnesses) == 12
        for w in witnesses:
            assert w.inclusion_ok
            assert system_class(w.source).matches(w.model)
            assert not holds_at(w.model, w.state, w.instance)

    def test_r_to_k_witness_shape(self):
        witnesses = {(w.source, w.target): w for w in cube_strictness()}
        w = witnesses[("R", "K")]
        assert w.axiom == "N"
        assert w.model.state_count == 1
        assert w.model.neighborhoods == (frozenset(),)
        assert w.instance == delta(top())

    def test_deterministic(self):
        assert cube_strictness() == cube_strictness()

    def test_witness_not_found_when_bounds_too_tight(self):
        from deltalogic.search import WitnessNotFoundError

        with pytest.raises(WitnessNotFoundError):
            cube_strictness(max_states=1, trials=0)


def _model_mask(node_planes, b):
    """Model b's truth set of a node, read off the node's bitplanes."""
    return sum((plane >> b & 1) << j for j, plane in enumerate(node_planes))


class TestCompiledEngine:
    """The pooled scan engine must agree with the recursive evaluator."""

    def test_masks_match_truth_set_on_random_inputs(self):
        import random as _random

        from conftest import random_core_formula
        from deltalogic.model import random_model
        from deltalogic.search import _batch_planes, _compile

        rng = _random.Random(3)
        formulas = [random_core_formula(rng, depth=4) for _ in range(40)]
        program = _compile(formulas)
        batch = [random_model(3, ["p", "q", "r"], seed=seed) for seed in range(25)]
        planes = _batch_planes(program, batch)
        for b, model in enumerate(batch):
            for f, root in zip(formulas, program.roots):
                assert _model_mask(planes[root], b) == truth_set(model, f)

    def test_engine_handles_box_nodes(self):
        from deltalogic.model import random_model
        from deltalogic.search import _batch_planes, _compile

        f = box(parse("p | q"))
        program = _compile([f])
        batch = [random_model(3, ["p", "q"], seed=seed) for seed in range(10)]
        planes = _batch_planes(program, batch)
        for b, model in enumerate(batch):
            assert _model_mask(planes[program.roots[0]], b) == \
                truth_set(model, f, extended=True)

    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
               models(max_states=k, min_states=k), min_size=1, max_size=12)),
           st.lists(formulas(atoms=("p", "q"), extended=True), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_batch_masks_equal_truth_set(self, batch, pool):
        from deltalogic.search import _batch_planes, _compile

        program = _compile(pool)
        planes = _batch_planes(program, batch)
        for b, model in enumerate(batch):
            for f, root in zip(pool, program.roots):
                assert _model_mask(planes[root], b) == truth_set(model, f, extended=True)

    def test_shared_subterms_compile_once(self):
        from deltalogic.search import _compile

        f = parse("D (p | q) & !(D (p | q))")
        program = _compile([f])
        delta_nodes = [n for n in program.nodes if n[0] == 3]
        assert len(delta_nodes) == 1


class TestSchemaExperiment:
    def test_report_is_labeled_evidence(self):
        report = schema_validity_experiment(
            ALL_FRAMES, SearchConfig(mode="exhaustive", max_states=1),
            pool=(atom("p"), atom("q")))
        assert "evidence" in report.note
        assert len(report.items) == 4

    def test_countermodels_reverified(self):
        pool = (atom("p"), atom("q"))
        report = schema_validity_experiment(
            QUASI_FILTERS, SearchConfig(mode="exhaustive", max_states=2), pool=pool)
        instances = {(phi, chi): inst
                     for phi, chi, inst in almost_definability_instances(pool)}
        for item in report.items:
            if isinstance(item.verdict, Countermodel):
                instance = instances[(item.phi, item.chi)]
                assert not holds_at(item.verdict.model, item.verdict.state,
                                    instance, extended=True)

    def test_verdicts_equal_per_instance_validity(self):
        cfg = SearchConfig(mode="exhaustive", max_states=2, extended=True)
        report = schema_validity_experiment(QUASI_FILTERS, cfg)
        assert [item.verdict for item in report.items] == [
            check_validity(instance, QUASI_FILTERS, cfg)
            for _, _, instance in almost_definability_instances(DEFAULT_POOL)]

    def test_report_is_deterministic(self):
        pool = (atom("p"), atom("q"))
        cfg = SearchConfig(mode="exhaustive", max_states=2)
        assert schema_validity_experiment(QUASI_FILTERS, cfg, pool) == \
            schema_validity_experiment(QUASI_FILTERS, cfg, pool)


def _reference_selection_masks(model, state, universe):
    """The TheorySet-based selection, as it stood before the D-table scan."""
    theory = build_theory(model, state, universe)
    member_masks = [theory.truth_mask(m) for m in universe.members]
    qualifying = {}
    full = model.full_mask
    for i, f in enumerate(universe.members):
        mask = member_masks[i]
        if mask in qualifying or not theory.delta_true_of_mask(mask):
            continue
        for j, g in enumerate(universe.members):
            g_mask = member_masks[j]
            if theory.delta_true_of_mask(g_mask):
                continue
            if theory.delta_true_of_mask((full ^ g_mask) | mask):
                qualifying[mask] = g
                break
    return qualifying, member_masks


def _reference_experiment(universe, cfg):
    """The per-state TheorySet experiment loop, without re-verification."""
    names = sorted({name for member in universe.members
                    for name in atoms_of(member)} - {RESERVED_ATOM})
    violations = []
    checked = 0
    for model in model_stream(names, ALL_FRAMES, random_sizes=(cfg.max_states,),
                              trials=cfg.trials, seed=cfg.seed):
        checked += 1
        for state in model.states():
            qualifying, member_masks = _reference_selection_masks(model, state, universe)
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
                violations.append(violation)
                break
    return MonotonicityReport(checked, tuple(violations), not violations)


def _select(model, state, universe):
    masks = [truth_set(model, f) for f in universe.members]
    return _selection_masks(model, state, universe.members, masks), masks


_SELECTION_BASE = st.lists(
    st.sampled_from([parse(text) for text in
                     ("p", "q", "D p", "p & q", "!p", "D (p & q)", "p -> q")]),
    min_size=1, max_size=3)


class TestAlmostMonotonicity:
    def test_full_powerset_yields_empty_selection(self):
        subsets = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
        m = make_model(3, [subsets] * 3, {"p": [0], "q": [1, 2]})
        universe = close_universe((atom("p"), atom("q")), 1)
        qualifying, _ = _select(m, 0, universe)
        assert qualifying == {}

    def test_empty_collections_yield_empty_selection(self):
        m = make_model(3, [[], [], []], {"p": [0], "q": [1, 2]})
        universe = close_universe((atom("p"), atom("q")), 1)
        qualifying, _ = _select(m, 0, universe)
        assert qualifying == {}

    def test_constructed_violation(self):
        # N(s)={{0}}: p's truth set qualifies through the contingent p | q,
        # yet the superset truth set of p | q itself does not qualify.
        m = make_model(3, [[[0]]] * 3, {"p": [0], "q": [1, 2]})
        universe = close_universe((atom("p"), atom("q")), 1)
        qualifying, masks = _select(m, 0, universe)
        assert 0b001 in qualifying
        assert 0b111 not in qualifying

    @given(models(max_states=4), _SELECTION_BASE, st.sampled_from([1, 2]))
    @settings(max_examples=150, deadline=None)
    def test_selection_equals_theory_set_reference(self, m, base, depth):
        universe = close_universe(base, depth)
        for state in m.states():
            qualifying, masks = _select(m, state, universe)
            expected, expected_masks = _reference_selection_masks(m, state, universe)
            assert masks == expected_masks
            # Insertion order is the selection's order: compare item lists.
            assert list(qualifying.items()) == list(expected.items())

    @pytest.mark.parametrize("base, depth, cfg", [
        # The CLI default, which is also acceptance criterion 8's run.
        ("p,q", 1, SearchConfig(mode="random", max_states=3, trials=1000, seed=17)),
        ("p,q", 2, SearchConfig(mode="random", max_states=3, trials=200, seed=17)),
        ("p,q", 1, SearchConfig(mode="random", max_states=4, trials=300, seed=5)),
        ("p,q", 1, SearchConfig(mode="random", max_states=1, trials=50, seed=1)),
        ("p", 1, SearchConfig(mode="random", max_states=2, trials=200, seed=3)),
        ("p,q,D p", 1, SearchConfig(mode="random", max_states=3, trials=300, seed=17)),
        ("p & q,D p", 2, SearchConfig(mode="random", max_states=2, trials=100, seed=9)),
        ("p,!q,p -> q", 1, SearchConfig(mode="random", max_states=4, trials=150, seed=2)),
    ])
    def test_experiment_equals_theory_set_reference(self, base, depth, cfg):
        universe = close_universe([parse(text) for text in base.split(",")], depth)
        assert (almost_monotonicity_experiment(universe, cfg)
                == _reference_experiment(universe, cfg))

    def test_experiment_finds_reverified_violations(self):
        universe = close_universe((atom("p"), atom("q")), 1)
        cfg = SearchConfig(mode="random", max_states=3, trials=300, seed=17)
        report = almost_monotonicity_experiment(universe, cfg)
        assert report.models_checked == 300
        assert not report.inconclusive
        assert report.violations

    def test_inconclusive_when_nothing_found(self):
        universe = close_universe((atom("p"),), 1)
        cfg = SearchConfig(mode="random", max_states=1, trials=5, seed=1)
        report = almost_monotonicity_experiment(universe, cfg)
        if not report.violations:
            assert report.inconclusive

import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import models

from deltalogic import proofs
from deltalogic.model import (
    ALL_FRAMES,
    BoundExceededError,
    FILTERS,
    FrameClassSpec,
    NeighborhoodModel,
    PROPERTY_LETTERS,
    QUASI_FILTERS,
    _repair_collection,
    collection_has_property,
    enumerate_models,
    has_property,
    make_model,
    model_from_dict,
    model_from_json,
    model_stream,
    model_to_dict,
    model_to_json,
    random_model,
    satisfies_class,
    subset_mask,
    supplementation,
)


class TestProperties:
    def test_superset_closed_but_not_complement_closed(self):
        m = make_model(2, [[[0], [0, 1]], [[0], [0, 1]]], {})
        assert has_property(m, "s")
        assert not has_property(m, "c")

    def test_empty_collections_vacuous_for_i_and_s(self):
        m = make_model(2, [[], []], {})
        assert has_property(m, "i")
        assert has_property(m, "s")
        assert not has_property(m, "n")

    def test_missing_intersection(self):
        m = make_model(2, [[[0], [1]], []], {})
        assert not has_property(m, "i")

    def test_unknown_property_rejected(self):
        m = make_model(1, [[]], {})
        with pytest.raises(ValueError):
            has_property(m, "x")


class TestFrameClassSpec:
    def test_aliases(self):
        assert FrameClassSpec.parse("all").required == frozenset()
        assert FrameClassSpec.parse("quasi-filter").required == frozenset("is")
        assert FrameClassSpec.parse("filter").required == frozenset("isn")

    def test_letter_lists(self):
        assert FrameClassSpec.parse("i,c").required == frozenset("ic")
        assert FrameClassSpec.parse("s").required == frozenset("s")

    def test_unknown_letters_rejected(self):
        with pytest.raises(ValueError):
            FrameClassSpec.parse("i,z")

    def test_names_round_trip(self):
        for text in ("all", "quasi-filter", "filter", "i,c", "s,n"):
            assert FrameClassSpec.parse(FrameClassSpec.parse(text).name()).required \
                == FrameClassSpec.parse(text).required

    def test_empty_collections_are_quasi_filter_but_not_filter(self):
        m = make_model(2, [[], []], {})
        assert satisfies_class(m, QUASI_FILTERS)
        assert not satisfies_class(m, FILTERS)

    def test_full_powerset_satisfies_everything(self):
        subsets = [[0], [1], [0, 1], []]
        m = make_model(2, [subsets, subsets], {})
        for text in ("all", "n", "i", "s", "c", "quasi-filter", "filter"):
            assert satisfies_class(m, FrameClassSpec.parse(text))


class TestSupplementation:
    def test_forced_superset(self):
        m = make_model(2, [[[0]], [[0]]], {})
        plus = supplementation(m)
        assert plus.neighborhoods[0] == frozenset({0b01, 0b11})

    def test_empty_stays_empty(self):
        m = make_model(2, [[], []], {})
        assert supplementation(m) == m

    def test_valuation_untouched(self):
        m = make_model(2, [[[0]], []], {"p": [1]})
        assert supplementation(m).valuation == m.valuation

    @given(models())
    def test_result_supplemented_grows_and_idempotent(self, m):
        plus = supplementation(m)
        assert has_property(plus, "s")
        assert all(a <= b for a, b in zip(m.neighborhoods, plus.neighborhoods))
        assert supplementation(plus) == plus

    def test_preserves_i_and_n_exhaustively_at_two_states(self):
        for m in enumerate_models(2, ()):
            plus = supplementation(m)
            for prop in "in":
                if has_property(m, prop):
                    assert has_property(plus, prop)


class TestEnumerate:
    def test_count_one_state_one_atom(self):
        # Independent oracle: collections times valuations.
        expected = 2 ** (2 ** 1) * 2 ** 1
        assert sum(1 for _ in enumerate_models(1, ["p"])) == expected == 8

    def test_count_two_states_no_atoms(self):
        expected = (2 ** (2 ** 2)) ** 2
        assert sum(1 for _ in enumerate_models(2, [])) == expected == 256

    def test_filter_class_forces_unit_at_one_state(self):
        for m in enumerate_models(1, [], FILTERS):
            assert 0b1 in m.neighborhoods[0]

    def test_class_filtering_matches_predicate_count(self):
        for text in ("s", "i,c", "quasi-filter", "filter", "n"):
            spec = FrameClassSpec.parse(text)
            by_filter = sum(1 for _ in enumerate_models(2, [], spec))
            by_predicate = sum(1 for m in enumerate_models(2, [])
                               if spec.matches(m))
            assert by_filter == by_predicate

    def test_no_duplicates(self):
        seen = {model_to_json(m) for m in enumerate_models(2, ["p"])}
        assert len(seen) == 256 * 4

    def test_deterministic_order(self):
        first = [model_to_json(m) for m in enumerate_models(2, ["p"], QUASI_FILTERS)]
        second = [model_to_json(m) for m in enumerate_models(2, ["p"], QUASI_FILTERS)]
        assert first == second

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            next(enumerate_models(4, []))

    def test_reserved_atom_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_models(1, ["_t"]))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_models(1, ["p", "p"]))


def _validated_models(state_count, atoms, spec):
    """enumerate_models' stream, every model built by the validating constructor."""
    subsets = range(1 << state_count)
    collections = (frozenset(mask for mask in subsets if index >> mask & 1)
                   for index in range(1 << len(subsets)))
    admissible = [coll for coll in collections
                  if all(collection_has_property(coll, p, state_count)
                         for p in spec.required)]
    return [NeighborhoodModel(state_count, colls, dict(zip(atoms, masks)))
            for colls in product(admissible, repeat=state_count)
            for masks in product(subsets, repeat=len(atoms))]


class TestTrustedConstruction:
    """Generated models skip per-model validation; the result must not differ."""

    @pytest.mark.parametrize("text,atoms,sizes", [
        ("filter", ("p",), (1, 2, 3)),
        ("i,c,n", ("p",), (1, 2, 3)),
        ("all", ("p", "q"), (1, 2)),
    ])
    def test_enumeration_equals_validated_construction(self, text, atoms, sizes):
        spec = FrameClassSpec.parse(text)
        for k in sizes:
            stream = list(enumerate_models(k, atoms, spec))
            assert stream == _validated_models(k, atoms, spec)
            # Each model owns its valuation dict.
            assert len({id(m.valuation) for m in stream}) == len(stream)

    @given(st.integers(1, 5), st.integers(0, 2 ** 48),
           st.sampled_from(["all", "i", "s", "c", "quasi-filter", "filter", "i,c,n"]))
    @settings(max_examples=60, deadline=None)
    def test_random_models_revalidate(self, size, seed, text):
        m = random_model(size, ["p", "q"], FrameClassSpec.parse(text), seed=seed)
        assert NeighborhoodModel(m.state_count, m.neighborhoods, dict(m.valuation)) == m

    # Per defect: states, then neighborhoods and valuation as state index lists.
    _BAD = {
        "neighborhood mask out of range": (2, [[[0, 2]], []], {}),
        "valuation mask out of range": (2, [[], []], {"p": [2]}),
        "reserved atom": (1, [[]], {"_t": [0]}),
        "wrong collection count": (2, [[]], {}),
        "zero states": (0, [], {}),
    }

    @pytest.mark.parametrize("defect", sorted(_BAD))
    @pytest.mark.parametrize("build", [
        lambda n, colls, val: NeighborhoodModel(
            n, tuple(frozenset(sum(1 << i for i in subset) for subset in coll)
                     for coll in colls),
            {name: sum(1 << i for i in states) for name, states in val.items()}),
        make_model,
        lambda n, colls, val: model_from_dict(
            {"states": n, "neighborhoods": colls, "valuation": val}),
    ], ids=["NeighborhoodModel", "make_model", "model_from_dict"])
    def test_bad_input_still_raises(self, defect, build):
        with pytest.raises(ValueError):
            build(*self._BAD[defect])


class TestRandomModel:
    def test_same_seed_same_model(self):
        a = random_model(4, ["p"], ALL_FRAMES, seed=123)
        b = random_model(4, ["p"], ALL_FRAMES, seed=123)
        assert a == b

    @given(st.integers(0, 10_000), st.sampled_from(
        ["all", "n", "i", "s", "c", "i,c", "quasi-filter", "filter", "i,c,n"]))
    @settings(max_examples=60, deadline=None)
    def test_repair_reaches_requested_class(self, seed, text):
        spec = FrameClassSpec.parse(text)
        m = random_model(4, ["p", "q"], spec, seed=seed)
        assert spec.matches(m)

    def test_complement_closure_only(self):
        for seed in range(25):
            m = random_model(5, [], FrameClassSpec.parse("c"), seed=seed)
            assert has_property(m, "c")

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            random_model(17, [], ALL_FRAMES, seed=0)


def _closed(coll, step):
    """The least superset of coll that step maps to itself."""
    while True:
        grown = step(coll)
        if grown == coll:
            return coll
        coll = grown


def _reference_repair(coll, spec, state_count):
    """Repair as a plain fixpoint loop: every closure spec demands, in the
    order i, s, n, c, rerun until a whole pass changes nothing."""
    full = (1 << state_count) - 1
    closures = {
        "i": lambda c: _closed(c, lambda c: c | {x & y for x in c for y in c}),
        "s": lambda c: _closed(c, lambda c: c | {x | 1 << b for x in c
                                                 for b in range(state_count)}),
        "n": lambda c: c | {full},
        "c": lambda c: c | {full ^ x for x in c},
    }
    while True:
        before = coll
        for prop in "isnc":
            if prop in spec.required:
                coll = closures[prop](coll)
        if coll == before:
            return coll


def _reference_random_model(state_count, atoms, spec, seed):
    """random_model's draws, repaired by _reference_repair."""
    rng = random.Random(seed)
    subset_space = 1 << state_count
    colls = []
    for _ in range(state_count):
        count = rng.randint(0, 3)
        coll = frozenset(rng.randrange(subset_space) for _ in range(count))
        colls.append(_reference_repair(coll, spec, state_count))
    valuation = {name: rng.randrange(subset_space) for name in atoms}
    return NeighborhoodModel(state_count, tuple(colls), valuation)


_PROPERTY_SUBSETS = [frozenset(letters) for r in range(len(PROPERTY_LETTERS) + 1)
                     for letters in combinations(PROPERTY_LETTERS, r)]


@st.composite
def _collections(draw):
    state_count = draw(st.integers(1, 5))
    masks = st.integers(0, (1 << state_count) - 1)
    size = draw(st.sampled_from((3, 1 << state_count)))
    return frozenset(draw(st.lists(masks, max_size=size))), state_count


class TestRepair:
    """One pass without c, the fixpoint loop with it, memoised: repair must
    still equal the plain fixpoint loop, and random_model its draws."""

    @pytest.mark.parametrize("required", _PROPERTY_SUBSETS,
                             ids=lambda r: ",".join(sorted(r)) or "none")
    @given(_collections())
    @settings(max_examples=40, deadline=None)
    def test_equals_fixpoint_loop(self, required, drawn):
        coll, state_count = drawn
        spec = FrameClassSpec(required)
        expected = _reference_repair(coll, spec, state_count)
        for _ in range(2):  # the second call reads the memo
            repaired = _repair_collection(coll, spec, state_count)
            assert repaired == expected
        assert all(collection_has_property(repaired, p, state_count) for p in required)

    # The eight system classes; they include s, n and i,c, the classes of
    # the benchmark's refutation scans.
    @pytest.mark.parametrize("text", sorted(
        {proofs.system_class(system).name() for system in proofs.SYSTEM_IDS}))
    def test_random_models_equal_reference(self, text):
        spec = FrameClassSpec.parse(text)
        for state_count, seed in product((3, 4), range(40)):
            assert (random_model(state_count, ["p", "q"], spec, seed=seed)
                    == _reference_random_model(state_count, ("p", "q"), spec, seed))

    def test_large_quasi_filters(self):
        for seed in range(3):
            assert (random_model(10, ["p"], QUASI_FILTERS, seed=seed)
                    == _reference_random_model(10, ("p",), QUASI_FILTERS, seed))
        # A fixpoint loop re-closes the superset-closed collection under
        # intersections, quadratic in its size: minutes at 14 states.
        for seed in range(3):
            assert has_property(random_model(14, ["p"], QUASI_FILTERS, seed=seed), "s")


class TestModelStream:
    """The stream reproduces the hand-written scan loops draw for draw."""

    def test_exhaustive_then_random(self):
        spec = FrameClassSpec.parse("i")
        stream = list(model_stream(("p",), spec, exhaustive=(1, 2),
                                   random_sizes=(3,), trials=20, seed=5))
        expected = [m for k in (1, 2) for m in enumerate_models(k, ("p",), spec)]
        rng = random.Random(5)
        expected += [random_model(3, ("p",), spec, seed=rng.getrandbits(48))
                     for _ in range(20)]
        assert stream == expected

    def test_one_generator_across_random_sizes(self):
        stream = list(model_stream((), ALL_FRAMES, random_sizes=(3, 4),
                                   trials=15, seed=17))
        rng = random.Random(17)
        expected = [random_model(size, (), seed=rng.getrandbits(48))
                    for size in (3, 4) for _ in range(15)]
        assert stream == expected

    def test_zero_trials_is_exhaustive_only(self):
        stream = list(model_stream(("p",), FILTERS, exhaustive=(1, 2),
                                   random_sizes=(3, 4), trials=0, seed=1))
        assert stream == [m for k in (1, 2)
                          for m in enumerate_models(k, ("p",), FILTERS)]

    def test_bound_checked_before_enumerating(self, monkeypatch):
        from deltalogic import model as model_module

        calls = []
        monkeypatch.setattr(model_module, "enumerate_models",
                            lambda *args: calls.append(args) or iter(()))
        stream = model_stream(("p",), ALL_FRAMES, exhaustive=range(1, 5))
        with pytest.raises(BoundExceededError):
            next(stream)
        assert calls == []


class TestJson:
    def test_round_trip_bit_exact(self):
        m = random_model(3, ["p", "q"], ALL_FRAMES, seed=9)
        text = model_to_json(m)
        assert model_to_json(model_from_json(text)) == text

    def test_canonical_subset_order(self):
        m = make_model(2, [[[0, 1], [], [1]], []], {"p": [1, 0]})
        data = model_to_dict(m)
        assert data["neighborhoods"][0] == [[], [1], [0, 1]]
        assert data["valuation"] == {"p": [0, 1]}

    def test_reserved_atom_rejected(self):
        with pytest.raises(ValueError):
            model_from_json(json.dumps(
                {"states": 1, "neighborhoods": [[]], "valuation": {"_t": [0]}}))

    def test_out_of_range_state_rejected(self):
        with pytest.raises(ValueError):
            model_from_json(json.dumps(
                {"states": 1, "neighborhoods": [[[1]]], "valuation": {}}))

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError):
            model_from_json("{not json")
        with pytest.raises(ValueError):
            model_from_json(json.dumps({"states": 1}))


def test_subset_mask_validates_range():
    assert subset_mask([0, 2], 3) == 0b101
    with pytest.raises(ValueError):
        subset_mask([3], 3)


def test_model_validation():
    with pytest.raises(ValueError):
        make_model(0, [], {})
    with pytest.raises(ValueError):
        make_model(2, [[]], {})


def test_random_models_sampled_in_class_spread():
    # Repair only adds sets, so a sampled batch stays inside the class while
    # still varying; a weak distribution sanity check.
    seen = {random_model(3, [], QUASI_FILTERS, seed=s).neighborhoods
            for s in range(40)}
    assert len(seen) > 5

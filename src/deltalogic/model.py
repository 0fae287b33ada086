"""Finite neighborhood models over bitmask-coded state sets.

States of a model are the integers 0..state_count-1 and every subset of
states is an int bitmask (bit s set iff state s belongs).  A neighborhood
collection is a frozenset of such masks, one collection per state.

The four frame properties are named by single letters:

    n   the collection contains the full state set
    i   closed under pairwise intersections
    s   closed under supersets (supplemented)
    c   closed under complements

Models are immutable; enumeration and sampling are deterministic.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Mapping

from .formula import RESERVED_ATOM

PROPERTY_LETTERS = "nisc"

_ATOM_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

MAX_EXHAUSTIVE_STATES = 3
MAX_RANDOM_STATES = 16


class BoundExceededError(Exception):
    """A requested search or enumeration exceeds the supported bounds."""


def subset_mask(indices: Iterable[int], state_count: int) -> int:
    mask = 0
    for i in indices:
        if not 0 <= i < state_count:
            raise ValueError(f"state index {i} out of range for {state_count} states")
        mask |= 1 << i
    return mask


def mask_indices(mask: int) -> list[int]:
    indices = []
    i = 0
    while mask:
        if mask & 1:
            indices.append(i)
        mask >>= 1
        i += 1
    return indices


@dataclass(frozen=True)
class NeighborhoodModel:
    state_count: int
    neighborhoods: tuple[frozenset[int], ...]
    valuation: Mapping[str, int]

    def __post_init__(self):
        if self.state_count < 1:
            raise ValueError("a model needs at least one state")
        if len(self.neighborhoods) != self.state_count:
            raise ValueError("one neighborhood collection per state required")
        full = self.full_mask
        for coll in self.neighborhoods:
            for mask in coll:
                if not 0 <= mask <= full:
                    raise ValueError(f"neighborhood mask {mask} out of range")
        for name, mask in self.valuation.items():
            if name == RESERVED_ATOM:
                raise ValueError(f"atom {RESERVED_ATOM!r} is reserved")
            if not _ATOM_NAME_RE.match(name):
                raise ValueError(f"invalid atom name {name!r}")
            if not 0 <= mask <= full:
                raise ValueError(f"valuation mask for {name!r} out of range")

    @property
    def full_mask(self) -> int:
        return (1 << self.state_count) - 1

    def states(self) -> range:
        return range(self.state_count)

    def atom_names(self) -> tuple[str, ...]:
        return tuple(self.valuation)


def make_model(state_count: int,
               neighborhoods: Iterable[Iterable[Iterable[int]]],
               valuation: Mapping[str, Iterable[int]] | None = None) -> NeighborhoodModel:
    """Build a model from index lists instead of raw masks."""
    colls = tuple(frozenset(subset_mask(subset, state_count) for subset in coll)
                  for coll in neighborhoods)
    vals = {name: subset_mask(states, state_count)
            for name, states in (valuation or {}).items()}
    return NeighborhoodModel(state_count, colls, vals)


# ---------------------------------------------------------------------------
# Frame properties and classes.

def collection_has_property(coll: frozenset[int], prop: str, state_count: int) -> bool:
    """Check one property letter against a single neighborhood collection."""
    full = (1 << state_count) - 1
    if prop == "n":
        return full in coll
    if prop == "i":
        members = tuple(coll)
        return all(x & y in coll for x in members for y in members)
    if prop == "s":
        # Closure under adding one state at a time is closure under supersets.
        return all(x | (1 << b) in coll
                   for x in coll for b in range(state_count) if not x >> b & 1)
    if prop == "c":
        return all(full ^ x in coll for x in coll)
    raise ValueError(f"unknown property {prop!r}")


def has_property(model: NeighborhoodModel, prop: str) -> bool:
    return all(collection_has_property(coll, prop, model.state_count)
               for coll in model.neighborhoods)


@dataclass(frozen=True)
class FrameClassSpec:
    """A frame class given by the set of required property letters."""

    required: frozenset[str]

    _ALIASES = {
        "all": frozenset(),
        "quasi-filter": frozenset("is"),
        "filter": frozenset("isn"),
    }

    def __post_init__(self):
        unknown = self.required - set(PROPERTY_LETTERS)
        if unknown:
            raise ValueError(f"unknown properties {sorted(unknown)}")

    @classmethod
    def parse(cls, text: str) -> "FrameClassSpec":
        text = text.strip()
        if text in cls._ALIASES:
            return cls(cls._ALIASES[text])
        letters = [part.strip() for part in text.split(",") if part.strip()]
        if not letters:
            raise ValueError(f"cannot parse frame class {text!r}")
        return cls(frozenset(letters))

    def name(self) -> str:
        for alias, required in self._ALIASES.items():
            if required == self.required:
                return alias
        return ",".join(p for p in PROPERTY_LETTERS if p in self.required)

    def matches(self, model: NeighborhoodModel) -> bool:
        return all(has_property(model, p) for p in self.required)


ALL_FRAMES = FrameClassSpec.parse("all")
QUASI_FILTERS = FrameClassSpec.parse("quasi-filter")
FILTERS = FrameClassSpec.parse("filter")


def satisfies_class(model: NeighborhoodModel, spec: FrameClassSpec) -> bool:
    return spec.matches(model)


# ---------------------------------------------------------------------------
# Closure operations and supplementation.

def _close_intersections(coll: frozenset[int]) -> frozenset[int]:
    current = set(coll)
    queue = list(coll)
    while queue:
        x = queue.pop()
        for y in tuple(current):
            z = x & y
            if z not in current:
                current.add(z)
                queue.append(z)
    return frozenset(current)


def _close_supersets(coll: frozenset[int], state_count: int) -> frozenset[int]:
    current = set(coll)
    queue = list(coll)
    while queue:
        x = queue.pop()
        for b in range(state_count):
            y = x | (1 << b)
            if y not in current:
                current.add(y)
                queue.append(y)
    return frozenset(current)


def _with_unit(coll: frozenset[int], state_count: int) -> frozenset[int]:
    return coll | {(1 << state_count) - 1}


def _close_complements(coll: frozenset[int], state_count: int) -> frozenset[int]:
    full = (1 << state_count) - 1
    return coll | {full ^ x for x in coll}


def supplementation(model: NeighborhoodModel) -> NeighborhoodModel:
    """Superset closure of every state's collection; states and valuation kept."""
    return NeighborhoodModel(
        model.state_count,
        tuple(_close_supersets(coll, model.state_count) for coll in model.neighborhoods),
        dict(model.valuation),
    )


def _repair_collection(coll: frozenset[int], spec: FrameClassSpec,
                       state_count: int) -> frozenset[int]:
    """The least collection containing coll that has every property of spec.

    Closures run in the fixed order i, s, n, c.  Without c one pass reaches
    the fixpoint: the superset closure of an intersection-closed collection
    is intersection-closed, and adding the full set keeps both closures.
    With c the pass repeats until nothing changes, because the complements
    can break i and s again.  The result is a pure function of its
    arguments, so it is memoised (see _REPAIR_CACHE_SIZE); with no required
    property repair is the identity and bypasses the memo.
    """
    if not spec.required:
        return coll
    return _closure(coll, spec.required, state_count)


# Repaired collections are memoised per (collection, properties, state
# count).  A random draw at |S|=4 is one of 697 collections of at most three
# masks.  In a 12 s sound-random benchmark run (716,400 repairs, 5,526
# distinct keys) the memo answered 88% of repairs with 1,024 entries and
# 89% with 2,048; unbounded it answered 99%, but peak memory rose from
# 24.7 MB to 28.9 MB, against 25.3 MB with no memo.
_REPAIR_CACHE_SIZE = 1024


@lru_cache(maxsize=_REPAIR_CACHE_SIZE)
def _closure(coll: frozenset[int], required: frozenset[str],
             state_count: int) -> frozenset[int]:
    while True:
        before = coll
        if "i" in required:
            coll = _close_intersections(coll)
        if "s" in required:
            coll = _close_supersets(coll, state_count)
        if "n" in required:
            coll = _with_unit(coll, state_count)
        if "c" not in required:
            return coll
        coll = _close_complements(coll, state_count)
        if coll == before:
            return coll


# ---------------------------------------------------------------------------
# Model generation.

def _validate_atoms(atoms: Iterable[str]) -> tuple[str, ...]:
    names = tuple(atoms)
    seen = set()
    for name in names:
        if name == RESERVED_ATOM:
            raise ValueError(f"atom {RESERVED_ATOM!r} is reserved")
        if not _ATOM_NAME_RE.match(name):
            raise ValueError(f"invalid atom name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate atom {name!r}")
        seen.add(name)
    return names


def _trusted_model(state_count: int, neighborhoods: tuple[frozenset[int], ...],
                   valuation: dict[str, int]) -> NeighborhoodModel:
    # Skips NeighborhoodModel.__post_init__: the generators below pass atom
    # names already checked by _validate_atoms and masks that are in range
    # by construction, so re-checking every generated model is pure cost.
    model = object.__new__(NeighborhoodModel)
    fields = model.__dict__
    fields["state_count"] = state_count
    fields["neighborhoods"] = neighborhoods
    fields["valuation"] = valuation
    return model


def _collection_from_index(index: int, state_count: int) -> frozenset[int]:
    return frozenset(mask for mask in range(1 << state_count) if index >> mask & 1)


def enumerate_models(state_count: int, atoms: Iterable[str],
                     spec: FrameClassSpec = ALL_FRAMES) -> Iterator[NeighborhoodModel]:
    """Yield every model over the given states and atoms whose frame is in spec.

    Deterministic order: per-state collections ascend by their index in the
    powerset-of-powerset encoding, then valuations ascend atom by atom.
    Each model appears exactly once and owns its valuation dict.

    Validation happens once per call, not per model: the state count is
    bounds-checked and the atom names go through _validate_atoms here, and
    every mask is in range by construction, so the models are built without
    NeighborhoodModel's per-instance checks.
    """
    if not 1 <= state_count <= MAX_EXHAUSTIVE_STATES:
        raise BoundExceededError(
            f"exhaustive enumeration supports 1..{MAX_EXHAUSTIVE_STATES} states")
    names = _validate_atoms(atoms)
    collection_count = 1 << (1 << state_count)
    # Frame properties are per state, so filtering collections up front
    # yields exactly the in-class frames.
    admissible = []
    for index in range(collection_count):
        coll = _collection_from_index(index, state_count)
        if all(collection_has_property(coll, p, state_count) for p in spec.required):
            admissible.append(coll)
    valuations = [dict(zip(names, masks))
                  for masks in product(range(1 << state_count), repeat=len(names))]
    for colls in product(admissible, repeat=state_count):
        for valuation in valuations:
            yield _trusted_model(state_count, colls, valuation.copy())


def random_model(state_count: int, atoms: Iterable[str],
                 spec: FrameClassSpec = ALL_FRAMES, seed: int = 0) -> NeighborhoodModel:
    """Sample a pseudo-random model and repair it into spec's class.

    Per state, up to three masks are drawn; then one mask per atom for the
    valuation.  Each drawn collection is repaired by _repair_collection
    into the least collection above it with spec's properties.  Repair
    draws nothing, so same seed, same model.

    The state count and atom names are validated here; every drawn and
    repaired mask is in range by construction, so the model is built
    without NeighborhoodModel's per-instance checks.
    """
    if not 1 <= state_count <= MAX_RANDOM_STATES:
        raise BoundExceededError(f"random models support 1..{MAX_RANDOM_STATES} states")
    names = _validate_atoms(atoms)
    rng = random.Random(seed)
    subset_space = 1 << state_count
    colls = []
    for _ in range(state_count):
        count = rng.randint(0, 3)
        coll = frozenset(rng.randrange(subset_space) for _ in range(count))
        colls.append(_repair_collection(coll, spec, state_count))
    valuation = {name: rng.randrange(subset_space) for name in names}
    return _trusted_model(state_count, tuple(colls), valuation)


def model_stream(atoms: Iterable[str], spec: FrameClassSpec,
                 exhaustive: Iterable[int] = (), random_sizes: Iterable[int] = (),
                 trials: int = 0, seed: int = 0) -> Iterator[NeighborhoodModel]:
    """The models of one scan, in scan order.

    First every in-class model of each exhaustive size, in enumeration
    order; then, for each random size in turn, trials seeded random models.
    One generator seeded with seed hands every random model its sub-seed,
    across all random sizes, so a scan is reproducible bit for bit.  An
    exhaustive size above MAX_EXHAUSTIVE_STATES raises BoundExceededError
    before any model is produced.
    """
    atoms = tuple(atoms)
    exhaustive = tuple(exhaustive)
    if any(k > MAX_EXHAUSTIVE_STATES for k in exhaustive):
        raise BoundExceededError(
            f"exhaustive search supports |S|<={MAX_EXHAUSTIVE_STATES}")
    for k in exhaustive:
        yield from enumerate_models(k, atoms, spec)
    rng = random.Random(seed)
    for size in random_sizes:
        for _ in range(trials):
            yield random_model(size, atoms, spec, seed=rng.getrandbits(48))


# ---------------------------------------------------------------------------
# JSON persistence.  Subsets are emitted as sorted index lists; per state the
# subsets are ordered by ascending mask value, so a load/dump cycle is stable.

def model_to_dict(model: NeighborhoodModel) -> dict:
    return {
        "states": model.state_count,
        "neighborhoods": [
            [mask_indices(mask) for mask in sorted(coll)]
            for coll in model.neighborhoods
        ],
        "valuation": {name: mask_indices(mask)
                      for name, mask in sorted(model.valuation.items())},
    }


def model_from_dict(data: dict) -> NeighborhoodModel:
    try:
        state_count = data["states"]
        raw_neighborhoods = data["neighborhoods"]
        raw_valuation = data.get("valuation", {})
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed model object: missing {exc}") from None
    if not isinstance(state_count, int):
        raise ValueError("'states' must be an integer")
    return make_model(state_count, raw_neighborhoods, raw_valuation)


def model_to_json(model: NeighborhoodModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def model_from_json(text: str) -> NeighborhoodModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return model_from_dict(data)

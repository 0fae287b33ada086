"""Seeded op generators and the output oracle for the benchmark workloads.

An op is one deltalogic CLI call, made in-process.  Each op carries the
outcome it must have, known from how its input was built, never from
running the program:

* an axiom instance of a system is valid on that system's frame class, so
  soundness and validity scans of such instances must find nothing;
* the hard arrows of the strength cube have witnesses at the sizes used
  here, found by random search at a rate that makes a miss within the
  chosen trial counts vanishingly unlikely (see ``REFUTATIONS``);
* a generated derivation is correct line by line, and each mutant breaks
  it at a known line for a known reason;
* the formula of a ``check`` op is evaluated by the small evaluator in this
  file, on a model generated here.

The oracle itself reads the outputs with deltalogic's public API only.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

# The eight systems: axioms and the frame class each is sound on.  Written
# out here, not read from the package, so the oracle does not trust the code
# it checks.
SYSTEMS: dict[str, tuple[tuple[str, ...], str]] = {
    "E": (("EQU",), "all"),
    "EC": (("EQU", "C"), "i,c"),
    "EN": (("EQU", "N"), "n"),
    "ECN": (("EQU", "C", "N"), "i,c,n"),
    "M": (("EQU", "M"), "s"),
    "R": (("EQU", "M", "C"), "quasi-filter"),
    "EMN": (("EQU", "M", "N"), "s,n"),
    "K": (("EQU", "M", "C", "N"), "filter"),
}

SCHEMA_ARITY = {"EQU": 1, "M": 3, "C": 2, "N": 0}

# Hard cube arrows: (schema, class, states, trials).  Per random in-class
# model over p, q the pool {p, q} alone is refuted at a measured rate of
# 1.3% (C on s, 4 states), 1.9% (C on n, 3 states), 3.0% (M on i,c, 4
# states) and 5.9% (M on n, 4 states); the trial counts put the chance of
# a scan without a witness below e**-29.
REFUTATIONS = (("C", "s", 4, 2500), ("C", "n", 3, 1500),
               ("M", "i,c", 4, 1400), ("M", "n", 4, 600))

MALFORMED = "malformed"
AXIOM_NOT_IN_SYSTEM = "axiom-not-in-system"
MISMATCH = "justification-mismatch"

DERIVATION_CHARS = 14000  # about 200 lines
DEEP_CHAIN = 300        # unary operators on a deep `check` formula
DEFECT_CHAIN = 5000     # ROADMAP 5a: nesting past the recursion limit
DEFECT_ATOMS = 25       # ROADMAP 5b: TAUT line over MAX_TABLE_ATOMS


@dataclass(frozen=True)
class Op:
    """One CLI call: argv (``--json`` included), input files, expectation."""

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(compare=False)
    files: tuple[tuple[str, str], ...] = ()
    known_defect: bool = False

    def key(self) -> tuple[str, ...]:
        """The op's input, with file names replaced by file contents."""
        contents = dict(self.files)
        return tuple(contents.get(arg, arg) for arg in self.argv)


@dataclass(frozen=True)
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None  # name of an exception that escaped cli.main


# ---------------------------------------------------------------------------
# Formulas as tuples: ("atom", name), ("top",), ("not", a), ("D", a) and the
# binary ("and" | "or" | "imp" | "iff", a, b).  Binary nodes always render
# with parentheses, so rendering needs no precedence rules.

_SYMBOL = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def text(t: tuple) -> str:
    kind = t[0]
    if kind == "atom":
        return t[1]
    if kind == "top":
        return "top"
    if kind == "not":
        return "!" + text(t[1])
    if kind == "D":
        return "D " + text(t[1])
    return f"({text(t[1])} {_SYMBOL[kind]} {text(t[2])})"


def skeleton_atoms(t: tuple) -> set[str]:
    """Upper bound on the atoms of the propositional skeleton of t."""
    kind = t[0]
    if kind == "D":
        return {text(t)}
    if kind == "atom":
        return {t[1]}
    if kind == "top":
        return {"_t"}
    return set().union(*(skeleton_atoms(child) for child in t[1:]))


def evaluate(t: tuple, model: dict) -> int:
    """Truth set (bitmask over states) of t in a model built by small_model."""
    full = (1 << model["states"]) - 1
    kind = t[0]
    if kind == "atom":
        return model["valuation"][t[1]]
    if kind == "top":
        return full
    if kind == "not":
        return full ^ evaluate(t[1], model)
    if kind == "D":
        inner = evaluate(t[1], model)
        return sum(1 << s for s, coll in enumerate(model["neighborhoods"])
                   if inner in coll or full ^ inner in coll)
    left, right = evaluate(t[1], model), evaluate(t[2], model)
    if kind == "and":
        return left & right
    if kind == "or":
        return left | right
    if kind == "imp":
        return (full ^ left) | right
    return full ^ (left ^ right)


def literal(rng: random.Random, atoms: tuple[str, ...]) -> tuple:
    a = ("atom", rng.choice(atoms))
    return a if rng.random() < 0.6 else ("not", a)


def binary(rng: random.Random, atoms: tuple[str, ...] = ("p", "q")) -> tuple:
    """A connective over two literals: one fixed shape, so ops cost alike."""
    return (rng.choice(("and", "or", "imp")), literal(rng, atoms), literal(rng, atoms))


def modal(rng: random.Random, depth: int) -> tuple:
    """Random formula over p, q, r with D, of at most the given depth."""
    if depth == 0 or rng.random() < 0.3:
        return literal(rng, ("p", "q", "r"))
    if rng.random() < 0.3:
        return ("D", modal(rng, depth - 1))
    kind = rng.choice(("and", "or", "imp"))
    return (kind, modal(rng, depth - 1), modal(rng, depth - 1))


def axiom(name: str, a: tuple, b: tuple = (), c: tuple = ()) -> tuple:
    if name == "EQU":
        return ("iff", ("D", a), ("D", ("not", a)))
    if name == "M":
        return ("imp", ("D", a), ("or", ("D", ("or", a, b)), ("D", ("or", ("not", a), c))))
    if name == "C":
        return ("imp", ("and", ("D", a), ("D", b)), ("D", ("and", a, b)))
    return ("D", ("top",))


def pool(rng: random.Random, size: int) -> str:
    """Comma-joined pool of distinct formulas that together mention p and q."""
    while True:
        items = [text(binary(rng)) for _ in range(size)]
        joined = ",".join(items)
        if len(set(items)) == size and "p" in joined and "q" in joined:
            return joined


def draw_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2 ** 31))


# ---------------------------------------------------------------------------
# Models for `check` ops.

def small_model(rng: random.Random, states: int) -> dict:
    subsets = 1 << states
    return {
        "states": states,
        "neighborhoods": [{rng.randrange(subsets) for _ in range(rng.randint(0, 4))}
                          for _ in range(states)],
        "valuation": {name: rng.randrange(subsets) for name in ("p", "q", "r")},
    }


def model_json(model: dict) -> str:
    def indices(mask: int) -> list[int]:
        return [s for s in range(model["states"]) if mask >> s & 1]

    return json.dumps({
        "states": model["states"],
        "neighborhoods": [[indices(m) for m in sorted(coll)]
                          for coll in model["neighborhoods"]],
        "valuation": {name: indices(mask) for name, mask in model["valuation"].items()},
    })


# ---------------------------------------------------------------------------
# Derivations.  Every line is built correct; mutants then break one line.

class Derivation:
    def __init__(self, rng: random.Random, system: str):
        self.rng = rng
        self.axioms = SYSTEMS[system][0]
        self.lines: list[list] = []  # [number, formula, justification]
        self.citable: list[int] = []  # short lines with few skeleton atoms
        self.chars = 0

    def add(self, formula: tuple, justification: str) -> int:
        self.lines.append([len(self.lines) + 1, formula, justification])
        size = len(text(formula))
        self.chars += size
        if size <= 150 and len(skeleton_atoms(formula)) <= 8:
            self.citable.append(len(self.lines))
        return len(self.lines)

    def small(self) -> tuple:
        while True:
            f = modal(self.rng, 2)
            if len(skeleton_atoms(f)) <= 6:
                return f

    def grow(self, chars: int) -> "Derivation":
        """Append correct lines until the formulas add up to chars characters.

        Sizing by text rather than by lines keeps the parse cost of every
        derivation alike."""
        rng = self.rng
        while self.chars < chars:
            roll = rng.random()
            if not self.citable or roll < 0.25:
                name = rng.choice(self.axioms)
                self.add(axiom(name, self.small(), self.small(), self.small()),
                         f"ax:{name}")
            elif roll < 0.55:
                # Weakening: from A and the tautology A -> (C -> A), infer C -> A.
                j = rng.choice(self.citable)
                a, c = self.lines[j - 1][1], self.small()
                i = self.add(("imp", a, ("imp", c, a)), "taut")
                self.add(("imp", c, a), f"mp {i} {j}")
            elif roll < 0.8:
                # Congruence: a propositional equivalence, then RE.
                x, y = self.equivalent_pair()
                i = self.add(("iff", x, y), "taut")
                self.add(("iff", ("D", x), ("D", y)), f"re {i}")
            else:
                self.add(self.tautology(), "taut")
        return self

    def equivalent_pair(self) -> tuple[tuple, tuple]:
        x, y = self.small(), self.small()
        return self.rng.choice((
            (x, ("not", ("not", x))),
            (x, ("and", x, x)),
            (("and", x, y), ("and", y, x)),
            (("or", x, y), ("or", y, x)),
            (("imp", x, y), ("imp", ("not", y), ("not", x))),
        ))

    def tautology(self) -> tuple:
        a, b, c = self.small(), self.small(), self.small()
        return self.rng.choice((
            ("or", a, ("not", a)),
            ("imp", ("and", a, b), b),
            ("imp", ("imp", a, b), ("imp", ("not", b), ("not", a))),
            ("imp", ("and", ("imp", a, b), ("imp", b, c)), ("imp", a, c)),
        ))

    def lines_with(self, prefix: str, start: int) -> list[int]:
        return [n for n, _, j in self.lines[start - 1:] if j.startswith(prefix)]

    def render(self) -> str:
        return "".join(f"{n}. {text(f)} ; {j}\n" for n, f, j in self.lines)


# ---------------------------------------------------------------------------
# Op streams.

class OpStream:
    """The ops of one workload, in blocks of fixed composition.

    Inputs derive from the workload seed alone and never repeat within a
    stream, so no result cache across calls can help.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}/{seed}")
        self.seen: set[bytes] = set()  # digests of the inputs drawn so far
        self.file_count = 0
        self.blocks = 0

    def block(self) -> list[Op]:
        ops = self.workload.block(self)
        self.blocks += 1
        return ops

    def unique(self, make: Callable[[], Op | None]) -> Op:
        for _ in range(1000):
            op = make()
            if op is None:
                continue
            digest = hashlib.sha256(json.dumps(op.key()).encode()).digest()
            if digest not in self.seen:
                self.seen.add(digest)
                return op
        raise RuntimeError("could not draw a new input")

    def file(self, suffix: str, content: str) -> tuple[str, str]:
        self.file_count += 1
        return f"in{self.file_count:06d}{suffix}", content


def _class_models(cls: str, max_states: int, atoms: int) -> int:
    """Number of models a class has up to max_states over the given atoms."""
    letters = {"all": "", "quasi-filter": "is", "filter": "isn"}.get(cls, cls)
    total = 0
    for k in range(1, max_states + 1):
        full = (1 << k) - 1
        admissible = 0
        for index in range(1 << (1 << k)):
            coll = {m for m in range(1 << k) if index >> m & 1}
            if (("n" not in letters or full in coll)
                    and ("i" not in letters or all(x & y in coll for x in coll for y in coll))
                    and ("s" not in letters or all(x | y in coll for x in coll for y in range(full + 1)))
                    and ("c" not in letters or all(full ^ x in coll for x in coll))):
                admissible += 1
        total += admissible ** k * (1 << (k * atoms))
    return total


def _soundness(stream: OpStream, system: str, mode_args: tuple[str, ...],
               pool_size: int, scope: str, scope_models: int) -> Op:
    def make() -> Op:
        p = pool(stream.rng, pool_size)
        return Op("soundness", ("soundness", "--system", system) + mode_args
                  + ("--pool", p, "--json"),
                  {"system": system, "pool": p, "scope": scope,
                   "scope_models": scope_models})
    return stream.unique(make)


def sound_exhaustive_block(stream: OpStream) -> list[Op]:
    # Costs rise validity < ECN < EC < K < R, and EC comes twice: over 8
    # blocks the median falls in the middle of the EC ops and p75 in the
    # middle of the K ops, not on the edge between two op types.
    exhaustive = ("--mode", "exhaustive", "--max-states", "3")
    scope = "exhaustive |S|<=3"
    cls = SYSTEMS[("EC", "ECN", "R", "K")[stream.blocks % 4]][1]
    models = _class_models(cls, 3, 1)

    def validity() -> Op:
        f = text(axiom("EQU", binary(stream.rng, ("p",))))
        return Op("validity", ("validity", "--formula", f, "--class", cls)
                  + exhaustive + ("--json",),
                  {"class": cls, "scope": scope, "scope_models": models, "formula": f})
    ops = [stream.unique(validity)]
    for system, size in (("ECN", 4), ("EC", 3), ("EC", 3), ("K", 2), ("R", 2)):
        ops.append(_soundness(stream, system, exhaustive, size, scope,
                              _class_models(SYSTEMS[system][1], 3, 2)))
    return ops


def sound_random_block(stream: OpStream) -> list[Op]:
    ops = []
    trials = "150"
    for states, pool_size in (("3", 3), ("4", 2)):
        for system in SYSTEMS:
            seed = draw_seed(stream.rng)
            scope = f"random trials={trials} |S|={states} seed={seed}"
            ops.append(_soundness(
                stream, system, ("--mode", "random", "--max-states", states,
                                 "--trials", trials, "--seed", seed),
                pool_size, scope, int(trials)))
    for schema, cls, states, trials in REFUTATIONS:
        def make() -> Op:
            items = ["p", "q", text(binary(stream.rng))]
            stream.rng.shuffle(items)
            p, seed = ",".join(items), draw_seed(stream.rng)
            return Op("refutation",
                      ("soundness", "--schema", schema, "--class", cls,
                       "--mode", "random", "--max-states", str(states),
                       "--trials", str(trials), "--seed", seed, "--pool", p, "--json"),
                      {"schema": schema, "class": cls, "pool": p, "states": states,
                       "scope": f"random trials={trials} |S|={states} seed={seed}",
                       "scope_models": trials})
        ops.append(stream.unique(make))
    return ops


def lambda_eq_block(stream: OpStream) -> list[Op]:
    trials = "200"

    def make() -> Op | None:
        a, b = text(binary(stream.rng)), text(binary(stream.rng))
        if a == b or not ("p" in a + b and "q" in a + b):
            return None
        seed = draw_seed(stream.rng)
        return Op("lambda-eq",
                  ("lambda-eq", "--base", f"{a},{b}", "--depth", "2",
                   "--max-states", "3", "--trials", trials, "--seed", seed, "--json"),
                  {"scope": f"exhaustive |S|<=0 plus random trials={trials} "
                            f"|S|=3 seed={seed}",
                   "trials": int(trials)})
    return [stream.unique(make) for _ in range(5)]


def _prove_op(stream: OpStream, kind: str, derivation: Derivation, system: str,
              expect: dict, known_defect: bool = False) -> Op:
    name, content = stream.file(".drv", derivation.render())
    return Op(kind, ("prove", "--derivation", name, "--system", system, "--json"),
              dict(expect, system=system), ((name, content),), known_defect)


def _check_op(stream: OpStream, kind: str, formula: tuple | None, formula_text: str,
              known_defect: bool = False) -> Op:
    rng = stream.rng
    model = small_model(rng, rng.choice((3, 4)))
    state = rng.randrange(model["states"])
    if formula is None:  # the defect chain: an even number of negations of p
        holds = bool(model["valuation"]["p"] >> state & 1)
    else:
        holds = bool(evaluate(formula, model) >> state & 1)
    name, content = stream.file(".json", model_json(model))
    return Op(kind, ("check", "--model", name, "--formula", formula_text,
                     "--state", str(state), "--json"),
              {"state": state, "holds": holds}, ((name, content),), known_defect)


def _wide(rng: random.Random, leaves: int) -> tuple:
    if leaves == 1:
        leaf = literal(rng, ("p", "q", "r"))
        return ("D", leaf) if rng.random() < 0.3 else leaf
    half = leaves // 2
    return (rng.choice(("and", "or", "imp")), _wide(rng, half), _wide(rng, leaves - half))


def prove_parse_block(stream: OpStream) -> list[Op]:
    rng = stream.rng
    ops = []
    for system in SYSTEMS:
        ops.append(stream.unique(lambda: _prove_op(
            stream, "prove", Derivation(rng, system).grow(DERIVATION_CHARS),
            system, {"accepted": True})))

    def wrong_system() -> Op | None:
        d = Derivation(rng, "K").grow(DERIVATION_CHARS)
        bad = [n for n, _, j in d.lines if j.startswith("ax:") and j != "ax:EQU"]
        if not bad:
            return None
        return _prove_op(stream, "mutant", d, "E",
                         {"accepted": False, "line": bad[0], "reason": AXIOM_NOT_IN_SYSTEM})

    def negated_taut() -> Op | None:
        system = rng.choice(list(SYSTEMS))
        d = Derivation(rng, system).grow(DERIVATION_CHARS)
        candidates = d.lines_with("taut", len(d.lines) // 2)
        if not candidates:
            return None
        line = rng.choice(candidates)
        d.lines[line - 1][1] = ("not", d.lines[line - 1][1])
        return _prove_op(stream, "mutant", d, system,
                         {"accepted": False, "line": line, "reason": MISMATCH})

    def dangling() -> Op | None:
        system = rng.choice(list(SYSTEMS))
        d = Derivation(rng, system).grow(DERIVATION_CHARS)
        candidates = d.lines_with("mp", len(d.lines) // 2)
        if not candidates:
            return None
        line = rng.choice(candidates)
        d.lines[line - 1][2] = f"mp {d.lines[line - 1][2].split()[1]} {line}"
        return _prove_op(stream, "mutant", d, system,
                         {"accepted": False, "line": line, "reason": MALFORMED})

    def renumbered() -> Op:
        system = rng.choice(list(SYSTEMS))
        d = Derivation(rng, system).grow(DERIVATION_CHARS)
        line = rng.randrange(len(d.lines) // 2, len(d.lines) + 1)
        d.lines[line - 1][0] = line + 1
        return _prove_op(stream, "mutant", d, system,
                         {"accepted": False, "line": line, "reason": MALFORMED})

    for make in (wrong_system, negated_taut, dangling, renumbered) * 2:
        ops.append(stream.unique(make))

    for _ in range(2):
        def deep() -> Op:
            f = modal(rng, 2)
            for _ in range(DEEP_CHAIN):
                f = rng.choice((("not", f), ("D", f)))
            return _check_op(stream, "check", f, text(f))
        ops.append(stream.unique(deep))
    for _ in range(2):
        def wide() -> Op:
            f = _wide(rng, 512)
            return _check_op(stream, "check", f, text(f))
        ops.append(stream.unique(wide))

    # Known defects (ROADMAP 5a, 5b): kept in every block, never filtered.
    ops.append(stream.unique(lambda: _check_op(
        stream, "defect-nesting", None, "!" * DEFECT_CHAIN + "p", known_defect=True)))

    def wide_taut() -> Op:
        system = rng.choice(list(SYSTEMS))
        d = Derivation(rng, system).grow(rng.randrange(DERIVATION_CHARS // 4,
                                                       DERIVATION_CHARS // 2))
        line = len(d.lines) + 1
        names = [("atom", f"v{i}") for i in range(DEFECT_ATOMS)]
        conj = names[0]
        for a in names[1:]:
            conj = ("and", conj, a)
        d.add(("imp", conj, rng.choice(names)), "taut")
        d.grow(DERIVATION_CHARS)
        return _prove_op(stream, "defect-taut", d, system,
                         {"accepted": False, "line": line}, known_defect=True)
    ops.append(stream.unique(wide_taut))
    return ops


# ---------------------------------------------------------------------------
# The oracle.  judge() returns None for a correct outcome, else the reason.

def _judge_soundness(op: Op, data: dict) -> str | None:
    from deltalogic import FrameClassSpec

    axioms, cls = SYSTEMS[op.expect["system"]]
    n = len(op.expect["pool"].split(","))
    if (data["system"], data["class"], data["scope"]) != (
            op.expect["system"], FrameClassSpec.parse(cls).name(), op.expect["scope"]):
        return "wrong system, class or scope"
    got = [(e["schema"], e["instances"], len(e["countermodels"])) for e in data["schemas"]]
    if got != [(a, n ** SCHEMA_ARITY[a], 0) for a in axioms]:
        return f"unexpected schema report {got}"
    return None


def _judge_validity(op: Op, data: dict) -> str | None:
    from deltalogic import FrameClassSpec, parse, render

    expected = {"verdict": "valid", "scope": op.expect["scope"],
                "class": FrameClassSpec.parse(op.expect["class"]).name(),
                "query": render(parse(op.expect["formula"])),
                "witness": None, "state": None}
    return None if data == expected else "wrong validity verdict"


def _judge_refutation(op: Op, data: dict) -> str | None:
    from deltalogic import (FrameClassSpec, holds_at, parse, render, satisfies_class)
    from deltalogic.model import model_from_dict
    from deltalogic.search import schema_instances

    spec = FrameClassSpec.parse(op.expect["class"])
    if (data["system"], data["class"], data["scope"]) != (
            None, spec.name(), op.expect["scope"]):
        return "wrong class or scope"
    pool_formulas = [parse(part) for part in op.expect["pool"].split(",")]
    instances = {render(f): f for f in schema_instances(op.expect["schema"], pool_formulas)}
    [entry] = data["schemas"]
    witnesses = entry["countermodels"]
    if entry["instances"] != len(pool_formulas) ** SCHEMA_ARITY[op.expect["schema"]]:
        return "wrong instance count"
    if not witnesses:
        return "no witness"
    if len({w["instance"] for w in witnesses}) != len(witnesses):
        return "an instance has two witnesses"
    for w in witnesses:
        model = model_from_dict(w["witness"])
        instance = instances.get(w["instance"])
        if instance is None:
            return f"witness for a foreign instance {w['instance']}"
        if model.state_count != op.expect["states"] or not satisfies_class(model, spec):
            return "witness outside the searched class or size"
        if holds_at(model, w["state"], instance):
            return "witness does not falsify its instance"
    return None


def _judge_lambda(op: Op, data: dict) -> str | None:
    expected = {"scope": op.expect["scope"], "models_checked": op.expect["trials"],
                "differences": 0}
    return None if data == expected else f"wrong lambda-eq report {data}"


def _judge_prove(op: Op, data: dict) -> str | None:
    if data["system"] != op.expect["system"] or data["accepted"] != op.expect["accepted"]:
        return "wrong verdict"
    if op.expect["accepted"]:
        return None
    if data["line"] != op.expect["line"]:
        return f"rejected at line {data['line']}, expected {op.expect['line']}"
    if "reason" in op.expect and data["reason"] != op.expect["reason"]:
        return f"reason {data['reason']}, expected {op.expect['reason']}"
    return None


def _judge_check(op: Op, data: dict) -> str | None:
    if (data["state"], data["holds"]) != (op.expect["state"], op.expect["holds"]):
        return "wrong truth value"
    return None


# kind -> (expected exit code, judge of the JSON output)
_JUDGES = {
    "soundness": (0, _judge_soundness),
    "validity": (0, _judge_validity),
    "refutation": (1, _judge_refutation),
    "lambda-eq": (0, _judge_lambda),
    "prove": (0, _judge_prove),
    "mutant": (1, _judge_prove),
    "defect-taut": (1, _judge_prove),
    "check": (0, _judge_check),
    "defect-nesting": (0, _judge_check),
}


def judge(op: Op, outcome: Outcome) -> str | None:
    """None if the outcome is the one the op's input was built to have."""
    if outcome.error is not None:
        return f"uncaught {outcome.error}"
    if op.kind == "defect-nesting" and outcome.code == 2 and outcome.stderr.strip():
        return None  # ROADMAP 5a accepts a refusal of deep input with a message
    code, check = _JUDGES[op.kind]
    if outcome.code != code:
        return f"exit code {outcome.code}, expected {code}"
    try:
        return check(op, json.loads(outcome.stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# The workloads.

@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[OpStream], list[Op]]
    min_blocks: int
    tail_percentile: int  # highest with >= 10 ops beyond it at min_blocks
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("sound-exhaustive", sound_exhaustive_block, 8, 75,
             "exhaustive |S|<=3 scans: compiled search evaluation dominates, "
             "no random generation or repair"),
    Workload("sound-random", sound_random_block, 10, 95,
             "random |S|=3,4 scans of all 8 systems plus refutations of the "
             "hard cube arrows: generation and repair are a large share"),
    Workload("lambda-eq", lambda_eq_block, 8, 75,
             "selection-function comparison: bypasses search, truth sets "
             "and the derivability oracle dominate"),
    Workload("prove-parse", prove_parse_block, 10, 95,
             "derivation checks and deep or wide formulas: parsing and the "
             "tautology oracle dominate; keeps the known 5a/5b defects"),
)}

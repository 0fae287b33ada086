"""Hilbert-style derivation checking for the eight noncontingency systems.

Each system is TAUT plus a subset of the axiom schemas below, closed under
modus ponens and the congruence rule RE (from a proof of a <-> b infer
D a <-> D b):

    EQU   D a <-> D !a
    M     D a -> D (a | b) | D (!a | c)
    C     D a & D b -> D (a & b)
    N     D top

SCHEMAS declares each of them once, as a builder, beside two variants that
only the soundness scans use, M' (D a -> D (a -> b) | D (!a -> c)) and
C' (D (b -> a) & D (!b -> a) -> D a); "ax:" accepts only the four axioms.

The systems and the frame classes they are sound for:

    E    EQU            all frames          EC   EQU C         i,c
    EN   EQU N          n                   ECN  EQU C N       i,c,n
    M    EQU M          s                   EMN  EQU M N       s,n
    R    EQU M C        quasi-filters       K    EQU M C N     filters

TAUT admits every substitution instance of a propositional tautology,
decided through the skeleton oracle; the axioms are matched as schemas, so
no separate substitution rule exists.  Modus ponens is included even though
axiomatizations of this family are often stated without naming it; without
it a Hilbert system would prove nothing beyond its axioms.

Derivation text format, one step per line, "#" starts a comment:

    N. <formula> ; <justification>

with justification one of "taut", "ax:EQU", "ax:M", "ax:C", "ax:N",
"mp I J" (I names the implication, J its antecedent) and "re I".
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from importlib import resources
from inspect import signature
from typing import Callable, Union

from .formula import (
    And,
    Atom,
    Box,
    Delta,
    Formula,
    FormulaError,
    Not,
    TooManyAtomsError,
    and_,
    delta,
    iff,
    implies,
    is_tautology,
    not_,
    or_,
    parse,
    top,
)
from .model import FrameClassSpec

SYSTEM_AXIOMS: dict[str, tuple[str, ...]] = {
    "E": ("EQU",),
    "EC": ("EQU", "C"),
    "EN": ("EQU", "N"),
    "ECN": ("EQU", "C", "N"),
    "M": ("EQU", "M"),
    "R": ("EQU", "M", "C"),
    "EMN": ("EQU", "M", "N"),
    "K": ("EQU", "M", "C", "N"),
}

SYSTEM_IDS = tuple(SYSTEM_AXIOMS)

_SYSTEM_CLASSES = {
    "E": "all",
    "EC": "i,c",
    "EN": "n",
    "ECN": "i,c,n",
    "M": "s",
    "R": "quasi-filter",
    "EMN": "s,n",
    "K": "filter",
}

AXIOM_NAMES = ("EQU", "M", "C", "N")
RULES = ("MP", "RE")


def system_axioms(system: str) -> tuple[str, ...]:
    try:
        return SYSTEM_AXIOMS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}") from None


def system_class(system: str) -> FrameClassSpec:
    """The frame class the system is paired with."""
    system_axioms(system)
    return FrameClassSpec.parse(_SYSTEM_CLASSES[system])


def system_spec(system: str) -> dict[str, tuple[str, ...]]:
    """Axioms and rules of a system, TAUT included."""
    return {"axioms": ("TAUT",) + system_axioms(system), "rules": RULES}


# ---------------------------------------------------------------------------
# Axiom schemas and matching.

SCHEMAS: dict[str, Callable[..., Formula]] = {
    "EQU": lambda a: iff(delta(a), delta(not_(a))),
    "M": lambda a, b, c: implies(delta(a), or_(delta(or_(a, b)), delta(or_(not_(a), c)))),
    "C": lambda a, b: implies(and_(delta(a), delta(b)), delta(and_(a, b))),
    "N": lambda: delta(top()),
    "M'": lambda a, b, c: implies(delta(a), or_(delta(implies(a, b)),
                                                delta(implies(not_(a), c)))),
    "C'": lambda a, b: implies(and_(delta(implies(b, a)), delta(implies(not_(b), a))),
                               delta(a)),
}


@dataclass(frozen=True, slots=True)
class _MetaVar(Formula):
    name: str


_METAVARS = (_MetaVar("phi"), _MetaVar("psi"), _MetaVar("chi"))

# The checker's patterns: each builder applied to as many of phi, psi, chi
# as it takes.
_PATTERNS: dict[str, Formula] = {
    name: build(*_METAVARS[:len(signature(build).parameters)])
    for name, build in SCHEMAS.items()}

# The conclusion of RE: D phi <-> D psi.
_RE_PATTERN = iff(delta(_METAVARS[0]), delta(_METAVARS[1]))


def _unify(pattern: Formula, f: Formula,
           binding: dict[str, Formula]) -> dict[str, Formula] | None:
    if isinstance(pattern, _MetaVar):
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = f
            return binding
        return binding if bound == f else None
    if type(pattern) is not type(f):
        return None
    match pattern:
        case Atom(name):
            return binding if name == f.name else None
        case Not(child) | Delta(child) | Box(child):
            return _unify(child, f.child, binding)
        case And(left, right):
            result = _unify(left, f.left, binding)
            if result is None:
                return None
            return _unify(right, f.right, binding)
    return None


def match_schema(schema: str, f: Formula) -> dict[str, Formula] | None:
    """Bindings under which the schema instantiates to f, or None.

    Matching is purely structural on desugared formulas; logically
    equivalent but syntactically different formulas do not match.  The
    N schema has no metavariables, so a match yields an empty dict.
    """
    if schema not in _PATTERNS:
        raise ValueError(f"unknown schema {schema!r}")
    return _unify(_PATTERNS[schema], f, {})


# ---------------------------------------------------------------------------
# Derivations.

@dataclass(frozen=True, slots=True)
class Taut:
    pass


@dataclass(frozen=True, slots=True)
class Ax:
    name: str


@dataclass(frozen=True, slots=True)
class MP:
    implication: int
    antecedent: int


@dataclass(frozen=True, slots=True)
class RE:
    source: int


Justification = Union[Taut, Ax, MP, RE]


@dataclass(frozen=True, slots=True)
class Step:
    number: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Derivation:
    steps: tuple[Step, ...]

    @classmethod
    def from_lines(cls, lines: list[tuple[Formula, Justification]]) -> "Derivation":
        return cls(tuple(Step(i + 1, f, j) for i, (f, j) in enumerate(lines)))


MALFORMED = "malformed"
AXIOM_NOT_IN_SYSTEM = "axiom-not-in-system"
JUSTIFICATION_MISMATCH = "justification-mismatch"
TOO_MANY_ATOMS = "too-many-atoms"


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    line: int | None = None
    reason: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _rejected(line: int, reason: str, detail: str) -> CheckResult:
    return CheckResult(False, line, reason, detail)


def check_derivation(system: str, derivation: Derivation) -> CheckResult:
    """Accept iff every line is justified in the given system.

    Rejections pinpoint the first bad line.  Reasons: "malformed" for
    numbering or citation problems, "axiom-not-in-system" for an axiom the
    system lacks, "justification-mismatch" when the cited rule or schema
    does not yield the line's formula, "too-many-atoms" for a TAUT line
    whose propositional skeleton has more atoms than the truth-table
    oracle decides (MAX_TABLE_ATOMS).
    """
    axioms = system_axioms(system)
    steps = derivation.steps
    for position, step in enumerate(steps, start=1):
        if step.number != position:
            return _rejected(position, MALFORMED,
                             f"expected line number {position}, got {step.number}")
    for step in steps:
        n = step.number

        def cited(index: int) -> Formula | CheckResult:
            if not 1 <= index < n:
                return _rejected(n, MALFORMED,
                                 f"line {n} cites line {index}, which is not earlier")
            return steps[index - 1].formula

        match step.justification:
            case Taut():
                try:
                    tautology = is_tautology(step.formula)
                except TooManyAtomsError as exc:
                    return _rejected(n, TOO_MANY_ATOMS, str(exc))
                if not tautology:
                    return _rejected(n, JUSTIFICATION_MISMATCH,
                                     "formula is not a tautology instance")
            case Ax(name):
                if name not in AXIOM_NAMES:
                    return _rejected(n, MALFORMED, f"unknown axiom {name!r}")
                if name not in axioms:
                    return _rejected(n, AXIOM_NOT_IN_SYSTEM,
                                     f"axiom {name} is not available in {system}")
                if match_schema(name, step.formula) is None:
                    return _rejected(n, JUSTIFICATION_MISMATCH,
                                     f"formula is not an instance of {name}")
            case MP(imp_index, ant_index):
                imp = cited(imp_index)
                if isinstance(imp, CheckResult):
                    return imp
                ant = cited(ant_index)
                if isinstance(ant, CheckResult):
                    return ant
                if imp != implies(ant, step.formula):
                    return _rejected(n, JUSTIFICATION_MISMATCH,
                                     f"line {imp_index} is not line {ant_index} "
                                     f"-> line {n}")
            case RE(source_index):
                source = cited(source_index)
                if isinstance(source, CheckResult):
                    return source
                binding = _unify(_RE_PATTERN, step.formula, {})
                if binding is None:
                    return _rejected(n, JUSTIFICATION_MISMATCH,
                                     "RE line must have the shape D a <-> D b")
                if source != iff(binding["phi"], binding["psi"]):
                    return _rejected(n, JUSTIFICATION_MISMATCH,
                                     f"line {source_index} is not the matching "
                                     "equivalence a <-> b")
            case _:
                return _rejected(n, MALFORMED, "unknown justification")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Derivation text format.

class DerivationFormatError(Exception):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"{message} (derivation line {line_no})")
        self.line_no = line_no


_STEP_RE = _re.compile(r"\s*(\d+)\.\s*(.*\S)\s*;\s*(\S.*?)\s*\Z")
_MP_RE = _re.compile(r"mp\s+(\d+)\s+(\d+)\Z")
_RE_RE = _re.compile(r"re\s+(\d+)\Z")


def _parse_justification(text: str, line_no: int) -> Justification:
    if text == "taut":
        return Taut()
    if text.startswith("ax:"):
        return Ax(text[3:].strip())
    m = _MP_RE.match(text)
    if m:
        return MP(int(m.group(1)), int(m.group(2)))
    m = _RE_RE.match(text)
    if m:
        return RE(int(m.group(1)))
    raise DerivationFormatError(f"cannot parse justification {text!r}", line_no)


def parse_derivation(text: str) -> Derivation:
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STEP_RE.match(line)
        if m is None:
            raise DerivationFormatError(f"cannot parse step {line!r}", line_no)
        number = int(m.group(1))
        try:
            formula = parse(m.group(2))
        except FormulaError as exc:
            raise DerivationFormatError(f"bad formula: {exc}", line_no) from None
        steps.append(Step(number, formula, _parse_justification(m.group(3), line_no)))
    if not steps:
        raise DerivationFormatError("derivation has no steps", 0)
    return Derivation(tuple(steps))


# ---------------------------------------------------------------------------
# Shipped fixture derivations.

_SYSTEM_HEADER_RE = _re.compile(r"#\s*system:\s*(\S+)")


def _fixture_dir():
    return resources.files(__package__).joinpath("fixtures")


def fixture_names() -> tuple[str, ...]:
    names = [entry.name[:-4] for entry in _fixture_dir().iterdir()
             if entry.name.endswith(".drv")]
    return tuple(sorted(names))


def load_fixture(name: str) -> tuple[str, Derivation]:
    """Return (system, derivation) for a shipped fixture."""
    path = _fixture_dir().joinpath(f"{name}.drv")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ValueError(f"unknown fixture {name!r}") from None
    m = _SYSTEM_HEADER_RE.search(text)
    if m is None or m.group(1) not in SYSTEM_AXIOMS:
        raise ValueError(f"fixture {name!r} lacks a valid '# system:' header")
    return m.group(1), parse_derivation(text)

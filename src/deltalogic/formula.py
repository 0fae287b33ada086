"""Formulas of noncontingency logic: AST, parser, renderer, tautology oracle.

The core language has four node kinds: atoms, negation, conjunction and the
noncontingency operator ``D`` ("it is noncontingent that").  A fifth node,
the box ``[]``, is admitted only when parsing in extended mode and is meant
for experiments with a necessity reading.  Everything else the concrete
syntax offers is sugar and is rewritten into core nodes at parse time:

    a | b      !(!a & !b)
    a -> b     !(a & !b)
    a <-> b    (a -> b) & (b -> a), both sides desugared
    Nb a       !(D a)
    top        the fixed tautology over the reserved atom "_t"
    bot        the negation of top

Concrete grammar (ASCII):

    atom       [a-z][a-zA-Z0-9_]*  except the reserved words "top", "bot"
    unary      "!" or "~" (not), "D", "Nb", "[]" (extended mode only);
               unary operators bind tightest and need a delimiter before
               an atom ("D p", not "Dp")
    binary     loosest to tightest: "<->", "->" (right-associative),
               "|", "&" (left-associative)
    grouping   "(" ... ")"

Formulas are immutable and hashable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

RESERVED_ATOM = "_t"


class FormulaError(Exception):
    """Base error for this module."""


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class BoxNotAllowedError(FormulaError):
    """A box node was used where only core connectives are allowed."""

    def __init__(self, message: str = "box operator not allowed in core mode",
                 line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class TooManyAtomsError(FormulaError):
    """The truth-table oracle refuses skeletons with more than 24 atoms."""


class Formula:
    """Base class of all AST nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Delta(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Box(Formula):
    child: Formula


# ---------------------------------------------------------------------------
# Constructors.  The sugar constructors return core nodes immediately, so
# every Formula in the system is already desugared.

def atom(name: str) -> Formula:
    return Atom(name)


def not_(f: Formula) -> Formula:
    return Not(f)


def and_(f: Formula, g: Formula) -> Formula:
    return And(f, g)


def delta(f: Formula) -> Formula:
    return Delta(f)


def box(f: Formula) -> Formula:
    return Box(f)


def or_(f: Formula, g: Formula) -> Formula:
    return Not(And(Not(f), Not(g)))


def implies(f: Formula, g: Formula) -> Formula:
    return Not(And(f, Not(g)))


def iff(f: Formula, g: Formula) -> Formula:
    return And(implies(f, g), implies(g, f))


def nabla(f: Formula) -> Formula:
    return Not(Delta(f))


def top() -> Formula:
    return or_(Atom(RESERVED_ATOM), Not(Atom(RESERVED_ATOM)))


def bot() -> Formula:
    return Not(top())


TOP = top()
BOT = bot()


# ---------------------------------------------------------------------------
# Structural helpers.

def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Yield f and every subformula, parents before children.

    Each node object is yielded once, so a subformula shared in the DAG (a
    desugared <-> holds each operand twice) is walked once, not once per
    path to it; f keeps every node alive while the walk runs.
    """
    stack = [f]
    seen: set[int] = set()
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        yield g
        match g:
            case Not(child) | Delta(child) | Box(child):
                stack.append(child)
            case And(left, right):
                stack.append(right)
                stack.append(left)


def atoms_of(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in iter_subformulas(f) if isinstance(g, Atom))


# ---------------------------------------------------------------------------
# Parser.

_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<symbol><->|->|\[\]|[!~|&()])
  | (?P<ident>\w+)
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


class _Token(NamedTuple):
    kind: str  # the symbol itself, "ident" or "end"
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value, start = m.lastgroup, m.group(), m.start()
        if kind == "space":
            if "\n" in value:
                line += value.count("\n")
                line_start = start + value.rindex("\n") + 1
            continue
        col = start - line_start + 1
        # An identifier starts with a letter; "_" and digits only follow one.
        if kind == "other" or (kind == "ident" and not value[0].isalpha()):
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
        tokens.append(_Token(value if kind == "symbol" else kind, value, line, col))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


# Binary operators, loosest first: token -> (precedence, right-associative,
# builder).  The builders desugar, so the parser only ever builds core nodes.
_BINARY = {
    "<->": (1, True, iff),
    "->": (2, True, implies),
    "|": (3, False, or_),
    "&": (4, False, and_),
}

# Prefix operators bind tighter than every binary operator.  Keyed by token
# value, since "D" and "Nb" are read as identifiers.
_PREFIX = {"!": not_, "~": not_, "D": delta, "Nb": nabla, "[]": box}


class _Parser:
    def __init__(self, tokens: list[_Token], extended: bool):
        self.tokens = tokens
        self.pos = 0
        self.extended = extended

    def parse(self) -> Formula:
        f = self.expression(1)
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)
        return f

    def expression(self, min_prec: int) -> Formula:
        """Precedence climbing over the operators of _BINARY that bind at
        least as tightly as min_prec."""
        left = self.operand()
        while True:
            op = _BINARY.get(self.tokens[self.pos].kind)
            if op is None or op[0] < min_prec:
                return left
            prec, right_assoc, build = op
            self.pos += 1
            left = build(left, self.expression(prec if right_assoc else prec + 1))

    def operand(self) -> Formula:
        """Prefix operators, then an atom, top, bot or a parenthesised formula."""
        prefixes = []
        tok = self.tokens[self.pos]
        while tok.value in _PREFIX:
            if tok.kind == "[]" and not self.extended:
                raise BoxNotAllowedError(line=tok.line, col=tok.col)
            prefixes.append(_PREFIX[tok.value])
            self.pos += 1
            tok = self.tokens[self.pos]
        self.pos += 1
        if tok.kind == "(":
            f = self.expression(1)
            closing = self.tokens[self.pos]
            self.pos += 1
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.line, closing.col)
        elif tok.value == "top":
            f = top()
        elif tok.value == "bot":
            f = bot()
        elif tok.kind == "ident" and tok.value[0].islower():
            f = atom(tok.value)
        elif tok.kind == "ident":
            raise ParseError(f"unknown name {tok.value!r}", tok.line, tok.col)
        elif tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.col)
        else:
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)
        for build in reversed(prefixes):
            f = build(f)
        return f


def parse(text: str, mode: str = "core") -> Formula:
    """Parse concrete syntax into a desugared core formula.

    mode is "core" or "extended"; only extended mode accepts "[]".
    """
    if mode not in ("core", "extended"):
        raise ValueError(f"unknown mode {mode!r}")
    return _Parser(_tokenize(text), extended=(mode == "extended")).parse()


# ---------------------------------------------------------------------------
# Renderer.  Emits core connectives only; its output always parses back to
# the same formula, and rendering a parse of its own output is the identity.

def render(f: Formula) -> str:
    match f:
        case Atom(name):
            return name
        case Not(child):
            return "!" + _operand(child)
        case Delta(child):
            return "D " + _operand(child)
        case Box(child):
            return "[] " + _operand(child)
        case And(left, right):
            right_text = render(right)
            if isinstance(right, And):
                right_text = f"({right_text})"
            return f"{render(left)} & {right_text}"
    raise TypeError(f"not a formula: {f!r}")


def _operand(f: Formula) -> str:
    text = render(f)
    return text if isinstance(f, Atom) else f"({text})"


# ---------------------------------------------------------------------------
# Propositional skeletons and the tautology oracle.

@dataclass(frozen=True)
class PropSkeleton:
    """A formula with its maximal modal subformulas replaced by fresh atoms.

    table maps each fresh atom name back to the subformula it stands for;
    syntactically distinct subformulas get distinct atoms.
    """

    formula: Formula
    table: tuple[tuple[str, Formula], ...]

    def restore(self) -> Formula:
        """Substitute the table back in, reproducing the original formula."""
        mapping = dict(self.table)

        def walk(g: Formula) -> Formula:
            match g:
                case Atom(name):
                    return mapping.get(name, g)
                case Not(child):
                    return Not(walk(child))
                case And(left, right):
                    return And(walk(left), walk(right))
            raise TypeError(f"skeleton is not propositional: {g!r}")

        return walk(self.formula)


def skeleton(f: Formula) -> PropSkeleton:
    """Abstract every maximal D- and box-subformula into a fresh atom."""
    names: dict[Formula, str] = {}
    table: list[tuple[str, Formula]] = []

    def walk(g: Formula) -> Formula:
        match g:
            case Atom(_):
                return g
            case Not(child):
                return Not(walk(child))
            case And(left, right):
                return And(walk(left), walk(right))
            case Delta(_) | Box(_):
                name = names.get(g)
                if name is None:
                    name = f"_d{len(names) + 1}"
                    names[g] = name
                    table.append((name, g))
                return Atom(name)
        raise TypeError(f"not a formula: {g!r}")

    return PropSkeleton(walk(f), tuple(table))


MAX_TABLE_ATOMS = 24


def _atom_columns(names: list[str]) -> dict[str, int]:
    # Bit r of column i records the value of atom i in assignment r.
    rows = 1 << len(names)
    columns: dict[str, int] = {}
    for i, name in enumerate(names):
        half = 1 << i
        period = half * 2
        block = ((1 << half) - 1) << half
        tile = ((1 << rows) - 1) // ((1 << period) - 1)
        columns[name] = block * tile
    return columns


def is_tautology(f: Formula) -> bool:
    """True iff the propositional skeleton of f holds under all assignments.

    Raises TooManyAtomsError when the skeleton has more than 24 atoms
    (the truth table would exceed 2**24 rows).
    """
    sk = skeleton(f).formula
    names = sorted(atoms_of(sk))
    if len(names) > MAX_TABLE_ATOMS:
        raise TooManyAtomsError(f"skeleton has {len(names)} atoms (max {MAX_TABLE_ATOMS})")
    full = (1 << (1 << len(names))) - 1
    columns = _atom_columns(names)

    def value(g: Formula) -> int:
        match g:
            case Atom(name):
                return columns[name]
            case Not(child):
                return full ^ value(child)
            case And(left, right):
                return value(left) & value(right)
        raise TypeError(f"skeleton is not propositional: {g!r}")

    return value(sk) == full

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_tautology, random_core_formula
from strategies import formulas, propositional_formulas

from deltalogic.formula import (
    And,
    Atom,
    Box,
    BoxNotAllowedError,
    Delta,
    Not,
    ParseError,
    TooManyAtomsError,
    and_,
    atom,
    atoms_of,
    bot,
    delta,
    iff,
    implies,
    is_tautology,
    iter_subformulas,
    nabla,
    not_,
    or_,
    parse,
    render,
    skeleton,
    top,
)


class TestParse:
    def test_conjunction_of_delta_and_negation(self):
        assert parse("D p & !q") == And(Delta(Atom("p")), Not(Atom("q")))

    def test_nabla_desugars_to_negated_delta(self):
        assert parse("Nb p") == Not(Delta(Atom("p")))

    def test_box_rejected_in_core_mode(self):
        with pytest.raises(BoxNotAllowedError):
            parse("[] p")

    def test_box_accepted_in_extended_mode(self):
        assert parse("[] p", "extended") == Box(Atom("p"))

    def test_unary_binds_tightest(self):
        assert parse("D p & q") == And(Delta(Atom("p")), Atom("q"))

    def test_implication_right_associative(self):
        assert parse("p -> q -> r") == parse("p -> (q -> r)")

    def test_or_left_associative(self):
        assert parse("p | q | r") == parse("(p | q) | r")

    def test_or_binds_tighter_than_implication(self):
        assert parse("p -> q | r") == implies(atom("p"), or_(atom("q"), atom("r")))

    def test_sugar_definitions(self):
        assert parse("p | q") == Not(And(Not(Atom("p")), Not(Atom("q"))))
        assert parse("p -> q") == Not(And(Atom("p"), Not(Atom("q"))))
        assert parse("p <-> q") == and_(implies(atom("p"), atom("q")),
                                        implies(atom("q"), atom("p")))
        assert parse("top") == top()
        assert parse("bot") == bot()

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("p &\n& q")
        assert err.value.line == 2
        assert err.value.col == 1

    def test_reserved_atom_is_unparseable(self):
        with pytest.raises(ParseError):
            parse("_t")

    def test_adjacent_atoms_rejected(self):
        with pytest.raises(ParseError):
            parse("p q")

    def test_unknown_uppercase_name_rejected(self):
        with pytest.raises(ParseError):
            parse("Dp")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            parse("p", mode="loose")

    @pytest.mark.parametrize("text, message, line, col", [
        ("p &\n  $q", "unexpected character '$'", 2, 3),
        ("p | _t", "unexpected character '_'", 1, 5),
        ("p & q)", "unexpected ')'", 1, 6),
        ("(p & q", "expected ')'", 1, 7),
        ("p ->", "unexpected end of input", 1, 5),
        ("D Q", "unknown name 'Q'", 1, 3),
    ])
    def test_error_message_and_position(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.line, err.value.col) == (
            f"{message} (line {line}, column {col})", line, col)

    def test_box_error_position(self):
        with pytest.raises(BoxNotAllowedError) as err:
            parse("!\n [] p")
        assert (str(err.value), err.value.line, err.value.col) == (
            "box operator not allowed in core mode (line 2, column 2)", 2, 2)


# The concrete syntax as this test reads it, independently of the parser:
# binary operators loosest first with their associativity; every prefix
# operator binds tighter than any binary one.
PRECEDENCE = (("<->", "right"), ("->", "right"), ("|", "left"), ("&", "left"))
BINARY_OPS = tuple(op for op, _ in PRECEDENCE)
PREFIX_OPS = ("!", "~", "D", "Nb", "[]")
TOP_CORE = Not(And(Not(Atom("_t")), Not(Not(Atom("_t")))))


def sugar_trees(extended):
    """Syntax trees over every connective and constant, sugar included."""
    prefixes = PREFIX_OPS if extended else PREFIX_OPS[:-1]

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(prefixes), children),
            st.tuples(st.sampled_from(BINARY_OPS), children, children))

    return st.recursive(st.sampled_from([("p",), ("q",), ("top",), ("bot",)]),
                        extend, max_leaves=12)


def print_minimal(tree):
    """Print tree with the fewest parentheses PRECEDENCE allows; return the
    text and its binding level (len(PRECEDENCE) for prefix forms and leaves)."""
    tight = len(PRECEDENCE)
    if len(tree) == 1:
        return tree[0], tight
    if len(tree) == 2:
        op, child = tree
        text, level = print_minimal(child)
        if level < tight:
            text = f"({text})"
        return f"{op} {text}" if op[0].isalpha() else op + text, tight
    op, left, right = tree
    level = BINARY_OPS.index(op)
    assoc = PRECEDENCE[level][1]
    left_text, left_level = print_minimal(left)
    right_text, right_level = print_minimal(right)
    if left_level < level or (left_level == level and assoc == "right"):
        left_text = f"({left_text})"
    if right_level < level or (right_level == level and assoc == "left"):
        right_text = f"({right_text})"
    return f"{left_text} {op} {right_text}", level


def desugar(tree):
    """The core formula a syntax tree stands for (module docstring's table)."""
    if len(tree) == 1:
        return {"top": TOP_CORE, "bot": Not(TOP_CORE)}.get(tree[0], Atom(tree[0]))
    if len(tree) == 2:
        c = desugar(tree[1])
        return {"!": Not(c), "~": Not(c), "D": Delta(c), "Nb": Not(Delta(c)),
                "[]": Box(c)}[tree[0]]
    a, b = desugar(tree[1]), desugar(tree[2])
    a_to_b, b_to_a = Not(And(a, Not(b))), Not(And(b, Not(a)))
    return {"&": And(a, b), "|": Not(And(Not(a), Not(b))), "->": a_to_b,
            "<->": And(a_to_b, b_to_a)}[tree[0]]


class TestSugarRoundTrip:
    def test_printer_example(self):
        p, q = ("p",), ("q",)
        tree = ("->", ("->", p, q), ("|", ("|", p, q), ("Nb", ("&", p, q))))
        assert print_minimal(tree)[0] == "(p -> q) -> p | q | Nb (p & q)"

    @given(sugar_trees(extended=False))
    def test_core_mode(self, tree):
        assert parse(print_minimal(tree)[0]) == desugar(tree)

    @given(sugar_trees(extended=True))
    def test_extended_mode(self, tree):
        assert parse(print_minimal(tree)[0], "extended") == desugar(tree)


class TestRender:
    def test_delta_atom(self):
        assert render(delta(atom("p"))) == "D p"

    def test_negated_delta_keeps_parens(self):
        assert render(not_(delta(atom("p")))) == "!(D p)"

    def test_plain_conjunction(self):
        assert render(and_(atom("p"), atom("q"))) == "p & q"

    def test_renderer_emits_core_only(self):
        assert render(parse("p | q")) == "!(!p & !q)"
        assert render(parse("Nb p")) == "!(D p)"

    @given(formulas())
    def test_parse_render_round_trip(self, f):
        assert parse(render(f)) == f

    @given(formulas(extended=True))
    def test_round_trip_extended(self, f):
        assert parse(render(f), "extended") == f

    @given(formulas())
    def test_render_of_parse_is_identity_on_rendered_text(self, f):
        text = render(f)
        assert render(parse(text)) == text

    def test_seeded_round_trip_sample(self):
        rng = random.Random(11)
        for _ in range(500):
            f = random_core_formula(rng, depth=6)
            assert parse(render(f)) == f


class TestSkeleton:
    def test_identical_subterms_share_one_atom(self):
        sk = skeleton(implies(delta(atom("p")), delta(atom("p"))))
        assert sk.formula == implies(Atom("_d1"), Atom("_d1"))
        assert sk.table == (("_d1", delta(atom("p"))),)

    def test_distinct_subterms_get_distinct_atoms(self):
        sk = skeleton(iff(delta(atom("p")), delta(not_(atom("p")))))
        assert sk.formula == iff(Atom("_d1"), Atom("_d2"))
        assert len({name for name, _ in sk.table}) == 2

    def test_propositional_part_is_kept(self):
        sk = skeleton(and_(atom("p"), delta(and_(atom("p"), atom("q")))))
        assert sk.formula == And(Atom("p"), Atom("_d1"))

    def test_maximal_subformulas_only(self):
        f = delta(and_(atom("p"), delta(atom("q"))))
        sk = skeleton(f)
        assert sk.formula == Atom("_d1")
        assert sk.table[0][1] == f

    @given(formulas(extended=True))
    def test_restore_inverts_skeleton(self, f):
        assert skeleton(f).restore() == f

    @given(formulas(extended=True))
    def test_table_injective_on_distinct_subformulas(self, f):
        sk = skeleton(f)
        replaced = [g for _, g in sk.table]
        assert len(replaced) == len(set(replaced))


class TestIsTautology:
    def test_disjunction_weakening(self):
        assert is_tautology(parse("p -> p | q"))

    def test_equivalence_axiom_shape_is_not_a_tautology(self):
        assert not is_tautology(parse("D p <-> D !p"))

    def test_implication_or_equivalence(self):
        assert is_tautology(parse("(p -> q) <-> (!p | q)"))

    def test_top_is_a_tautology(self):
        assert is_tautology(top())
        assert not is_tautology(bot())

    def test_modal_instance_of_tautology(self):
        assert is_tautology(implies(delta(atom("p")), delta(atom("p"))))

    def test_atom_cap(self):
        f = atom("a0")
        for i in range(1, 25):
            f = and_(f, atom(f"a{i}"))
        with pytest.raises(TooManyAtomsError):
            is_tautology(f)

    @given(propositional_formulas())
    @settings(max_examples=200)
    def test_oracle_agrees_with_naive_evaluator(self, f):
        assert is_tautology(f) == naive_tautology(f)

    def test_seeded_agreement_sample(self):
        rng = random.Random(7)
        for _ in range(300):
            f = skeleton(random_core_formula(rng, depth=5)).formula
            assert is_tautology(f) == naive_tautology(f)


def test_atoms_of_includes_reserved():
    assert atoms_of(top()) == {"_t"}
    assert atoms_of(parse("D p & q")) == {"p", "q"}


def _tree_walk(f):
    """Every path's node, shared objects once per path (the plain tree)."""
    yield f
    for child in (f.child,) if isinstance(f, (Not, Delta, Box)) else (
            (f.left, f.right) if isinstance(f, And) else ()):
        yield from _tree_walk(child)


# Formulas built by iff, or_ and implies hold their operands more than once,
# so these are DAGs with shared node objects.
_SHARED = st.recursive(
    formulas(max_depth=2),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda t: iff(*t)),
        st.tuples(children, children).map(lambda t: or_(*t)),
        st.tuples(children, children).map(lambda t: implies(*t)),
        children.map(delta)),
    max_leaves=6)


class TestIterSubformulas:
    @given(_SHARED)
    @settings(max_examples=150, deadline=None)
    def test_each_object_once_same_subformulas(self, f):
        walked = list(iter_subformulas(f))
        ids = [id(g) for g in walked]
        assert len(ids) == len(set(ids))
        tree = list(_tree_walk(f))
        assert set(ids) == {id(g) for g in tree}
        assert set(walked) == set(tree)
        assert walked[0] is f

    def test_iff_chain_walks_its_object_graph(self):
        # 40 levels of q <-> (...) hold 2**40 tree paths, but each level adds
        # 8 node objects: a fresh q, two Ands, three Nots and the top And.
        chain = atom("p")
        for _ in range(40):
            chain = iff(atom("q"), chain)
        count = sum(1 for _ in iter_subformulas(chain))
        assert count == 8 * 40 + 1
        assert atoms_of(chain) == {"p", "q"}


def test_nabla_constructor_matches_parser():
    assert nabla(atom("p")) == parse("Nb p")

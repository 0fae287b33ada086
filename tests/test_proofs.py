import pytest

from mutations import all_mutants

from deltalogic.formula import Atom, atom, delta, parse
from deltalogic.proofs import (
    AXIOM_NOT_IN_SYSTEM,
    Ax,
    Derivation,
    DerivationFormatError,
    JUSTIFICATION_MISMATCH,
    MALFORMED,
    MP,
    RE,
    SYSTEM_AXIOMS,
    SYSTEM_IDS,
    Step,
    TOO_MANY_ATOMS,
    Taut,
    check_derivation,
    fixture_names,
    load_fixture,
    match_schema,
    parse_derivation,
    system_class,
    system_spec,
)
from deltalogic.search import SearchConfig, Valid, check_validity


# A tautology whose skeleton has one atom more than MAX_TABLE_ATOMS.
WIDE_TAUT = " & ".join(f"v{i}" for i in range(25)) + " -> v0"


class TestMatchSchema:
    def test_equ_binding(self):
        assert match_schema("EQU", parse("D q <-> D !q")) == {"phi": Atom("q")}

    def test_c_binding(self):
        bindings = match_schema("C", parse("D p & D q -> D (p & q)"))
        assert bindings == {"phi": Atom("p"), "psi": Atom("q")}

    def test_n_matches_only_top(self):
        assert match_schema("N", parse("D p")) is None
        assert match_schema("N", parse("D top")) == {}

    def test_m_binding(self):
        bindings = match_schema("M", parse("D p -> D (p | r) | D (!p | q)"))
        assert bindings == {"phi": Atom("p"), "psi": Atom("r"), "chi": Atom("q")}

    def test_inconsistent_binding_rejected(self):
        assert match_schema("EQU", parse("D p <-> D !q")) is None

    def test_complex_instance(self):
        assert match_schema("EQU", parse("D (p & q) <-> D !(p & q)")) == \
            {"phi": parse("p & q")}

    def test_matching_is_not_modulo_equivalence(self):
        # p & q versus q & p only differ up to logic, not syntax.
        assert match_schema("C", parse("D p & D q -> D (q & p)")) is None

    def test_unknown_schema(self):
        with pytest.raises(ValueError):
            match_schema("X", parse("p"))


class TestSystemTables:
    def test_spec_rows(self):
        assert system_spec("E") == {"axioms": ("TAUT", "EQU"), "rules": ("MP", "RE")}
        assert system_spec("R") == {"axioms": ("TAUT", "EQU", "M", "C"),
                                    "rules": ("MP", "RE")}
        assert system_spec("K") == {"axioms": ("TAUT", "EQU", "M", "C", "N"),
                                    "rules": ("MP", "RE")}

    def test_eight_systems(self):
        assert len(SYSTEM_IDS) == 8
        assert set(SYSTEM_AXIOMS["ECN"]) == {"EQU", "C", "N"}
        assert set(SYSTEM_AXIOMS["EMN"]) == {"EQU", "M", "N"}

    def test_class_pairing(self):
        assert system_class("E").name() == "all"
        assert system_class("R").name() == "quasi-filter"
        assert system_class("K").name() == "filter"
        assert system_class("EC").required == frozenset("ic")

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            system_spec("Z")


class TestCheckDerivation:
    def test_re_example_accepted_in_e(self):
        d = Derivation.from_lines([
            (parse("(p | p) <-> p"), Taut()),
            (parse("D (p | p) <-> D p"), RE(1)),
        ])
        assert check_derivation("E", d).accepted

    def test_axiom_not_in_system(self):
        d = Derivation.from_lines([(parse("D top"), Ax("N"))])
        result = check_derivation("E", d)
        assert not result.accepted
        assert (result.line, result.reason) == (1, AXIOM_NOT_IN_SYSTEM)

    def test_unknown_axiom_is_malformed(self):
        d = Derivation.from_lines([(parse("D top"), Ax("T"))])
        result = check_derivation("K", d)
        assert (result.line, result.reason) == (1, MALFORMED)

    @pytest.mark.parametrize("line", [
        "1. D p -> D (p -> q) | D (!p -> q) ; ax:M'",
        "1. D (q -> p) & D (!q -> p) -> D p ; ax:C'",
    ])
    def test_scan_only_variants_are_not_axioms(self, line):
        # M' and C' have patterns, but ax: accepts only the four axioms.
        result = check_derivation("K", parse_derivation(line))
        name = line.rsplit(":", 1)[1]
        assert (result.line, result.reason, result.detail) == \
            (1, MALFORMED, f"unknown axiom {name!r}")

    @pytest.mark.parametrize("formula, detail", [
        ("p <-> p", "RE line must have the shape D a <-> D b"),
        ("D (p | p) <-> p", "RE line must have the shape D a <-> D b"),
        ("D (p | p) -> D p", "RE line must have the shape D a <-> D b"),
        ("D (p | q) <-> D p", "line 1 is not the matching equivalence a <-> b"),
    ])
    def test_re_rejection_details(self, formula, detail):
        d = Derivation.from_lines([(parse("(p | p) <-> p"), Taut()),
                                   (parse(formula), RE(1))])
        result = check_derivation("E", d)
        assert (result.line, result.reason, result.detail) == \
            (2, JUSTIFICATION_MISMATCH, detail)

    def test_forward_citation_is_malformed(self):
        d = Derivation.from_lines([
            (parse("D p <-> D !p"), Ax("EQU")),
            (parse("D !p -> D p"), MP(3, 1)),
        ])
        result = check_derivation("E", d)
        assert (result.line, result.reason) == (2, MALFORMED)

    def test_non_contiguous_numbering_is_malformed(self):
        d = Derivation((Step(1, parse("p -> p"), Taut()),
                        Step(3, parse("p -> p"), Taut())))
        result = check_derivation("E", d)
        assert (result.line, result.reason) == (2, MALFORMED)

    def test_mp_argument_order_is_fixed(self):
        lines = [
            (parse("D p <-> D !p"), Ax("EQU")),
            (parse("(D p <-> D !p) -> (D !p -> D p)"), Taut()),
            (parse("D !p -> D p"), MP(2, 1)),
        ]
        assert check_derivation("E", Derivation.from_lines(lines)).accepted
        swapped = lines[:2] + [(parse("D !p -> D p"), MP(1, 2))]
        result = check_derivation("E", Derivation.from_lines(swapped))
        assert (result.line, result.reason) == (3, JUSTIFICATION_MISMATCH)

    def test_re_requires_delta_shape(self):
        d = Derivation.from_lines([
            (parse("(p | p) <-> p"), Taut()),
            (parse("p <-> p"), RE(1)),
        ])
        result = check_derivation("E", d)
        assert (result.line, result.reason) == (2, JUSTIFICATION_MISMATCH)

    def test_re_source_must_match(self):
        d = Derivation.from_lines([
            (parse("(p | p) <-> p"), Taut()),
            (parse("D (p | q) <-> D p"), RE(1)),
        ])
        result = check_derivation("E", d)
        assert (result.line, result.reason) == (2, JUSTIFICATION_MISMATCH)

    def test_taut_line_must_be_tautology(self):
        d = Derivation.from_lines([(parse("p -> q"), Taut())])
        result = check_derivation("E", d)
        assert (result.line, result.reason) == (1, JUSTIFICATION_MISMATCH)

    def test_taut_line_over_table_limit_is_rejected(self):
        d = Derivation.from_lines([(parse("p -> p"), Taut()),
                                   (parse(WIDE_TAUT), Taut())])
        result = check_derivation("E", d)
        assert (result.line, result.reason) == (2, TOO_MANY_ATOMS)
        assert "25 atoms" in result.detail

    def test_cli_rejects_taut_line_over_table_limit(self, tmp_path):
        import contextlib
        import io
        import json

        from deltalogic import cli

        path = tmp_path / "wide.drv"
        path.write_text(f"1. p -> p ; taut\n2. {WIDE_TAUT} ; taut\n", encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["prove", "--derivation", str(path), "--system", "E",
                             "--json"])
        assert code == 1
        data = json.loads(out.getvalue())
        assert (data["accepted"], data["line"], data["reason"]) == (False, 2, TOO_MANY_ATOMS)
        assert "25 atoms" in data["detail"]


class TestFixtures:
    def test_at_least_five_fixtures(self):
        assert len(fixture_names()) >= 5

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_accepted_in_its_system(self, name):
        system, derivation = load_fixture(name)
        result = check_derivation(system, derivation)
        assert result.accepted, (result.line, result.reason, result.detail)

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_lines_valid_on_system_class(self, name):
        # Soundness harness: every accepted line must be valid on the
        # system's frame class for all models with at most two states.
        system, derivation = load_fixture(name)
        spec = system_class(system)
        cfg = SearchConfig(mode="exhaustive", max_states=2, atoms=("p", "q", "r"))
        for step in derivation.steps:
            verdict = check_validity(step.formula, spec, cfg)
            assert isinstance(verdict, Valid), (step.number, verdict)

    @pytest.mark.parametrize("name", fixture_names())
    def test_acceptance_is_monotone_across_systems(self, name):
        system, derivation = load_fixture(name)
        base = set(SYSTEM_AXIOMS[system])
        for other, axioms in SYSTEM_AXIOMS.items():
            if base <= set(axioms):
                assert check_derivation(other, derivation).accepted

    def test_m_replacement_fixture_shape(self):
        system, derivation = load_fixture("m_implication_form")
        assert system == "M"
        assert derivation.steps[-1].formula == \
            parse("D p -> D (p -> q) | D (!p -> r)")


class TestMutations:
    def test_mutant_pool_is_large_enough(self):
        fixtures = {name: load_fixture(name) for name in fixture_names()}
        assert len(all_mutants(fixtures)) >= 100

    def test_every_mutant_rejected_at_expected_line(self):
        fixtures = {name: load_fixture(name) for name in fixture_names()}
        for mutant in all_mutants(fixtures):
            result = check_derivation(mutant.system, mutant.derivation)
            assert not result.accepted, mutant.label
            assert result.line == mutant.expected_line, (mutant.label, result)
            assert result.reason == mutant.expected_reason, (mutant.label, result)


class TestDerivationFormat:
    def test_parse_round_trip(self):
        text = """
        # a comment
        1. D p <-> D !p ; ax:EQU
        2. (D p <-> D !p) -> (D !p -> D p) ; taut
        3. D !p -> D p ; mp 2 1
        """
        d = parse_derivation(text)
        assert len(d.steps) == 3
        assert d.steps[2].justification == MP(2, 1)
        assert check_derivation("E", d).accepted

    def test_re_parse(self):
        d = parse_derivation("1. p <-> p ; taut\n2. D p <-> D p ; re 1")
        assert d.steps[1].justification == RE(1)

    def test_bad_step_reports_line(self):
        with pytest.raises(DerivationFormatError) as err:
            parse_derivation("1. p -> ; taut")
        assert err.value.line_no == 1

    def test_bad_justification(self):
        with pytest.raises(DerivationFormatError):
            parse_derivation("1. p ; because")

    def test_empty_file(self):
        with pytest.raises(DerivationFormatError):
            parse_derivation("# nothing here")

    def test_box_rejected_in_core_derivations(self):
        with pytest.raises(DerivationFormatError):
            parse_derivation("1. [] p ; taut")

    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            load_fixture("does_not_exist")


def test_delta_c_prime_fixture_is_short():
    _, derivation = load_fixture("c_case_form")
    assert len(derivation.steps) <= 60


def test_match_schema_on_constructed_m_prime():
    # The implication-form variant is not an instance of the M schema.
    from deltalogic.formula import implies, not_, or_

    p, q, r = atom("p"), atom("q"), atom("r")
    m_prime = implies(delta(p), or_(delta(implies(p, q)),
                                    delta(implies(not_(p), r))))
    assert match_schema("M", m_prime) is None

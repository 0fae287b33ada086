import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deltalogic import cli, proofs
from deltalogic.model import make_model, model_from_json, model_to_json

DATA = Path(__file__).parent / "data"
MODEL_PATH = str(DATA / "ic_frame.json")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def golden(name):
    return (DATA / name).read_text()


class TestCheck:
    def test_true_case(self):
        code, out, _ = run("check", "--model", MODEL_PATH, "--formula", "D p",
                           "--state", "0")
        assert (code, out) == (0, "true\n")

    def test_false_case_still_exits_zero(self):
        code, out, _ = run("check", "--model", MODEL_PATH, "--formula", "D top",
                           "--state", "0")
        assert (code, out) == (0, "false\n")

    def test_golden_json(self):
        code, out, _ = run("check", "--model", MODEL_PATH, "--formula", "D p",
                           "--state", "0", "--json")
        assert code == 0
        assert out == golden("golden_check.json")

    def test_extended_box(self):
        code, out, _ = run("check", "--model", MODEL_PATH, "--formula", "[] p",
                           "--state", "0", "--extended")
        assert (code, out) == (0, "true\n")

    def test_box_without_extended_is_input_error(self):
        code, _, err = run("check", "--model", MODEL_PATH, "--formula", "[] p")
        assert code == 2
        assert "error" in err


class TestValidity:
    def test_countermodel_exit_code(self):
        code, out, _ = run("validity", "--formula", "D p & D q -> D (p & q)",
                           "--class", "i", "--max-states", "2")
        assert code == 1
        assert "countermodel" in out

    def test_valid_exit_code(self):
        code, out, _ = run("validity", "--formula", "D p <-> D !p",
                           "--class", "all", "--max-states", "2")
        assert code == 0
        assert "valid" in out

    def test_golden_json(self):
        code, out, _ = run("validity", "--formula", "D p & D q -> D (p & q)",
                           "--class", "i", "--max-states", "2", "--json")
        assert code == 1
        assert out == golden("golden_validity.json")

    def test_witness_in_json_is_a_loadable_model(self):
        _, out, _ = run("validity", "--formula", "D top", "--class",
                        "quasi-filter", "--max-states", "1", "--json")
        data = json.loads(out)
        witness = model_from_json(json.dumps(data["witness"]))
        assert witness.state_count == 1


class TestProps:
    def test_golden_json(self):
        code, out, _ = run("props", "--model", MODEL_PATH, "--json")
        assert code == 0
        assert out == golden("golden_props.json")

    def test_text_output(self):
        code, out, _ = run("props", "--model", MODEL_PATH)
        assert code == 0
        assert "i=true" in out


class TestSupplement:
    def test_transforms_model(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(model_to_json(make_model(2, [[[0]], []], {})))
        code, out, _ = run("supplement", "--model", str(path))
        assert code == 0
        result = model_from_json(out)
        assert result.neighborhoods[0] == frozenset({0b01, 0b11})

    def test_check_sweep(self):
        code, out, _ = run("supplement", "--check", "--trials", "30")
        assert code == 0
        assert "violations: 0" in out

    def test_json_needs_check(self):
        code, out, err = run("supplement", "--model", MODEL_PATH, "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: --json applies only to --check")

    def test_model_or_check_required(self):
        code, out, err = run("supplement")
        assert (code, out) == (2, "")
        assert err == "error: supplement needs --model or --check\n"

    def test_check_refuses_model(self):
        # The sweep never opens the file, so a missing one must not pass.
        code, out, err = run("supplement", "--check", "--model", "/nonexistent",
                             "--trials", "5")
        assert (code, out) == (2, "")
        assert err.startswith("error: --model applies only without --check")


class TestProve:
    def test_all_fixtures(self):
        code, out, _ = run("prove", "--all-fixtures")
        assert code == 0
        assert out.count("accepted") >= 5

    def test_all_fixtures_json(self):
        code, out, _ = run("prove", "--all-fixtures", "--json")
        assert code == 0
        entries = json.loads(out)["fixtures"]
        assert [e["name"] for e in entries] == list(proofs.fixture_names())
        for entry in entries:
            system, _ = proofs.load_fixture(entry["name"])
            assert entry == {"name": entry["name"], "system": system,
                             "accepted": True, "line": None, "reason": None}

    def test_fixture_by_name(self):
        code, out, _ = run("prove", "--fixture", "equ_flip", "--json")
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_fixture_in_wrong_system(self):
        code, out, _ = run("prove", "--fixture", "n_top", "--system", "E")
        assert code == 1
        assert "rejected at line 1" in out

    def test_derivation_file(self, tmp_path):
        path = tmp_path / "d.drv"
        path.write_text("1. (p | p) <-> p ; taut\n2. D (p | p) <-> D p ; re 1\n")
        code, out, _ = run("prove", "--derivation", str(path), "--system", "E")
        assert (code, out) == (0, "accepted in E\n")

    def test_missing_arguments_is_usage_error(self):
        code, _, err = run("prove")
        assert code == 2
        assert "error" in err


class TestSoundness:
    def test_system_run(self):
        code, out, _ = run("soundness", "--system", "E", "--max-states", "2")
        assert code == 0
        assert "EQU" in out

    def test_schema_run(self):
        code, out, _ = run("soundness", "--schema", "C", "--class",
                           "quasi-filter", "--max-states", "2")
        assert code == 0

    def test_schema_countermodel_exit(self):
        code, out, _ = run("soundness", "--schema", "C", "--class", "i",
                           "--max-states", "2")
        assert code == 1
        assert "countermodels" in out

    def test_schema_refuses_system(self):
        # A schema run would scan --class ("all" here) and ignore K.
        code, out, err = run("soundness", "--system", "K", "--schema", "EQU",
                             "--max-states", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: --system applies only without --schema")

    def test_system_refuses_class(self):
        # A system run would scan K's filter class and ignore --class i.
        code, out, err = run("soundness", "--system", "K", "--class", "i",
                             "--max-states", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: --class applies only without --system")


class TestCube:
    def test_default_run(self):
        code, out, _ = run("cube", "--max-states", "2")
        assert code == 0
        assert out.count("->") == 12

    def test_json_schema(self):
        code, out, _ = run("cube", "--max-states", "2", "--json")
        data = json.loads(out)
        assert len(data["arrows"]) == 12
        assert all(a["inclusion_ok"] for a in data["arrows"])

    def test_witness_not_found_exit(self):
        code, _, err = run("cube", "--max-states", "1", "--trials", "0")
        assert code == 1
        assert "no witness" in err


class TestLambdaEq:
    def test_golden_model_report(self):
        code, out, _ = run("lambda-eq", "--model", MODEL_PATH, "--base", "p,q",
                           "--depth", "1", "--json")
        assert code == 0
        assert out == golden("golden_lambda_eq.json")

    def test_scan(self):
        code, out, _ = run("lambda-eq", "--base", "p,q", "--depth", "1",
                           "--exhaustive-states", "2", "--trials", "0")
        assert code == 0
        assert "differences: 0" in out


class TestLambdaEqOptions:
    def test_mode_is_not_an_option(self):
        code, _, err = run("lambda-eq", "--mode", "exhaustive", "--trials", "5")
        assert code == 2
        assert "unrecognized arguments: --mode" in err


class TestDeepNesting:
    NEGATIONS = "!" * 5000 + "p"
    DELTAS = "D (" * 5000 + "p" + ")" * 5000

    def test_validity_refuses_deep_input(self):
        for formula in (self.NEGATIONS, self.DELTAS):
            code, out, err = run("validity", "--formula", formula)
            assert (code, out) == (2, "")
            assert err == "error: input nested too deeply\n"

    def test_check_refuses_deep_input(self):
        code, _, err = run("check", "--model", MODEL_PATH, "--formula",
                           self.NEGATIONS)
        assert code == 2
        assert err == "error: input nested too deeply\n"

    def test_moderate_nesting_still_answers(self):
        code, out, _ = run("check", "--model", MODEL_PATH, "--formula",
                           "!" * 300 + "p")
        assert (code, out) == (0, "true\n")

    def test_prove_refuses_deep_taut_line(self, tmp_path):
        side = "D (" * 600 + "p" + ")" * 600
        path = tmp_path / "deep.drv"
        path.write_text(f"1. {side} <-> {side} ; taut\n")
        code, out, err = run("prove", "--derivation", str(path), "--system", "E")
        assert (code, out) == (2, "")
        assert err == "error: input nested too deeply\n"

    def test_prove_reports_malformed_formula(self, tmp_path):
        path = tmp_path / "bad.drv"
        path.write_text("1. p & ; taut\n")
        code, out, err = run("prove", "--derivation", str(path), "--system", "E")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad formula: ")
        assert err.endswith("(derivation line 1)\n")

    def test_parenthesised_nesting_answers(self):
        # D p holds at both states, since V(p) = {0} is a neighborhood there;
        # D D p holds at neither, and every further D keeps it false, since
        # neither the empty set nor S is a neighborhood.
        for formula, value in (("D (" * 400 + "p" + ")" * 400, "false"),
                               ("(p & " * 300 + "p" + ")" * 300, "true")):
            code, out, _ = run("check", "--model", MODEL_PATH, "--formula", formula)
            assert (code, out) == (0, value + "\n")

    def test_long_iff_chain_answers_without_rendering(self):
        # q <-> (q <-> X) is X, so 24 levels over p read p: true at state 0.
        # Rendered, the desugared chain doubles in length per level.
        formula = "q <-> (" * 24 + "p" + ")" * 24
        code, out, _ = run("check", "--model", MODEL_PATH, "--formula", formula)
        assert (code, out) == (0, "true\n")


class TestExperiments:
    def test_schema_exp(self):
        code, out, _ = run("schema-exp", "--class", "all", "--pool", "p,q",
                           "--max-states", "1")
        assert code == 0
        assert "evidence" in out

    def test_monotone_exp(self):
        code, out, _ = run("monotone-exp", "--base", "p,q", "--trials", "150",
                           "--seed", "17")
        assert code == 0
        assert "violations" in out


class TestEnumerate:
    def test_count(self):
        code, out, _ = run("enumerate", "--states", "1", "--atoms", "p",
                           "--count")
        assert (code, out) == (0, "8\n")

    def test_stream_limit(self):
        code, out, _ = run("enumerate", "--states", "2", "--class", "filter",
                           "--limit", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["states"] == 2 for line in lines)

    def test_bound_exceeded_is_input_error(self):
        code, _, err = run("enumerate", "--states", "5")
        assert code == 2
        assert "error" in err

    def test_json_is_not_an_option(self):
        code, _, err = run("enumerate", "--states", "1", "--count", "--json")
        assert code == 2
        assert "unrecognized arguments: --json" in err


class TestEmptyScopes:
    @pytest.mark.parametrize("argv", [
        ("lambda-eq", "--trials", "-1"),
        ("supplement", "--check", "--trials", "-2"),
        ("soundness", "--system", "K", "--mode", "random", "--trials", "-5"),
        ("enumerate", "--states", "1", "--limit", "-1"),
        ("validity", "--formula", "p", "--max-states", "-1"),
        ("cube", "--random-max-states", "-1"),
        ("lambda-eq", "--exhaustive-states", "-2"),
    ])
    def test_negative_count_is_usage_error(self, argv):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert f"expected a count >= 0, got '{argv[-1]}'" in err

    def test_non_integer_count_is_usage_error(self):
        code, _, err = run("validity", "--formula", "p", "--max-states", "two")
        assert code == 2
        assert "expected a count >= 0, got 'two'" in err

    @pytest.mark.parametrize("argv, scope", [
        (("validity", "--formula", "p", "--max-states", "0"), "exhaustive |S|<=0"),
        (("schema-exp", "--max-states", "0"), "exhaustive |S|<=0"),
        (("soundness", "--system", "K", "--mode", "random", "--trials", "0"),
         "random trials=0 |S|=2 seed=17"),
        (("monotone-exp", "--trials", "0"), "random trials=0 |S|=3 seed=17"),
    ])
    def test_search_scope_without_models_is_refused(self, argv, scope):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: scope {scope} holds no model\n"

    def test_lambda_scan_without_models_is_refused(self):
        code, out, err = run("lambda-eq", "--trials", "0")
        assert (code, out) == (2, "")
        assert err == ("error: scope holds no model: --exhaustive-states and "
                       "--trials are both 0\n")

    def test_zero_trials_in_exhaustive_mode_still_runs(self):
        code, out, _ = run("soundness", "--schema", "EQU", "--mode", "exhaustive",
                           "--max-states", "1", "--trials", "0")
        assert code == 0
        assert "(exhaustive |S|<=1)" in out


# Text a run that checked no model would print: a model count of 0, or a
# search scope with no models in it.
_EMPTY_REPORT = re.compile(r"(?<!\d)0 models|\((exhaustive \|S\|<=0|random trials=0 )")

# Per command: fixed arguments, then (count option, largest value drawn).
# The caps keep every scan to a few milliseconds.
_FUZZED = {
    "validity": (("--formula", "D p -> D p"),
                 (("--max-states", 1), ("--trials", 3))),
    "soundness": (("--system", "K"), (("--max-states", 1), ("--trials", 3))),
    "schema-exp": (("--pool", "p,q"), (("--max-states", 1), ("--trials", 3))),
    "lambda-eq": ((), (("--exhaustive-states", 1), ("--max-states", 1),
                       ("--trials", 3))),
    "cube": ((), (("--max-states", 1), ("--trials", 3), ("--random-max-states", 3))),
    "supplement": (("--check",), (("--trials", 3),)),
    "monotone-exp": ((), (("--max-states", 1), ("--trials", 3))),
    "enumerate": (("--states", "1"), (("--limit", 3),)),
}
_MODE_COMMANDS = ("validity", "soundness", "schema-exp")


@st.composite
def _count_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZED)))
    fixed, counts = _FUZZED[command]
    argv = [command, *fixed]
    if command in _MODE_COMMANDS:
        argv += ["--mode", draw(st.sampled_from(("exhaustive", "random")))]
    for option, high in counts:
        argv += [option, str(draw(st.integers(-3, high)))]
    return argv


class TestCountFuzz:
    @settings(max_examples=120, deadline=None)
    @given(_count_argv())
    def test_counts_never_crash_or_claim_an_empty_scope(self, argv):
        code, out, err = run(*argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 0:
            assert not _EMPTY_REPORT.search(out), (argv, out)


# Option combinations where one option would silently override another:
# per combination, a strategy of (option, value) pairs (an empty pair adds
# nothing) and the options one of which the refusal must name.
_SYSTEMS = st.sampled_from(proofs.SYSTEM_IDS)
_FIXTURES = st.sampled_from(proofs.fixture_names())
_SCAN_OPTIONS = ("--exhaustive-states", "--max-states", "--trials", "--seed")


def _pair(option, values):
    return st.tuples(st.just(option), values)


_CONFLICTS = {
    "soundness --schema --system": (
        st.tuples(_pair("--schema", st.sampled_from(sorted(proofs.SCHEMAS))),
                  _pair("--system", _SYSTEMS), _pair("--max-states", st.just("1"))),
        ("--system",)),
    "soundness --system --class": (
        st.tuples(_pair("--system", _SYSTEMS),
                  _pair("--class", st.sampled_from(["all", "i", "filter"])),
                  _pair("--max-states", st.just("1"))),
        ("--class",)),
    "prove --fixture --derivation": (
        st.tuples(_pair("--fixture", _FIXTURES),
                  _pair("--derivation", st.just("/nonexistent.drv")),
                  st.just(()) | _pair("--system", _SYSTEMS)),
        ("--derivation",)),
    "prove --all-fixtures with a single-derivation option": (
        st.lists(st.sampled_from(("--fixture", "--derivation", "--system")),
                 min_size=1, unique=True).flatmap(
            lambda options: st.tuples(
                st.just(("--all-fixtures",)),
                *(_pair(option, {"--fixture": _FIXTURES, "--system": _SYSTEMS}.get(
                    option, st.just("/nonexistent.drv"))) for option in options))),
        ("--fixture", "--derivation", "--system")),
    "lambda-eq --model with scan options": (
        st.lists(st.sampled_from(_SCAN_OPTIONS), min_size=1, unique=True).flatmap(
            lambda options: st.tuples(
                st.just(("--model", MODEL_PATH)),
                *(_pair(option, st.integers(0, 3).map(str)) for option in options))),
        _SCAN_OPTIONS),
}


class TestConflictingOptions:
    @pytest.mark.parametrize("conflict", sorted(_CONFLICTS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_refused_in_any_order(self, conflict, data):
        pairs, named = _CONFLICTS[conflict]
        ordered = data.draw(st.permutations(data.draw(pairs)))
        argv = [conflict.split()[0]] + [part for pair in ordered for part in pair]
        code, out, err = run(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: --"), argv
        assert err.split()[1] in named and "applies only without" in err, argv


class TestParserReuse:
    # One call per subcommand, with argparse errors (exit 2) in between.
    ARGVS = (
        ("check", "--model", MODEL_PATH, "--formula", "D p", "--json"),
        ("validity", "--formula", "D p -> D !p", "--max-states", "2"),
        ("validity",),
        ("props", "--model", MODEL_PATH),
        ("supplement", "--model", MODEL_PATH),
        ("supplement", "--check", "--trials", "5"),
        ("soundness", "--mode", "sideways"),
        ("prove", "--fixture", "n_top", "--system", "E"),
        ("prove", "--all-fixtures", "--json"),
        ("soundness", "--system", "K", "--max-states", "1", "--json"),
        ("cube", "--max-states", "1", "--trials", "10", "--random-max-states", "2"),
        ("lambda-eq", "--trials", "5", "--max-states", "2"),
        ("enumerate", "--states", "-1x"),
        ("schema-exp", "--class", "filter", "--max-states", "1"),
        ("monotone-exp", "--trials", "5"),
        ("enumerate", "--states", "1", "--atoms", "p", "--count"),
    )

    def test_repeated_calls_in_one_process_agree(self):
        first = [run(*argv) for argv in self.ARGVS]
        assert {argv[0] for argv in self.ARGVS} == set(
            cli._parser()._subparsers._group_actions[0].choices)
        assert 2 in {code for code, _, _ in first}
        assert [run(*argv) for argv in self.ARGVS] == first

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_parser_not_built_at_import(self):
        code = ("from deltalogic import cli; "
                "assert cli._parser.cache_info().currsize == 0")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestListOptions:
    def test_spaces_and_empty_parts_are_ignored(self):
        for argv in (("validity", "--formula", "D p -> p", "--max-states", "1", "--atoms"),
                     ("enumerate", "--states", "1", "--count", "--atoms"),
                     ("soundness", "--schema", "M", "--max-states", "1", "--pool"),
                     ("monotone-exp", "--trials", "20", "--base")):
            expected = run(*argv, "p,q")
            assert expected[0] != 2
            for spelling in ("p, q", " p ,q ", "p,,q"):
                assert run(*argv, spelling) == expected


class TestUsage:
    def test_unknown_command(self):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_missing_model_file(self):
        code, _, err = run("props", "--model", "/nonexistent/m.json")
        assert code == 2
        assert "error" in err

    def test_bad_formula(self):
        code, _, err = run("validity", "--formula", "p &")
        assert code == 2
        assert "error" in err

    def test_bad_class(self):
        code, _, _ = run("validity", "--formula", "p", "--class", "weird")
        assert code == 2

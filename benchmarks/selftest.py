"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 benchmarks/selftest.py

They check that op lists are reproducible and never repeat an input, that
the oracle accepts real outputs and rejects doctored ones, and that the
tracer wraps every binding and removes every wrapper.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layertrace  # noqa: E402
from workloads import WORKLOADS, OpStream, Outcome, judge  # noqa: E402

from deltalogic import cli, model, search  # noqa: E402


def run_op(op) -> Outcome:
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for name, content in op.files:
                Path(name).write_text(content, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        finally:
            os.chdir(home)
    return Outcome(code, out.getvalue(), err.getvalue(), None)


def first_of(workload: str, kind: str):
    return next(op for op in OpStream(workload, 5).block() if op.kind == kind)


class TestOpStreams(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in WORKLOADS:
            a, b = OpStream(name, 11), OpStream(name, 11)
            for _ in range(2):
                self.assertEqual([op.key() for op in a.block()],
                                 [op.key() for op in b.block()])
            self.assertNotEqual([op.key() for op in OpStream(name, 12).block()],
                                [op.key() for op in OpStream(name, 11).block()])

    def test_no_input_repeats_within_a_run(self):
        for name, blocks in (("sound-exhaustive", 12), ("sound-random", 30),
                             ("lambda-eq", 30), ("prove-parse", 15)):
            stream = OpStream(name, 3)
            keys = [op.key() for _ in range(blocks) for op in stream.block()]
            self.assertEqual(len(keys), len(set(keys)), name)

    def test_block_composition_is_fixed(self):
        for name in WORKLOADS:
            stream = OpStream(name, 4)
            kinds = [sorted(op.kind for op in stream.block()) for _ in range(3)]
            self.assertEqual(kinds[0], kinds[1], name)
            self.assertEqual(kinds[0], kinds[2], name)

    def test_known_defects_keep_a_fixed_share(self):
        ops = OpStream("prove-parse", 6).block()
        self.assertEqual(sorted(op.kind for op in ops if op.known_defect),
                         ["defect-nesting", "defect-taut"])
        self.assertEqual(len(ops), 22)


class TestOracle(unittest.TestCase):
    def assert_judged(self, op):
        outcome = run_op(op)
        self.assertIsNone(judge(op, outcome), op.argv)
        # Doctored outcomes: each must count as a failed op.
        self.assertIsNotNone(judge(op, replace(outcome, code=(outcome.code or 0) + 1)))
        self.assertIsNotNone(judge(op, replace(outcome, stdout="{}")))
        self.assertIsNotNone(judge(op, replace(outcome, error="RecursionError")))
        return outcome

    def test_soundness(self):
        op = first_of("sound-random", "soundness")
        data = json.loads(self.assert_judged(op).stdout)
        data["schemas"][0]["countermodels"].append({"instance": "p", "state": 0})
        self.assertIsNotNone(judge(op, Outcome(0, json.dumps(data), "", None)))

    def test_refutation_witnesses_are_rechecked(self):
        op = first_of("sound-random", "refutation")
        outcome = self.assert_judged(op)
        data = json.loads(outcome.stdout)
        witness = data["schemas"][0]["countermodels"][0]
        witness["state"] = (witness["state"] + 1) % witness["witness"]["states"]
        witness["witness"]["neighborhoods"] = [[] for _ in witness["witness"]["neighborhoods"]]
        self.assertIsNotNone(judge(op, replace(outcome, stdout=json.dumps(data))))

    def test_lambda_eq(self):
        op = first_of("lambda-eq", "lambda-eq")
        data = json.loads(self.assert_judged(op).stdout)
        data["differences"] = 1
        self.assertIsNotNone(judge(op, Outcome(0, json.dumps(data), "", None)))

    def test_prove_and_mutants(self):
        for kind in ("prove", "mutant"):
            op = first_of("prove-parse", kind)
            outcome = self.assert_judged(op)
            data = json.loads(outcome.stdout)
            data["line"] = (data["line"] or 0) + 1
            data["accepted"] = not data["accepted"]
            self.assertIsNotNone(judge(op, replace(outcome, stdout=json.dumps(data))))

    def test_check(self):
        op = first_of("prove-parse", "check")
        outcome = self.assert_judged(op)
        data = json.loads(outcome.stdout)
        data["holds"] = not data["holds"]
        self.assertIsNotNone(judge(op, replace(outcome, stdout=json.dumps(data))))

    def test_validity(self):
        op = next(op for op in OpStream("sound-exhaustive", 5).block()
                  if op.kind == "validity" and "i,c" == op.expect["class"])
        self.assert_judged(op)


class TestTracer(unittest.TestCase):
    def test_wraps_every_binding_and_removes_them(self):
        original = model.random_model
        tracer = layertrace.Tracer("sound-random")
        tracer.install()
        try:
            self.assertIsNot(model.random_model, original)
            self.assertIs(search.random_model, model.random_model)
            self.assertIs(cli.random_model, model.random_model)
            self.assertGreaterEqual(tracer.bindings["model.random_model"], 3)
            with self.assertRaises(layertrace.TraceError):
                layertrace.assert_untraced()
        finally:
            tracer.remove()
        self.assertIs(model.random_model, original)
        self.assertIs(search.random_model, original)
        layertrace.assert_untraced()

    def test_missing_function_fails_loudly(self):
        saved = layertrace.TRACED
        layertrace.TRACED = saved + (("search", "no_such_function", frozenset()),)
        try:
            with self.assertRaises(layertrace.TraceError):
                layertrace.Tracer("sound-random")
        finally:
            layertrace.TRACED = saved

    def test_uncalled_function_fails_loudly(self):
        tracer = layertrace.Tracer("lambda-eq")
        with self.assertRaises(layertrace.TraceError):
            tracer.check_coverage()

    def test_spans_record_time_and_calls(self):
        op = first_of("sound-random", "soundness")
        tracer = layertrace.Tracer("sound-random")
        tracer.install()
        try:
            run_op(op)
        finally:
            tracer.remove()
        spans = tracer.spans
        self.assertEqual(spans["cli.main"].calls, 1)
        self.assertEqual(spans["search.axiom_soundness_report"].calls, 1)
        self.assertGreater(spans["model.random_model"].calls, 0)
        self.assertLessEqual(spans["model.random_model"].total,
                             spans["search.axiom_soundness_report"].total)
        self.assertGreater(tracer.layer_self("search"), 0)


if __name__ == "__main__":
    unittest.main()

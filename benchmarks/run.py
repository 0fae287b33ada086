#!/usr/bin/env python3
"""deltalogic benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload sound-random --seed 1 --seconds 20 --trace 0

Ops are ``deltalogic.cli.main([... "--json"])`` calls made in this process,
one after another, with no threads.  Blocks of ops run until ``--seconds``
of op time have passed (and at least the workload's minimum number of
blocks).  Outputs are checked after each block, outside the timed region.

Times are reported at a fixed reference speed: just before and just after
every op (and every set-up probe) a fixed pure-Python loop is timed, and
the op's time is scaled by the ratio of ``REF_SECONDS`` to the mean of the
two.  This removes most of the drift of a shared machine's speed, which
otherwise dominates the spread between runs; the raw figures are in the
run record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
number of blocks twice, untraced and then with layer spans, and prints the
per-layer metrics.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
# Time of reference_time()'s loop on the 2-core machine the benchmark was
# tuned on, at its usual speed: adjusted times read as on that machine.
REF_SECONDS = 0.0008

sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from workloads import WORKLOADS, Op, OpStream, Outcome, judge  # noqa: E402

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import deltalogic.cli; "
                 "print(time.perf_counter() - t)")


def reference_time() -> float:
    """Best of two timings of a fixed pure-Python loop, with gc off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            table, acc = {}, 0
            for i in range(3000):
                k = (i * 7919) & 1023
                table[k] = table.get(k, 0) + (i ^ (i >> 3))
                acc += len((k, i, acc & 255))
            best = min(best, perf_counter() - start)
        return best
    finally:
        gc.enable()


def timed(action, refs: list[float]) -> tuple[float, object]:
    """(seconds, result) of action(); the reference loop is timed just
    before and just after it, into refs."""
    refs.append(reference_time())
    start = perf_counter()
    result = action()
    seconds = perf_counter() - start
    refs.append(reference_time())
    return seconds, result


def at_reference_speed(seconds: list[float], refs: list[float]) -> list[float]:
    """Scale each time by the reference loop timed before and after it."""
    return [s * 2 * REF_SECONDS / (before + after)
            for s, before, after in zip(seconds, refs[::2], refs[1::2])]


@dataclass
class PassResult:
    """What one pass over a run's blocks measured and found."""

    raw: list[float] = field(default_factory=list)   # op seconds
    refs: list[float] = field(default_factory=list)  # loop before, after each op
    blocks: int = 0
    failed: int = 0
    known_failed: int = 0
    known_ops: int = 0
    unexpected: list[str] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    passes: float = 0.0
    nodes: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    digest_ops: int = 0

    @property
    def ops(self) -> int:
        return len(self.raw)

    @property
    def adjusted(self) -> list[float]:
        return at_reference_speed(self.raw, self.refs)


def measure_setup() -> tuple[float, float]:
    """Median (raw, reference-speed) seconds to import deltalogic.cli in a
    fresh interpreter."""
    command = [sys.executable, "-E", "-s", "-c", _IMPORT_PROBE, str(SRC)]

    def probe() -> float:
        done = subprocess.run(command, capture_output=True, text=True, check=True,
                              timeout=60, cwd=ROOT)
        return float(done.stdout)

    probe()  # the first import may still write bytecode caches
    refs: list[float] = []
    seconds = [timed(probe, refs)[1] for _ in range(SETUP_REPEATS)]
    return statistics.median(seconds), statistics.median(at_reference_speed(seconds, refs))


def execute_block(cli, ops: list[Op], refs: list[float],
                  tracer: layertrace.Tracer | None):
    """Run ops one by one; return [(seconds, outcome, passes)]."""
    results = []
    if tracer is None:
        layertrace.assert_untraced()
    else:
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op_begin()
            out, err = io.StringIO(), io.StringIO()

            def call():
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        return cli.main(list(op.argv)), None
                except Exception as exc:  # an escaped exception is a failed op
                    return None, type(exc).__name__

            seconds, (code, error) = timed(call, refs)
            passes = tracer.op_end(op.expect.get("scope_models")) if tracer else 0.0
            results.append((seconds, Outcome(code, out.getvalue(), err.getvalue(), error),
                            passes))
    finally:
        if tracer is not None:
            tracer.remove()
    return results


def run_pass(cli, stream: OpStream, seconds: float, blocks: int | None = None,
             tracer: layertrace.Tracer | None = None) -> PassResult:
    """Run blocks until the op time and the workload's minimum are both
    reached (or exactly ``blocks`` blocks), checking every output."""
    workload = stream.workload
    result = PassResult()
    while (result.blocks < blocks if blocks is not None
           else result.blocks < workload.min_blocks or sum(result.raw) < seconds):
        ops = stream.block()
        for op in ops:
            for name, content in op.files:
                Path(name).write_text(content, encoding="utf-8")
        gc.collect()
        results = execute_block(cli, ops, result.refs, tracer)
        result.blocks += 1
        for op, (op_seconds, outcome, passes) in zip(ops, results):
            result.raw.append(op_seconds)
            result.kinds[op.kind] += 1
            result.passes += passes
            result.known_ops += op.known_defect
            problem = judge(op, outcome)
            if problem is not None:
                result.failed += 1
                if op.known_defect:
                    result.known_failed += 1
                else:
                    result.unexpected.append(f"{op.kind} {' '.join(op.argv)[:160]}: {problem}")
            if result.blocks <= workload.min_blocks:
                result.digest.update(json.dumps(
                    [op.key(), outcome.code, outcome.stdout, outcome.error]).encode())
                result.digest_ops += 1
            for name, _ in op.files:
                os.remove(name)
        if tracer is not None:
            result.nodes += sum(layertrace.search_nodes(op) for op in ops)
    return result


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timing_summary(times: list[float], tail_percentile: int) -> dict:
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1000,
            "op_tail_ms": percentile(times, tail_percentile) * 1000}


def end_to_end_metrics(run: PassResult, tail_percentile: int, setup_s: float) -> dict:
    timing = timing_summary(run.adjusted, tail_percentile)
    return {
        "ops_per_s": (timing["ops_per_s"], "1/s"),
        "op_p50_ms": (timing["op_p50_ms"], "ms"),
        "op_tail_ms": (timing["op_tail_ms"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ok_ratio": ((run.ops - run.failed) / run.ops, "ratio"),
    }


def layer_metrics(tracer: layertrace.Tracer, traced: PassResult,
                  untraced: PassResult) -> dict:
    """Per-op layer figures of the traced pass.  Span times are raw seconds;
    the overhead compares the two passes at reference speed."""
    n = traced.ops
    spans = tracer.spans

    def per_op(value: float) -> float:
        return value / n

    return {
        "search.self_s": (per_op(tracer.layer_self("search")), "s/op"),
        "search.model_passes": (per_op(traced.passes), "1/op"),
        "search.nodes": (per_op(traced.nodes), "1/op"),
        "model.random_model_s": (per_op(spans["model.random_model"].total), "s/op"),
        "model.random_model_calls": (per_op(spans["model.random_model"].calls), "1/op"),
        "model.distinct_ratio": (tracer.distinct / tracer.draws if tracer.draws else 0.0,
                                 "ratio"),
        "model.enumerate_s": (per_op(spans["model.enumerate_models"].total), "s/op"),
        "model.models_enumerated": (per_op(spans["model.enumerate_models"].items), "1/op"),
        "semantics.truth_set_s": (per_op(spans["semantics.truth_set"].total), "s/op"),
        "semantics.truth_set_calls": (per_op(spans["semantics.truth_set"].calls), "1/op"),
        "semantics.holds_at_calls": (per_op(spans["semantics.holds_at"].calls), "1/op"),
        "lambdas.self_s": (per_op(tracer.layer_self("lambdas")), "s/op"),
        "lambdas.derives_calls": (per_op(spans["lambdas.derives"].calls), "1/op"),
        "formula.parse_s": (per_op(spans["formula.parse"].total), "s/op"),
        "formula.parse_calls": (per_op(spans["formula.parse"].calls), "1/op"),
        "formula.render_s": (per_op(spans["formula.render"].total), "s/op"),
        "formula.is_tautology_s": (per_op(spans["formula.is_tautology"].total), "s/op"),
        "formula.is_tautology_calls": (per_op(spans["formula.is_tautology"].calls), "1/op"),
        "proofs.check_derivation_s": (per_op(spans["proofs.check_derivation"].total), "s/op"),
        "proofs.lines_checked": (per_op(tracer.lines_checked), "1/op"),
        "cli.self_s": (per_op(tracer.layer_self("cli")), "s/op"),
        "trace.op_s": (per_op(sum(traced.raw)), "s/op"),
        "trace.overhead_s": (per_op(sum(traced.adjusted) - sum(untraced.adjusted)), "s/op"),
    }


def source_identity() -> tuple[str | None, str]:
    """(git commit if the root is a git checkout, sha256 of the sources)."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "deltalogic").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()


def run_record(args, runs: list[PassResult], setup: tuple[float, float] | None) -> dict:
    first, tail_percentile = runs[0], WORKLOADS[args.workload].tail_percentile
    ops = sum(r.ops for r in runs)
    failed = sum(r.failed for r in runs)
    adjusted = first.adjusted
    tail = percentile(adjusted, tail_percentile)
    commit, sources = source_identity()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": sources,
        "blocks": first.blocks,
        "ops": ops,
        "ops_by_kind": dict(first.kinds),
        "op_seconds_raw": [sum(r.raw) for r in runs],
        "raw": timing_summary(first.raw, tail_percentile),
        "raw_setup_s": setup[0] if setup else None,
        "speed_factor": sum(adjusted) / sum(first.raw),
        "tail_percentile": tail_percentile,
        "tail_samples": first.ops,
        "tail_ops_beyond": sum(1 for x in adjusted if x > tail),
        "op_fail_ratio": failed / ops,
        "known_defect_ops": sum(r.known_ops for r in runs),
        "known_defect_failed": sum(r.known_failed for r in runs),
        "unexpected_failures": [m for r in runs for m in r.unexpected][:20],
        "output_digest": first.digest.hexdigest(),
        "digest_ops": first.digest_ops,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deltalogic" / "cli.py").is_file():
        print(f"error: no deltalogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from deltalogic import cli

    setup = measure_setup() if args.trace == 0 else None
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        stream = OpStream(args.workload, args.seed)
        untraced = run_pass(cli, stream, args.seconds)
        runs = [untraced]
        if args.trace:
            tracer = layertrace.Tracer(args.workload)
            traced = run_pass(cli, stream, args.seconds, blocks=untraced.blocks,
                              tracer=tracer)
            tracer.check_coverage()
            runs.append(traced)
            metrics = layer_metrics(tracer, traced, untraced)
        else:
            metrics = end_to_end_metrics(untraced, stream.workload.tail_percentile, setup[1])
    except layertrace.TraceError as exc:
        print(f"error: trace integrity: {exc}", file=sys.stderr)
        return 3
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    record = run_record(args, runs, setup)
    if args.trace:
        record["bindings"] = tracer.bindings
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not any(r.unexpected for r in runs),
        "attempted": sum(r.ops for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans, recorded from outside the program.

The traced run replaces each public function listed in ``TRACED`` with a
wrapper that records a span around every call: duration, and the time its
child spans cover, so a layer's self time is its spans minus their
children.  Every module binding of the function is replaced (``from .model
import random_model`` in ``search`` and ``cli``, and the ``model`` module
itself, which ``lambdas`` imports from lazily), and every binding is put
back by ``remove``.  Functions too fine-grained to wrap, such as
``semantics.delta_state_mask`` and the compiled evaluator inside
``search``, count in their caller's self time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter

from workloads import SYSTEMS, Op

ALL = frozenset(("sound-exhaustive", "sound-random", "lambda-eq", "prove-parse"))

# (module, function, workloads on which it must be called)
TRACED = (
    ("cli", "main", ALL),
    ("formula", "parse", ALL),
    ("formula", "render", frozenset(("sound-exhaustive", "sound-random", "prove-parse"))),
    ("formula", "is_tautology", frozenset(("lambda-eq", "prove-parse"))),
    ("proofs", "parse_derivation", frozenset(("prove-parse",))),
    ("proofs", "check_derivation", frozenset(("prove-parse",))),
    ("model", "enumerate_models", frozenset(("sound-exhaustive",))),
    ("model", "random_model", frozenset(("sound-random", "lambda-eq"))),
    ("search", "check_validity", frozenset(("sound-exhaustive",))),
    ("search", "axiom_soundness_report", frozenset(("sound-exhaustive", "sound-random"))),
    ("search", "schema_soundness", frozenset(("sound-random",))),
    ("semantics", "truth_set", ALL),
    ("semantics", "holds_at", frozenset(("sound-random", "prove-parse"))),
    ("lambdas", "lambda_equality_scan", frozenset(("lambda-eq",))),
    ("lambdas", "derives", frozenset(("lambda-eq",))),
)

_MARK = "__bench_span__"


class TraceError(Exception):
    """A traced function is missing, or was never called where it must be."""


@dataclass
class Span:
    calls: int = 0
    items: int = 0      # generator yields
    total: float = 0.0
    self_time: float = 0.0
    active: bool = False


@dataclass
class OpCounters:
    delivered: int = 0  # models handed out by the model layer
    draws: set = field(default_factory=set)
    models: set = field(default_factory=set)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "deltalogic" or name.startswith("deltalogic."))]


def assert_untraced() -> None:
    """Raise if any wrapper is still bound anywhere in the package."""
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                raise TraceError(f"{module.__name__}.{attr} is still traced")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: dict[str, Span] = {}
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}
        self.bindings: dict[str, int] = {}
        self.saved: list[tuple[object, str, object]] = []
        self.stack: list[list[float]] = []
        self.op = OpCounters()
        self.lines_checked = 0
        self.draws = 0
        self.distinct = 0
        for module_name, name, _ in TRACED:
            key = f"{module_name}.{name}"
            module = sys.modules.get(f"deltalogic.{module_name}")
            if module is None or not hasattr(module, name):
                raise TraceError(f"traced function {key} is missing")
            original = getattr(module, name)
            self.spans[key] = Span()
            self.originals[key] = original
            if key == "model.enumerate_models":
                self.wrappers[key] = self._wrap_generator(key, original)
            else:
                self.wrappers[key] = self._wrap(key, original)

    # -- wrappers -----------------------------------------------------------

    def _close(self, span: Span, frame: list[float], start: float) -> None:
        """End a span: add its time to its own totals and to its parent's
        child time."""
        elapsed = perf_counter() - start
        self.stack.pop()
        span.total += elapsed
        span.self_time += elapsed - frame[0]
        if self.stack:
            self.stack[-1][0] += elapsed

    def _wrap(self, key: str, fn):
        span = self.spans[key]
        after = {"model.random_model": self._after_random_model,
                 "proofs.check_derivation": self._after_check_derivation}.get(key)

        def wrapper(*args, **kwargs):
            if span.active:  # recursion through the module binding
                return fn(*args, **kwargs)
            span.active = True
            frame = [0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.active = False
                span.calls += 1
                self._close(span, frame, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, key)
        return wrapper

    def _wrap_generator(self, key: str, fn):
        span = self.spans[key]

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span.calls += 1

            def timed():
                while True:
                    frame = [0.0]
                    self.stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span, frame, start)
                    span.items += 1
                    self.op.delivered += 1
                    yield item

            return timed()

        setattr(wrapper, _MARK, key)
        return wrapper

    def _after_random_model(self, args, kwargs, model) -> None:
        self.op.delivered += 1
        self.op.draws.add(kwargs.get("seed", args[3] if len(args) > 3 else 0))
        self.op.models.add((model.neighborhoods, tuple(sorted(model.valuation.items()))))

    def _after_check_derivation(self, args, kwargs, result) -> None:
        steps = len(args[1].steps)
        self.lines_checked += steps if result.accepted else (result.line or 0)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        for key, original in self.originals.items():
            count = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, self.wrappers[key])
                        self.saved.append((module, attr, original))
                        count += 1
            self.bindings[key] = count

    def remove(self) -> None:
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)
        assert_untraced()

    # -- per-op accounting ----------------------------------------------------

    def op_begin(self) -> None:
        self.op = OpCounters()

    def op_end(self, scope_models: int | None) -> float:
        """Close an op; return its model passes (models handed out / scope)."""
        self.draws += len(self.op.draws)
        self.distinct += len(self.op.models)
        return self.op.delivered / scope_models if scope_models else 0.0

    def check_coverage(self) -> None:
        for module_name, name, required in TRACED:
            key = f"{module_name}.{name}"
            if self.workload in required and self.spans[key].calls == 0:
                raise TraceError(f"{key} was never called on {self.workload}")

    def layer_self(self, layer: str) -> float:
        return sum(span.self_time for key, span in self.spans.items()
                   if key.startswith(layer + "."))


def search_nodes(op: Op) -> int:
    """Distinct subformulas of the pools a search op compiles, one per scan."""
    from deltalogic import parse
    from deltalogic.formula import iter_subformulas
    from deltalogic.search import schema_instances

    if op.kind == "validity":
        groups = [[parse(op.expect["formula"])]]
    elif op.kind in ("soundness", "refutation"):
        pool = [parse(part) for part in op.expect["pool"].split(",")]
        schemas = (SYSTEMS[op.expect["system"]][0] if op.kind == "soundness"
                   else (op.expect["schema"],))
        groups = [schema_instances(schema, pool) for schema in schemas]
    else:
        return 0
    return sum(len({g for f in group for g in iter_subformulas(f)}) for group in groups)

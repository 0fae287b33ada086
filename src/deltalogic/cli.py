"""Command-line front door.

One subcommand per claim family:

    check          evaluate a formula at a state of a model
    validity       search a frame class for a countermodel
    props          report the frame properties of a model
    supplement     superset-close a model, or sweep-check the closure laws
    prove          check a derivation file or the shipped fixtures
    soundness      scan axiom instance pools over a system's class
    cube           produce the 12 separation witnesses between the systems
    lambda-eq      compare the two canonical selection functions
    schema-exp     evidence run for the almost-definability schema
    monotone-exp   hunt monotonicity failures of its selection function
    enumerate      stream or count the models of a class

Exit codes: 0 for success, valid, accepted or equal; 1 when a countermodel,
rejection, difference or missing witness is found; 2 for usage or input
errors.  Default seeds are fixed so default runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Sequence

from . import lambdas, model, proofs, search, semantics
from .formula import RESERVED_ATOM, FormulaError, Formula, atoms_of, parse, render
from .model import (
    ALL_FRAMES,
    BoundExceededError,
    FrameClassSpec,
    NeighborhoodModel,
    enumerate_models,
    model_from_json,
    model_stream,
    model_to_dict,
    model_to_json,
    random_model,  # noqa: F401  (benchmarks/selftest.py traces this binding)
    supplementation,
)

DEFAULT_SEED = search.DEFAULT_SEED

_INPUT_ERRORS = (FormulaError, BoundExceededError, ValueError, OSError,
                 proofs.DerivationFormatError, semantics.UnknownAtomError)


def _emit(data: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


def _load_model(path: str) -> NeighborhoodModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json(handle.read())


def _split_list(text: str | None) -> tuple[str, ...]:
    """The stripped, non-empty parts of a comma-separated option value."""
    return tuple(part.strip() for part in (text or "").split(",") if part.strip())


def _parse_pool(text: str | None) -> tuple[Formula, ...]:
    if text is None:
        return search.DEFAULT_POOL
    pool = tuple(map(parse, _split_list(text)))
    if not pool:
        raise ValueError("empty instance pool")
    return pool


def _pool_atoms(pool: Sequence[Formula], base: tuple[str, ...]) -> tuple[str, ...]:
    names = set(base)
    for f in pool:
        names |= atoms_of(f)
    names.discard(RESERVED_ATOM)
    return tuple(sorted(names))


def _search_config(args, atoms: tuple[str, ...]) -> search.SearchConfig:
    cfg = search.SearchConfig(
        mode=args.mode, max_states=args.max_states, trials=args.trials,
        seed=args.seed, atoms=atoms, extended=getattr(args, "extended", False))
    # A verdict over no models would claim more than its scope.
    if (cfg.max_states if cfg.mode == "exhaustive" else cfg.trials) == 0:
        raise ValueError(f"scope {cfg.scope()} holds no model")
    return cfg


def _verdict_data(formula: Formula, spec: FrameClassSpec,
                  verdict) -> dict:
    data = {
        "query": render(formula),
        "class": spec.name(),
        "verdict": "valid" if isinstance(verdict, search.Valid) else "countermodel",
        "witness": None,
        "state": None,
        "scope": None,
    }
    if isinstance(verdict, search.Valid):
        data["scope"] = verdict.scope
    else:
        data["witness"] = model_to_dict(verdict.model)
        data["state"] = verdict.state
    return data


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.

def _cmd_check(args) -> int:
    m = _load_model(args.model)
    f = parse(args.formula, "extended" if args.extended else "core")
    value = semantics.holds_at(m, args.state, f, extended=args.extended)
    _emit({"formula": render(f), "state": args.state, "holds": value},
          args.json, "true" if value else "false")
    return 0


def _cmd_validity(args) -> int:
    spec = FrameClassSpec.parse(args.cls)
    f = parse(args.formula, "extended" if args.extended else "core")
    names = _pool_atoms((f,), _split_list(args.atoms))
    verdict = search.check_validity(f, spec, _search_config(args, names))
    data = _verdict_data(f, spec, verdict)
    if isinstance(verdict, search.Valid):
        _emit(data, args.json, f"valid ({verdict.scope}, {verdict.models_checked} models)")
        return 0
    _emit(data, args.json,
          "countermodel at state "
          f"{verdict.state}: {model_to_json(verdict.model)}")
    return 1


def _cmd_props(args) -> int:
    m = _load_model(args.model)
    flags = {p: model.has_property(m, p) for p in model.PROPERTY_LETTERS}
    names = [alias for alias in ("all", "quasi-filter", "filter")
             if FrameClassSpec.parse(alias).matches(m)]
    text = " ".join(f"{p}={str(v).lower()}" for p, v in flags.items())
    _emit({"properties": flags, "classes": names}, args.json,
          f"{text}  classes: {', '.join(names)}")
    return 0


def _cmd_supplement(args) -> int:
    if args.check:
        if args.model is not None:
            raise ValueError("--model applies only without --check; "
                             "the closure-law sweep reads no model")
        return _supplement_sweep(args)
    if args.model is None:
        raise ValueError("supplement needs --model or --check")
    if args.json:
        raise ValueError("--json applies only to --check; "
                         "supplement --model always prints the model as JSON")
    m = _load_model(args.model)
    print(model_to_json(supplementation(m)))
    return 0


def _supplement_sweep(args) -> int:
    # Closure-law sweep: supplemented result, growth, idempotence, and
    # preservation of i and n, over exhaustive |S|=2 plus random models.
    failures = 0
    checked = 0
    for m in model_stream((), ALL_FRAMES, exhaustive=(2,), random_sizes=(3, 4),
                          trials=args.trials, seed=args.seed):
        checked += 1
        plus = supplementation(m)
        ok = model.has_property(plus, "s")
        ok = ok and all(a <= b for a, b in zip(m.neighborhoods, plus.neighborhoods))
        ok = ok and supplementation(plus) == plus
        for prop in "in":
            if model.has_property(m, prop) and not model.has_property(plus, prop):
                ok = False
        if not ok:
            failures += 1
            print(f"violation: {model_to_json(m)}", file=sys.stderr)
    _emit({"models_checked": checked, "violations": failures},
          args.json, f"checked {checked} models, violations: {failures}")
    return 0 if failures == 0 else 1


def _cmd_prove(args) -> int:
    if args.all_fixtures:
        entries, lines = [], []
        for name in proofs.fixture_names():
            system, derivation = proofs.load_fixture(name)
            result = proofs.check_derivation(system, derivation)
            entries.append({"name": name, "system": system, "accepted": result.accepted,
                            "line": result.line, "reason": result.reason})
            status = "accepted" if result.accepted else (
                f"rejected at line {result.line} ({result.reason})")
            lines.append(f"{name} [{system}]: {status}")
        _emit({"fixtures": entries}, args.json, "\n".join(lines))
        return 0 if all(entry["accepted"] for entry in entries) else 1
    if args.fixture:
        if args.derivation is not None:
            raise ValueError("--derivation applies only without --fixture; "
                             "a fixture carries its own derivation")
        system, derivation = proofs.load_fixture(args.fixture)
        if args.system:
            system = args.system
    else:
        if not args.derivation or not args.system:
            raise ValueError("prove needs --derivation and --system, or --fixture")
        with open(args.derivation, "r", encoding="utf-8") as handle:
            derivation = proofs.parse_derivation(handle.read())
        system = args.system
    result = proofs.check_derivation(system, derivation)
    data = {"system": system, "accepted": result.accepted,
            "line": result.line, "reason": result.reason, "detail": result.detail}
    if result.accepted:
        _emit(data, args.json, f"accepted in {system}")
        return 0
    _emit(data, args.json,
          f"rejected at line {result.line}: {result.reason} ({result.detail})")
    return 1


def _cmd_soundness(args) -> int:
    if args.schema and args.system:
        raise ValueError("--system applies only without --schema; "
                         "a schema run scans one schema on --class")
    if args.system and args.cls is not None:
        raise ValueError("--class applies only without --system; "
                         "a system run scans the system's own class")
    pool = _parse_pool(args.pool)
    names = _pool_atoms(pool, ())
    cfg = _search_config(args, names)
    if args.schema:
        spec = FrameClassSpec.parse(args.cls if args.cls else "all")
        report = search.schema_soundness(args.schema, spec, pool, cfg)
    elif args.system:
        report = search.axiom_soundness_report(args.system, pool, cfg)
    else:
        raise ValueError("soundness needs --system or --schema")
    lines = []
    data_entries = []
    for entry in report.per_schema:
        status = "ok" if not entry.countermodels else (
            f"{len(entry.countermodels)} countermodels")
        lines.append(f"{entry.schema}: {entry.instance_count} instances, {status}")
        data_entries.append({
            "schema": entry.schema,
            "instances": entry.instance_count,
            "countermodels": [
                {"instance": render(instance), "state": cm.state,
                 "witness": model_to_dict(cm.model)}
                for instance, cm in entry.countermodels
            ],
        })
    header = (f"system {report.system}" if report.system else "schema run") + (
        f" on class {report.class_name} ({report.scope})")
    _emit({"system": report.system, "class": report.class_name,
           "scope": report.scope, "schemas": data_entries},
          args.json, header + "\n" + "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_cube(args) -> int:
    pool = _parse_pool(args.pool)
    names = _pool_atoms(pool, ())
    try:
        witnesses = search.cube_strictness(
            pool=pool, max_states=args.max_states, trials=args.trials,
            random_max_states=args.random_max_states, seed=args.seed, atoms=names)
    except search.WitnessNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = []
    for w in witnesses:
        data.append({
            "source": w.source, "target": w.target, "axiom": w.axiom,
            "instance": render(w.instance), "state": w.state,
            "states": w.model.state_count, "phase": w.phase,
            "inclusion_ok": w.inclusion_ok,
            "witness": model_to_dict(w.model),
        })
        if not args.json:
            print(f"{w.source} -> {w.target} (adds {w.axiom}): falsifies "
                  f"{render(w.instance)} at state {w.state} of a "
                  f"{w.model.state_count}-state model [{w.phase}]")
    if args.json:
        print(json.dumps({"arrows": data}, sort_keys=True))
    return 0


def _cmd_lambda_eq(args) -> int:
    base = tuple(map(parse, _split_list(args.base)))
    given = [name for name in _LAMBDA_SCAN_DEFAULTS if getattr(args, name) is not None]
    if args.model:
        if given:
            raise ValueError(f"--{given[0].replace('_', '-')} applies only without "
                             "--model; a model report scans no models")
        m = _load_model(args.model)
        comparison = lambdas.compare_lambdas(
            m, lambdas.close_universe(base, args.depth))
        payload = [
            {
                "model": model_to_dict(m),
                "state": s.state,
                "universe_size": s.universe_size,
                "lambda_k": [render(f) for f in s.lambda_k],
                "lambda_h": [render(f) for f in s.lambda_h_original],
                "equal": s.equal,
            }
            for s in comparison.states
        ]
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            for item in payload:
                print(f"state {item['state']}: equal={item['equal']} "
                      f"lambda_k={item['lambda_k']}")
        return 0 if comparison.equal else 1
    scan = dict(_LAMBDA_SCAN_DEFAULTS, **{name: getattr(args, name) for name in given})
    if scan["exhaustive_states"] == 0 and scan["trials"] == 0:
        raise ValueError("scope holds no model: --exhaustive-states and "
                         "--trials are both 0")
    report = lambdas.lambda_equality_scan(
        base, args.depth, exhaustive_states=scan["exhaustive_states"],
        random_trials=scan["trials"], random_states=scan["max_states"],
        seed=scan["seed"])
    _emit({"scope": report.scope, "models_checked": report.models_checked,
           "differences": len(report.differences)},
          args.json,
          f"{report.scope}: {report.models_checked} models, "
          f"differences: {len(report.differences)}")
    return 0 if report.ok else 1


def _cmd_schema_exp(args) -> int:
    pool = _parse_pool(args.pool)
    names = _pool_atoms(pool, ())
    spec = FrameClassSpec.parse(args.cls)
    cfg = replace(_search_config(args, names), extended=True)
    report = search.schema_validity_experiment(spec, cfg, pool)
    items = []
    for item in report.items:
        verdict = ("valid" if isinstance(item.verdict, search.Valid)
                   else "countermodel")
        items.append({"phi": render(item.phi), "chi": render(item.chi),
                      "verdict": verdict})
    _emit({"class": report.class_name, "scope": report.scope,
           "note": report.note, "items": items},
          args.json,
          f"class {report.class_name} ({report.scope}): "
          f"{len(items) - report.countermodel_count} valid in scope, "
          f"{report.countermodel_count} countermodels\nnote: {report.note}")
    return 0


def _cmd_monotone_exp(args) -> int:
    base = tuple(map(parse, _split_list(args.base)))
    universe = lambdas.close_universe(base, args.depth)
    names = _pool_atoms(universe.members, ())
    cfg = _search_config(args, names)
    report = search.almost_monotonicity_experiment(universe, cfg)
    status = "inconclusive" if report.inconclusive else (
        f"{len(report.violations)} re-verified violations")
    _emit({"models_checked": report.models_checked,
           "violations": len(report.violations),
           "inconclusive": report.inconclusive},
          args.json, f"checked {report.models_checked} models: {status}")
    return 0


def _cmd_enumerate(args) -> int:
    spec = FrameClassSpec.parse(args.cls)
    names = _split_list(args.atoms)
    count = 0
    for m in enumerate_models(args.states, names, spec):
        count += 1
        if not args.count:
            if args.limit and count > args.limit:
                count -= 1
                break
            print(model_to_json(m))
    if args.count:
        print(count)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.

# lambda-eq's scan options and their defaults.  The options themselves
# default to None, so that one given next to --model can be refused.
_LAMBDA_SCAN_DEFAULTS = {"exhaustive_states": 0, "max_states": 3,
                         "trials": 1000, "seed": DEFAULT_SEED}


def _count(text: str) -> int:
    """The value of a count option (states, trials, limit): an int >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return int(text)


def _add_search_options(sub):
    sub.add_argument("--mode", choices=("exhaustive", "random"),
                     default="exhaustive")
    sub.add_argument("--max-states", type=_count, default=2)
    sub.add_argument("--trials", type=_count, default=1000)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltalogic",
        description="Workbench for noncontingency logic over neighborhood models.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("check", help="evaluate a formula at a state")
    sub.add_argument("--model", required=True)
    sub.add_argument("--formula", required=True)
    sub.add_argument("--state", type=int, default=0)
    sub.add_argument("--extended", action="store_true")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_check)

    sub = commands.add_parser("validity", help="search a class for a countermodel")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--class", dest="cls", default="all")
    sub.add_argument("--atoms", default=None)
    sub.add_argument("--extended", action="store_true")
    _add_search_options(sub)
    sub.set_defaults(handler=_cmd_validity)

    sub = commands.add_parser("props", help="frame properties of a model")
    sub.add_argument("--model", required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_props)

    sub = commands.add_parser("supplement",
                              help="superset-close a model or sweep the closure laws")
    sub.add_argument("--model")
    sub.add_argument("--check", action="store_true",
                     help="run the closure-law sweep instead of transforming")
    sub.add_argument("--trials", type=_count, default=1000)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_supplement)

    sub = commands.add_parser("prove", help="check a derivation")
    sub.add_argument("--derivation")
    sub.add_argument("--system", choices=proofs.SYSTEM_IDS)
    sub.add_argument("--fixture")
    sub.add_argument("--all-fixtures", action="store_true")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_prove)

    sub = commands.add_parser("soundness", help="axiom instance pools vs a class")
    sub.add_argument("--system", choices=proofs.SYSTEM_IDS)
    sub.add_argument("--schema", choices=tuple(proofs.SCHEMAS))
    sub.add_argument("--class", dest="cls", default=None)
    sub.add_argument("--pool", default=None,
                     help="comma-separated formulas (default pool: p, q, !p, !q, p & q, p | q)")
    _add_search_options(sub)
    sub.set_defaults(handler=_cmd_soundness)

    sub = commands.add_parser("cube", help="separation witnesses between systems")
    sub.add_argument("--pool", default=None)
    sub.add_argument("--max-states", type=_count, default=2)
    sub.add_argument("--trials", type=_count, default=2000)
    sub.add_argument("--random-max-states", type=_count, default=4)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_cube)

    # No abbreviations here: "--mode" would otherwise be read as "--model".
    sub = commands.add_parser("lambda-eq", help="compare the selection functions",
                              allow_abbrev=False)
    sub.add_argument("--model")
    sub.add_argument("--base", default="p,q")
    sub.add_argument("--depth", type=int, default=1)
    sub.add_argument("--exhaustive-states", type=_count)
    sub.add_argument("--max-states", type=_count)
    sub.add_argument("--trials", type=_count)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_lambda_eq)

    sub = commands.add_parser("schema-exp",
                              help="almost-definability schema evidence run")
    sub.add_argument("--class", dest="cls", default="all")
    sub.add_argument("--pool", default=None)
    _add_search_options(sub)
    sub.set_defaults(handler=_cmd_schema_exp)

    sub = commands.add_parser("monotone-exp",
                              help="monotonicity failures of the schema selection")
    sub.add_argument("--base", default="p,q")
    sub.add_argument("--depth", type=int, default=1)
    sub.add_argument("--max-states", type=_count, default=3)
    sub.add_argument("--trials", type=_count, default=1000)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_monotone_exp, mode="random")

    sub = commands.add_parser("enumerate", help="stream or count models of a class")
    sub.add_argument("--states", type=int, required=True)
    sub.add_argument("--atoms", default=None)
    sub.add_argument("--class", dest="cls", default="all")
    sub.add_argument("--count", action="store_true")
    sub.add_argument("--limit", type=_count, default=0)
    sub.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

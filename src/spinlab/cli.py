"""Command-line interface.

    spinlab run --scenario FILE [--format json|csv|text] [--out PATH]
                [--seed N] [--structure-pairing standard|flipped]
    spinlab catalog [--format ...] [--out PATH] [--structure-pairing ...]
    spinlab list-checks

Exit codes: 0 all checks pass, 1 at least one residual failure,
2 configuration error (also a scenario too large to allocate).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .checks import list_checks, run_catalog, run_scenario
from .reports import Scenario, ScenarioError, _json_text, emit


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {out!r}: {exc}") from exc


def _cmd_run(args) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:  # RecursionError: nesting too deep
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    if isinstance(raw, dict):  # Scenario.from_dict rejects anything else
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.structure_pairing is not None:
            raw["structure_pairing"] = args.structure_pairing
    try:
        scenario = Scenario.from_dict(raw)
        report = run_scenario(scenario)
        _write(emit(report, args.format), args.out)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


def _cmd_catalog(args) -> int:
    try:
        reports = run_catalog(args.structure_pairing or "standard")
        if args.format == "json":
            text = _json_text([r.to_dict() for r in reports])
        elif args.format == "csv":
            chunks = [emit(r, "csv") for r in reports]
            header = chunks[0].splitlines()[0]
            rows = [line for c in chunks for line in c.splitlines()[1:]]
            text = "\n".join([header, *rows]) + "\n"
        else:
            text = "\n".join(emit(r, "text") for r in reports)
        _write(text, args.out)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


def _cmd_list_checks(_args) -> int:
    for name, kind, tol, anchor in list_checks():
        print(f"{name:36s} [{kind:7s}] tol={tol:.1e}")
        print(f"    {anchor}")
    return 0


@functools.cache  # one parser serves every call of ``main``
def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinlab",
        description="Residual verification for hypersurfaces of products "
                    "of two-dimensional space forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--structure-pairing",
                       choices=("standard", "flipped"), default=None)
    run_p.set_defaults(fn=_cmd_run)

    cat_p = sub.add_parser("catalog", help="run every built-in scenario")
    cat_p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
    cat_p.add_argument("--out", default=None)
    cat_p.add_argument("--structure-pairing",
                       choices=("standard", "flipped"), default=None)
    cat_p.set_defaults(fn=_cmd_catalog)

    list_p = sub.add_parser("list-checks", help="print the check registry")
    list_p.set_defaults(fn=_cmd_list_checks)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MemoryError as exc:  # e.g. a sample count too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line interface: ``quadident list`` and ``quadident verify``.

Exit codes: 0 when every outcome passes, 1 when any identity fails or does
not converge, 2 for usage or internal errors.
"""

from __future__ import annotations

import argparse
import sys

from .ledger import make_report, render_report, side_tolerance, verify
from .numerics import Tolerance
from .registry import lookup, registry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadident",
        description="Verify classical arctangent/logarithm integral and "
        "series identities numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the identity registry")

    run = sub.add_parser("verify", help="verify identities over parameter grids")
    run.add_argument("--ids", default=None,
                     help="comma-separated identity ids (default: all)")
    run.add_argument("--grid", type=int, default=5, metavar="N",
                     help="points per continuous parameter (default 5)")
    run.add_argument("--tol", type=float, default=None,
                     help="override both absolute and relative tolerance")
    run.add_argument("--max-work", type=int, default=None, metavar="N",
                     help="cap on function evaluations / series terms")
    run.add_argument("--format", choices=("table", "json"), default="table")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="write the report to a file instead of stdout")
    return parser


def _cmd_list() -> int:
    print(f"{'id':<8}{'parameters':<46}source")
    for case_id in sorted(registry()):
        case = lookup(case_id)
        print(f"{case.id:<8}{case.param_summary():<46}{case.source}")
        print(f"{'':<8}{case.description}")
    return 0


def _case_tolerance(case_id: str, tol: float | None, max_work: int | None):
    base = lookup(case_id).default_tol
    if tol is None and max_work is None:
        return None  # keep the case default
    override = Tolerance(
        tol if tol is not None else base.abs_tol,
        tol if tol is not None else base.rel_tol,
        max_work if max_work is not None else base.max_work,
    )
    side_tolerance(override)  # raises as verify would, e.g. for a subnormal --tol
    return override


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_verify(args) -> int:
    if args.grid < 1:
        return _usage_error("--grid must be >= 1")
    if args.ids is None:
        ids = sorted(registry())
    else:
        ids = [s.strip() for s in args.ids.split(",") if s.strip()]
        if not ids:
            return _usage_error("--ids names no identity")
        for case_id in ids:
            if case_id not in registry():
                return _usage_error(f"unknown identity id {case_id!r}")
        ids = sorted(ids)
    try:  # checked for every case before any of them runs
        tols = [_case_tolerance(case_id, args.tol, args.max_work) for case_id in ids]
    except ValueError as exc:
        return _usage_error(f"--tol/--max-work: {exc}")

    # verify is looked up here at call time, where the benchmark's tracer
    # replaces it to time each case
    outcomes = [o for case_id, tol in zip(ids, tols)
                for o in verify(case_id, grid_size=args.grid, tol=tol)]
    report = make_report(outcomes, args.tol, args.tol)
    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    summary = report.summary
    return 0 if summary["failed"] == 0 and summary["not_converged"] == 0 else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        if args.command == "list":
            return _cmd_list()
        return _cmd_verify(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal error contract: exit code 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Verification driver: run identity cases over parameter grids and report.

Grids place ``grid_size`` evenly spaced points strictly inside each continuous
parameter's open interval, enumerate every value of discrete parameters, and
append the case's registered endpoint evaluations. A failing or non-converged
point never aborts a run; the report is the product, and the CLI exit code
carries the aggregate status.

Reports order outcomes by identity id, then by parameter tuple, so two runs
with the same inputs are byte-identical apart from the timestamp.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .numerics import Tolerance
from .registry import EvalOutcome, IdentityCase, lookup, registry

REASON_MISMATCH = "mismatch"
REASON_NOT_CONVERGED = "not_converged"
REASON_IMAG = "imaginary_part_exceeds_tolerance"


@dataclass(frozen=True)
class VerificationOutcome:
    id: str
    params: dict
    lhs_value: float
    rhs_value: float
    abs_error: float
    rel_error: float
    passed: bool
    reason: str  # empty when passed
    evals: int   # integrand evaluations (both sides)
    terms: int   # series terms (both sides)


@dataclass(frozen=True)
class Report:
    version: str
    timestamp: str
    tol_abs: Optional[float]  # global override, None when per-case defaults
    tol_rel: Optional[float]
    outcomes: tuple[VerificationOutcome, ...]

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(1 for o in self.outcomes if o.passed)
        nc = sum(1 for o in self.outcomes if not o.passed and o.reason == REASON_NOT_CONVERGED)
        failed = len(self.outcomes) - passed - nc
        return {"passed": passed, "failed": failed, "not_converged": nc}


def _grid_points(case: IdentityCase, grid_size: int) -> list[dict]:
    axes: list[list[tuple[str, float]]] = []
    for d in case.discrete:
        axes.append([(d.name, v) for v in d.values])
    for c in case.continuous:
        axes.append([(c.name, v) for v in c.points(grid_size)])
    if axes:
        points = [dict(combo) for combo in itertools.product(*axes)]
    else:
        points = [{}]
    return points


def _rel_error(a: float, b: float, diff: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return diff / scale


def verify(
    case_id: str,
    grid_size: int = 5,
    tol: Optional[Tolerance] = None,
    points: Optional[list[dict]] = None,
) -> list[VerificationOutcome]:
    """Verify one identity over its parameter grid.

    ``tol`` overrides the case's default tolerance; ``points`` replaces the
    uniform grid with explicit parameter dicts (registered endpoints are still
    appended).
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    case = lookup(case_id)
    eff = tol if tol is not None else case.default_tol
    # evaluate each side tighter than the comparison so evaluation error
    # does not consume the comparison budget
    eval_tol = Tolerance(eff.abs_tol / 4.0, eff.rel_tol / 4.0, eff.max_work)

    pts = list(points) if points is not None else _grid_points(case, grid_size)
    jobs: list[tuple[dict, Optional[float], Optional[float]]] = [
        (p, None, None) for p in pts
    ]
    for ep in case.extra_points:
        base = dict(ep.params)
        # endpoints registered for a continuous parameter still enumerate
        # every value of the discrete parameters
        missing = [d for d in case.discrete if d.name not in base]
        combos = itertools.product(*[[(d.name, v) for v in d.values] for d in missing])
        for combo in combos:
            jobs.append((dict(combo) | base, ep.lhs_value, ep.rhs_value))

    # each side in one pass over the jobs; a point whose left side raised
    # never evaluates its right side
    lhs = _evaluate(case, case.lhs, [(p, lo) for p, lo, _ in jobs], eval_tol)
    rhs = _evaluate(case, case.rhs, [
        None if isinstance(left, Exception) else (p, ro)
        for (p, _, ro), left in zip(jobs, lhs)
    ], eval_tol)
    return [_verify_point(case, params, eff, left, right)
            for (params, _, _), left, right in zip(jobs, lhs, rhs)]


def _evaluate(case, evaluator, jobs, tol):
    """One side of each ``(params, override)`` job: the override, the
    ``EvalOutcome``, or the exception the evaluation raised; None for a job
    that is None.

    Points that differ only in the case's continuous parameter go through
    one ``evaluator.rows`` call; a point without it (every point of a case
    without one) is a call of its own. If a call raises, its points are
    evaluated one at a time, so each failure reads as it would alone
    (failures are data, not aborts).
    """
    results: list = [None] * len(jobs)
    axis = case.continuous[0].name if case.continuous else None
    groups: dict = {}
    for i, job in enumerate(jobs):
        if job is None:
            continue
        params, override = job
        if override is not None:
            results[i] = override
            continue
        name = axis if axis in params else None
        key = (name, tuple(sorted((k, v) for k, v in params.items() if k != name)))
        groups.setdefault(key, []).append(i)
    for (name, fixed), idx in groups.items():
        try:
            outs = evaluator.rows(dict(fixed), name, [jobs[i][0].get(name) for i in idx], tol)
        except Exception:
            outs = [_evaluate_one(evaluator, jobs[i][0], tol) for i in idx]
        for i, out in zip(idx, outs):
            results[i] = out
    return results


def _evaluate_one(evaluator, params, tol):
    try:
        return evaluator.fn(params, tol)
    except Exception as exc:  # failures are data, not aborts
        return exc


def _verify_point(case, params, eff, lhs, rhs):
    """One outcome from each side's override value, ``EvalOutcome`` or
    exception; the right side is ignored once the left one raised."""
    evals = terms = 0
    converged = True
    reason = ""
    lhs_value = rhs_value = math.nan
    imag_excess = None
    for side, result in (("lhs", lhs), ("rhs", rhs)):
        if isinstance(result, Exception):
            return VerificationOutcome(
                case.id, params, lhs_value, rhs_value, math.nan, math.nan,
                False, f"error: {result}", evals, terms,
            )
        if isinstance(result, EvalOutcome):
            evals += result.evals
            terms += result.terms
            converged = converged and result.converged
            value = result.value
        else:
            value = result
        if isinstance(value, complex):
            margin = eff.abs_tol + eff.rel_tol * max(
                abs(value.real), abs(lhs_value) if side == "rhs" else 0.0
            )
            if abs(value.imag) > margin:
                imag_excess = value.imag
            value = value.real
        if side == "lhs":
            lhs_value = value
        else:
            rhs_value = value

    diff = abs(lhs_value - rhs_value)
    ok = eff.passes(lhs_value, rhs_value)
    if not converged:
        ok, reason = False, REASON_NOT_CONVERGED
    elif imag_excess is not None:
        ok, reason = False, REASON_IMAG
    elif not ok:
        reason = REASON_MISMATCH
    return VerificationOutcome(
        case.id, params, lhs_value, rhs_value, diff,
        _rel_error(lhs_value, rhs_value, diff), ok, reason, evals, terms,
    )


def make_report(outcomes, tol_abs: Optional[float], tol_rel: Optional[float]) -> Report:
    """A report of the outcomes, ordered by identity id and then by parameter
    items, stamped with the package version and the current time.
    ``tol_abs``/``tol_rel`` record a global tolerance override (None when
    each case keeps its default)."""
    return Report(
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        outcomes=tuple(sorted(outcomes, key=lambda o: (o.id, sorted(o.params.items())))),
    )


def verify_all(grid_size: int = 5, tol: Optional[Tolerance] = None) -> Report:
    """Run every registered identity; outcomes ordered by id, then parameters."""
    outcomes = [o for case_id in sorted(registry())
                for o in verify(case_id, grid_size=grid_size, tol=tol)]
    return make_report(outcomes, tol.abs_tol if tol is not None else None,
                       tol.rel_tol if tol is not None else None)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _finite(x):
    """The value as written to JSON: non-finite floats become null."""
    return x if x is None or math.isfinite(x) else None


def _outcome_fields(o: VerificationOutcome) -> dict:
    return {
        "id": o.id,
        "params": {k: _finite(v) for k, v in sorted(o.params.items())},
        "lhs": _finite(o.lhs_value),
        "rhs": _finite(o.rhs_value),
        "abs_error": _finite(o.abs_error),
        "rel_error": _finite(o.rel_error),
        "pass": o.passed,
        "reason": o.reason,
        "work": {"evals": o.evals, "terms": o.terms},
    }


_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def render_json(report: Report) -> str:
    """The report as compact JSON. Outcomes are dumped one by one and joined,
    so the whole report never exists as one nested dict."""
    head = _dumps({
        "version": report.version,
        "timestamp": report.timestamp,
        "tolerance": {"abs": _finite(report.tol_abs), "rel": _finite(report.tol_rel)},
    })
    outcomes = ",".join(_dumps(_outcome_fields(o)) for o in report.outcomes)
    return f'{head[:-1]},"outcomes":[{outcomes}],"summary":{_dumps(report.summary)}}}'


def render_table(report: Report) -> str:
    lines = [
        f"{'id':<8}{'params':<28}{'lhs':>24}{'rhs':>24}{'abs_err':>11}  status"
    ]
    for o in report.outcomes:
        params = ",".join(f"{k}={v:g}" for k, v in sorted(o.params.items())) or "-"
        status = "pass" if o.passed else (o.reason or "fail")
        lines.append(
            f"{o.id:<8}{params:<28}{o.lhs_value:>24.16g}{o.rhs_value:>24.16g}"
            f"{o.abs_error:>11.2e}  {status}"
        )
    s = report.summary
    lines.append(
        f"summary: passed={s['passed']} failed={s['failed']} "
        f"not_converged={s['not_converged']}"
    )
    return "\n".join(lines)


def render_report(report: Report, fmt: str = "table") -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "table":
        return render_table(report)
    raise ValueError(f"unknown report format {fmt!r}")

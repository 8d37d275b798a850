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
from .registry import IdentityCase, lookup, registry

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

    outcomes = []
    for params, lhs_override, rhs_override in jobs:
        outcomes.append(
            _verify_point(case, params, eff, eval_tol, lhs_override, rhs_override)
        )
    return outcomes


def _verify_point(case, params, eff, eval_tol, lhs_override, rhs_override):
    evals = terms = 0
    converged = True
    reason = ""
    lhs_value = rhs_value = math.nan
    imag_excess = None
    try:
        for side, override in (("lhs", lhs_override), ("rhs", rhs_override)):
            evaluator = case.lhs if side == "lhs" else case.rhs
            if override is not None:
                value = override
            else:
                out = evaluator.fn(params, eval_tol)
                evals += out.evals
                terms += out.terms
                converged = converged and out.converged
                value = out.value
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
    except Exception as exc:  # failures are data, not aborts
        return VerificationOutcome(
            case.id, params, lhs_value, rhs_value, math.nan, math.nan,
            False, f"error: {exc}", evals, terms,
        )

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


def param_sort_key(outcome: VerificationOutcome):
    """Report ordering within an id: lexicographic in the parameter items."""
    return tuple(sorted(outcome.params.items()))


def verify_all(grid_size: int = 5, tol: Optional[Tolerance] = None) -> Report:
    """Run every registered identity; outcomes ordered by id, then parameters."""
    outcomes: list[VerificationOutcome] = []
    for case_id in sorted(registry()):
        outcomes.extend(sorted(verify(case_id, grid_size=grid_size, tol=tol),
                               key=param_sort_key))
    return Report(
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        tol_abs=tol.abs_tol if tol is not None else None,
        tol_rel=tol.rel_tol if tol is not None else None,
        outcomes=tuple(outcomes),
    )


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

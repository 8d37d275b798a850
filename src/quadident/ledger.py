"""Verification driver: run identity cases over parameter grids and report.

Grids place ``grid_size`` evenly spaced points strictly inside each continuous
parameter's open interval, enumerate every value of discrete parameters, and
append the case's registered endpoint evaluations. A failing or non-converged
point never aborts a run; the report is the product, and the CLI exit code
carries the aggregate status.

Each side of a case goes through one batched ``rows`` call over all of its
points, discrete parameters included; a call that raises is retried by
halves, so each failure reads as its one-point call would. The results stay
columns (value, work, convergence) until one array pass judges every point
of the case, and each outcome is built once from those columns.

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

import numpy as np

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
    axes = [[(d.name, v) for v in d.values] for d in case.discrete]
    axes += [[(c.name, v) for v in c.points(grid_size)] for c in case.continuous]
    return [dict(combo) for combo in itertools.product(*axes)]


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
    eval_tol = side_tolerance(eff)

    pts = list(points) if points is not None else _grid_points(case, grid_size)
    lhs_over: dict[int, float] = {}  # point index -> registered value
    rhs_over: dict[int, float] = {}
    for ep in case.extra_points:
        base = dict(ep.params)
        # endpoints registered for a continuous parameter still enumerate
        # every value of the discrete parameters
        missing = [[(d.name, v) for v in d.values] for d in case.discrete if d.name not in base]
        for combo in itertools.product(*missing):
            for over, value in ((lhs_over, ep.lhs_value), (rhs_over, ep.rhs_value)):
                if value is not None:
                    over[len(pts)] = value
            pts.append(dict(combo) | base)

    # each side in one rows call; a point whose left side raised never
    # evaluates its right side
    lhs = _evaluate(case.lhs, pts, lhs_over, {}, eval_tol)
    rhs = _evaluate(case.rhs, pts, rhs_over, lhs.errors, eval_tol)
    return _judge(case.id, pts, eff, lhs, rhs)


def side_tolerance(tol: Tolerance) -> Tolerance:
    """A quarter of the comparison tolerance, for each side, so that evaluation
    error does not consume the comparison budget (ValueError if it is 0)."""
    return Tolerance(tol.abs_tol / 4.0, tol.rel_tol / 4.0, tol.max_work)


class _Side:
    """One side of every point of a case as columns: the value (complex, so
    that a complex closed form keeps its imaginary part; NaN until set),
    evaluations, terms, convergence, and the exception of each point that
    raised, by index."""

    def __init__(self, n: int):
        self.value = np.full(n, np.nan, dtype=complex)
        self.evals = np.zeros(n, dtype=int)
        self.terms = np.zeros(n, dtype=int)
        self.converged = np.ones(n, dtype=bool)
        self.errors: dict[int, Exception] = {}

    def put(self, idx, out) -> None:
        """Store an evaluator's ``EvalRows`` at the points ``idx``."""
        idx = np.asarray(idx)
        self.value[idx] = out.value
        self.evals[idx] = out.evals
        self.terms[idx] = out.terms
        self.converged[idx] = out.converged


def _evaluate(evaluator, pts, overrides, skip, tol) -> _Side:
    """One side at every point: its registered override value, the result of
    one ``evaluator.rows`` call over the other points (see :func:`_fill`), or
    the exception the evaluation raised; points in ``skip`` are left unset."""
    side = _Side(len(pts))
    for i, value in overrides.items():
        side.value[i] = value
    idx = [i for i in range(len(pts)) if i not in overrides and i not in skip]
    if idx:
        _fill(side, evaluator, idx, [pts[i] for i in idx], tol)
    return side


def _fill(side, evaluator, idx, points, tol):
    """The points in one ``evaluator.rows`` call, stored at ``idx``; if it
    raises, one point records the exception, and more go to :func:`_bisect`."""
    try:
        out = evaluator.rows(points, tol)
    except Exception as exc:
        if len(idx) > 1:
            _bisect(side, evaluator, idx, points, tol)
        else:
            side.errors[idx[0]] = exc
    else:
        side.put(idx, out)


def _bisect(side, evaluator, idx, points, tol):
    """Points whose rows call raised, in two halves through :func:`_fill`; a
    half that succeeds has the bits of the whole call: a row is its one-point run."""
    half = len(idx) // 2
    for part in (slice(None, half), slice(half, None)):
        _fill(side, evaluator, idx[part], points[part], tol)


_REASONS = np.array(["", REASON_MISMATCH, REASON_IMAG, REASON_NOT_CONVERGED])


def _judge(case_id, pts, eff, lhs: _Side, rhs: _Side) -> list[VerificationOutcome]:
    """The outcomes of a case's points from both sides' columns, in one
    array pass, as the scalar rule gives them for real parts a and b:
    abs_error = |a - b|, rel_error = abs_error / max(|a|, |b|) (0 where that
    is 0), and a pass needs a finite abs_error within ``eff.margin(a, b)``;
    ``max`` is Python's, which keeps its first argument against a NaN. An
    imaginary part fails beyond ``abs_tol + rel_tol * max(|its real part|,
    |a|)`` (``|a|`` for the right side only). ``not_converged`` comes before
    the imaginary check, which comes before ``mismatch``. A point whose side
    raised fails with the exception's text and NaN errors, and keeps the
    value and the work of a left side that finished."""
    a, b = lhs.value.real, rhs.value.real
    with np.errstate(all="ignore"):  # inf and nan propagate as in Python floats
        abs_a, abs_b = np.abs(a), np.abs(b)
        diff = np.abs(a - b)
        scale = np.where(abs_b > abs_a, abs_b, abs_a)
        ok = np.isfinite(diff) & (diff <= eff.abs_tol + eff.rel_tol * scale)
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale != 0.0)
        imag = (np.abs(lhs.value.imag) > eff.abs_tol + eff.rel_tol * abs_a) | (
            np.abs(rhs.value.imag) > eff.abs_tol + eff.rel_tol * np.where(
                abs_a > abs_b, abs_a, abs_b))
    converged = lhs.converged & rhs.converged
    code = np.where(~converged, 3, np.where(imag, 2, (~ok).astype(int)))
    passed, reason = code == 0, _REASONS[code].tolist()
    for i, exc in (lhs.errors | rhs.errors).items():
        diff[i] = rel[i] = np.nan
        passed[i] = False
        reason[i] = f"error: {exc}"
    return [VerificationOutcome(case_id, *row) for row in zip(
        pts, a.tolist(), b.tolist(), diff.tolist(), rel.tolist(), passed.tolist(),
        reason, (lhs.evals + rhs.evals).tolist(), (lhs.terms + rhs.terms).tolist())]


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

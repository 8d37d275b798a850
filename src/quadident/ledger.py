"""Verification driver: run identity cases over parameter grids and report.

Grids place ``grid_size`` evenly spaced points strictly inside each continuous
parameter's open interval, enumerate every value of discrete parameters, and
append the ends that each continuous axis lists. A failing or non-converged
point never aborts a run; the report is the product, and the CLI exit code
carries the aggregate status.

Each side of a case goes through one batched ``rows`` call over all of its
points, discrete parameters included; a call that raises is retried by
halves, so each failure reads as its one-point call would. A point that
lacks a parameter of its case, has one its case does not know, whose
discrete parameter is not an integer or is below the least value of its axis,
or whose continuous parameter is NaN or infinite, fails without being
evaluated. Each side's results stay one full-length
``EvalRows`` of columns (value, work, convergence) until one array pass judges
every point of the case; the outcomes, immutable named tuples like every
record of the package, are then made from those columns in one ``map``.

Reports order outcomes by identity id, then by parameter tuple, so two runs
with the same inputs are byte-identical apart from the timestamp.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from datetime import datetime, timezone
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .numerics import DEFAULT_TOL, Tolerance
from .registry import EvalRows, IdentityCase, lookup, registry

REASON_MISMATCH = "mismatch"
REASON_NOT_CONVERGED = "not_converged"
REASON_IMAG = "imaginary_part_exceeds_tolerance"

_REAL = (int, float, np.integer, np.floating)  # the parameter values that are numbers


class VerificationOutcome(NamedTuple):
    """The verdict on one point: an immutable record, fields in report order."""

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


class Report(NamedTuple):
    version: str
    timestamp: str
    tol_abs: Optional[float]  # the override, None for DEFAULT_TOL
    tol_rel: Optional[float]
    outcomes: tuple[VerificationOutcome, ...]

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(1 for o in self.outcomes if o.passed)
        nc = sum(1 for o in self.outcomes if not o.passed and o.reason == REASON_NOT_CONVERGED)
        failed = len(self.outcomes) - passed - nc
        return {"passed": passed, "failed": failed, "not_converged": nc}


def _grid_points(case: IdentityCase, grid_size: int, ends: bool = False) -> list[dict]:
    """Each discrete value with each grid point, or with ``ends`` each end, of
    the continuous axes; a case without a continuous axis has no ends."""
    if ends and not case.continuous:
        return []
    axes = [[(d.name, v) for v in d.values] for d in case.discrete]
    axes += [[(c.name, v) for v in (c.ends if ends else c.points(grid_size))]
             for c in case.continuous]
    return [dict(combo) for combo in itertools.product(*axes)]


def verify(
    case_id: str,
    grid_size: int = 5,
    tol: Optional[Tolerance] = None,
    points: Optional[list[dict]] = None,
) -> list[VerificationOutcome]:
    """Verify one identity over its parameter grid.

    ``tol`` overrides ``DEFAULT_TOL``, the one gate of every case; ``points``
    replaces the uniform grid with explicit parameter dicts (the axes' ends
    are still appended). A parameter name in ``points`` that is not a string,
    or a continuous value that is not a Python or numpy integer or float
    (bools are not), raises ``ValueError`` before any side runs; so does a
    ``grid_size`` that is not such an integer or is below 1.
    """
    if isinstance(grid_size, bool) or not isinstance(grid_size, numbers.Integral) or grid_size < 1:
        raise ValueError(f"grid_size must be an integer >= 1, got {grid_size!r}")
    case = lookup(case_id)
    eff = tol if tol is not None else DEFAULT_TOL
    eval_tol = side_tolerance(eff)

    given = list(points) if points is not None else []
    grid = _grid_points(case, grid_size) if points is None else []
    pts = given + grid + _grid_points(case, grid_size, ends=True)

    # the grid and the ends come from the axes; a caller's point lacking a
    # parameter of its case, having one its case lacks, whose discrete
    # parameter is not an integer (bools are not) or below its axis's least
    # value, or whose continuous value is not finite, fails unevaluated; a
    # parameter name that is no string, or a continuous value that is no
    # number, raises
    odd = {}
    names = {axis.name for axis in case.discrete + case.continuous}
    for i, pt in enumerate(given):
        for d in case.discrete:
            v = pt.get(d.name)
            if d.name not in pt:
                odd[i] = ValueError(f"missing parameter {d.name}")
            elif type(v) is not int and (type(v) is bool or not isinstance(v, numbers.Integral)):
                odd[i] = ValueError(f"{d.name} must be an integer, got {v!r}")
            elif v < min(d.values):
                odd[i] = ValueError(f"{d.name} must be >= {min(d.values)}, got {v!r}")
        for name in pt:
            if not isinstance(name, str):
                raise ValueError(f"parameter names must be strings, got {name!r}")
        for c in case.continuous:
            v = pt.get(c.name)
            if c.name not in pt:
                odd[i] = ValueError(f"missing parameter {c.name}")
            elif isinstance(v, bool) or not isinstance(v, _REAL):
                raise ValueError(f"{c.name} must be a real number, got {v!r}")
            elif isinstance(v, (float, np.floating)) and not math.isfinite(v):
                odd[i] = ValueError(f"{c.name} must be finite, got {v!r}")
        unknown = [name for name in pt if name not in names]
        if unknown:
            odd[i] = ValueError(f"unknown parameter {unknown[0]}")
    # each side in one rows call; a point whose left side raised never
    # evaluates its right side
    lhs, errors = _evaluate(case.lhs, pts, odd, eval_tol)
    errors |= odd
    rhs, rhs_errors = _evaluate(case.rhs, pts, errors, eval_tol)
    return _judge(case.id, pts, eff, lhs, rhs, errors | rhs_errors)


def side_tolerance(tol: Tolerance) -> Tolerance:
    """A quarter of the comparison tolerance, for each side, so that evaluation
    error does not consume the comparison budget (ValueError if it is 0)."""
    return Tolerance(tol.abs_tol / 4.0, tol.rel_tol / 4.0, tol.max_work)


def _evaluate(side, pts, skip, tol) -> tuple[EvalRows, dict[int, Exception]]:
    """One side at the points not in ``skip``, as a full-length ``EvalRows``,
    and the exception of each point that raised, by index.

    The points go to one ``side(points, tol)`` call (see :func:`_fill`). When
    that call covers every point, its columns are the side's as they come,
    scalar work and convergence broadcast to every row; only when a point was
    skipped or the call raised are the parts' columns scattered into new
    ones, NaN and no work where unset. Values are float64, or complex128 for
    a complex closed form."""
    n = len(pts)
    parts: list = []
    errors: dict[int, Exception] = {}
    idx = [i for i in range(n) if i not in skip] if skip else range(n)
    if idx:
        _fill(parts, errors, side, idx, [pts[i] for i in idx] if skip else pts, tol)
    if len(parts) == 1 and len(parts[0][0]) == n:
        return EvalRows(*(c if isinstance(c, np.ndarray) else np.full(n, c)
                          for c in parts[0][1])), errors
    dtype = np.result_type(float, *(out.value for _, out in parts))
    rows = EvalRows(np.full(n, np.nan, dtype), np.zeros(n, dtype=int), np.zeros(n, dtype=int),
                    np.ones(n, dtype=bool))
    for at, out in parts:
        for column, values in zip(rows, out):
            column[at] = values
    return rows, errors


def _fill(parts, errors, side, idx, points, tol):
    """The points in one ``side(points, tol)`` call, appended to ``parts`` with
    their indices ``idx``. If the call raises, one point records the
    exception in ``errors``, and more are retried in two halves, each through
    ``_fill``: a half that succeeds has the bits of the whole call, as a row
    is its one-point run."""
    try:
        out = side(points, tol)
        dtype = np.asarray(out.value).dtype
        if dtype.kind not in "fc":  # an object column would reach the judge
            raise TypeError(f"side values are {dtype}, not float or complex")
    except Exception as exc:
        if len(idx) == 1:
            errors[idx[0]] = exc
            return
        half = len(idx) // 2
        for part in (slice(None, half), slice(half, None)):
            _fill(parts, errors, side, idx[part], points[part], tol)
    else:
        parts.append((idx, out))


_REASONS = np.array(["", REASON_MISMATCH, REASON_IMAG, REASON_NOT_CONVERGED])


def _judge(case_id, pts, eff, lhs: EvalRows, rhs: EvalRows, errors) -> list[VerificationOutcome]:
    """The outcomes of a case's points from both sides' columns, in one
    array pass, as the scalar rule gives them for real parts a and b:
    abs_error = |a - b|, rel_error = abs_error / max(|a|, |b|) (0 where that
    is 0), and a pass needs a finite abs_error within ``eff``'s ``abs_tol +
    rel_tol * max(|a|, |b|)``, by Python's ``max``, which keeps its first
    argument against a NaN. A complex column's imaginary part fails beyond
    ``abs_tol + rel_tol * max(|its real part|, |a|)`` (``|a|`` for the right
    side only). ``not_converged`` comes before the imaginary check, then
    ``mismatch``. A point in ``errors`` (index -> exception) fails with the
    exception's text and NaN errors, and keeps a finished left side's value and work."""
    a, b = lhs.value.real, rhs.value.real
    imag = False
    with np.errstate(all="ignore"):  # inf and nan propagate as in Python floats
        abs_a, abs_b = np.abs(a), np.abs(b)
        diff = np.abs(a - b)
        scale = np.where(abs_b > abs_a, abs_b, abs_a)
        ok = np.isfinite(diff) & (diff <= eff.abs_tol + eff.rel_tol * scale)
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale != 0.0)
        if lhs.value.dtype.kind == "c":
            imag = np.abs(lhs.value.imag) > eff.abs_tol + eff.rel_tol * abs_a
        if rhs.value.dtype.kind == "c":
            imag = imag | (np.abs(rhs.value.imag) > eff.abs_tol + eff.rel_tol * np.where(
                abs_a > abs_b, abs_a, abs_b))
    code = np.where(lhs.converged & rhs.converged, np.where(imag, 2, ~ok), 3)
    passed = code == 0
    reason = _REASONS[code].tolist() if code.any() else [""] * len(code)
    for i, exc in errors.items():
        diff[i] = rel[i] = np.nan
        passed[i] = False
        reason[i] = f"error: {exc}"
    return list(map(VerificationOutcome._make, zip(
        itertools.repeat(case_id), pts, a.tolist(), b.tolist(), diff.tolist(), rel.tolist(),
        passed.tolist(), reason, (lhs.evals + rhs.evals).tolist(),
        (lhs.terms + rhs.terms).tolist())))


def make_report(outcomes, tol_abs: Optional[float], tol_rel: Optional[float]) -> Report:
    """A report of the outcomes, ordered by identity id and then by parameter
    items, stamped with the package version and the current time.
    ``tol_abs``/``tol_rel`` record a tolerance override (None when every
    case ran at ``DEFAULT_TOL``)."""
    return Report(
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        outcomes=tuple(sorted(outcomes, key=lambda o: (o.id, [
            (k, (0, v) if isinstance(v, _REAL) else (1, repr(v)))
            for k, v in sorted(o.params.items())]))),
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


def _param(v):
    """A parameter value as written to JSON: a number as one (non-finite
    floats null), anything else as its ``repr``."""
    if not isinstance(v, _REAL):
        return repr(v)
    return _finite(v.item() if isinstance(v, np.generic) else v)


def _outcome_fields(o: VerificationOutcome) -> dict:
    return {
        "id": o.id,
        "params": {k: _param(v) for k, v in sorted(o.params.items())},
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
        params = ",".join(f"{k}={v:g}" if isinstance(v, _REAL) else f"{k}={v!r}"
                          for k, v in sorted(o.params.items())) or "-"
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

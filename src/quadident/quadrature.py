"""Tanh-sinh (double-exponential) quadrature on the unit interval and the half-line.

The variable change ``x = (1 + tanh((pi/2) sinh t)) / 2`` pushes endpoint
singularities of logarithmic or inverse-square-root type into a double
exponentially decaying weight, so a plain trapezoid rule in ``t`` converges
rapidly. Levels halve the step and reuse previous nodes; the error estimate is
the last level-to-level change with a safety factor of 10, a rounding floor,
and the truncation term ``|w f|`` at the outermost nodes ``t = +-4``.

Semi-infinite integrals are split at 1 and the far part is mapped back to the
unit interval with ``x -> 1/x``, mirroring the classical manipulation of the
integrals this package verifies.

Integrand callables must be numpy vectorized and real-valued: they receive a
float ndarray of abscissae and must return a real ndarray of values (or a real
scalar, broadcast over the nodes). Complex values raise
:class:`QuadratureError`, and so does a non-finite value. No node lies on 0:
the smallest abscissa and the smallest distance ``1 - x`` at any level are
5.8e-38. Near the right end, however, ``x`` itself rounds to exactly 1.0, so
an integrand singular at 1 must supply ``f_right``, which is called with the
exact distance ``delta = 1 - x`` (doubles cannot represent ``1 - delta`` to
useful relative precision once ``delta`` is tiny). The interval is chosen by
the integrator called: :func:`integrate_unit` or
:func:`integrate_semi_infinite`.

Rows: a :class:`~quadident.numerics.Rows` of integrands over a table of
points passes each parameter to its builder as a ``(rows, 1)`` column, so one
level of every active row is evaluated as one ``(rows, nodes)`` array.
There is one driver: a single :class:`IntegrandSpec` is its one-row case. Each
level is one array pass: the level sum of a row is numpy's pairwise sum of
that row (``wf.sum(axis=1)`` on a C-ordered array), whose order depends only
on the number of nodes, so it is the same for every row count. Each row
leaves the active set at the level where it would have converged alone, so
its value, error estimate, evaluation count and convergence flag are bit for
bit those of the one-row run. A rows call returns :class:`QuadratureRows`:
``(rows,)`` columns of value, error estimate, evaluations and convergence,
filled by the driver as rows leave the active set, plus the batch totals
``evaluations`` (sum over rows) and ``converged`` (all rows) as Python
numbers. A :class:`QuadratureResult` is made only for a single spec.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import DEFAULT_TOL, Rows, Tolerance

_T_MAX = 4.0        # |t| range of the trapezoid in the transformed variable
_MAX_LEVELS = 12    # step-halving levels before giving up


class QuadratureError(RuntimeError):
    """Raised when an integrand returns a complex value, or a non-finite value
    at an interior point."""


@dataclass(frozen=True)
class IntegrandSpec:
    """An integrand ``f`` and, for a right endpoint singularity on (0, 1), its
    stable form ``f_right(delta)`` at ``x = 1 - delta``.

    ``f_right`` replaces ``f`` on the right half of the nodes (``t > 0``),
    where ``x`` may round to exactly 1.0; :func:`integrate_semi_infinite`
    rejects it.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_right: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class QuadratureRows:
    """Results of one :class:`Rows` pass as ``(rows,)`` columns, with batch
    totals as Python numbers."""

    values: np.ndarray           # float
    error_estimates: np.ndarray  # float
    work: np.ndarray             # int: integrand evaluations of each row
    row_converged: np.ndarray    # bool

    @property
    def evaluations(self) -> int:
        return int(self.work.sum())

    @property
    def converged(self) -> bool:
        return bool(self.row_converged.all())


@functools.cache
def _level_nodes(level: int):
    """Nodes introduced at a halving level: (t, x, delta, weight) arrays.

    Level 0 holds all integer t in [-T_MAX, T_MAX]; level k > 0 adds the odd
    multiples of h = 2^-k. ``t`` ascends, so the nodes with ``t <= 0`` are a
    prefix. ``x`` and ``delta = 1 - x`` are computed through separate
    exponential forms so each is accurate near its own endpoint. Built once
    and cached; the arrays are read-only.
    """
    h = 0.5 ** level
    if level == 0:
        j = np.arange(-int(_T_MAX), int(_T_MAX) + 1, dtype=float)
    else:
        jmax = int(round(_T_MAX / h))
        pos = np.arange(1.0, jmax, 2.0)
        j = np.concatenate([-pos[::-1], pos])
    t = j * h
    u = 0.5 * np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    delta = 1.0 / (1.0 + np.exp(2.0 * u))
    w = 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    for arr in (t, x, delta, w):
        arr.setflags(write=False)
    return t, x, delta, w


def _real_values(piece, fn, arg):
    v = np.asarray(fn(arg))
    if np.iscomplexobj(v):
        raise QuadratureError(f"integrand piece {piece} returned complex values")
    return v


def _eval_level(f, f_right, level: int, k: int):
    """Weighted integrand values ``w f`` of ``k`` rows at the new nodes of a
    level as a ``(k, nodes)`` array, their row sums of ``|w f|``, and the
    number of nodes. The values are searched for a non-finite one only when
    some row sum is not finite."""
    t, x, delta, w = _level_nodes(level)
    shape = (k, len(t))
    if f_right is None:
        v = _real_values("f", f, x)
    else:
        m = (len(t) + 1) // 2  # the prefix t <= 0: t is symmetric about 0
        v = np.empty(shape)
        v[:, :m] = _real_values("f", f, x[:m])
        v[:, m:] = _real_values("f_right", f_right, delta[m:])
    if v.shape != shape:
        v = np.broadcast_to(v, shape)
    wf = w * v
    size = np.abs(wf).sum(axis=1)
    if not np.isfinite(size).all():
        finite = np.isfinite(v)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0]) % len(t)
            raise QuadratureError(
                f"integrand returned a non-finite value at x={float(x[bad])!r} "
                f"(distance {float(delta[bad])!r} from 1)"
            )
    return wf, size, len(t)


def _tanh_sinh(spec_of, k: int, tol: Tolerance) -> QuadratureRows:
    """Trapezoid-with-halving driver for ``k`` real-valued integrand rows.

    ``spec_of(rows)`` returns the spec of the active rows (all for None). Each
    level is one array pass over the active rows: their level sums and sums
    of ``|w f|`` are row sums of the ``(rows, nodes)`` array, and their
    totals, rounding floors and error estimates are ``(rows,)`` arrays. A row
    leaves the active set at the level where it converges, and its columns
    are filled then; every row still active shares the level count, so the
    ``max_work`` stop applies to all of them at once.

    The error estimate is ten times the level-to-level change, plus a
    rounding floor, plus the level-0 ``|w f|`` at the two outermost nodes
    (``t = +-4``) for the truncation of the trapezoid sum (Takahasi & Mori,
    "Double exponential formulas for numerical integration", 1974; Bailey,
    Jeyabalan & Li, "A comparison of three high-precision quadrature
    schemes", 2005).
    """
    out = QuadratureRows(np.empty(k), np.empty(k), np.empty(k, dtype=int),
                         np.zeros(k, dtype=bool))
    active = np.arange(k)
    spec = spec_of(None)
    evals = 0
    err = np.full(k, np.inf)
    for level in range(_MAX_LEVELS + 1):
        if level >= 1 and evals + len(_level_nodes(level)[0]) > tol.max_work:
            break
        wf, a_new, n_new = _eval_level(spec.f, spec.f_right, level, len(active))
        evals += n_new
        h = 0.5 ** level
        s_new = wf.sum(axis=1)
        if level == 0:
            total = h * s_new
            habs = h * a_new  # h * sum |w f|, tracked for the rounding floor
            edge = np.abs(wf[:, 0]) + np.abs(wf[:, -1])  # truncation at |t| = 4
            continue
        prev = total
        total = 0.5 * prev + h * s_new
        habs = 0.5 * habs + h * a_new
        err = 10.0 * np.abs(total - prev) + 8e-16 * habs + edge
        if level < 2:
            continue
        done = err <= tol.abs_tol + tol.rel_tol * np.abs(total)
        if done.any():
            rows = active[done]
            out.values[rows] = total[done]
            out.error_estimates[rows] = err[done]
            out.work[rows] = evals
            out.row_converged[rows] = True
            keep = ~done
            active, total, habs, err, edge = (
                active[keep], total[keep], habs[keep], err[keep], edge[keep])
            if not active.size:
                return out
            spec = spec_of(active)
    out.values[active] = total
    out.error_estimates[active] = err
    out.work[active] = evals
    return out


def _rows_of(spec: IntegrandSpec | Rows):
    """``(spec_of, k)`` for the driver; a single spec is one row."""
    return (spec.at, len(spec.points)) if isinstance(spec, Rows) else ((lambda rows: spec), 1)


def _result(spec, rows: QuadratureRows):
    """The columns for :class:`Rows`, else the one row as a result."""
    if isinstance(spec, Rows):
        return rows
    return QuadratureResult(rows.values[0].item(), rows.error_estimates[0].item(),
                            rows.work[0].item(), rows.row_converged[0].item())


def integrate_unit(spec: IntegrandSpec | Rows,
                   tol: Tolerance = DEFAULT_TOL) -> QuadratureResult | QuadratureRows:
    """Integrate ``spec.f`` over (0, 1): a :class:`QuadratureResult`, or a
    :class:`QuadratureRows` for :class:`~quadident.numerics.Rows`.

    The result's ``error_estimate`` is an a posteriori estimate of
    ``|value - integral|``, not a bound: ten times the last level-to-level
    change, plus a rounding floor, plus the level-0 ``|w f|`` at the two
    outermost nodes for the truncation of the trapezoid at ``|t| = 4``. For
    ``x**-0.9``, still large at the left end, the estimate is 1.62e-2 against
    a true error of 1.89e-3 (``converged`` is False). ``converged`` is set when
    the estimate met ``tol`` within ``tol.max_work`` evaluations. Non-finite
    integrand values raise :class:`QuadratureError`.
    """
    spec_of, k = _rows_of(spec)
    return _result(spec, _tanh_sinh(spec_of, k, tol))


def integrate_semi_infinite(spec: IntegrandSpec | Rows,
                            tol: Tolerance = DEFAULT_TOL) -> QuadratureResult | QuadratureRows:
    """Integrate ``spec.f`` over (0, inf) as the sum of two unit-interval pieces.

    Splits at 1 and substitutes ``x -> 1/u`` on the far piece, so each row is
    ``int_0^1 f(x) dx + int_0^1 f(1/u)/u^2 du`` with the two error estimates
    added; each piece runs at half the tolerance.
    """
    spec_of, k = _rows_of(spec)
    if spec_of(None).f_right is not None:
        raise ValueError("f_right applies to unit-interval integrands only")
    half = Tolerance(tol.abs_tol / 2.0, tol.rel_tol / 2.0, max(1, tol.max_work // 2))

    def far_of(rows):
        f = spec_of(rows).f
        return IntegrandSpec(lambda u: f(1.0 / u) / u**2)

    near = _tanh_sinh(spec_of, k, half)
    far = _tanh_sinh(far_of, k, half)
    return _result(spec, QuadratureRows(
        near.values + far.values, near.error_estimates + far.error_estimates,
        near.work + far.work, near.row_converged & far.row_converged))

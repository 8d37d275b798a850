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

Rows: an :class:`IntegrandRows` holds integrands that differ only in one
parameter. Its builder takes the parameter as a ``(rows, 1)`` column, so one
level of every active row is evaluated as one ``(rows, nodes)`` array. There
is one driver: a single :class:`IntegrandSpec` is its one-row case. Each
level is one array pass: the level sum of a row is numpy's pairwise sum of
that row (``wf.sum(axis=1)`` on a C-ordered array), whose order depends only
on the number of nodes, so it is the same for every row count. Each row
leaves the active set at the level where it would have converged alone, so
its value, error estimate, evaluation count and convergence flag are bit for
bit those of the one-row run. A rows call returns :class:`QuadratureRows`:
the per-row results plus the batch totals ``evaluations`` (sum over rows) and
``converged`` (all rows).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance

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


@dataclass(frozen=True, eq=False)
class IntegrandRows:
    """Integrands that differ only in one parameter, integrated in one pass.

    ``build(column)`` receives the parameter values of some rows as a
    ``(rows, 1)`` float array and returns their :class:`IntegrandSpec`, whose
    ``f`` (and ``f_right``) return one row of values per parameter, shape
    ``(rows, nodes)``. Each row must be computed by the same elementwise
    operations as the one-row spec of a scalar parameter.
    """

    build: Callable[[np.ndarray], IntegrandSpec]
    values: tuple[float, ...]

    def spec(self, rows=None) -> IntegrandSpec:
        """The spec of the rows at the given indices (all rows for None)."""
        column = np.asarray(self.values, dtype=float)
        return self.build(column[:, None] if rows is None else column[rows, None])


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class QuadratureRows:
    """Per-row results of one :class:`IntegrandRows` pass, with batch totals."""

    rows: tuple[QuadratureResult, ...]

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.rows)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.rows)


@functools.cache
def _level_nodes(level: int):
    """Nodes introduced at a halving level: (t, x, delta, weight) arrays.

    Level 0 holds all integer t in [-T_MAX, T_MAX]; level k > 0 adds the odd
    multiples of h = 2^-k. ``x`` and ``delta = 1 - x`` are computed through
    separate exponential forms so each is accurate near its own endpoint.
    Built once and cached; the arrays are read-only.
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
    """Weighted integrand values of ``k`` rows at the new nodes of a level,
    as a ``(k, nodes)`` array, and the number of nodes."""
    t, x, delta, w = _level_nodes(level)
    shape = (k, len(t))
    if f_right is None:
        v = _real_values("f", f, x)
    else:
        left = t <= 0.0
        v = np.empty(shape)
        v[:, left] = _real_values("f", f, x[left])
        v[:, ~left] = _real_values("f_right", f_right, delta[~left])
    if v.shape != shape:
        v = np.broadcast_to(v, shape)
    finite = np.isfinite(v)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0]) % len(t)
        raise QuadratureError(
            f"integrand returned a non-finite value at x={float(x[bad])!r} "
            f"(distance {float(delta[bad])!r} from 1)"
        )
    return w * v, len(t)


def _tanh_sinh(spec_of, k: int, tol: Tolerance) -> list[QuadratureResult]:
    """Trapezoid-with-halving driver for ``k`` real-valued integrand rows.

    ``spec_of(rows)`` returns the spec of the active rows (all for None). Each
    level is one array pass over the active rows: their level sums and sums
    of ``|w f|`` are row sums of the ``(rows, nodes)`` array, and their
    totals, rounding floors and error estimates are ``(rows,)`` arrays. A row
    leaves the active set at the level where it converges; every row still
    active shares the level count, so the ``max_work`` stop applies to all of
    them at once.

    The error estimate is ten times the level-to-level change, plus a
    rounding floor, plus the level-0 ``|w f|`` at the two outermost nodes
    (``t = +-4``) for the truncation of the trapezoid sum (Takahasi & Mori,
    "Double exponential formulas for numerical integration", 1974; Bailey,
    Jeyabalan & Li, "A comparison of three high-precision quadrature
    schemes", 2005).
    """
    out: list = [None] * k
    active = np.arange(k)
    spec = spec_of(None)
    evals = 0
    err = np.full(k, np.inf)
    for level in range(_MAX_LEVELS + 1):
        if level >= 1 and evals + len(_level_nodes(level)[0]) > tol.max_work:
            break
        wf, n_new = _eval_level(spec.f, spec.f_right, level, len(active))
        evals += n_new
        h = 0.5 ** level
        s_new = wf.sum(axis=1)
        a_new = np.abs(wf).sum(axis=1)
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
            for i, value, e in zip(active[done].tolist(), total[done].tolist(),
                                   err[done].tolist()):
                out[i] = QuadratureResult(value, e, evals, True)
            keep = ~done
            active, total, habs, err, edge = (
                active[keep], total[keep], habs[keep], err[keep], edge[keep])
            if not active.size:
                return out
            spec = spec_of(active)
    for i, value, e in zip(active.tolist(), total.tolist(), err.tolist()):
        out[i] = QuadratureResult(value, e, evals, False)
    return out


def _rows_of(spec: IntegrandSpec | IntegrandRows):
    """``(spec_of, k)`` for the driver; a single spec is one row."""
    if isinstance(spec, IntegrandRows):
        return spec.spec, len(spec.values)
    return (lambda rows: spec), 1


def _result(spec, rows: list[QuadratureResult]):
    return QuadratureRows(tuple(rows)) if isinstance(spec, IntegrandRows) else rows[0]


def integrate_unit(spec: IntegrandSpec | IntegrandRows,
                   tol: Tolerance = DEFAULT_TOL) -> QuadratureResult | QuadratureRows:
    """Integrate ``spec.f`` over (0, 1): a :class:`QuadratureResult`, or a
    :class:`QuadratureRows` for :class:`IntegrandRows`.

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


def integrate_semi_infinite(spec: IntegrandSpec | IntegrandRows,
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
    return _result(spec, [
        QuadratureResult(a.value + b.value, a.error_estimate + b.error_estimate,
                         a.evaluations + b.evaluations, a.converged and b.converged)
        for a, b in zip(near, far)
    ])

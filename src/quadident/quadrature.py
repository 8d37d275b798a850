"""Double-exponential quadrature on the unit interval and the half-line.

On (0, 1) the tanh-sinh change ``x = (1 + tanh((pi/2) sinh t)) / 2`` pushes
endpoint singularities of logarithmic or inverse-square-root type into a double
exponentially decaying weight, so a plain trapezoid rule in ``t`` converges
rapidly. On (0, inf) the exp-sinh change ``x = exp((pi/2) sinh t)`` does the
same for both ends (Takahasi & Mori 1974; Mori & Sugihara, "The double
exponential transformation in numerical analysis", 2001). Both tables share the
``t`` grid, and one driver serves both: levels halve the step and reuse
previous nodes; the error estimate is the last level-to-level change with a
safety factor of 10, a rounding floor, and the truncation term ``|w f|`` at the
outermost nodes ``t = +-4``. No row may stop before level 2, and most stop at
level 3 or 4, so levels 0-3 (those that ``max_work`` allows) are evaluated as
one run: one ``f`` call and one ``f_right`` call over their nodes, each level's
sums taken from its own slice. A row that stops at level 2 leaves inside the
run, evaluated on level 3 as well. A run's nodes, joined for those calls, are
built once and cached, like each level's.

Integrand callables must be numpy vectorized and real-valued: they receive a
float ndarray of abscissae and must return a real ndarray of values (or a real
scalar, broadcast over the nodes). Complex values raise
:class:`QuadratureError`, and so does a non-finite value, under any warnings
filter: numpy's floating-point warnings are off in the driver, so an integrand
emits no ``RuntimeWarning``. No node lies on 0: on (0, 1) the smallest abscissa
and the smallest distance ``1 - x`` at any level are 5.8e-38, and on (0, inf)
the abscissae span 2.4e-19 to 4.1e18. Near the right end of (0, 1), however,
``x`` itself rounds to exactly 1.0, so an integrand singular at 1 must supply
``f_right``, which is called with the exact distance ``delta = 1 - x``
(doubles cannot represent ``1 - delta`` to useful relative precision once
``delta`` is tiny). The interval is chosen by the integrator called:
:func:`integrate_unit` or :func:`integrate_semi_infinite`.

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
``(rows,)`` columns of value, error estimate, evaluations (the nodes of the
levels a row used) and convergence, filled as rows leave, plus the batch totals
``evaluations`` (sum over rows) and ``converged`` (all rows) as Python
numbers. A :class:`QuadratureResult` is made only for a single spec.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional

import numpy as np

from .numerics import DEFAULT_TOL, Rows, Tolerance

_T_MAX = 4.0        # |t| range of the trapezoid in the transformed variable
_MAX_LEVELS = 12    # step-halving levels before giving up
_MIN_LEVEL = 2      # the first level at which a row may stop
_RUN_LEVEL = 3      # the last level of the first run


class QuadratureError(RuntimeError):
    """Raised when an integrand returns a complex value, or a non-finite value
    at an interior point."""


class IntegrandSpec(NamedTuple):
    """An integrand ``f`` and, for a right endpoint singularity on (0, 1), its
    stable form ``f_right(delta)`` at ``x = 1 - delta``.

    ``f_right`` replaces ``f`` on the right half of the nodes (``t > 0``),
    where ``x`` may round to exactly 1.0; :func:`integrate_semi_infinite`
    rejects it.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_right: Optional[Callable[[np.ndarray], np.ndarray]] = None


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


class QuadratureRows(NamedTuple):
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
def _level_nodes(level: int, half_line: bool = False):
    """Nodes introduced at a halving level: (t, x, delta, weight) arrays.

    Level 0 holds all integer t in [-T_MAX, T_MAX]; level k > 0 adds the odd
    multiples of h = 2^-k. ``t`` ascends, so the nodes with ``t <= 0`` are a
    prefix. On (0, 1), ``x`` and ``delta = 1 - x`` are computed through
    separate exponential forms so each is accurate near its own endpoint; on
    the half-line ``x = exp(u)`` ascends from 2.4e-19 to 4.1e18 and ``delta``
    is None. Built once and cached; the arrays are read-only.
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
    if half_line:
        x, delta = np.exp(u), None
        w = 0.5 * np.pi * np.cosh(t) * x
    else:
        x = 1.0 / (1.0 + np.exp(-2.0 * u))
        delta = 1.0 / (1.0 + np.exp(2.0 * u))
        w = 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
        delta.setflags(write=False)
    for arr in (t, x, w):
        arr.setflags(write=False)
    return t, x, delta, w


def _real_values(piece, fn, arg) -> np.ndarray:
    """``fn(arg)`` as a real array: ``(rows, len(arg))``, or fewer dimensions
    that broadcast to it."""
    v = np.asarray(fn(arg))
    if v.dtype.kind == "c":
        raise QuadratureError(f"integrand piece {piece} returned complex values")
    return v


@functools.cache
def _run_nodes(start: int, stop: int, right: bool, half_line: bool):
    """The nodes of levels ``start .. stop-1`` as one run, ascending ``t`` in
    each level: the abscissae ``f`` takes, the distances to 1 ``f_right``
    takes, the weights, the places of their values (two slices for one
    level, else two index arrays; both None without ``right``) and
    ``(offset, nodes)`` per level. Built once per run and cached; read-only."""
    nodes = [_level_nodes(level, half_line) for level in range(start, stop)]
    sizes = [len(t) for t, *_ in nodes]
    # with f_right, f takes the prefix t <= 0 of each level: t is symmetric about 0
    left = np.concatenate([np.arange(n) < ((n + 1) // 2 if right else n) for n in sizes])
    x, w = (np.concatenate([level[i] for level in nodes]) for i in (1, 3))
    arg, darg, place = x[left], None, None
    if right:
        darg = np.concatenate([level[2] for level in nodes])[~left]
        m = (sizes[0] + 1) // 2
        place = ((slice(0, m), slice(m, sizes[0])) if len(sizes) == 1
                 else (np.flatnonzero(left), np.flatnonzero(~left)))
    for a in (arg, darg, w, *(place or ())):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return arg, darg, w, place, tuple(zip(np.cumsum([0] + sizes).tolist(), sizes))


def _eval_levels(spec: IntegrandSpec, levels: range, k: int, half_line: bool):
    """``w f`` and ``|w f|`` of ``k`` rows at the new nodes of a run of
    levels: one ``(2, k, nodes)`` block, and the ``(offset, nodes)`` of each
    level in it. One ``f`` call (and one ``f_right`` call) over the run's
    nodes fills the first half by one multiply that broadcasts ``f``'s
    values; one ``abs`` fills the rest. The driver checks them."""
    arg, darg, w, place, spans = _run_nodes(levels.start, levels.stop,
                                            spec.f_right is not None, half_line)
    block = np.empty((2, k, sum(spans[-1])))  # up to the end of the last level
    if spec.f_right is None:
        np.multiply(w, _real_values("f", spec.f, arg), out=block[0])
    else:
        values = block[0]
        values[:, place[0]] = _real_values("f", spec.f, arg)
        values[:, place[1]] = _real_values("f_right", spec.f_right, darg)
        values *= w
    np.abs(block[0], out=block[1])
    return block, spans


@np.errstate(all="ignore")  # a non-finite value raises QuadratureError under any filter
def _tanh_sinh(spec_of, k: int, tol: Tolerance, half_line: bool) -> QuadratureRows:
    """Trapezoid-with-halving driver for ``k`` real-valued integrand rows, on
    the tanh-sinh nodes of (0, 1) or the exp-sinh nodes of (0, inf).

    ``spec_of(rows)`` returns the :class:`IntegrandSpec` of the active rows
    (all for None), built again only for a block after rows left. Each level
    is one array pass over the active rows: their level sums and sums of
    ``|w f|`` are the ``(2, rows)`` sums of the level's part of its block,
    taken once per block, and their totals and sums of ``h |w f|`` one
    ``(2, rows)`` state. A row leaves the active set at the level where it
    converges, and its columns are filled then; every row still active shares
    the level count, so the ``max_work`` stop applies to all of them at once.
    Rows leave from level 2 on, inside the first run (levels 0-3), whose
    later levels the rest read at their places in its block. A row's
    ``work`` counts the nodes of the levels it used, so a row that stops at
    level 2 was also evaluated on the 32 nodes of level 3. Only when a
    block's total of ``|w f|`` is not finite are its levels searched for a
    non-finite value, each among the rows active there.

    The error estimate is ten times the level-to-level change, plus a
    rounding floor, plus the level-0 ``|w f|`` at the two outermost nodes
    (``t = +-4``) for the truncation of the trapezoid sum (Takahasi & Mori,
    "Double exponential formulas for numerical integration", 1974; Bailey,
    Jeyabalan & Li, "A comparison of three high-precision quadrature
    schemes", 2005). On the half-line those nodes are x = 2.4e-19 and 4.1e18.
    """
    spec = spec_of(None)
    if half_line and spec.f_right is not None:
        raise ValueError("f_right applies to unit-interval integrands only")
    out = QuadratureRows(np.empty(k), np.empty(k), np.empty(k, dtype=int),
                         np.zeros(k, dtype=bool))
    active = np.arange(k)
    evals = stop = 0  # stop: the end of the levels evaluated so far
    err = np.full(k, np.inf)
    # levels 0 to _RUN_LEVEL, as far as max_work allows, are one run
    run, work = 1, len(_level_nodes(0)[0])
    while run <= _RUN_LEVEL and (work := work + len(_level_nodes(run)[0])) <= tol.max_work:
        run += 1
    for level in range(_MAX_LEVELS + 1):
        if level == stop:
            if level and evals + len(_level_nodes(level)[0]) > tol.max_work:
                break
            first, stop, at = level, level + 1 if level else run, slice(None)
            spec = spec or spec_of(active)
            block, spans = _eval_levels(spec, range(first, stop), len(active), half_line)
            finite = np.isfinite(np.add.reduce(block[1], axis=None))
            level_sums = [np.add.reduce(block[:, :, a:a + n], axis=2) for a, n in spans]
        a, n = spans[level - first]
        if not finite and not np.isfinite(wf := block[0, at, a:a + n]).all():
            # w is finite and positive: w f is non-finite where f is, or it overflowed
            _, x, delta, _ = _level_nodes(level, half_line)
            bad = int(np.flatnonzero(~np.isfinite(wf))[0]) % n  # the first, in row order
            # on the half-line 1 - x is no distance to an end
            where = "" if half_line else f" (distance {float(delta[bad])!r} from 1)"
            raise QuadratureError(
                f"integrand returned a non-finite value at x={float(x[bad])!r}{where}")
        sums = level_sums[level - first][:, at]  # level sums of w f, |w f|
        evals += n
        h = 0.5 ** level
        if level == 0:
            state = h * sums  # the total and h * sum |w f|, for the rounding floor
            edge = block[1, :, 0] + block[1, :, n - 1]  # truncation at |t| = 4
            continue
        prev = state[0]
        state = 0.5 * state + h * sums
        err = 10.0 * np.abs(state[0] - prev) + 8e-16 * state[1] + edge
        if level < _MIN_LEVEL:
            continue
        done = err <= tol.abs_tol + tol.rel_tol * np.abs(state[0])
        if np.count_nonzero(done):
            rows = active[done]
            out.values[rows] = state[0, done]
            out.error_estimates[rows] = err[done]
            out.work[rows] = evals
            out.row_converged[rows] = True
            keep = ~done
            active, state, err, edge = active[keep], state[:, keep], err[keep], edge[keep]
            if not active.size:
                return out
            at, spec = active, None  # in the first run's block a row's place is its index
    out.values[active] = state[0]
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
    the estimate met ``tol`` within ``tol.max_work`` evaluations; level 0 (9
    evaluations) runs whatever the cap. Non-finite integrand values raise
    :class:`QuadratureError`.
    """
    spec_of, k = _rows_of(spec)
    return _result(spec, _tanh_sinh(spec_of, k, tol, half_line=False))


def integrate_semi_infinite(spec: IntegrandSpec | Rows,
                            tol: Tolerance = DEFAULT_TOL) -> QuadratureResult | QuadratureRows:
    """Integrate ``spec.f`` over (0, inf) on exp-sinh nodes, with the driver,
    levels, error estimate and stop rule of :func:`integrate_unit`.

    A non-finite value names its abscissa ``x`` alone. ``f_right`` raises
    ``ValueError``: the half-line has no finite right end.
    """
    spec_of, k = _rows_of(spec)
    return _result(spec, _tanh_sinh(spec_of, k, tol, half_line=True))

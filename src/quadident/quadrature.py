"""Tanh-sinh (double-exponential) quadrature on the unit interval and the half-line.

The variable change ``x = (1 + tanh((pi/2) sinh t)) / 2`` pushes endpoint
singularities of logarithmic or inverse-square-root type into a double
exponentially decaying weight, so a plain trapezoid rule in ``t`` converges
rapidly. Levels halve the step and reuse previous nodes; the error estimate is
the last level-to-level change with a safety factor of 10.

Semi-infinite integrals are split at 1 and the far part is mapped back to the
unit interval with ``x -> 1/x``, mirroring the classical manipulation of the
integrals this package verifies.

Integrand callables must be numpy vectorized and real-valued: they receive a
float ndarray of abscissae strictly inside the interval and must return a
real ndarray of values (or a real scalar, broadcast over the nodes). Complex
values raise :class:`QuadratureError`.
For integrands singular at the right endpoint, supply ``f_right`` which is
called with the exact distance ``delta = 1 - x`` (doubles cannot represent
``1 - delta`` to useful relative precision once ``delta`` is tiny).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance

UNIT_INTERVAL = "unit_interval"
SEMI_INFINITE = "semi_infinite"

REGULAR = "regular"
LOG_SINGULAR = "log_singular"
INVERSE_SQRT_SINGULAR = "inverse_sqrt_singular"

_ENDPOINT_KINDS = (REGULAR, LOG_SINGULAR, INVERSE_SQRT_SINGULAR)

_T_MAX = 4.0        # |t| range of the trapezoid in the transformed variable
_MAX_LEVELS = 12    # step-halving levels before giving up
_TINY = 1e-300      # clamp so flagged endpoints are never touched


class QuadratureError(RuntimeError):
    """Raised when an integrand returns a complex value, or a non-finite value
    at an interior point."""


@dataclass(frozen=True)
class IntegrandSpec:
    """An integrand plus its domain and endpoint behavior.

    ``left``/``right`` describe the endpoints 0 and 1 (unit interval) or
    0 and infinity (semi-infinite). The flags are contractual metadata: the
    integrator never evaluates ``f`` exactly at a flagged endpoint, and
    ``f_right`` (unit interval only) provides a numerically stable evaluation
    at ``x = 1 - delta`` for right-singular integrands.
    """

    f: Callable[[np.ndarray], np.ndarray]
    domain: str = UNIT_INTERVAL
    left: str = REGULAR
    right: str = REGULAR
    f_right: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if self.domain not in (UNIT_INTERVAL, SEMI_INFINITE):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.left not in _ENDPOINT_KINDS or self.right not in _ENDPOINT_KINDS:
            raise ValueError("unknown endpoint behavior flag")
        if self.domain == SEMI_INFINITE and self.f_right is not None:
            raise ValueError("f_right applies to unit-interval integrands only")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


_node_cache: dict[int, tuple] = {}


def _level_nodes(level: int):
    """Nodes introduced at a halving level: (x, delta, weight) arrays.

    Level 0 holds all integer t in [-T_MAX, T_MAX]; level k > 0 adds the odd
    multiples of h = 2^-k. ``x`` and ``delta = 1 - x`` are computed through
    separate exponential forms so each is accurate near its own endpoint.
    Built once and cached; rows are immutable after publication.
    """
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
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
    x = np.maximum(x, _TINY)
    delta = np.maximum(delta, _TINY)
    for arr in (t, x, delta, w):
        arr.setflags(write=False)
    entry = (t, x, delta, w)
    _node_cache[level] = entry
    return entry


def _real_values(piece, fn, arg):
    v = np.asarray(fn(arg))
    if np.iscomplexobj(v):
        raise QuadratureError(f"integrand piece {piece} returned complex values")
    return v


def _eval_level(f, f_right, level: int):
    """Weighted integrand values at the new nodes of a level, as a list of
    Python floats, and the number of nodes."""
    t, x, delta, w = _level_nodes(level)
    if f_right is None:
        v = _real_values("f", f, x)
    else:
        left = t <= 0.0
        v = np.empty(len(t))
        v[left] = _real_values("f", f, x[left])
        v[~left] = _real_values("f_right", f_right, delta[~left])
    if v.shape != x.shape:
        v = np.broadcast_to(v, x.shape)
    finite = np.isfinite(v)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise QuadratureError(
            f"integrand returned a non-finite value at x={x[bad]!r} "
            f"(distance {delta[bad]!r} from 1)"
        )
    return (w * v).tolist(), len(t)


def _tanh_sinh(f, tol: Tolerance, f_right=None):
    """Core trapezoid-with-halving driver for a real-valued integrand."""
    total = 0.0
    err = math.inf
    evals = 0
    habs = 0.0  # h * sum |w f|, tracked for the rounding floor
    converged = False
    for level in range(_MAX_LEVELS + 1):
        if level >= 1 and evals + len(_level_nodes(level)[0]) > tol.max_work:
            break
        wf, n_new = _eval_level(f, f_right, level)
        evals += n_new
        h = 0.5 ** level
        s_new = math.fsum(wf)
        a_new = math.fsum(map(abs, wf))
        if level == 0:
            total = h * s_new
            habs = h * a_new
            continue
        prev = total
        total = 0.5 * prev + h * s_new
        habs = 0.5 * habs + h * a_new
        diff = abs(total - prev)
        err = 10.0 * diff + 8e-16 * habs
        target = tol.abs_tol + tol.rel_tol * abs(total)
        if level >= 2 and err <= target:
            converged = True
            break
    return total, err, evals, converged


def integrate_unit(spec: IntegrandSpec, tol: Tolerance = DEFAULT_TOL) -> QuadratureResult:
    """Integrate ``spec.f`` over (0, 1).

    The result's ``error_estimate`` bounds ``|value - integral|`` a posteriori;
    ``converged`` is set when the estimate met ``tol`` within ``tol.max_work``
    evaluations. Non-finite integrand values raise :class:`QuadratureError`.
    """
    if spec.domain != UNIT_INTERVAL:
        raise ValueError("integrate_unit requires a unit_interval spec")
    value, err, evals, conv = _tanh_sinh(spec.f, tol, spec.f_right)
    return QuadratureResult(float(value), err, evals, conv)


def integrate_semi_infinite(spec: IntegrandSpec, tol: Tolerance = DEFAULT_TOL) -> QuadratureResult:
    """Integrate ``spec.f`` over (0, inf) as the sum of two unit-interval pieces.

    Splits at 1 and substitutes ``x -> 1/u`` on the far piece, so the result is
    ``int_0^1 f(x) dx + int_0^1 f(1/u)/u^2 du`` with the two error estimates
    added.
    """
    if spec.domain != SEMI_INFINITE:
        raise ValueError("integrate_semi_infinite requires a semi_infinite spec")
    half = Tolerance(tol.abs_tol / 2.0, tol.rel_tol / 2.0, max(1, tol.max_work // 2))

    def far(u):
        return spec.f(1.0 / u) / u**2

    v1, e1, n1, c1 = _tanh_sinh(spec.f, half)
    v2, e2, n2, c2 = _tanh_sinh(far, half)
    return QuadratureResult(float(v1 + v2), e1 + e2, n1 + n2, c1 and c2)

"""Summation of infinite series to a requested tolerance.

Direct summation carries a classical alternating remainder bound or a
caller-supplied comparison-tail bound. Slowly convergent alternating series
(terms like log(n)/n^2) go through an iterated Euler transform: partial sums
are repeatedly averaged pairwise, and the run stops once two successive
averaged estimates agree to half the tolerance and the alternating bound on
the transformed sequence is below the other half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .combinatorics import leibniz_partial_float, odd_harmonic_float
from .numerics import CONSTANTS, DEFAULT_TOL, NeumaierSum, Tolerance

POSITIVE = "positive"
ALTERNATING = "alternating"
UNKNOWN = "unknown"

METHOD_DIRECT = "direct"
METHOD_EULER = "alternating_euler"

_SIGN_GRACE = 4  # leading terms exempt from the alternation check


class SignPatternError(RuntimeError):
    """Raised when a declared-alternating series produces two consecutive
    same-sign terms beyond the grace window."""


@dataclass(frozen=True)
class TermGenerator:
    """A series given by its general term.

    ``term(n)`` must be defined for all n >= first_index. For
    ``sign_pattern=POSITIVE`` (or UNKNOWN), direct summation needs
    ``tail_bound(m, t)``: an upper bound on ``sum_{k>=m} |term(k)|`` given the
    first omitted index m and its term value t.
    """

    term: Callable[[int], float]
    first_index: int = 0
    sign_pattern: str = UNKNOWN
    tail_bound: Optional[Callable[[int, float], float]] = None
    name: str = ""

    def __post_init__(self):
        if self.sign_pattern not in (POSITIVE, ALTERNATING, UNKNOWN):
            raise ValueError(f"unknown sign pattern {self.sign_pattern!r}")


@dataclass(frozen=True)
class SummationResult:
    value: float
    terms_used: int
    remainder_bound: float
    method: str
    converged: bool = True


def _check_alternation(g: TermGenerator, t: float, t_next: float, n: int) -> None:
    if g.sign_pattern != ALTERNATING:
        return
    if n - g.first_index < _SIGN_GRACE:
        return
    if t * t_next > 0.0:
        raise SignPatternError(
            f"terms at indices {n} and {n + 1} of {g.name or 'series'} "
            f"have the same sign ({t!r}, {t_next!r})"
        )


def sum_direct(g: TermGenerator, tol: Tolerance = DEFAULT_TOL) -> SummationResult:
    """Partial sum with an a-posteriori remainder bound.

    Alternating series use the classical bound |first omitted term|; positive
    or unknown-sign series require the generator's tail_bound.
    """
    if g.sign_pattern != ALTERNATING and g.tail_bound is None:
        raise ValueError(
            "sum_direct needs a tail_bound for non-alternating series"
        )
    acc = NeumaierSum()
    n = g.first_index
    t = g.term(n)
    used = 0
    amax = 0.0
    while True:
        acc.add(t)
        used += 1
        amax = max(amax, abs(t))
        t_next = g.term(n + 1)
        _check_alternation(g, t, t_next, n)
        if g.sign_pattern == ALTERNATING:
            tail = abs(t_next)
        else:
            tail = g.tail_bound(n + 1, t_next)
        value = acc.value
        floor = 2.3e-16 * (abs(value) + amax)  # accumulation rounding floor
        bound = tail + floor
        target = tol.abs_tol + tol.rel_tol * abs(value)
        if bound <= target:
            return SummationResult(value, used, bound, METHOD_DIRECT, True)
        if floor > target and tail <= floor:
            # tolerance below double-precision noise: summing further cannot
            # shrink the bound, stop with the best value flagged
            return SummationResult(value, used, bound, METHOD_DIRECT, False)
        if used >= tol.max_work:
            return SummationResult(value, used, bound, METHOD_DIRECT, False)
        n += 1
        t = t_next


def _euler_scan(partials: np.ndarray, tol: Tolerance, floor: float):
    """Run averaging passes; return (value, bound, converged) for the first
    pass meeting the stopping rule, else the best pass seen.

    ``floor`` is the rounding noise of the raw terms and partial sums; it is
    folded into the reported bound so that sub-rounding tolerances are
    (honestly) never met even when averaged estimates collide bitwise.
    """
    s = partials
    est_prev = s[-1]
    best_val, best_bound = est_prev, math.inf
    passes = 0
    while len(s) >= 2:
        s = 0.5 * (s[:-1] + s[1:])
        passes += 1
        est = s[-1]
        diff = abs(est - est_prev)
        delta_tail = abs(s[-1] - s[-2]) if len(s) >= 2 else 0.0
        bound = diff + delta_tail + floor
        target = tol.abs_tol + tol.rel_tol * abs(est)
        if passes >= 3 and diff <= 0.5 * target and delta_tail <= 0.5 * target and bound <= target:
            return est, bound, True
        if bound < best_bound:
            best_val, best_bound = est, bound
        est_prev = est
    return best_val, best_bound, False


def sum_alternating_accelerated(
    g: TermGenerator, tol: Tolerance = DEFAULT_TOL
) -> SummationResult:
    """Euler-transformed sum of an alternating series.

    Raw terms are generated in doubling batches (64, 128, ...) until the
    averaged estimates stabilize to the tolerance or ``tol.max_work`` raw
    terms have been spent. Alternation is enforced beyond a short grace
    window; a violation raises :class:`SignPatternError` naming the index.
    """
    terms: list[float] = []
    partials: list[float] = []
    acc = NeumaierSum()
    amax = 0.0
    batch = 64
    # The averaging triangle is O(M^2); past a few thousand partial sums the
    # rounding floor, not the transform, limits accuracy, so growth stops there.
    batch_cap = min(tol.max_work, 16384)

    def extend(limit: int) -> None:
        nonlocal amax
        while len(terms) < limit:
            n = g.first_index + len(terms)
            t = g.term(n)
            if terms:
                _check_alternation(g, terms[-1], t, n - 1)
            terms.append(t)
            amax = max(amax, abs(t))
            acc.add(t)
            partials.append(acc.value)

    prev_best = math.inf
    while True:
        extend(min(batch, batch_cap))
        floor = 4.5e-16 * (amax + abs(partials[-1]))
        if floor > tol.abs_tol + tol.rel_tol * abs(partials[-1]):
            # tolerance below the double-precision noise of the terms:
            # more raw terms cannot help, report the best estimate flagged
            value, bound, _ = _euler_scan(np.array(partials), tol, floor)
            return SummationResult(value, len(terms), bound, METHOD_EULER, False)
        value, bound, ok = _euler_scan(np.array(partials), tol, floor)
        if ok:
            return SummationResult(value, len(terms), bound, METHOD_EULER, True)
        if len(terms) >= batch_cap or bound > 0.25 * prev_best:
            # stagnation: doubling the raw terms stopped paying off
            return SummationResult(value, len(terms), bound, METHOD_EULER, False)
        prev_best = min(prev_best, bound)
        batch *= 2


def sum_eq8(tol: Tolerance = DEFAULT_TOL) -> SummationResult:
    """Accelerated value of sum_{n>=1} (h_n / n) (L_n - pi/4), where L_n is
    the n-th Leibniz partial sum; 192 times this value targets pi^3."""
    quarter_pi = CONSTANTS.pi / 4.0

    def term(n: int) -> float:
        return odd_harmonic_float(n) / n * (leibniz_partial_float(n) - quarter_pi)

    g = TermGenerator(term, first_index=1, sign_pattern=ALTERNATING, name="pi^3 series")
    return sum_alternating_accelerated(g, tol)

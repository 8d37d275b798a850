"""Summation of infinite series to a requested tolerance.

Direct summation stops at the first index whose remainder bound meets the
tolerance. For a declared-alternating series the bound is the first omitted
term, which bounds the truncation error when the terms alternate in sign and
decrease in magnitude from there on; only the alternation is checked. For a
positive series the bound is the caller's comparison-tail bound. A direct sum
that reads an infinite or NaN term raises :class:`NonFiniteTermError`. Slowly
convergent alternating series (terms like log(n)/n^2) go through an iterated
Euler transform: partial sums are repeatedly averaged pairwise, and the run
stops once two successive averaged estimates agree to half the tolerance and
the last difference of the transformed sequence is below the other half.

Terms come in index ranges: a :class:`TermGenerator`'s ``terms(n0, n1)``
returns the terms of indices ``n0 .. n1-1`` as an array.

Rows: a :class:`TermRows` holds series that differ only in one parameter. Its
builder takes the parameter as a ``(rows, 1)`` column, and its generator
returns a ``(rows, n1 - n0)`` array of terms. :func:`sum_direct` sums every
row chunk by chunk; a chunk is at most twice the last one, and no longer than
the decay of the terms predicts the slowest row needs. Each row carries its own
running sum, Neumaier compensation and largest term; inside a chunk these are
``np.cumsum`` and ``np.fmax.accumulate`` along the term axis
(:func:`~quadident.numerics.neumaier_prefix`), which run left to right, so
each row sees the IEEE operations of a term-by-term :class:`NeumaierSum` in
the same order. A row stops at the first index that meets the stop rule, so
its value, ``terms_used``, ``remainder_bound`` and ``converged`` are bit for
bit those of the one-row run; terms computed past a row's stop are never
read. There is one driver: a single :class:`TermGenerator` is its one-row
case. A rows call returns :class:`SummationRows`: the per-row results plus
the batch totals ``terms_used`` (sum over rows) and ``converged`` (all rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .combinatorics import leibniz_partial_float, odd_harmonic_float
from .numerics import CONSTANTS, DEFAULT_TOL, Tolerance, neumaier_prefix

POSITIVE = "positive"
ALTERNATING = "alternating"

METHOD_DIRECT = "direct"
METHOD_EULER = "alternating_euler"

_SIGN_GRACE = 4  # leading terms exempt from the alternation check
_CHUNK = 32      # terms per row in the first chunk of a direct sum
_CHUNK_MAX = 4096  # later chunks double up to this size


class SignPatternError(RuntimeError):
    """Raised when a declared-alternating series produces two consecutive
    same-sign terms beyond the grace window."""


class NonFiniteTermError(RuntimeError):
    """Raised when a term read before a row's stop is infinite or NaN."""


@dataclass(frozen=True)
class TermGenerator:
    """A series given by its terms.

    ``terms(n0, n1)`` returns the terms of indices ``n0 .. n1-1`` as an array
    of shape ``(n1 - n0,)``, or ``(rows, n1 - n0)`` for a generator built from
    a column of parameters; it must be defined for every ``n0 >= first_index``.
    ``sign_pattern`` is POSITIVE or ALTERNATING. For POSITIVE, direct
    summation needs ``tail_bound(m, t)``: an upper bound on
    ``sum_{k>=m} |term(k)|`` given the first omitted index m and its term
    value t, computed elementwise (``m`` is an integer array of indices,
    ``t`` the array of their terms).
    """

    terms: Callable[[int, int], np.ndarray]
    first_index: int = 0
    sign_pattern: str = POSITIVE
    tail_bound: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if self.sign_pattern not in (POSITIVE, ALTERNATING):
            raise ValueError(f"unknown sign pattern {self.sign_pattern!r}")


@dataclass(frozen=True, eq=False)
class TermRows:
    """Series that differ only in one parameter, summed in one pass.

    ``build(column)`` receives the parameter values of some rows as a
    ``(rows, 1)`` float array and returns their :class:`TermGenerator`, whose
    ``terms`` return one row of terms per parameter. Each row must be computed
    by the same operations as the generator of a scalar parameter.
    """

    build: Callable[[np.ndarray], TermGenerator]
    values: tuple[float, ...]

    def generator(self, rows=None) -> TermGenerator:
        """The generator of the rows at the given indices (all rows for None)."""
        column = np.asarray(self.values, dtype=float)
        return self.build(column[:, None] if rows is None else column[rows, None])


@dataclass(frozen=True)
class SummationResult:
    value: float
    terms_used: int
    remainder_bound: float
    method: str
    converged: bool = True


@dataclass(frozen=True)
class SummationRows:
    """Per-row results of one :class:`TermRows` pass, with batch totals."""

    rows: tuple[SummationResult, ...]

    @property
    def terms_used(self) -> int:
        return sum(r.terms_used for r in self.rows)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.rows)


def _terms(g: TermGenerator, n0: int, n1: int, k: int) -> np.ndarray:
    """Terms ``n0 .. n1-1`` of the ``k`` rows of ``g``, shape ``(k, n1 - n0)``."""
    a = np.asarray(g.terms(n0, n1), dtype=float)
    return a if a.shape == (k, n1 - n0) else np.broadcast_to(a, (k, n1 - n0))


def _same_sign(g: TermGenerator, t, t_next, n) -> np.ndarray:
    """Where a term (of index ``n``) and the next one have the same sign past
    the grace window; nowhere for a series not declared alternating."""
    if g.sign_pattern != ALTERNATING:
        return np.zeros(np.shape(t), dtype=bool)
    same = t * t_next > 0.0
    if n.size and n[0] - g.first_index < _SIGN_GRACE:
        same &= n - g.first_index >= _SIGN_GRACE
    return same


def _sign_error(g: TermGenerator, n: int, t: float, t_next: float) -> SignPatternError:
    return SignPatternError(
        f"terms at indices {n} and {n + 1} of {g.name or 'series'} "
        f"have the same sign ({t!r}, {t_next!r})"
    )


def _next_chunk(size: int, a: np.ndarray, tail: np.ndarray, target: np.ndarray) -> int:
    """Terms per row in the next chunk: twice ``size``, but no more than a
    margin over the count at which the active rows' last ``tail`` bounds,
    shrinking at the geometric rate of their last terms ``a``, reach their
    ``target``. The chunk length changes no result; it limits the terms built
    past the last stop, which on a cold cache cost an exact coefficient each
    in E21-E23."""
    half = a.shape[1] // 2
    with np.errstate(all="ignore"):
        rate = np.log(np.abs(a[:, -1]) / np.abs(a[:, half])) / (a.shape[1] - 1 - half)
        need = np.log(target / tail) / rate
    if not (np.isfinite(need).all() and (rate < 0.0).all()):
        return min(2 * size, _CHUNK_MAX)
    return int(min(2 * size, _CHUNK_MAX, max(8.0, 1.25 * need.max() + 4.0)))


def _direct(gen_of, k: int, tol: Tolerance) -> list[SummationResult]:
    """Direct summation of ``k`` rows; ``gen_of(rows)`` returns the generator
    of the active rows (all for None).

    At index ``n`` a row adds term ``n``, then reads term ``n + 1``: a
    non-finite term or a same-sign pair raises, else the row stops once
    ``tail + floor`` meets the target, once the rounding floor dominates both,
    or at ``tol.max_work`` terms. A chunk evaluates these steps for indices
    ``n0 .. n0+m-1`` of every active row at once; each row then takes its
    first stop.
    """
    g = gen_of(None)
    if g.sign_pattern != ALTERNATING and g.tail_bound is None:
        raise ValueError("sum_direct needs a tail_bound for non-alternating series")
    first = g.first_index
    out: list = [None] * k
    active = np.arange(k)
    s, c, amax = np.zeros(k), np.zeros(k), np.zeros(k)
    pending = None  # term n0 of each active row, read as "next" in the last chunk
    n0, size = first, _CHUNK
    while True:
        m = min(size, first + tol.max_work - n0)
        if pending is None:
            a = _terms(g, n0, n0 + m + 1, len(active))
        else:
            a = np.concatenate(
                [pending[:, None], _terms(g, n0 + 1, n0 + m + 1, len(active))], axis=1)
        t, t_next = a[:, :-1], a[:, 1:]
        n = np.arange(n0, n0 + m)
        with np.errstate(all="ignore"):  # inf and nan propagate as in Python floats
            sums, comp = neumaier_prefix(s, c, t)
            value = sums + comp
            big = np.fmax.accumulate(
                np.concatenate([amax[:, None], np.abs(t)], axis=1), axis=1)[:, 1:]
            if g.sign_pattern == ALTERNATING:
                tail = np.abs(t_next)
            else:
                tail = np.broadcast_to(g.tail_bound(n + 1, t_next), t_next.shape)
            magnitude = np.abs(value)
            floor = 2.3e-16 * (magnitude + big)  # accumulation rounding floor
            bound = tail + floor
            target = tol.abs_tol + tol.rel_tol * magnitude
            met = bound <= target
            # a tolerance below double-precision noise cannot be met by summing
            # further: stop with the best value flagged; likewise at max_work
            stop = met | ((floor > target) & (tail <= floor))
            if n0 + m - first >= tol.max_work:
                stop[:, -1] = True
            same = _same_sign(g, t, t_next, n)
        ends = np.where(stop.any(axis=1), stop.argmax(axis=1), m)
        nonfinite = ~np.isfinite(a)  # a row reads terms n0 .. n0 + ends + 1
        if nonfinite.any():
            read = nonfinite.any(axis=1) & (nonfinite.argmax(axis=1) <= ends + 1)
            if read.any():
                i = read.argmax()
                j = nonfinite[i].argmax()
                raise NonFiniteTermError(f"term at index {n0 + j} of {g.name or 'series'} "
                                         f"is not finite ({float(a[i, j])!r})")
        if same.any():
            bad = np.flatnonzero(same.any(axis=1) & (same.argmax(axis=1) <= ends))
            if bad.size:
                i = bad[0]
                j = same[i].argmax()
                raise _sign_error(g, int(n[j]), float(t[i, j]), float(t_next[i, j]))
        keep = ends == m
        if not keep.all():
            done = np.flatnonzero(~keep)
            at = (done, ends[done])
            for i, v, used, b, ok in zip(active[done].tolist(), value[at].tolist(),
                                         (ends[done] + (n0 - first + 1)).tolist(),
                                         bound[at].tolist(), met[at].tolist()):
                out[i] = SummationResult(v, used, b, METHOD_DIRECT, ok)
            active = active[keep]
            if not active.size:
                return out
            g = gen_of(active)
        s, c, amax, pending = sums[keep, -1], comp[keep, -1], big[keep, -1], a[keep, -1]
        n0 += m
        size = _next_chunk(size, a[keep], tail[keep, -1], target[keep, -1])


def sum_direct(g: TermGenerator | TermRows,
               tol: Tolerance = DEFAULT_TOL) -> SummationResult | SummationRows:
    """Partial sum with an a-posteriori remainder bound: a
    :class:`SummationResult`, or a :class:`SummationRows` for
    :class:`TermRows`.

    Alternating series use |first omitted term|, a bound on the truncation
    error once the terms alternate and decrease in magnitude; positive series
    require the generator's tail_bound. A rounding floor is added to either.
    A same-sign pair of a declared-alternating series before a row's stop
    raises :class:`SignPatternError`, and a term read before a row's stop
    that is infinite or NaN raises :class:`NonFiniteTermError`.
    """
    if isinstance(g, TermRows):
        return SummationRows(tuple(_direct(g.generator, len(g.values), tol)))
    return _direct(lambda rows: g, 1, tol)[0]


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
    Partial sums are the running Neumaier sums of the terms.

    The result's ``remainder_bound`` (last change of the averaged estimate,
    plus the last difference of the final pass, plus a rounding floor) is a
    stopping heuristic, not a proven bound on the error.
    """
    first = g.first_index
    partials = np.empty(0)
    s = c = np.zeros(1)
    last = np.empty(0)  # the newest raw term, once there is one
    amax = 0.0
    batch = 64
    # The averaging triangle is O(M^2); past a few thousand partial sums the
    # rounding floor, not the transform, limits accuracy, so growth stops there.
    batch_cap = min(tol.max_work, 16384)

    prev_best = math.inf
    while True:
        count, limit = len(partials), min(batch, batch_cap)
        if count < limit:
            new = _terms(g, first + count, first + limit, 1)[0]
            pairs = np.concatenate([last, new])
            n = np.arange(first + count - len(last), first + limit - 1)
            same = _same_sign(g, pairs[:-1], pairs[1:], n)
            if same.any():
                j = same.argmax()
                raise _sign_error(g, int(n[j]), float(pairs[j]), float(pairs[j + 1]))
            with np.errstate(all="ignore"):
                sums, comp = neumaier_prefix(s, c, new[None, :])
            partials = np.concatenate([partials, (sums + comp)[0]])
            s, c, last = sums[:, -1], comp[:, -1], new[-1:]
            amax = max(amax, float(np.fmax.reduce(np.abs(new))))
        count = len(partials)
        floor = 4.5e-16 * (amax + abs(partials[-1]))
        if floor > tol.abs_tol + tol.rel_tol * abs(partials[-1]):
            # tolerance below the double-precision noise of the terms:
            # more raw terms cannot help, report the best estimate flagged
            value, bound, _ = _euler_scan(partials, tol, floor)
            return SummationResult(float(value), count, float(bound), METHOD_EULER, False)
        value, bound, ok = _euler_scan(partials, tol, floor)
        if ok:
            return SummationResult(float(value), count, float(bound), METHOD_EULER, True)
        if count >= batch_cap or bound > 0.25 * prev_best:
            # stagnation: doubling the raw terms stopped paying off
            return SummationResult(float(value), count, float(bound), METHOD_EULER, False)
        prev_best = min(prev_best, bound)
        batch *= 2


def sum_eq8(tol: Tolerance = DEFAULT_TOL) -> SummationResult:
    """Accelerated value of sum_{n>=1} (h_n / n) (L_n - pi/4), where L_n is
    the n-th Leibniz partial sum; 192 times this value targets pi^3."""
    quarter_pi = CONSTANTS.pi / 4.0

    def terms(n0: int, n1: int) -> list[float]:
        return [odd_harmonic_float(n) / n * (leibniz_partial_float(n) - quarter_pi)
                for n in range(n0, n1)]

    g = TermGenerator(terms, first_index=1, sign_pattern=ALTERNATING, name="pi^3 series")
    return sum_alternating_accelerated(g, tol)

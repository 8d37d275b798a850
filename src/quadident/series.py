"""Summation of infinite series to a requested tolerance.

Direct summation stops at the first index whose remainder bound meets the
tolerance. For a declared-alternating series the bound is the first omitted
term, which bounds the truncation error when the terms alternate in sign and
decrease in magnitude from there on; only the alternation is checked. For a
positive series the bound is the caller's comparison-tail bound. Alternating
series go through the Cohen-Rodriguez Villegas-Zagier algorithm: a fixed
weighted sum of the first n + 4 terms, with n set by the first term and the
rate (3+sqrt 8)^-n, proven for moment sequences. Its bound is proven for the
registered series of E5, EC6, E6, EC6b and E21-E23 at p = 1, and an estimate
for E7, E8, E16, E17, E19 and E21-E23 at p >= 2. The registry sums every
alternating series this way and only positive ones directly; the alternating
branch of :func:`sum_direct` stays for the public API and the
``series_acceleration`` demo. Either sum raises :class:`NonFiniteTermError`
when it reads an infinite or NaN term.

Terms come in index ranges: a :class:`TermGenerator`'s ``terms(n0, n1)``
returns the terms of indices ``n0 .. n1-1`` as an array.

Rows: a :class:`~quadident.numerics.Rows` of series over a table of points
passes each parameter to its builder as a ``(rows, 1)`` column, and the
generator it builds returns a ``(rows, n1 - n0)`` array of terms.
:func:`sum_direct` sums every row chunk by chunk; chunks start at ``_CHUNK``
terms per row and double up to ``_CHUNK_MAX``. Each row carries its own
running sum, Neumaier compensation and largest term; inside a chunk these are
``np.cumsum`` and ``np.fmax.accumulate`` along the term axis
(:func:`~quadident.numerics.neumaier_prefix`), which run left to right, so
each row sees the IEEE operations of a term-by-term :class:`NeumaierSum` in
the same order. A row stops at the first index that meets the stop rule, so
its value, ``terms_used``, ``remainder_bound`` and ``converged`` are bit for
bit those of the one-row run; terms computed past a row's stop are never
read. :func:`sum_alternating_accelerated` reads the first term of every row,
then the other terms of all rows in one call, and sums each row with
``math.fsum``, so its rows too are bit for bit their one-row runs. A single
:class:`TermGenerator` is each driver's one-row case; a rows call returns
:class:`SummationRows`: ``(rows,)`` columns of value, remainder bound, terms
used and convergence, plus the batch totals ``terms_used`` (sum over rows)
and ``converged`` (all rows) as Python numbers. A :class:`SummationResult`
is made only for a single generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .combinatorics import leibniz_partial_float, odd_harmonic_float
from .numerics import CONSTANTS, DEFAULT_TOL, Rows, Tolerance, neumaier_prefix

POSITIVE = "positive"
ALTERNATING = "alternating"

_SIGN_GRACE = 4  # leading terms exempt from the alternation check
_CHUNK = 32      # terms per row in the first chunk of a direct sum
_CHUNK_MAX = 4096  # later chunks double up to this size
_RATE = 3.0 + math.sqrt(8.0)  # CVZ error decay per term
_EXTRA = 4  # an accelerated sum returns S_{n+4}, checked against S_n


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


@dataclass(frozen=True)
class SummationResult:
    value: float
    terms_used: int
    remainder_bound: float
    converged: bool = True


@dataclass(frozen=True, eq=False)
class SummationRows:
    """Results of one :class:`Rows` pass as ``(rows,)`` columns, with batch
    totals as Python numbers."""

    values: np.ndarray            # float
    remainder_bounds: np.ndarray  # float
    work: np.ndarray              # int: terms used by each row
    row_converged: np.ndarray     # bool

    @property
    def terms_used(self) -> int:
        return int(self.work.sum())

    @property
    def converged(self) -> bool:
        return bool(self.row_converged.all())


def _one_row(rows: SummationRows) -> SummationResult:
    """The result of a one-row pass, for a single generator."""
    return SummationResult(rows.values[0].item(), rows.work[0].item(),
                           rows.remainder_bounds[0].item(), rows.row_converged[0].item())


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


def _nonfinite_error(g: TermGenerator, n: int, t: float) -> NonFiniteTermError:
    return NonFiniteTermError(f"term at index {n} of {g.name or 'series'} is not finite ({t!r})")


def _check_read(g: TermGenerator, a: np.ndarray, same: np.ndarray, n0: int,
                last: np.ndarray) -> None:
    """Raise for the first row of ``a`` (terms from index ``n0``) that reads
    a non-finite term, else for the first that reads a same-sign pair (where
    ``same`` marks the pair of columns j and j + 1), among its columns
    ``0 .. last``."""
    nonfinite = ~np.isfinite(a)
    if not (nonfinite.any() or same.any()):
        return
    read = np.arange(a.shape[1]) <= last[:, None]
    bad = nonfinite & read
    if bad.any():
        i = bad.any(axis=1).argmax()
        j = int(bad[i].argmax())
        raise _nonfinite_error(g, n0 + j, float(a[i, j]))
    bad = same & read[:, 1:]
    if bad.any():
        i = bad.any(axis=1).argmax()
        j = int(bad[i].argmax())
        raise _sign_error(g, n0 + j, float(a[i, j]), float(a[i, j + 1]))


def _direct(gen_of, k: int, tol: Tolerance) -> SummationRows:
    """Direct summation of ``k`` rows; ``gen_of(rows)`` returns the generator
    of the active rows (all for None).

    At index ``n`` a row adds term ``n``, then reads term ``n + 1``: a
    non-finite term or a same-sign pair raises, else the row stops once
    ``tail + floor`` meets the target, once the rounding floor dominates both,
    or at ``tol.max_work`` terms. A chunk evaluates these steps for indices
    ``n0 .. n0+m-1`` of every active row at once; each row then takes its
    first stop, where its columns are filled.
    """
    g = gen_of(None)
    if g.sign_pattern != ALTERNATING and g.tail_bound is None:
        raise ValueError("sum_direct needs a tail_bound for non-alternating series")
    first = g.first_index
    out = SummationRows(np.empty(k), np.empty(k), np.empty(k, dtype=int),
                        np.empty(k, dtype=bool))
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
        _check_read(g, a, same, n0, ends + 1)  # a row reads terms n0 .. n0 + ends + 1
        keep = ends == m
        if not keep.all():
            done = np.flatnonzero(~keep)
            at, rows = (done, ends[done]), active[done]
            out.values[rows] = value[at]
            out.remainder_bounds[rows] = bound[at]
            out.work[rows] = ends[done] + (n0 - first + 1)
            out.row_converged[rows] = met[at]
            active = active[keep]
            if not active.size:
                return out
            g = gen_of(active)
        s, c, amax, pending = sums[keep, -1], comp[keep, -1], big[keep, -1], a[keep, -1]
        n0 += m
        size = min(2 * size, _CHUNK_MAX)


def sum_direct(g: TermGenerator | Rows,
               tol: Tolerance = DEFAULT_TOL) -> SummationResult | SummationRows:
    """Partial sum with an a-posteriori remainder bound: a
    :class:`SummationResult`, or a :class:`SummationRows` for
    :class:`~quadident.numerics.Rows`.

    Alternating series use |first omitted term|, a bound on the truncation
    error once the terms alternate and decrease in magnitude; positive series
    require the generator's tail_bound. A rounding floor is added to either.
    A same-sign pair of a declared-alternating series before a row's stop
    raises :class:`SignPatternError`, and a term read before a row's stop
    that is infinite or NaN raises :class:`NonFiniteTermError`.
    """
    if isinstance(g, Rows):
        return _direct(g.at, len(g.points), tol)
    return _one_row(_direct(lambda rows: g, 1, tol))


@functools.cache
def _cvz_weights(n: int) -> np.ndarray:
    """Weights of the first ``n`` terms in the CVZ sum S_n = sum_k w_k t_k.

    With b_j = n/(n+j) C(n+j, 2j) 4^j, the integer coefficients of the
    shifted Chebyshev polynomial T_n(1 - 2x) up to sign, and d = sum_j b_j =
    T_n(3), the weight of term k is sum_{j>k} b_j / d: it falls from about 1
    to 0. Each weight is a quotient of exact integers, correctly rounded.
    """
    b = [1]
    for j in range(n):
        b.append(b[-1] * 2 * (n + j) * (n - j) // ((2 * j + 1) * (j + 1)))
    d = sum(b)
    w = np.array([sum(b[k + 1:]) / d for k in range(n)])
    w.flags.writeable = False
    return w


@functools.cache
def _cvz_table(width: int) -> np.ndarray:
    """Row n <= ``width`` holds the weights of S_n, then zeros."""
    table = np.zeros((width + 1, width))
    for n in range(1, width + 1):
        table[n, :n] = _cvz_weights(n)
    table.flags.writeable = False
    return table


def _accelerated(g: TermGenerator, k: int, tol: Tolerance) -> SummationRows:
    """CVZ sums of the ``k`` rows of ``g``.

    Each row takes its n from its first term t_0: the least n with
    8|t_0|/(3+sqrt 8)^n <= max(abs_tol + rel_tol |t_0|/2, 2^-53 |t_0|), at
    least 1 and at most ``tol.max_work - _EXTRA``. For a moment sequence
    |t_0|/2 <= |S| <= |t_0| and |S_{n+4} - S_n| < 4|t_0|/(3+sqrt 8)^n, so the
    bound then stays below half the target plus the rounding floor; below
    2^-53 |t_0| the floor dominates and more terms cannot help. A row reads
    its terms up to n + _EXTRA, each checked as in the direct sum. Each row's
    sums are ``math.fsum`` of its own products, so a row's result is bit for
    bit that of its one-row run.
    """
    first = g.first_index
    t0 = _terms(g, first, first + 1, k)[:, 0]
    a0 = np.abs(t0)
    with np.errstate(all="ignore"):
        target = np.maximum(tol.abs_tol + 0.5 * tol.rel_tol * a0, 2.0**-53 * a0)
        need = np.ceil(np.log(8.0 * a0 / target) / math.log(_RATE))
    need = np.where(np.isfinite(need), need, 1.0)  # t_0 zero or not finite
    ns = np.clip(need, 1, max(1, tol.max_work - _EXTRA)).astype(int)
    used = ns + _EXTRA
    t = np.concatenate([t0[:, None], _terms(g, first + 1, first + int(used.max()), k)], axis=1)
    with np.errstate(all="ignore"):
        same = _same_sign(g, t[:, :-1], t[:, 1:], np.arange(first, first + t.shape[1] - 1))
    _check_read(g, t, same, first, used - 1)
    # every row's products in one array: S_n and S_{n+4} weigh the first n
    # and n + 4 terms, and a row's products past those are never read
    w = _cvz_table(t.shape[1])
    with np.errstate(all="ignore"):
        full = w[used] * t
        heads = (w[ns] * t).tolist()
    values, bounds = [], []
    for row, head, n, a in zip(full.tolist(), heads, ns.tolist(), a0.tolist()):
        value = math.fsum(row[:n + _EXTRA])
        partial = math.fsum(head[:n])
        floor = 4.5e-16 * math.fsum(map(abs, row[:n + _EXTRA]))
        values.append(value)
        bounds.append(abs(value - partial) + 2.0 * a / _RATE**n + floor)
    values, bounds = np.array(values), np.array(bounds)
    return SummationRows(values, bounds, used,
                         bounds <= tol.abs_tol + tol.rel_tol * np.abs(values))


def sum_alternating_accelerated(g: TermGenerator | Rows,
                                tol: Tolerance = DEFAULT_TOL) -> SummationResult | SummationRows:
    """Cohen-Rodriguez Villegas-Zagier sum of an alternating series (Exp.
    Math. 9, 2000, Algorithm 1): a :class:`SummationResult`, or a
    :class:`SummationRows` for :class:`~quadident.numerics.Rows`.

    The value is the fixed weighted sum S_{n+4} of the first n + 4 terms,
    with n chosen from the first term (see :func:`_accelerated`). The
    ``remainder_bound`` is |S_{n+4} - S_n| + 2|t_0|/(3+sqrt 8)^n plus a
    rounding floor. When the term magnitudes are a Hausdorff moment sequence
    (a_k = int_0^1 x^k dmu for a positive measure mu; equivalently, completely
    monotone), |S - S_n| <= 2|S|/(3+sqrt 8)^n and |S| <= |t_0|, so the bound is
    proven. Moment sequences include 1/(k+1), 1/(2k+1), alpha^k for
    0 <= alpha <= 1, |log 2 - H_k^-| = int_0^1 x^k/(1+x) dx, and products of
    these. For other alternating terms the bound is an estimate. A same-sign
    pair past the grace window raises :class:`SignPatternError`, and an
    infinite or NaN term raises :class:`NonFiniteTermError`.
    """
    if isinstance(g, Rows):
        return _accelerated(g.at(), len(g.points), tol)
    return _one_row(_accelerated(g, 1, tol))


def sum_eq8(tol: Tolerance = DEFAULT_TOL) -> SummationResult:
    """Accelerated value of sum_{n>=1} (h_n / n) (L_n - pi/4), where L_n is
    the n-th Leibniz partial sum; 192 times this value targets pi^3."""
    quarter_pi = CONSTANTS.pi / 4.0

    def terms(n0: int, n1: int) -> list[float]:
        return [odd_harmonic_float(n) / n * (leibniz_partial_float(n) - quarter_pi)
                for n in range(n0, n1)]

    g = TermGenerator(terms, first_index=1, sign_pattern=ALTERNATING, name="pi^3 series")
    return sum_alternating_accelerated(g, tol)

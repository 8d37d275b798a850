"""Summation of infinite series to a requested tolerance.

Every series here is alternating. Terms come in index ranges: a
:class:`TermGenerator`'s ``terms(n0, n1)`` returns the terms of indices
``n0 .. n1-1`` as an array. Either sum checks each read of terms once: it
raises :class:`NonFiniteTermError` when it reads an infinite or NaN term, and
:class:`SignPatternError` when it reads two same-sign terms past the first
``_SIGN_GRACE``.

:func:`sum_direct` stops at the first index whose remainder bound meets the
tolerance. The bound is the first omitted term, which bounds the truncation
error when the terms alternate in sign and decrease in magnitude from there
on; only the alternation is checked. It reads chunks of ``_CHUNK`` terms,
doubling up to ``_CHUNK_MAX``, whose running sums and Neumaier compensations
(:func:`~quadident.numerics.neumaier_prefix`) are the IEEE operations of the
term-by-term accumulator in the same order; terms computed past the stop are
never read. It serves the public API and the ``series_acceleration`` demo; no
registered side sums with it.

:func:`sum_alternating_accelerated` is the Cohen-Rodriguez Villegas-Zagier
algorithm: a fixed weighted sum of the first n + 4 terms, with n set by the
first term and the rate (3+sqrt 8)^-n, proven for moment sequences. The
registry sums every series side this way, E18's positive series in van
Wijngaarden's alternating form; the bound is proven for E5, EC6, E6, EC6b and
E21-E23 at p = 1, and an estimate for E7, E8, E16-E19 and E21-E23 at p >= 2.
A :class:`~quadident.numerics.Rows` of series over a table of points passes
each parameter to its builder as a ``(rows, 1)`` column, and the generator it
builds returns a ``(rows, n1 - n0)`` array of terms, all read in one call.
Each row's value is ``math.fsum`` of its weighted terms; its check sum S_n
and the sums of |w_k t_k| behind its rounding floor are left-to-right row sums
(``np.add.accumulate``), whose order does not depend on the batch's width,
as numpy's pairwise ``np.sum`` does. So each row is bit for bit its one-row
run. A rows call returns :class:`SummationRows`: ``(rows,)`` columns of
value, remainder bound, terms used and convergence, plus the batch totals
``terms_used`` (sum over rows) and ``converged`` (all rows) as Python
numbers; a single generator gives a :class:`SummationResult`.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, NamedTuple

import numpy as np

from .combinatorics import leibniz_partial_float, odd_harmonic_float
from .numerics import CONSTANTS, DEFAULT_TOL, Rows, Tolerance, neumaier_prefix

_SIGN_GRACE = 4  # leading terms exempt from the alternation check
_CHUNK = 32      # terms in the first chunk of a direct sum
_CHUNK_MAX = 4096  # later chunks double up to this size
_RATE = 3.0 + math.sqrt(8.0)  # CVZ error decay per term
_EXTRA = 4  # an accelerated sum returns S_{n+4}, checked against S_n


class SignPatternError(RuntimeError):
    """Raised when a series produces two consecutive same-sign terms beyond
    the grace window."""


class NonFiniteTermError(RuntimeError):
    """Raised when a term read before a row's stop is infinite or NaN."""


class TermGenerator(NamedTuple):
    """An alternating series given by its terms.

    ``terms(n0, n1)`` returns the terms of indices ``n0 .. n1-1`` as an array
    of shape ``(n1 - n0,)``, or ``(rows, n1 - n0)`` for a generator built from
    a column of parameters; it must be defined for every ``n0 >= first_index``.
    ``name`` labels the series in error messages.
    """

    terms: Callable[[int, int], np.ndarray]
    first_index: int = 0
    name: str = ""


class SummationResult(NamedTuple):
    value: float
    terms_used: int
    remainder_bound: float
    converged: bool = True


class SummationRows(NamedTuple):
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
    a = np.asarray(g.terms(n0, n1))
    # a float cast would drop imaginary parts or parse text, in an object
    # array too, whose elements are checked one by one
    if a.dtype.kind in "cSU" or (a.dtype.kind == "O" and not all(
            isinstance(t, numbers.Real) for t in a.flat)):
        raise TypeError(f"terms of {g.name or 'series'} are {a.dtype}, not real numbers")
    a = a.astype(float, copy=False)
    return a if a.shape == (k, n1 - n0) else np.broadcast_to(a, (k, n1 - n0))


def _sign_error(g: TermGenerator, n: int, t: float, t_next: float) -> SignPatternError:
    return SignPatternError(
        f"terms at indices {n} and {n + 1} of {g.name or 'series'} "
        f"have the same sign ({t!r}, {t_next!r})"
    )


def _nonfinite_error(g: TermGenerator, n: int, t: float) -> NonFiniteTermError:
    return NonFiniteTermError(f"term at index {n} of {g.name or 'series'} is not finite ({t!r})")


def _check_read(g: TermGenerator, a: np.ndarray, n0: int, last: np.ndarray) -> None:
    """Raise for the first row of ``a`` (terms from index ``n0``) that reads
    a non-finite term, else for the first that reads two same-sign terms
    past the first ``_SIGN_GRACE`` of ``g``, among its columns ``0 .. last``."""
    nonfinite = ~np.isfinite(a)
    same = a[:, :-1] * a[:, 1:] > 0.0  # pair j: the terms of columns j and j + 1
    same[:, :max(0, g.first_index + _SIGN_GRACE - n0)] = False
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


def sum_direct(g: TermGenerator, tol: Tolerance = DEFAULT_TOL) -> SummationResult:
    """Partial sum with an a-posteriori remainder bound: |first omitted term|,
    a bound on the truncation error once the terms alternate and decrease in
    magnitude, plus a rounding floor.

    At index ``n`` the sum adds term ``n``, then reads term ``n + 1``: a
    non-finite term raises :class:`NonFiniteTermError` and a same-sign pair
    past the grace window :class:`SignPatternError`, else it stops once
    ``tail + floor`` meets the target, once the rounding floor dominates both,
    or at ``tol.max_work`` terms. A chunk evaluates these steps for indices
    ``n0 .. n0+m-1`` at once, as one row, and the sum takes its first stop.
    """
    first = g.first_index
    s, c, amax = np.zeros(1), np.zeros(1), np.zeros(1)
    pending = None  # term n0, read as "next" in the last chunk
    n0, size = first, _CHUNK
    while True:
        m = min(size, first + tol.max_work - n0)
        if pending is None:
            a = _terms(g, n0, n0 + m + 1, 1)
        else:
            a = np.concatenate([pending, _terms(g, n0 + 1, n0 + m + 1, 1)], axis=1)
        t, t_next = a[:, :-1], a[:, 1:]
        with np.errstate(all="ignore"):  # inf and nan propagate as in Python floats
            sums, comp = neumaier_prefix(s, c, t)
            value = sums + comp
            big = np.fmax.accumulate(
                np.concatenate([amax[:, None], np.abs(t)], axis=1), axis=1)[:, 1:]
            tail = np.abs(t_next)
            magnitude = np.abs(value)
            floor = 2.3e-16 * (magnitude + big)  # accumulation rounding floor
            bound = tail + floor
            target = tol.abs_tol + tol.rel_tol * magnitude
            met = bound <= target
            # a tolerance below double-precision noise cannot be met by summing
            # further: stop with the best value flagged; likewise at max_work
            stop = (met | ((floor > target) & (tail <= floor)))[0]
            if n0 + m - first >= tol.max_work:
                stop[-1] = True
            end = int(stop.argmax()) if stop.any() else m
            _check_read(g, a, n0, np.array([end + 1]))  # terms n0 .. n0 + end + 1
        if end < m:
            return SummationResult(value[0, end].item(), end + n0 - first + 1,
                                   bound[0, end].item(), met[0, end].item())
        s, c, amax, pending = sums[:, -1], comp[:, -1], big[:, -1], a[:, -1:]
        n0 += m
        size = min(2 * size, _CHUNK_MAX)


@functools.cache
def _cvz_table(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Row n <= ``width`` holds the weights of the CVZ sum S_n = sum_k w_k t_k,
    then zeros; with it come the rates (3+sqrt 8)^n, n = 0 .. ``width``, each
    Python's pow. Both read-only. With b_j = n/(n+j) C(n+j, 2j) 4^j, the
    integer coefficients of the shifted Chebyshev polynomial T_n(1 - 2x) up
    to sign, and d = sum_j b_j = T_n(3), the weight of term k is
    sum_{j>k} b_j / d, a quotient of exact integers, correctly rounded.
    """
    table = np.zeros((width + 1, width))
    for n in range(1, width + 1):
        b = [1]
        for j in range(n):
            b.append(b[-1] * 2 * (n + j) * (n - j) // ((2 * j + 1) * (j + 1)))
        d = sum(b)
        table[n, :n] = [sum(b[k + 1:]) / d for k in range(n)]
    powers = np.array([_RATE**n for n in range(width + 1)])
    for a in (table, powers):
        a.flags.writeable = False
    return table, powers


def _accelerated(g: TermGenerator, k: int, tol: Tolerance) -> SummationRows:
    """CVZ sums of the ``k`` rows of ``g``.

    Each row takes its n from its first term t_0: the least n with
    8|t_0|/(3+sqrt 8)^n <= max(abs_tol + rel_tol |t_0|/2, 2^-53 |t_0|), at
    least 1 and at most ``tol.max_work - _EXTRA``. For a moment sequence
    |t_0|/2 <= |S| <= |t_0| and |S_{n+4} - S_n| < 4|t_0|/(3+sqrt 8)^n, so the
    bound then stays below half the target plus the rounding floor; below
    2^-53 |t_0| the floor dominates and more terms cannot help. A row uses
    its terms up to n + _EXTRA, all read in one call, each checked as in the
    direct sum.

    The value S_{n+4} of each row is ``math.fsum`` of its products, the one
    sum whose bits the report carries. S_n and the rounding floor's sums of
    |w_k t_k| are left-to-right row sums (``np.add.accumulate``), exact zeros
    standing for the terms past a row's own; the floor adds n 2^-53 times
    S_n's sum of |w_k t_k|, which bounds the rounding of that running sum.
    Neither sum depends on the batch's width, as a pairwise ``np.sum``'s
    would, so a row's result is bit for bit that of its one-row run.
    """
    first = g.first_index
    cap = max(1, tol.max_work - _EXTRA)
    # a target is at least max(rel_tol/2, 2^-53)|t_0|, which bounds every
    # row's n (one more for rounding): one call reads all the terms it may use
    most = math.ceil(math.log(8.0 / max(0.5 * tol.rel_tol, 2.0**-53)) / math.log(_RATE))
    with np.errstate(all="ignore"):
        t = _terms(g, first, first + min(cap, max(1, most) + 1) + _EXTRA, k)
        a0 = np.abs(t[:, 0])
        target = np.maximum(tol.abs_tol + 0.5 * tol.rel_tol * a0, 2.0**-53 * a0)
        need = np.ceil(np.log(8.0 * a0 / target) / math.log(_RATE))
        need = np.where(np.isfinite(need), need, 1.0)  # t_0 zero or not finite
        ns = np.clip(need, 1, cap).astype(int)
        used = ns + _EXTRA
        t = t[:, :int(used.max())]
        _check_read(g, t, first, used - 1)
        # S_n and S_{n+4} weigh a row's first n and n + 4 terms, and zero the
        # rest, which are never read: zeros stand in for them
        w, rates = _cvz_table(t.shape[1])
        w_full, w_head = w[used], w[ns]
        t = np.where(w_full != 0.0, t, 0.0)
        full, heads = w_full * t, w_head * t
        values = np.array(list(map(math.fsum, full.tolist())))
        partial, size, head_size = np.add.accumulate(
            [heads, np.abs(full), np.abs(heads)], axis=2)[..., -1]
        # (n-1)u/(1-(n-1)u) < n 2^-53 bounds the rounding of S_n's running sum
        floor = 4.5e-16 * size + 2.0**-53 * ns * head_size
        bounds = np.abs(values - partial) + 2.0 * a0 / rates[ns] + floor
        return SummationRows(values, bounds, used,
                             bounds <= tol.abs_tol + tol.rel_tol * np.abs(values))


def sum_alternating_accelerated(g: TermGenerator | Rows,
                                tol: Tolerance = DEFAULT_TOL) -> SummationResult | SummationRows:
    """Cohen-Rodriguez Villegas-Zagier sum of an alternating series (Exp.
    Math. 9, 2000, Algorithm 1): a :class:`SummationResult`, or a
    :class:`SummationRows` for :class:`~quadident.numerics.Rows`.

    The value is the fixed weighted sum S_{n+4} of the first n + 4 terms,
    with n >= 1 chosen from the first term (see :func:`_accelerated`), so a
    ``max_work`` below 5 still reads 5 terms. The ``remainder_bound`` is
    |S_{n+4} - S_n| + 2|t_0|/(3+sqrt 8)^n plus a rounding floor. When the
    term magnitudes are a Hausdorff moment sequence
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


def odd_harmonic_leibniz() -> TermGenerator:
    """The terms (h_n / n) (L_n - pi/4), n >= 1, of the pi^3/192 series, where
    h_n is the odd harmonic number and L_n the n-th Leibniz partial sum, one
    prefix read of each per ``terms`` call; E7 weighs them by alpha^(2n)."""
    quarter_pi = CONSTANTS.pi / 4.0

    def terms(n0: int, n1: int) -> np.ndarray:
        n = np.arange(n0, n1)
        return odd_harmonic_float(n) / n * (leibniz_partial_float(n) - quarter_pi)

    return TermGenerator(terms, 1, name="odd-harmonic Leibniz series")


def sum_eq8(tol: Tolerance = DEFAULT_TOL) -> SummationResult:
    """Accelerated value of sum_{n>=1} (h_n / n) (L_n - pi/4), where L_n is
    the n-th Leibniz partial sum; 192 times this value targets pi^3."""
    return sum_alternating_accelerated(odd_harmonic_leibniz(), tol)

"""Exact integer and rational combinatorics.

Harmonic-type prefix sums, signed Stirling numbers of the first kind, Lah
numbers, the coefficients A(n, p) of integer powers of the arctangent series,
and a truncated rational power series type that serves as an independent
brute-force oracle for those coefficients. The Stirling numbers and the
arctan-power coefficients are both triangular tables, grown one column per p
from the column below by a recurrence, one exact step per entry, through one
shared column grower.

Exact values use :class:`fractions.Fraction`. The skew and odd harmonic sums
are exact, with float mirrors; the Leibniz partial sums, which only the
series sides read, are floats alone. Caches grow on demand under one lock and only ever append, so
sharing across threads is safe.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .numerics import neumaier_prefix

# All caches below grow under this lock and are only read once published.
_CACHE_LOCK = threading.Lock()

# ---------------------------------------------------------------------------
# Harmonic-type prefix sums
# ---------------------------------------------------------------------------

_SKEW: list[Fraction] = [Fraction(0)]   # 1 - 1/2 + 1/3 - ...
_ODD: list[Fraction] = [Fraction(0)]    # 1 + 1/3 + 1/5 + ...


def _grow(cache: list[Fraction], n: int, step) -> Fraction:
    if n < 0:
        raise ValueError("index must be nonnegative")
    if len(cache) <= n:
        with _CACHE_LOCK:
            while len(cache) <= n:
                k = len(cache)
                cache.append(cache[-1] + step(k))
    return cache[n]


def skew_harmonic(n: int) -> Fraction:
    """Alternating harmonic prefix sum 1 - 1/2 + ... + (-1)^(n-1)/n; 0 for n = 0."""
    return _grow(_SKEW, n, lambda k: Fraction(1 if k % 2 else -1, k))


def odd_harmonic(n: int) -> Fraction:
    """Sum of reciprocals of the first n odd numbers; 0 for n = 0."""
    return _grow(_ODD, n, lambda k: Fraction(1, 2 * k - 1))


class _FloatPrefix:
    """Float mirror of a prefix-sum sequence, accumulated with compensation.

    Registered cases read at most index 4095 (E18 takes h_m from its
    expansion above); only the public direct sum of a slowly decaying series
    reads further, where exact rationals are intractable. ``step`` maps
    indices to terms; the values are ``sums + comps`` of ``neumaier_prefix``,
    within an ulp or two of the rounded exact values.

    The values are one stored array. A read past its end takes the lock and
    replaces it by one of at least ``max(high + 1, 2 len - 1, len + _BLOCK)``
    values, grown in one ``neumaier_prefix`` call seeded with the last sum
    and compensation; ``np.cumsum`` adds left to right, so the bits do not
    depend on how the array grew. A read takes one index, giving a float, or
    an integer array of indices, giving an array of the same doubles; a
    negative index raises ``ValueError`` in either form (numpy would wrap it).
    """

    __slots__ = ("_vals", "_s", "_c", "_step")

    def __init__(self, step):
        self._vals = np.zeros(1)
        self._s = self._c = np.zeros(1)
        self._step = step

    def value(self, n):
        scalar = isinstance(n, int)
        low, high = (n, n) if scalar else (n.min(initial=0), n.max(initial=0))
        if low < 0:
            raise ValueError("index must be nonnegative")
        if len(self._vals) <= high:
            with _CACHE_LOCK:
                size = len(self._vals)
                if size <= high:
                    k = np.arange(size, max(high + 1, 2 * size - 1, size + _BLOCK))
                    sums, comps = neumaier_prefix(self._s, self._c, self._step(k)[None])
                    self._s, self._c = sums[:, -1], comps[:, -1]
                    self._vals = np.concatenate([self._vals, (sums + comps)[0]])
        return self._vals[n].item() if scalar else self._vals[n]


_BLOCK = 1024  # the least growth of a float prefix
_SKEW_F = _FloatPrefix(lambda k: np.where(k % 2 == 1, 1.0, -1.0) / k)
_ODD_F = _FloatPrefix(lambda k: 1.0 / (2 * k - 1))
_LEIBNIZ_F = _FloatPrefix(lambda k: np.where(k % 2 == 1, 1.0, -1.0) / (2 * k - 1))


def skew_harmonic_float(n):
    """``skew_harmonic(n)`` as a float, or at each index of an integer array."""
    return _SKEW_F.value(n)


def odd_harmonic_float(n):
    """``odd_harmonic(n)`` as a float, or at each index of an integer array."""
    return _ODD_F.value(n)


def leibniz_partial_float(n):
    """The partial sum 1 - 1/3 + ... + (-1)^(n-1)/(2n-1) of the Leibniz series
    (0 for n = 0) as a float, or at each index of an integer array."""
    return _LEIBNIZ_F.value(n)


# ---------------------------------------------------------------------------
# Triangular tables grown column by column: Stirling numbers of the first
# kind and the coefficients of (arctan x)^p
# ---------------------------------------------------------------------------


def _grow_column(columns: dict, p: int, n: int, one, step) -> list:
    """Column p >= 1 of a triangular table T(m, p), grown to hold index n >= p.

    T(m, p) = 0 for m < p and T(p, p) = one; each later entry is
    step(p, m, column, T(m-1, p-1)), with T(m-1, 0) = 0 feeding column 1.
    """
    col = columns.get(p)
    if col is not None and len(col) > n:
        return col
    # grow column p - 1 first: _CACHE_LOCK is not reentrant
    below = _grow_column(columns, p - 1, n - 1, one, step) if p > 1 else None
    with _CACHE_LOCK:
        col = columns.setdefault(p, [0 * one] * p + [one])
        while len(col) <= n:
            m = len(col)
            col.append(step(p, m, col, below[m - 1] if below else 0))
    return col


# _STIRLING_COLUMNS[p][k] = s(k, p) for k = 0, 1, ..., grown on demand
_STIRLING_COLUMNS: dict[int, list[int]] = {}


def _stirling_step(p: int, k: int, col: list[int], below: int) -> int:
    return below - (k - 1) * col[k - 1]


def stirling_first(k: int, p: int) -> int:
    """Signed Stirling number of the first kind.

    Convention fixed by the recurrence s(k+1, p) = s(k, p-1) - k s(k, p) with
    s(0, 0) = 1; zero outside 0 <= p <= k. Column p is grown from column
    p - 1 by that recurrence, once, and cached.
    """
    if k < 0 or p < 0:
        raise ValueError("arguments must be nonnegative")
    if p > k:
        return 0
    if p == 0:
        return int(k == 0)
    return _grow_column(_STIRLING_COLUMNS, p, k, 1, _stirling_step)[k]


def lah(n: int, k: int) -> int:
    """Lah number C(n-1, k-1) * n! / k! for 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError("lah requires 1 <= k <= n")
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


# _ATAN_COLUMNS[p][n] = A(n, p) for n = 0, 1, ..., grown on demand
_ATAN_COLUMNS: dict[int, list[Fraction]] = {}
_ONE = Fraction(1)


def _atan_step(p: int, n: int, col: list[Fraction], below: Fraction) -> Fraction:
    # entries of parity other than p's come out zero
    return (p * below - (n - 2) * col[n - 2]) / n


def arctan_power_coeff(n: int, p: int) -> Fraction:
    """Coefficient A(n, p) of x^n in (arctan x)^p, exactly.

    Zero for n < p and for n - p odd. The others follow term by term from
    (1 + x^2) d/dx arctan^p = p arctan^(p-1):

        A(n, p) = (p A(n-1, p-1) - (n-2) A(n-2, p)) / n,

    from A(p, p) = 1 and A(n, 0) = 0 for n >= 1, so A(n, 1) = (-1)^((n-1)/2)/n
    for odd n. Each column p is grown once and cached: a new coefficient costs
    one rational step, not a sum over n terms.
    """
    if n < 1 or p < 1:
        raise ValueError("arctan_power_coeff requires n >= 1 and p >= 1")
    if n < p or (n - p) % 2:
        return Fraction(0)
    return _grow_column(_ATAN_COLUMNS, p, n, _ONE, _atan_step)[n]


# ---------------------------------------------------------------------------
# Truncated power series with exact rational coefficients
# ---------------------------------------------------------------------------


class _RationalPowerSeriesFields(NamedTuple):
    coefficients: tuple[Fraction, ...]


class RationalPowerSeries(_RationalPowerSeriesFields):
    """Formal power series truncated at a degree, with Fraction coefficients.

    Coefficients beyond ``order`` are unknown, not zero; a product therefore
    truncates to the smaller order of its factors.
    """

    __slots__ = ()

    def __new__(cls, coefficients):
        if not coefficients:
            raise ValueError("a series needs at least the constant coefficient")
        return super().__new__(cls, tuple(Fraction(c) for c in coefficients))

    @classmethod
    def _make(cls, iterable):  # and so _replace: through the checks of __new__
        return cls(*iterable)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coefficients[k]

    def __mul__(self, other: "RationalPowerSeries") -> "RationalPowerSeries":
        if not isinstance(other, RationalPowerSeries):
            return NotImplemented
        order = min(self.order, other.order)
        a, b = self.coefficients, other.coefficients
        coeffs = [
            sum((a[i] * b[k - i] for i in range(max(0, k - other.order), min(k, self.order) + 1)),
                Fraction(0))
            for k in range(order + 1)
        ]
        return RationalPowerSeries(tuple(coeffs))

    def __rmul__(self, other):  # no tuple repetition or concatenation
        return NotImplemented

    __add__ = __radd__ = __rmul__


def series_pow(base: RationalPowerSeries, p: int) -> RationalPowerSeries:
    """Exact truncated p-th power by repeated Cauchy products."""
    if p < 1:
        raise ValueError("series_pow requires p >= 1")
    out = base
    for _ in range(p - 1):
        out = out * base
    return out


def arctan_series(order: int) -> RationalPowerSeries:
    """Maclaurin series of arctan x truncated at the given order."""
    if order < 1:
        raise ValueError("arctan_series requires order >= 1")
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1, 2):
        coeffs[k] = Fraction((-1) ** (k // 2), k)
    return RationalPowerSeries(tuple(coeffs))

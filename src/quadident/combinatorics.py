"""Exact integer and rational combinatorics.

Harmonic-type prefix sums, signed Stirling numbers of the first kind, Lah
numbers, the coefficients A(n, p) of integer powers of the arctangent series
(grown from A(p, p) = 1 by a three-term recurrence, one rational step each),
and a truncated rational power series type that serves as an independent
brute-force oracle for those coefficients.

Exact values use :class:`fractions.Fraction`. Caches grow on demand and are
read-only once a row is published, so sharing across threads is safe.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .numerics import NeumaierSum

# All caches below grow under this lock and are only read once published.
_CACHE_LOCK = threading.Lock()

# ---------------------------------------------------------------------------
# Harmonic-type prefix sums
# ---------------------------------------------------------------------------

_SKEW: list[Fraction] = [Fraction(0)]   # 1 - 1/2 + 1/3 - ...
_ODD: list[Fraction] = [Fraction(0)]    # 1 + 1/3 + 1/5 + ...
_LEIBNIZ: list[Fraction] = [Fraction(0)]  # 1 - 1/3 + 1/5 - ...


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


def leibniz_partial(n: int) -> Fraction:
    """Partial sum 1 - 1/3 + ... + (-1)^(n-1)/(2n-1) of the Leibniz series; 0 for n = 0."""
    return _grow(_LEIBNIZ, n, lambda k: Fraction(1 if k % 2 else -1, 2 * k - 1))


class _FloatPrefix:
    """Float mirror of a prefix-sum sequence, accumulated with compensation.

    Large-index series terms need these values for n up to ~1e5, where exact
    rationals are intractable (their bit size grows linearly with n). The
    compensated stream stays within an ulp or two of the rounded exact value.
    """

    __slots__ = ("_vals", "_acc", "_step")

    def __init__(self, step):
        self._vals = [0.0]
        self._acc = NeumaierSum()
        self._step = step

    def value(self, n: int) -> float:
        if n < 0:
            raise ValueError("index must be nonnegative")
        if len(self._vals) <= n:
            with _CACHE_LOCK:
                while len(self._vals) <= n:
                    self._acc.add(self._step(len(self._vals)))
                    self._vals.append(self._acc.value)
        return self._vals[n]


_SKEW_F = _FloatPrefix(lambda k: (1.0 if k % 2 else -1.0) / k)
_ODD_F = _FloatPrefix(lambda k: 1.0 / (2 * k - 1))
_LEIBNIZ_F = _FloatPrefix(lambda k: (1.0 if k % 2 else -1.0) / (2 * k - 1))


def skew_harmonic_float(n: int) -> float:
    return _SKEW_F.value(n)


def odd_harmonic_float(n: int) -> float:
    return _ODD_F.value(n)


def leibniz_partial_float(n: int) -> float:
    return _LEIBNIZ_F.value(n)


# ---------------------------------------------------------------------------
# Stirling numbers of the first kind (signed) and Lah numbers
# ---------------------------------------------------------------------------

_STIRLING_ROWS: list[list[int]] = [[1]]  # full triangular rows, small k


def _stirling_row(k: int) -> list[int]:
    if len(_STIRLING_ROWS) <= k:
        with _CACHE_LOCK:
            while len(_STIRLING_ROWS) <= k:
                m = len(_STIRLING_ROWS) - 1  # have rows 0..m, build row m+1
                prev = _STIRLING_ROWS[m]
                row = [0] * (m + 2)
                for p in range(1, m + 2):
                    above = prev[p] if p <= m else 0
                    row[p] = prev[p - 1] - m * above
                _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[k]


# Column-truncated table for large k: row k holds s(k, p) for p <= _P_TRUNC.
# The recurrence s(k+1, p) = s(k, p-1) - k s(k, p) never needs columns above p,
# so truncation is exact. Full rows at k ~ 10^3 would cost gigabytes.
_P_TRUNC = 8
_STIRLING_TRUNC: list[list[int]] = [[1] + [0] * _P_TRUNC]


def _stirling_trunc(k: int, p: int) -> int:
    if len(_STIRLING_TRUNC) <= k:
        with _CACHE_LOCK:
            while len(_STIRLING_TRUNC) <= k:
                m = len(_STIRLING_TRUNC) - 1
                prev = _STIRLING_TRUNC[m]
                row = [0] * (_P_TRUNC + 1)
                for q in range(1, _P_TRUNC + 1):
                    row[q] = prev[q - 1] - m * prev[q]
                _STIRLING_TRUNC.append(row)
    return _STIRLING_TRUNC[k][p]


def stirling_first(k: int, p: int) -> int:
    """Signed Stirling number of the first kind.

    Convention fixed by the recurrence s(k+1, p) = s(k, p-1) - k s(k, p) with
    s(0, 0) = 1; zero outside 0 <= p <= k.
    """
    if k < 0 or p < 0:
        raise ValueError("arguments must be nonnegative")
    if p > k:
        return 0
    if p <= _P_TRUNC:
        return _stirling_trunc(k, p)
    return _stirling_row(k)[p]


def lah(n: int, k: int) -> int:
    """Lah number C(n-1, k-1) * n! / k! for 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError("lah requires 1 <= k <= n")
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


# ---------------------------------------------------------------------------
# Coefficients of (arctan x)^p
# ---------------------------------------------------------------------------

# _ATAN_COLUMNS[p][n] = A(n, p) for n = 0, 1, ..., grown on demand
_ATAN_COLUMNS: dict[int, list[Fraction]] = {}


def _atan_column(p: int, n: int) -> list[Fraction]:
    """Column p of the arctan-power coefficients, grown to hold index n >= p."""
    col = _ATAN_COLUMNS.get(p)
    if col is not None and len(col) > n:
        return col
    # grow column p - 1 first: _CACHE_LOCK is not reentrant
    below = _atan_column(p - 1, n - 1) if p > 1 else None
    with _CACHE_LOCK:
        col = _ATAN_COLUMNS.setdefault(p, [Fraction(0)] * p + [Fraction(1)])
        while len(col) <= n:
            m = len(col)  # entries of parity other than p's come out zero
            feed = p * below[m - 1] if below else 0  # A(m-1, 0) = 0 for m > 1
            col.append((feed - (m - 2) * col[m - 2]) / m)
    return col


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
    return _atan_column(p, n)[n]


# ---------------------------------------------------------------------------
# Truncated power series with exact rational coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPowerSeries:
    """Formal power series truncated at a degree, with Fraction coefficients.

    Coefficients beyond ``order`` are unknown, not zero; a product therefore
    truncates to the smaller order of its factors.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coefficients[k]

    def __mul__(self, other: "RationalPowerSeries") -> "RationalPowerSeries":
        order = min(self.order, other.order)
        a, b = self.coefficients, other.coefficients
        coeffs = [
            sum((a[i] * b[k - i] for i in range(max(0, k - other.order), min(k, self.order) + 1)),
                Fraction(0))
            for k in range(order + 1)
        ]
        return RationalPowerSeries(tuple(coeffs))


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
    for m in range(1, order // 2 + 2):
        k = 2 * m - 1
        if k > order:
            break
        coeffs[k] = Fraction((-1) ** (m - 1), k)
    return RationalPowerSeries(tuple(coeffs))

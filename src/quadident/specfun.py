"""Polylogarithms on the closed unit disc, the alternating incomplete beta
series, and the closed-form sides of the odd-harmonic power-series identities.

For orders p >= 2, Li_p(z) takes one of two paths, chosen by |z|:

* |z| <= 0.85: the defining series sum z^n / n^p, summed until its geometric
  tail bound is below 2^-54 |z| (at most 242 terms);
* |z| > 0.85: the log-series in mu = log z (Crandall 2006; Wood 1992)

      Li_p(e^mu) = sum_{k != p-1} zeta(p-k) mu^k / k!
                   + mu^(p-1) / (p-1)! (H_{p-1} - log(-mu)),

  which converges for |mu| < 2 pi. There |mu| <= 3.15; each order's
  coefficients are built once, on first use, to a term count that keeps the
  tail below 2^-60 for |mu| <= 1.03 pi.

Near z = -1, |mu| is close to pi and the log-series terms, up to about 10,
cancel to a value near 1. Real arguments below -0.85 therefore go through the
duplication formula Li_p(x) = 2^(1-p) Li_p(x^2) - Li_p(-x), whose two
evaluations lie on the positive axis. Li_1 is the logarithm.

Measured against mpmath for Li_2 .. Li_5: real arguments are within 3 ulp;
complex ones within 3.8e-15 absolute in each component, the largest errors
lying on the circle near -1. Conjugation symmetry Li_p(conj z) = conj Li_p(z)
holds exactly: arguments in the lower half plane are routed through their
conjugates.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .numerics import CONSTANTS, catalan_reference, zeta3_reference

__all__ = [
    "catalan_reference",
    "dilog_identity_rhs",
    "eq19_rhs",
    "eta",
    "incomplete_beta",
    "polylog_complex",
    "polylog_real",
    "ramanujan_rhs",
    "zeta",
    "zeta3_reference",
]

_CIRCLE_EPS = 1e-12         # |z| may exceed 1 by at most this much
# defining series up to here, log-series beyond: the series is the more
# accurate of the two, and up to here no slower per real argument
_SERIES_RADIUS = 0.85
_LOG_SERIES_TERMS = 56      # tail < 2^-60 for |mu| <= 1.03 pi and every p >= 2


def zeta(p: int) -> float:
    """Riemann zeta at an integer argument p >= 2.

    Table values for p = 2, 3; otherwise a short direct sum with an
    Euler-Maclaurin tail (error far below double rounding for p >= 4).
    """
    if p < 2:
        raise ValueError("zeta requires p >= 2")
    if p == 2:
        return CONSTANTS.zeta2
    if p == 3:
        return CONSTANTS.zeta3
    n_cut = 64
    head = math.fsum((1.0 / n**p for n in range(1, n_cut + 1)))
    a = float(n_cut + 1)
    tail = (
        a ** (1 - p) / (p - 1)
        + a**-p / 2.0
        + p * a ** (-p - 1) / 12.0
        - p * (p + 1) * (p + 2) * a ** (-p - 3) / 720.0
    )
    return head + tail


def eta(p: int) -> float:
    """Dirichlet eta (alternating zeta) at an integer argument p >= 2."""
    return (1.0 - 2.0 ** (1 - p)) * zeta(p)


def _check_order(p) -> int:
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ValueError("polylog order must be an integer")
    if p < 1:
        raise ValueError("polylog order must be >= 1")
    return int(p)


def polylog_real(p: int, x: float) -> float:
    """Li_p(x) for real -1 <= x <= 1 (x != 1 when p = 1)."""
    p = _check_order(p)
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"polylog_real requires -1 <= x <= 1, got {x}")
    if p == 1:
        if x == 1.0:
            raise ValueError("Li_1 has a pole at x = 1")
        return -math.log1p(-x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return zeta(p)
    if x == -1.0:
        return -eta(p)
    if x < -_SERIES_RADIUS:
        # duplication formula: the log-series at x itself loses up to ~40 ulp
        doubled = 2.0 ** (1 - p) * _polylog(p, complex(x * x))
        return (doubled - _polylog(p, complex(-x))).real
    return _polylog(p, complex(x)).real


def polylog_complex(p: int, z: complex) -> complex:
    """Li_p(z) on the closed unit disc, principal branch, complex-valued.

    Accurate to about 4e-15 absolute in each component for p = 2 .. 5; the
    module docstring gives the two evaluation paths. Arguments with negative
    imaginary part evaluate as the conjugate of the mirrored argument, so
    conjugation symmetry is exact by construction.
    """
    p = _check_order(p)
    z = complex(z)
    a = abs(z)
    if a > 1.0 + _CIRCLE_EPS:
        raise ValueError(f"polylog_complex requires |z| <= 1, got |z| = {a}")
    if z.imag == 0.0:
        x = min(1.0, max(-1.0, z.real))
        return complex(polylog_real(p, x))
    if z.imag < 0.0:
        return polylog_complex(p, z.conjugate()).conjugate()
    if p == 1:
        return -cmath.log(1.0 - z)
    return _polylog(p, z)


def _series_length(a: float) -> int:
    """Terms of the defining series at 0 < |z| = a < 1 that bring its tail,
    at most a^(N+1) / (1 - a), below 2^-54 a."""
    return max(1, math.ceil(math.log(2.0**-54 * (1.0 - a)) / math.log(a)))


def _polylog(p: int, z: complex) -> complex:
    """Li_p(z) for p >= 2 and 0 < |z| <= 1 + _CIRCLE_EPS, z != 1."""
    a = abs(z)
    if a <= _SERIES_RADIUS:
        n = np.arange(1.0, _series_length(a) + 1.0)
        terms = np.power(z, n) / np.power(n, p)
        return complex(math.fsum(terms.real), math.fsum(terms.imag))
    coeffs, harmonic = _log_series_coefficients(p)
    mu = cmath.log(z)
    acc = 0j
    for c in coeffs:
        acc = acc * mu + c
    return acc + mu ** (p - 1) / math.factorial(p - 1) * (harmonic - cmath.log(-mu))


@functools.cache
def _log_series_coefficients(p: int) -> tuple[tuple[float, ...], float]:
    """zeta(p - k) / k! for k < _LOG_SERIES_TERMS, highest power first, with
    the k = p - 1 slot zero, and the harmonic number H_{p-1}; built once per
    order."""
    coeffs = []
    for k in range(_LOG_SERIES_TERMS):
        s = p - k
        if s >= 2:
            zeta_s = zeta(s)
        elif s == 0:
            zeta_s = -0.5
        elif s == 1 or s % 2 == 0:
            zeta_s = 0.0  # s = 1 is the log term; s = -2, -4, ... are zeros
        else:
            # functional equation: zeta(1-2j) = (-1)^j 2 (2j-1)! zeta(2j) / (2 pi)^(2j)
            j = (1 - s) // 2
            zeta_s = (-1) ** j * 2.0 * math.factorial(2 * j - 1) * zeta(2 * j)
            zeta_s /= (2.0 * CONSTANTS.pi) ** (2 * j)
        coeffs.append(zeta_s / math.factorial(k))
    return tuple(reversed(coeffs)), math.fsum(1.0 / j for j in range(1, p))


# ---------------------------------------------------------------------------
# Alternating incomplete beta series
# ---------------------------------------------------------------------------

_BETA_A_MIN = 160.0  # pair until z + 2K >= this; Euler-Maclaurin residual < 1e-15


def incomplete_beta(z: float) -> float:
    """The alternating series sum_{k>=0} (-1)^k / (z + k) for z > 0.

    Consecutive terms are paired into the absolutely convergent
    sum_{k>=0} 1/((z+2k)(z+2k+1)); the pairing alone converges like 1/K, so
    the remainder past K pairs is evaluated by an integral comparison
    (Euler-Maclaurin through the third-derivative term), leaving a residual
    below 1e-15. Absolute accuracy is ~1e-14.
    """
    z = float(z)
    if not z > 0.0:
        raise ValueError(f"incomplete_beta requires z > 0, got {z}")
    n_pairs = max(1, int(math.ceil((_BETA_A_MIN - z) / 2.0)))
    head = math.fsum(
        1.0 / ((z + 2 * k) * (z + 2 * k + 1)) for k in range(n_pairs)
    )
    a = z + 2.0 * n_pairs
    b = a + 1.0
    tail = (
        0.5 * math.log1p(1.0 / a)
        + 0.5 / (a * b)
        + (a**-2 - b**-2) / 6.0
        - (a**-4 - b**-4) / 15.0
    )
    return head + tail


# ---------------------------------------------------------------------------
# Closed forms for the odd-harmonic power series
# ---------------------------------------------------------------------------


def ramanujan_rhs(alpha: float) -> float:
    """Closed form of sum_{n>=1} h_n alpha^(2n) / n^2 for 0 < alpha < 1.

    h_n is the odd harmonic number. Individual terms blow up logarithmically
    as alpha approaches 0 or 1, so the endpoints are excluded.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"ramanujan_rhs requires 0 < alpha < 1, got {alpha}")
    w = (1.0 - alpha) / (1.0 + alpha)
    lw = math.log(w)
    terms = (
        0.5 * math.log(alpha) * lw * lw,
        (polylog_real(2, w) - polylog_real(2, -w)) * lw,
        -polylog_real(3, w),
        polylog_real(3, -w),
        1.75 * CONSTANTS.zeta3,
    )
    return math.fsum(terms)


def dilog_identity_rhs(alpha: float) -> float:
    """Right side of the dilogarithm reflection used to simplify the closed form:

        Li_2((1-a)/(1+a)) - Li_2((a-1)/(1+a))
            = -log a log((1-a)/(1+a)) - Li_2(a) + Li_2(-a) + pi^2/4
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"dilog_identity_rhs requires 0 < alpha < 1, got {alpha}")
    w = (1.0 - alpha) / (1.0 + alpha)
    terms = (
        -math.log(alpha) * math.log(w),
        -polylog_real(2, alpha),
        polylog_real(2, -alpha),
        CONSTANTS.pi**2 / 4.0,
    )
    return math.fsum(terms)


def eq19_rhs(alpha: float) -> complex:
    """Closed form of sum_{n>=1} (-1)^(n-1) h_n alpha^(2n) / n^2, 0 < alpha <= 1.

    Built from trilogarithms at (1 - i alpha)/(1 + i alpha), a point of the
    unit circle with nonnegative real part for alpha <= 1, so the principal
    branch is never crossed (asserted at runtime). The imaginary part of the
    result cancels analytically; callers should check it stays near zero.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"eq19_rhs requires 0 < alpha <= 1, got {alpha}")
    ia = 1j * alpha
    w = (1.0 - ia) / (1.0 + ia)
    if w.real < -1e-12:
        raise AssertionError("branch safety violated: Re((1-ia)/(1+ia)) < 0")
    at = math.atan(alpha)
    li3_w = polylog_complex(3, w)
    li3_mw = polylog_complex(3, -w)
    li2_ia = polylog_complex(2, ia)
    li2_mia = polylog_complex(2, -ia)
    pieces = (
        li3_w,
        -li3_mw,
        -2j * at * (li2_ia - li2_mia - CONSTANTS.pi**2 / 4.0),
        -2.0 * (0.5j * CONSTANTS.pi + math.log(alpha)) * at * at,
        complex(-1.75 * CONSTANTS.zeta3),
    )
    return complex(
        math.fsum(c.real for c in pieces), math.fsum(c.imag for c in pieces)
    )

"""Polylogarithms on the closed unit disc, the alternating incomplete beta
series, and the closed-form sides of the odd-harmonic power-series identities.

For orders p >= 2, Li_p runs over an array of arguments, and over several
orders, in one pass (a scalar is a one-element array), each argument taking
one of three paths:

* |z| <= 0.85: the defining series sum z^n / n^p, over a fixed number of terms
  per order whose tail at |z| = 0.85 is below 2^-54 |z| (179 for p = 2);
* |z| > 0.85: the log-series in mu = log z (Crandall 2006; Wood 1992)

      Li_p(e^mu) = sum_{k != p-1} zeta(p-k) mu^k / k!
                   + mu^(p-1) / (p-1)! (H_{p-1} - log(-mu)),

  which converges for |mu| < 2 pi; 56 terms keep its tail below 2^-60 for
  |mu| <= 1.03 pi, and from p = 57 on the log term is part of that tail;
* Re z < 0 and |z| > 0.85: near z = -1 the log-series terms, up to about 10,
  cancel to a value near 1, so these arguments take the duplication formula
  Li_p(z) = 2^(1-p) Li_p(z^2) - Li_p(-z), with z^2 and -z in the same pass.

Powers are running products along a row, and each row is summed over its
fixed length by numpy's pairwise sum, so a value does not depend on the other
arguments of its array. The orders of a pass share the duplication split, one
table of z^n as wide as the longest defining series, which each order reads
up to its own length, and one table of mu^k, so a value does not depend on
the other orders either. Li_1 is the logarithm.

Measured against mpmath for Li_2 .. Li_5: real arguments are within 4 ulp
(4.4e-16 absolute); complex ones within 7.2e-16 absolute in each component on
and near the circle; the tests hold orders up to 5000 to the same bounds.
Conjugation symmetry Li_p(conj z) = conj Li_p(z) holds exactly: arguments in
the lower half plane are routed through their conjugates.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from .numerics import CONSTANTS, fsum_rows

_CIRCLE_EPS = 1e-12         # |z| may exceed 1 by at most this much
_SERIES_RADIUS = 0.85       # defining series up to here: the more accurate path
_LOG_SERIES_TERMS = 56      # tail < 2^-60 for |mu| <= 1.03 pi and every p >= 2


@functools.lru_cache(maxsize=None, typed=True)
def zeta(p: int) -> float:
    """Riemann zeta at an integer argument p >= 2.

    Table values for p = 2, 3; otherwise a short direct sum with an
    Euler-Maclaurin tail (error far below double rounding for p >= 4), and
    1.0 above p = 60, the correctly rounded value from p = 54 on. Each value
    is computed once per process and argument type.
    """
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ValueError(f"zeta requires an integer p, got {p!r}")
    p = int(p)  # a numpy integer's n**p would wrap
    if p < 2:
        raise ValueError("zeta requires p >= 2")
    if p == 2:
        return CONSTANTS.zeta2
    if p == 3:
        return CONSTANTS.zeta3
    if p > 60:
        return 1.0
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


def _check_order(p) -> int:
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ValueError("polylog order must be an integer")
    if p < 1:
        raise ValueError("polylog order must be >= 1")
    return int(p)


def _check_orders(p) -> np.ndarray:
    """The orders of a scalar or array p as an integer array, each element
    checked as ``_check_order`` checks one, in order."""
    if isinstance(p, np.ndarray) and p.dtype.kind in "iu":
        if np.count_nonzero(p < 1):
            raise ValueError("polylog order must be >= 1")
        return p
    if isinstance(p, (int, np.integer)):
        return np.asarray(_check_order(p))
    orders = np.array(p, dtype=object)
    return np.reshape([_check_order(q) for q in orders.flat], orders.shape)


def polylog_real(p, x):
    """Li_p(x) for integer orders p >= 1 and real -1 <= x <= 1 (x != 1 where
    p = 1), elementwise over p and x broadcast together: scalars give a float,
    anything else an array of the broadcast shape. One pass serves every
    element, and each keeps the bits of its own scalar call: a scalar p is
    evaluated at every element of x, and an array of orders at each distinct
    argument (by its bits, so 0.0 and -0.0 stay apart) once per distinct
    order."""
    orders = _check_orders(p)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    inside = np.abs(flat) <= 1.0
    if np.count_nonzero(inside) < flat.size:
        raise ValueError(f"polylog_real requires -1 <= x <= 1, got {flat[~inside][0]}")
    if not (orders.size and flat.size):
        return np.empty(np.broadcast_shapes(orders.shape, xs.shape))
    if orders.ndim:  # the distinct orders, and the distinct arguments by their bits
        qs = sorted(set(orders.ravel().tolist()))
        first: dict = {}
        col = np.array([first.setdefault(k, len(first)) for k in flat.view(np.int64).tolist()])
        args = np.array(list(first), dtype=np.int64).view(float)
    else:
        qs, args = [int(orders)], flat
    rows = []
    if qs[0] == 1:  # Li_1 is the logarithm
        if np.count_nonzero((orders == 1) & (xs == 1.0)):
            raise ValueError("Li_1 has a pole at x = 1")
        with np.errstate(divide="ignore"):  # at an x = 1 of another order
            rows.append(-np.log1p(-args)[None])
    if qs[-1] >= 2:
        rows.append(_polylog(tuple(q for q in qs if q >= 2), args))
    table = np.concatenate(rows) if len(rows) > 1 else rows[0]
    if orders.ndim:
        return table[np.searchsorted(qs, orders), col.reshape(xs.shape)]
    return float(table[0, 0]) if not xs.ndim else table[0].reshape(xs.shape)


def polylog_complex(p: int, z: complex) -> complex:
    """Li_p(z) on the closed unit disc, principal branch: a one-element array
    pass. Arguments with negative imaginary part evaluate as the conjugate of
    the mirrored argument, so conjugation symmetry is exact by construction.
    """
    p = _check_order(p)
    z = complex(z)
    a = abs(z)
    if not a <= 1.0 + _CIRCLE_EPS:  # NaN too
        raise ValueError(f"polylog_complex requires |z| <= 1, got |z| = {a}")
    if z.imag == 0.0:
        x = min(1.0, max(-1.0, z.real))
        return complex(polylog_real(p, x))
    if z.imag < 0.0:
        return polylog_complex(p, z.conjugate()).conjugate()
    if p == 1:
        return -cmath.log(1.0 - z)
    return complex(_polylog((p,), np.array([z]))[0, 0])


def _polylog(orders: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    """Li_p at each element of the 1-D float or complex array z, one row per
    order p >= 2 of ``orders``, for |z| <= 1 + _CIRCLE_EPS (z = 0 and z = 1
    included), by the paths of the module docstring: the duplication formula
    first, then by |z|. The orders share the split and the power tables; each
    row has the bits of a one-order call."""
    size, a = len(z), np.abs(z)
    dup = (z.real < 0.0) & (a > _SERIES_RADIUS)
    if np.count_nonzero(dup):
        z = np.concatenate([np.where(dup, z * z, z), -z[dup]])
        a = np.abs(z)
    small = a <= _SERIES_RADIUS
    out = np.empty((len(orders), len(z)), dtype=z.dtype)
    for rows, path in ((small, _defining_series), (~small, _log_series)):
        if np.count_nonzero(rows):
            for row, values in zip(out, path(orders, z[rows])):
                row[rows] = values
    if len(z) > size:
        out, minus = out[:, :size], out[:, size:]
        scale = np.array([2.0 ** (1 - p) for p in orders])[:, None]
        out[:, dup] = scale * out[:, dup] - minus
    return out


def _power_table(base: np.ndarray, count: int) -> np.ndarray:
    """base^1 .. base^count for each element of the 1-D array base, one row
    each, by a running product along the row."""
    table = np.empty((len(base), count), dtype=base.dtype)
    table[:] = base[:, None]
    return np.multiply.accumulate(table, axis=1, out=table)


@functools.cache
def _series_denominators(p: int) -> np.ndarray:
    """n^p for n = 1 .. N, read-only. N is the fewest terms whose tail at
    |z| = _SERIES_RADIUS = a, at most a^(N+1) / ((N+1)^p (1 - a)), is below
    2^-54 a: 179 terms for p = 2, 100 for p = 5, one from p = 57 on. The test
    runs in logarithms, so (N+1)^p never overflows a float."""
    a = _SERIES_RADIUS
    count = next(n for n in itertools.count(1)
                 if n * math.log(a) - p * math.log(n + 1) - math.log(1 - a) <= -54 * math.log(2))
    power = np.arange(1.0, count + 1.0) ** p
    power.setflags(write=False)
    return power


def _defining_series(orders: tuple[int, ...], z: np.ndarray):
    """sum_{n <= N} z^n / n^p for each element, |z| <= _SERIES_RADIUS, one
    row per order: one power table as wide as the longest series, each order
    summing its own first N columns."""
    denominators = [_series_denominators(p) for p in orders]
    powers = _power_table(z, max(map(len, denominators)))
    for d in denominators:
        yield np.add.reduce(powers[:, :len(d)] / d, axis=1)


def _log_series(orders: tuple[int, ...], z: np.ndarray):
    """The log-series in mu = log z for each element, 0 < |z| <= 1 +
    _CIRCLE_EPS, one row per order, over one table of mu^k; at z = 1 (mu = 0)
    its log term vanishes, leaving zeta(p). From p = _LOG_SERIES_TERMS + 1 on,
    the log term, of order p - 1, lies in the truncated tail."""
    mu = np.log(z)
    powers = _power_table(mu, _LOG_SERIES_TERMS - 1)
    if min(orders) <= _LOG_SERIES_TERMS:
        log_term = np.log((mu == 0.0) - mu)  # log(-mu), and 0 where mu = 0
    for p in orders:
        coeffs, harmonic = _log_series_coefficients(p)
        value = coeffs[0] + np.add.reduce(powers * coeffs[1:], axis=1)
        if harmonic is not None:
            value = value + powers[:, p - 2] / math.factorial(p - 1) * (harmonic - log_term)
        yield value


@functools.cache
def _log_series_coefficients(p: int) -> tuple[np.ndarray, float | None]:
    """zeta(p - k) / k! for k < _LOG_SERIES_TERMS, read-only, with the
    k = p - 1 slot zero, and the harmonic number H_{p-1} of the log term, or
    None when that term is past the series; built once per order."""
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
    table = np.array(coeffs)
    table.setflags(write=False)
    return table, (math.fsum(1.0 / j for j in range(1, p)) if p - 1 < _LOG_SERIES_TERMS else None)


# ---------------------------------------------------------------------------
# Alternating incomplete beta series
# ---------------------------------------------------------------------------

_BETA_A_MIN = 160.0  # pair until z + 2K >= this; Euler-Maclaurin residual < 1e-15


def incomplete_beta(z: float) -> float:
    """The alternating series sum_{k>=0} (-1)^k / (z + k) for finite z > 0.

    Consecutive terms are paired into the absolutely convergent
    sum_{k>=0} 1/((z+2k)(z+2k+1)); the pairing alone converges like 1/K, so
    the remainder past K pairs is evaluated by an integral comparison
    (Euler-Maclaurin through the third-derivative term), leaving a residual
    below 1e-15. Absolute accuracy is ~1e-14.
    """
    z = float(z)
    if not 0.0 < z < math.inf:
        raise ValueError(f"incomplete_beta requires a finite z > 0, got {z}")
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


def _open_unit(name: str, alpha):
    """alpha as a float, or as a float array, checked to lie in (0, 1)."""
    a = np.asarray(alpha, dtype=float)
    outside = ~((0.0 < a) & (a < 1.0))
    if outside.any():
        raise ValueError(f"{name} requires 0 < alpha < 1, got {a[outside][0]}")
    return float(a) if a.ndim == 0 else a


def ramanujan_rhs(alpha):
    """Closed form of sum_{n>=1} h_n alpha^(2n) / n^2 for 0 < alpha < 1,
    elementwise over an array alpha (a float gives a float).

    h_n is the odd harmonic number. Individual terms blow up logarithmically
    as alpha approaches 0 or 1, so the endpoints are excluded.
    """
    alpha = _open_unit("ramanujan_rhs", alpha)
    w = (1.0 - alpha) / (1.0 + alpha)
    lw = np.log(w)
    x = np.stack([w, -w])
    (li2_w, li2_mw), (li3_w, li3_mw) = polylog_real(np.reshape([2, 3], (2,) + (1,) * x.ndim), x)
    return fsum_rows(
        0.5 * np.log(alpha) * lw * lw,
        (li2_w - li2_mw) * lw,
        -li3_w,
        li3_mw,
        1.75 * CONSTANTS.zeta3,
    )


def dilog_identity_rhs(alpha):
    """Right side of the dilogarithm reflection used to simplify the closed
    form, elementwise over an array alpha (a float gives a float):

        Li_2((1-a)/(1+a)) - Li_2((a-1)/(1+a))
            = -log a log((1-a)/(1+a)) - Li_2(a) + Li_2(-a) + pi^2/4
    """
    alpha = _open_unit("dilog_identity_rhs", alpha)
    w = (1.0 - alpha) / (1.0 + alpha)
    li2_a, li2_ma = polylog_real(2, np.stack([alpha, -alpha]))
    return fsum_rows(
        -np.log(alpha) * np.log(w),
        -li2_a,
        li2_ma,
        CONSTANTS.pi**2 / 4.0,
    )


def eq19_rhs(alpha):
    """Closed form of sum_{n>=1} (-1)^(n-1) h_n alpha^(2n) / n^2, 0 < alpha <= 1,
    elementwise over an array alpha (a float gives a complex).

    Built from trilogarithms at w = (1 - i alpha)/(1 + i alpha), a point of the
    unit circle with nonnegative real part for alpha <= 1, so the principal
    branch is never crossed (asserted at runtime). The imaginary part of the
    result cancels analytically; callers should check it stays near zero.
    The column makes two polylogarithm passes: Li_3 at conj(w) and -w, whose
    imaginary parts are positive (Li_3(w) is the conjugate of the first, as
    ``polylog_complex`` routes it), and Li_2 at i alpha, with
    Li_2(-i alpha) its conjugate. An element outside the domain, or off the
    branch, raises for the whole column.
    """
    alphas = np.ravel(np.asarray(alpha, dtype=float)).tolist()
    for a in alphas:
        if not 0.0 < a <= 1.0:
            raise ValueError(f"eq19_rhs requires 0 < alpha <= 1, got {a}")
    ia = [1j * a for a in alphas]
    w = [(1.0 - z) / (1.0 + z) for z in ia]
    if any(z.real < -1e-12 for z in w):
        raise AssertionError("branch safety violated: Re((1-ia)/(1+ia)) < 0")
    z3 = np.array([z.conjugate() for z in w] + [-z for z in w], dtype=complex)
    li3 = _polylog((3,), z3)[0].tolist()
    li2 = _polylog((2,), np.array(ia, dtype=complex))[0].tolist()
    values = []
    for a, li3_cw, li3_mw, li2_ia in zip(alphas, li3, li3[len(w):], li2):
        at = math.atan(a)
        pieces = (
            li3_cw.conjugate(),
            -li3_mw,
            -2j * at * (li2_ia - li2_ia.conjugate() - CONSTANTS.pi**2 / 4.0),
            -2.0 * (0.5j * CONSTANTS.pi + math.log(a)) * at * at,
            complex(-1.75 * CONSTANTS.zeta3),
        )
        values.append(complex(
            math.fsum(c.real for c in pieces), math.fsum(c.imag for c in pieces)))
    return values[0] if np.ndim(alpha) == 0 else np.reshape(values, np.shape(alpha))

"""Polylogarithms, the incomplete beta series, and the closed-form evaluators."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadident.combinatorics import odd_harmonic_float, skew_harmonic
from quadident import specfun
from quadident.numerics import CONSTANTS
from quadident.specfun import (
    dilog_identity_rhs,
    eq19_rhs,
    incomplete_beta,
    polylog_complex,
    polylog_real,
    ramanujan_rhs,
    zeta,
)

from _oracles import leibniz_partial

PI = CONSTANTS.pi
G = CONSTANTS.catalan
Z2 = CONSTANTS.zeta2
Z3 = CONSTANTS.zeta3
LOG2 = CONSTANTS.log2


def _euler_sum(terms):
    """Tiny independent Euler transform for oracle sums in this module."""
    s = list(np.cumsum(terms))
    while len(s) >= 2:
        s = [0.5 * (a + b) for a, b in zip(s[:-1], s[1:])]
    return s[0]


# ---------------------------------------------------------------------------
# Real polylogarithm
# ---------------------------------------------------------------------------

def test_polylog_known_real_values():
    assert abs(polylog_real(2, 1.0) - Z2) <= 1e-13
    assert polylog_real(2, 0.0) == 0.0
    # from Li2(1) - Li2(-1) = (3/2) Li2(1): Li2(-1) = -pi^2/12
    assert abs(polylog_real(2, -1.0) + PI**2 / 12.0) <= 1e-13
    assert abs(polylog_real(3, -1.0) + 0.75 * Z3) <= 1e-13
    assert abs(polylog_real(2, 0.5) - (PI**2 / 12.0 - LOG2**2 / 2.0)) <= 1e-13


def test_polylog_li1_is_log():
    for x in (-0.99, -0.5, 0.0, 0.3, 0.999):
        assert abs(polylog_real(1, x) + math.log1p(-x)) <= 1e-15


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("x", [-0.8, -0.5, -0.2, 0.2, 0.5, 0.8])
def test_polylog_derivative_relation(p, x):
    # x d/dx Li_p(x) = Li_{p-1}(x), central differences
    h = 1e-4
    deriv = (polylog_real(p, x + h) - polylog_real(p, x - h)) / (2.0 * h)
    assert abs(x * deriv - polylog_real(p - 1, x)) <= 1e-6


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("x", [-1.0, -0.9, -0.5, -0.2, 0.0, 0.2, 0.5, 0.9, 1.0])
def test_polylog_duplication(p, x):
    lhs = polylog_real(p, x) + polylog_real(p, -x)
    rhs = 2.0 ** (1 - p) * polylog_real(p, x * x)
    assert abs(lhs - rhs) <= 1e-11


def test_polylog_near_one_matches_long_series():
    # the log-series (used for |x| > 0.85) against a long direct sum
    for p in (2, 3):
        x = 0.99999
        n = np.arange(1.0, 4_000_001.0)
        oracle = math.fsum(np.power(x, n) / np.power(n, p))
        assert abs(polylog_real(p, x) - oracle) <= 1e-11


def test_polylog_domain_errors():
    with pytest.raises(ValueError):
        polylog_real(2, 1.2)
    with pytest.raises(ValueError):
        polylog_real(1, 1.0)
    with pytest.raises(ValueError):
        polylog_real(0, 0.5)
    with pytest.raises(ValueError):
        polylog_complex(2, 1.1 + 0.1j)


def test_polylog_complex_rejects_nan():
    # a NaN real part must not be clamped into [-1, 1] (it read as Li2(-1))
    nan = math.nan
    for z in (nan, complex(nan, 0.5), complex(0.5, nan)):
        with pytest.raises(ValueError, match="polylog_complex requires"):
            polylog_complex(2, z)


# arguments from each real path: the defining series (|x| <= 0.85), the
# log-series (x > 0.85), the duplication formula (x < -0.85), and 0 and +-1
_REAL_ARGS = st.one_of(
    st.floats(-0.85, 0.85),
    st.floats(0.85, 1.0),
    st.floats(-1.0, -0.85),
    st.sampled_from([0.0, 1.0, -1.0]),
)


@settings(deadline=None, max_examples=200)
@given(p=st.integers(1, 5), xs=st.lists(_REAL_ARGS, min_size=1, max_size=40))
def test_polylog_real_array_equals_scalar_calls(p, xs):
    # each element of an array call carries the bits of its own scalar call,
    # whatever else the array holds
    if p == 1:
        xs = [x for x in xs if x != 1.0]  # the pole of Li_1
    batch = polylog_real(p, np.array(xs))
    assert [v.hex() for v in batch.tolist()] == [polylog_real(p, x).hex() for x in xs]
    assert polylog_real(p, np.array(xs)[:, None]).shape == (len(xs), 1)


def test_polylog_real_array_domain_errors():
    with pytest.raises(ValueError, match=r"requires -1 <= x <= 1, got 1\.5$"):
        polylog_real(2, np.array([0.5, 1.5, -2.0]))
    with pytest.raises(ValueError, match="pole at x = 1"):
        polylog_real(1, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="polylog order must be an integer"):
        polylog_real(np.array([True, False]), 0.5)
    # Li_1 and x = 1 in one column, never as a pair, is no pole
    li = polylog_real(np.array([1, 2]), np.array([0.5, 1.0]))
    assert li.tolist() == [polylog_real(1, 0.5), polylog_real(2, 1.0)]


# every real path: the defining series, the log-series, the duplication
# formula (-0.86, -0.9), and 0, -0 and +-1
_COLUMN_ORDERS = (1, 2, 3, 5, 57, 60)
_COLUMN_ARGS = (0.0, -0.0, 0.85, -0.85, 0.86, -0.86, -0.9, 1.0, -1.0)


def test_polylog_real_order_column_equals_scalar_calls():
    # a column of orders and arguments, shuffled and with repeats, gives each
    # element the bits of its own scalar call, whatever else the column holds
    pairs = [(p, x) for p in _COLUMN_ORDERS for x in _COLUMN_ARGS if (p, x) != (1, 1.0)]
    pairs = [pairs[i] for i in np.random.default_rng(35).permutation(len(pairs) * 2) % len(pairs)]
    p, x = np.array(pairs, dtype=object).T
    batch = polylog_real(p.astype(int), x.astype(float))
    assert [v.hex() for v in batch.tolist()] == [polylog_real(q, y).hex() for q, y in pairs]
    # an order row against an argument column: the broadcast table
    grid = polylog_real(np.array(_COLUMN_ORDERS[1:])[:, None], np.array(_COLUMN_ARGS))
    assert grid.shape == (5, len(_COLUMN_ARGS))
    assert [[v.hex() for v in row] for row in grid.tolist()] == [
        [polylog_real(q, y).hex() for y in _COLUMN_ARGS] for q in _COLUMN_ORDERS[1:]]


@pytest.mark.parametrize("p, x, text", [
    ([2, 3, 2], [0.5, 1.5, -2.0], r"polylog_real requires -1 <= x <= 1, got 1\.5$"),
    ([2, 1, 3], [1.0, 1.0, 1.0], r"^Li_1 has a pole at x = 1$"),
    ([2, 0, 3], [0.5, 0.5, 0.5], r"^polylog order must be >= 1$"),
    ([2, True, 3], [0.5, 0.5, 0.5], r"^polylog order must be an integer$"),
    ([2, 2.0, 3], [0.5, 0.5, 0.5], r"^polylog order must be an integer$"),
])
def test_polylog_real_order_column_domain_errors(p, x, text):
    # each check of a scalar call holds for every element of a column, with
    # the same text: as a list, and as an array of the list's own dtype
    for orders in (p, np.array(p, dtype=object), np.array(p)):
        if np.asarray(orders).dtype.kind == "i" and text.endswith("integer$"):
            continue  # [2, True, 3] as an int array is the orders 2, 1, 3
        with pytest.raises(ValueError, match=text):
            polylog_real(orders, np.array(x))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_polylog_real_array_against_mpmath(p):
    # 400 seeded points in (-1, 1) and both sides of the |x| = 0.85 switch,
    # in one array call: worst measured 4 ulp and 4.4e-16 absolute (p = 2)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(-1.0, 1.0, 400),
                         [0.85 - 1e-12, 0.85 + 1e-12, -0.85 - 1e-12, -0.85 + 1e-12]])
    values = polylog_real(p, xs)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.polylog(p, mpmath.mpf(x))) for x in xs.tolist()])
    err = np.abs(values - ref)
    assert err.max() <= 4.5e-16
    ulps = err / np.spacing(np.abs(ref))
    assert ulps.max() <= 4.0, xs[np.argmax(ulps)]


# ---------------------------------------------------------------------------
# Complex polylogarithm
# ---------------------------------------------------------------------------

def test_polylog_li2_at_i():
    # split sum i^n/n^2: real part sum (-1)^m/(2m)^2 = -pi^2/48,
    # imaginary part the Catalan series; oracle by Euler transform
    val = polylog_complex(2, 1j)
    re_oracle = _euler_sum([(-1.0) ** m / (2.0 * m) ** 2 for m in range(1, 60)])
    im_oracle = _euler_sum([(-1.0) ** m / (2.0 * m + 1) ** 2 for m in range(60)])
    assert abs(val.real - re_oracle) <= 1e-11
    assert abs(val.imag - im_oracle) <= 1e-11
    assert abs(val.real + PI**2 / 48.0) <= 1e-11
    assert abs(val.imag - G) <= 1e-11


def test_polylog_li3_at_one():
    assert abs(polylog_complex(3, 1.0 + 0.0j).real - Z3) <= 1e-13
    assert polylog_complex(3, 1.0 + 0.0j).imag == 0.0


def test_polylog_conjugation_symmetry_exact():
    for p in (2, 3):
        for z in (0.3 + 0.4j, cmath.exp(-0.7j), -0.2 + 0.9j, 0.99j):
            v = polylog_complex(p, z)
            w = polylog_complex(p, z.conjugate())
            assert w.real == v.real
            assert w.imag == -v.imag


# points of the closed unit disc, by modulus and angle
_DISC = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


@settings(deadline=None, max_examples=300)
@given(p=st.integers(2, 5), z=_DISC)
def test_polylog_complex_duplication(p, z):
    # Li_p(z) + Li_p(-z) = 2^(1-p) Li_p(z^2) on the disc: worst measured
    # 6.0e-16 over 6000 samples weighted to the circle and the real axis
    lhs = polylog_complex(p, z) + polylog_complex(p, -z)
    assert abs(lhs - 2.0 ** (1 - p) * polylog_complex(p, z * z)) <= 1e-14


@settings(deadline=None, max_examples=300)
@given(p=st.integers(2, 5), z=_DISC)
def test_polylog_complex_conjugation(p, z):
    # exact: arguments below the real axis evaluate as the mirrored conjugate
    assert polylog_complex(p, z.conjugate()) == polylog_complex(p, z).conjugate()


@settings(deadline=None, max_examples=300)
@given(x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_polylog_li2_reflection(x):
    # Li_2(x) + Li_2(1-x) = pi^2/6 - log x log(1-x) on (0, 1). x is replaced by
    # 1 - (1 - x), so that x and y = 1 - x are exact complements: a rounded
    # 1 - x would move Li_2(1-x) by up to |log x| ulps
    y = 1.0 - x
    x = 1.0 - y
    if x == 0.0:
        return
    lhs = polylog_real(2, x) + polylog_real(2, y)
    assert abs(lhs - (Z2 - math.log(x) * math.log(y))) <= 2e-15


def test_polylog_complex_matches_real_on_axis():
    for p in (2, 3, 4):
        for x in (-1.0, -0.6, 0.2, 0.8, 1.0):
            if p == 1 and x == 1.0:
                continue
            v = polylog_complex(p, complex(x, 0.0))
            assert abs(v.real - polylog_real(p, x)) <= 1e-12
            assert v.imag == 0.0


def test_polylog_circle_high_order_series():
    # Li_4 on the circle comes from the log-series; cross-check against the
    # defining series, whose tail past 3e5 terms is below 1e-16
    z = cmath.exp(1.1j)
    direct = polylog_complex(4, z)
    n = np.arange(1.0, 300_001.0)
    brute = np.power(z, n) / np.power(n, 4)
    oracle = complex(math.fsum(brute.real), math.fsum(brute.imag))
    assert abs(direct - oracle) <= 1e-11


# complex values, each component: worst measured 3.9e-16 at these points and
# 7.2e-16 over 199 angles in (0, pi) at |z| in {0.86, 0.95, 1} and their
# conjugates, with the duplication formula taking Re z < 0, |z| > 0.85
_COMPLEX_BOUND = 1.5e-15
_CIRCLE_ANGLES = (0.001, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.14)
# 0.85 is where the defining series hands over to the log-series
_RADII = (0.49, 0.5, 0.51, 0.84, 0.85, 0.86, 0.9, 1.0 - 1e-6)
_DISC_ANGLES = (0.3, 1.2, 2.7, -0.3, -1.2, -2.7)
_REAL_POINTS = (
    -1.0, -1.0 + 1e-12, -1.0 + 1e-6, -0.999, -0.99, -0.86, -0.84,
    0.84, 0.86, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-12, 1.0,
)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_polylog_against_mpmath(p):
    mpmath = pytest.importorskip("mpmath")
    points = [cmath.exp(1j * t) for t in _CIRCLE_ANGLES]
    points += [cmath.rect(r, t) for r in _RADII for t in _DISC_ANGLES]
    with mpmath.workdps(30):
        for z in points:
            ref = complex(mpmath.polylog(p, mpmath.mpc(z.real, z.imag)))
            val = polylog_complex(p, z)
            assert abs(val.real - ref.real) <= _COMPLEX_BOUND, z
            assert abs(val.imag - ref.imag) <= _COMPLEX_BOUND, z
        for x in _REAL_POINTS:
            ref = float(mpmath.polylog(p, x))
            assert abs(polylog_real(p, x) - ref) <= 1e-13, x


@pytest.mark.parametrize("p", [6, 56, 57, 171, 1024, 5000])
def test_high_orders_against_mpmath(p):
    # from p = 57 the log term of the log-series lies past its 56 terms, from
    # p = 171 zeta's direct sum and from p = 1024 the count of the defining
    # series would overflow a float; each point keeps to the p <= 5 bounds
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert zeta(p) == float(mpmath.zeta(p))
        for x in (-1.0, -0.95, -0.86, -0.5, 0.5, 0.84, 0.95, 1.0):  # both paths, and -1, 1
            assert abs(polylog_real(p, x) - float(mpmath.polylog(p, x))) <= 1e-15, x
        for z in (0.5j, 0.6 + 0.6j, 0.9j, 0.8 + 0.6j, -0.7 + 0.6j, -0.6 + 0.8j, 0.3 - 0.9j):
            ref = complex(mpmath.polylog(p, mpmath.mpc(z.real, z.imag)))
            val = polylog_complex(p, z)
            assert abs(val.real - ref.real) <= _COMPLEX_BOUND, z
            assert abs(val.imag - ref.imag) <= _COMPLEX_BOUND, z


def test_defining_series_count_is_the_float_tail_test_at_every_order():
    # the count runs in logarithms; up to p = 1023, where (N+1)^p still fits
    # a float, it is the count of the tail test a^N / ((N+1)^p (1 - a)) in floats
    a = specfun._SERIES_RADIUS
    for p in range(2, 1024):
        count = next(n for n in range(1, 1000) if a**n / ((n + 1) ** p * (1 - a)) <= 2.0**-54)
        assert len(specfun._series_denominators(p)) == count, p
    assert len(specfun._series_denominators(5000)) == 1


def test_zeta_known_values():
    assert zeta(2) == Z2
    assert zeta(3) == Z3
    assert abs(zeta(4) - PI**4 / 90.0) <= 1e-15
    with pytest.raises(ValueError):
        zeta(1)


@pytest.mark.parametrize("p", [2.5, 2.0, True, "3"])
def test_zeta_rejects_an_order_that_is_no_integer(p):
    # as polylog orders are checked: a float, even 2.0, or a bool is refused
    with pytest.raises(ValueError, match="zeta requires an integer p"):
        zeta(p)
    # a numpy integer order computes as its Python int (n**p once wrapped in
    # int64: zeta(np.int64(11)) was inf)
    assert [zeta(np.int64(q)) for q in range(2, 62)] == [zeta(q) for q in range(2, 62)]


# ---------------------------------------------------------------------------
# Incomplete beta series
# ---------------------------------------------------------------------------

def test_beta_known_values():
    assert abs(incomplete_beta(1.0) - LOG2) <= 1e-13
    assert abs(incomplete_beta(0.5) - PI / 2.0) <= 1e-13
    assert abs(incomplete_beta(3.0) - (LOG2 - 0.5)) <= 1e-13


def test_beta_recurrence():
    # beta(z) + beta(z+1) = 1/z
    z = 0.5
    while z <= 25.0:
        assert abs(incomplete_beta(z) + incomplete_beta(z + 1.0) - 1.0 / z) <= 1e-13
        z += 0.5


def test_beta_integer_vs_skew_harmonic():
    for n in range(0, 51):
        target = (-1.0) ** n * (LOG2 - float(skew_harmonic(n)))
        assert abs(incomplete_beta(n + 1.0) - target) <= 1e-13


def test_beta_half_integer_vs_leibniz():
    for n in range(0, 51):
        target = (-1.0) ** n * (PI / 4.0 - float(leibniz_partial(n)))
        assert abs(0.5 * incomplete_beta(n + 0.5) - target) <= 1e-13


# every argument (n + 1)/2 the registered grids' arctan-power beta series use
# (n <= 430), plus both sides of the switch to the tail formula at 160
_BETA_POINTS = [k / 2.0 for k in range(1, 520)] + [
    0.001, 0.37, 79.9, 159.9, 160.0, 160.1, 1000.5,
]


def test_beta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for z in _BETA_POINTS:
            ref = (mpmath.digamma((mpmath.mpf(z) + 1) / 2)
                   - mpmath.digamma(mpmath.mpf(z) / 2)) / 2
            err = abs(mpmath.mpf(incomplete_beta(z)) - ref)
            assert err <= 1e-12 * abs(ref), z
            if z >= 0.5:
                assert err <= 1e-15, z


def test_beta_domain():
    with pytest.raises(ValueError):
        incomplete_beta(0.0)
    with pytest.raises(ValueError):
        incomplete_beta(-2.0)
    for z in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="incomplete_beta requires a finite z > 0"):
            incomplete_beta(z)


# ---------------------------------------------------------------------------
# Closed forms of the odd-harmonic power series
# ---------------------------------------------------------------------------

def _odd_harmonic_power_sum(alpha, signed=False, n_terms=200):
    r = alpha * alpha
    total = 0.0
    for n in range(1, n_terms):
        term = odd_harmonic_float(n) / n**2 * r**n
        total += -term if (signed and n % 2 == 0) else term
    return total


def test_ramanujan_rhs_matches_series():
    assert abs(ramanujan_rhs(0.5) - _odd_harmonic_power_sum(0.5)) <= 1e-12
    assert abs(ramanujan_rhs(0.1) - _odd_harmonic_power_sum(0.1)) <= 1e-12
    with pytest.raises(ValueError):
        ramanujan_rhs(0.0)
    with pytest.raises(ValueError):
        ramanujan_rhs(1.0)


def test_eq19_rhs_alpha_one():
    val = eq19_rhs(1.0)
    assert abs(val.real - (PI * G - 1.75 * Z3)) <= 1e-10
    assert abs(val.imag) <= 1e-10


def test_eq19_rhs_matches_series():
    for alpha in (0.2, 0.5, 0.9):
        val = eq19_rhs(alpha)
        oracle = _odd_harmonic_power_sum(alpha, signed=True)
        assert abs(val.real - oracle) <= 1e-11
        assert abs(val.imag) <= 1e-10
    with pytest.raises(ValueError):
        eq19_rhs(0.0)
    with pytest.raises(ValueError):
        eq19_rhs(1.5)


def _eq19_one_value(alpha):
    """E19's right side at one alpha from four scalar polylog_complex calls."""
    ia = 1j * alpha
    w = (1.0 - ia) / (1.0 + ia)
    at = math.atan(alpha)
    pieces = (
        polylog_complex(3, w),
        -polylog_complex(3, -w),
        -2j * at * (polylog_complex(2, ia) - polylog_complex(2, -ia) - PI**2 / 4.0),
        -2.0 * (0.5j * PI + math.log(alpha)) * at * at,
        complex(-1.75 * Z3),
    )
    return complex(math.fsum(c.real for c in pieces), math.fsum(c.imag for c in pieces))


@pytest.mark.parametrize("n", [9, 33])
def test_eq19_rhs_column_equals_its_one_value_calls(n):
    # the column's two passes give every element the bits of its own call,
    # and of the scalar polylog_complex values it replaced, alpha = 1 included
    alphas = [i / (n + 1) for i in range(1, n + 1)] + [1.0]
    column = eq19_rhs(np.array(alphas)[:, None])
    assert column.shape == (n + 1, 1) and column.dtype == complex
    hexes = [(v.real.hex(), v.imag.hex()) for v in column.ravel().tolist()]
    assert hexes == [(eq19_rhs(a).real.hex(), eq19_rhs(a).imag.hex()) for a in alphas]
    assert hexes == [(_eq19_one_value(a).real.hex(), _eq19_one_value(a).imag.hex())
                     for a in alphas]


def test_eq19_rhs_column_raises_for_a_bad_element():
    with pytest.raises(ValueError, match=r"^eq19_rhs requires 0 < alpha <= 1, got 1\.5$"):
        eq19_rhs(np.array([0.5, 1.5, 0.0]))
    with pytest.raises(ValueError, match=r"got nan$"):
        eq19_rhs(np.array([0.5, math.nan]))


def test_dilog_identity_rhs():
    # equals Li2((1-a)/(1+a)) - Li2((a-1)/(1+a)) evaluated by direct series
    for alpha, w in ((0.5, 1.0 / 3.0), (0.9, 1.0 / 19.0)):
        n = np.arange(1.0, 200.0)
        oracle = math.fsum(np.power(w, n) / n**2) - math.fsum(
            np.power(-w, n) / n**2
        )
        assert abs(dilog_identity_rhs(alpha) - oracle) <= 1e-12
    # alpha -> 1 limit: pi^2/4 - Li2(1) + Li2(-1) = 0
    assert abs(dilog_identity_rhs(1.0 - 1e-9)) <= 1e-6
    with pytest.raises(ValueError):
        dilog_identity_rhs(1.0)

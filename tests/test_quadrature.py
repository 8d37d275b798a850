"""Tanh-sinh quadrature: closed-form checks, structural properties, honesty."""

import math

import numpy as np
import pytest

from quadident.numerics import CONSTANTS, Tolerance
from quadident.quadrature import (
    INVERSE_SQRT_SINGULAR,
    LOG_SINGULAR,
    SEMI_INFINITE,
    IntegrandSpec,
    QuadratureError,
    integrate_semi_infinite,
    integrate_unit,
)

PI = CONSTANTS.pi
G = CONSTANTS.catalan
Z2 = CONSTANTS.zeta2
Z3 = CONSTANTS.zeta3
LOG2 = CONSTANTS.log2


def quad(f, tol=None, **spec_kwargs):
    return integrate_unit(IntegrandSpec(f, **spec_kwargs), tol or Tolerance())


# ---------------------------------------------------------------------------
# Known values on (0, 1)
# ---------------------------------------------------------------------------

def test_polynomial():
    res = quad(lambda x: x)
    assert res.converged
    assert abs(res.value - 0.5) <= 1e-14


def test_catalan_integral():
    res = quad(lambda x: np.arctan(x) / x)
    assert abs(res.value - G) <= 1e-12
    assert res.converged


def test_dilog_half_integral():
    res = quad(lambda x: np.log1p(x) / (x * (1.0 + x)))
    assert abs(res.value - (Z2 / 2 - LOG2**2 / 2)) <= 1e-12


def test_log_kernel_zeta3():
    spec = IntegrandSpec(
        lambda x: np.log(x) * (np.log1p(-x) - np.log1p(x)) / x,
        left=LOG_SINGULAR,
        right=LOG_SINGULAR,
        f_right=lambda d: np.log1p(-d) * (np.log(d) - np.log(2.0 - d)) / (1.0 - d),
    )
    res = integrate_unit(spec, Tolerance())
    assert abs(res.value - 1.75 * Z3) <= 1e-11


# ---------------------------------------------------------------------------
# Semi-infinite split
# ---------------------------------------------------------------------------

def test_semi_infinite_arctan():
    spec = IntegrandSpec(
        lambda x: 2.0 * np.arctan(x) / (1.0 + x * x), domain=SEMI_INFINITE
    )
    res = integrate_semi_infinite(spec, Tolerance())
    assert abs(res.value - PI**2 / 4) <= 1e-11


def test_semi_infinite_log_kernel():
    spec = IntegrandSpec(
        lambda x: np.log1p(x) / (x * (1.0 + x)), domain=SEMI_INFINITE
    )
    res = integrate_semi_infinite(spec, Tolerance())
    assert abs(res.value - Z2) <= 1e-11


def test_semi_infinite_atan_reciprocal():
    spec = IntegrandSpec(
        lambda x: np.arctan(x) * np.arctan(1.0 / x) / x, domain=SEMI_INFINITE
    )
    res = integrate_semi_infinite(spec, Tolerance())
    assert abs(res.value - 1.75 * Z3) <= 1e-11


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def test_linearity_random_polynomials():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        c_f = rng.uniform(-2, 2, size=4)
        c_g = rng.uniform(-2, 2, size=4)
        a, b = rng.uniform(-3, 3, size=2)

        def f(x, c=c_f):
            return c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3

        def g(x, c=c_g):
            return c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3

        rf = quad(f)
        rg = quad(g)
        rc = quad(lambda x: a * f(x) + b * g(x))
        lhs = rc.value
        rhs = a * rf.value + b * rg.value
        budget = 10.0 * (rc.error_estimate + abs(a) * rf.error_estimate
                         + abs(b) * rg.error_estimate) + 1e-14
        assert abs(lhs - rhs) <= budget


@pytest.mark.parametrize("c", [0.3, 0.7])
def test_split_consistency(c):
    def f(x):
        return np.exp(x) * np.sin(3.0 * x)

    whole = quad(f)
    left = quad(lambda u: f(c * u))   # int_0^c f = c int_0^1 f(cu) du
    right = quad(lambda u: f(c + (1.0 - c) * u))
    combined = c * left.value + (1.0 - c) * right.value
    budget = whole.error_estimate + c * left.error_estimate \
        + (1.0 - c) * right.error_estimate + 1e-13
    assert abs(whole.value - combined) <= budget


def test_reciprocal_split_identity():
    # f(1/t)/t^2 = f(t) pointwise for the self-reciprocal integrands,
    # hence the half-line integral is exactly twice the unit-interval one
    def f_atan(t):
        return np.arctan(t) * np.arctan(1.0 / t) / t

    def f_log(t):
        return np.log1p(t) * (np.log1p(t) - np.log(t)) / t

    t = np.array([0.13, 0.5, 0.77, 0.99, 1.7, 4.2])
    for f in (f_atan, f_log):
        np.testing.assert_allclose(f(1.0 / t) / t**2, f(t), rtol=1e-13)

    unit = quad(f_atan)
    full = integrate_semi_infinite(
        IntegrandSpec(f_atan, domain=SEMI_INFINITE), Tolerance()
    )
    assert abs(full.value - 2.0 * unit.value) <= 1e-10


# ---------------------------------------------------------------------------
# Error-estimate honesty on a suite of known integrals
# ---------------------------------------------------------------------------

_KNOWN_INTEGRALS = [
    (IntegrandSpec(lambda x: x), 0.5),
    (IntegrandSpec(lambda x: x**2), 1.0 / 3.0),
    (IntegrandSpec(np.exp), math.e - 1.0),
    (IntegrandSpec(np.sin), 1.0 - math.cos(1.0)),
    (IntegrandSpec(lambda x: 1.0 / (1.0 + x * x)), PI / 4.0),
    (IntegrandSpec(np.log, left=LOG_SINGULAR), -1.0),
    (
        IntegrandSpec(
            lambda x: np.log1p(-x),
            right=LOG_SINGULAR,
            f_right=lambda d: np.log(d),
        ),
        -1.0,
    ),
    (IntegrandSpec(lambda x: 1.0 / np.sqrt(x), left=INVERSE_SQRT_SINGULAR), 2.0),
    (
        IntegrandSpec(
            lambda x: 1.0 / np.sqrt(1.0 - x),
            right=INVERSE_SQRT_SINGULAR,
            f_right=lambda d: 1.0 / np.sqrt(d),
        ),
        2.0,
    ),
    (IntegrandSpec(np.sqrt), 2.0 / 3.0),
    (IntegrandSpec(lambda x: np.log(x) ** 2, left=LOG_SINGULAR), 2.0),
    (IntegrandSpec(np.arctan), PI / 4.0 - LOG2 / 2.0),
    (IntegrandSpec(lambda x: np.log1p(x) / x), Z2 / 2.0),
    (IntegrandSpec(lambda x: 5.0 * x**3 - 2.0 * x**2 + 3.0), 5.0 / 4.0 - 2.0 / 3.0 + 3.0),
    (
        IntegrandSpec(
            lambda x: 1.0 / np.sqrt(x * (1.0 - x)),
            left=INVERSE_SQRT_SINGULAR,
            right=INVERSE_SQRT_SINGULAR,
            f_right=lambda d: 1.0 / np.sqrt(d * (1.0 - d)),
        ),
        PI,
    ),
    (IntegrandSpec(lambda x: x * np.log(x), left=LOG_SINGULAR), -0.25),
    (IntegrandSpec(lambda x: np.sqrt((1.0 - x) * (1.0 + x))), PI / 4.0),
    (IntegrandSpec(lambda x: np.exp(-x * x)), math.sqrt(PI) / 2.0 * math.erf(1.0)),
    (IntegrandSpec(lambda x: 1.0 / (2.0 - x)), LOG2),
    (IntegrandSpec(lambda x: x / (1.0 + x * x)), LOG2 / 2.0),
]


def test_error_estimate_honesty():
    assert len(_KNOWN_INTEGRALS) == 20
    honest = 0
    for spec, truth in _KNOWN_INTEGRALS:
        res = integrate_unit(spec, Tolerance())
        assert res.converged
        if abs(res.value - truth) <= 5.0 * res.error_estimate:
            honest += 1
    assert honest >= 19


# ---------------------------------------------------------------------------
# Failure modes and validation
# ---------------------------------------------------------------------------

def test_nan_integrand_raises_with_abscissa():
    def f(x):
        return np.where(np.abs(x - 0.5) < 0.01, np.nan, x)

    with pytest.raises(QuadratureError, match="x="):
        quad(f)


def test_complex_integrand_raises_naming_the_piece():
    with pytest.raises(QuadratureError, match="piece f returned complex"):
        quad(lambda x: x + 0.5j)


def test_complex_right_piece_raises_naming_the_piece():
    # each piece is assigned into a float64 array, which would drop the
    # imaginary part with only a ComplexWarning
    with pytest.raises(QuadratureError, match="piece f_right returned complex"):
        quad(lambda x: x, right=LOG_SINGULAR, f_right=lambda d: (1.0 - d) + 0.5j)


@pytest.mark.parametrize("right_piece", [False, True])
def test_scalar_integrand_is_broadcast(right_piece):
    spec = dict(right=LOG_SINGULAR, f_right=lambda d: 2.0) if right_piece else {}
    res = quad(lambda x: 2.0, **spec)
    assert res.converged
    assert abs(res.value - 2.0) <= 1e-15


def test_non_convergence_flag():
    res = quad(lambda x: 1.0 / np.sqrt(x), tol=Tolerance(1e-10, 1e-10, max_work=20))
    assert not res.converged
    assert res.evaluations <= 20


def test_unreachable_tolerance_flagged():
    res = quad(lambda x: np.exp(x), tol=Tolerance(1e-30, 1e-30))
    assert not res.converged
    assert abs(res.value - (math.e - 1.0)) <= 1e-13  # still the best estimate


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrandSpec(lambda x: x, domain="interval")
    with pytest.raises(ValueError):
        IntegrandSpec(lambda x: x, left="weird")
    with pytest.raises(ValueError):
        IntegrandSpec(lambda x: x, domain=SEMI_INFINITE, f_right=lambda d: d)
    with pytest.raises(ValueError):
        integrate_unit(IntegrandSpec(lambda x: x, domain=SEMI_INFINITE))
    with pytest.raises(ValueError):
        integrate_semi_infinite(IntegrandSpec(lambda x: x))

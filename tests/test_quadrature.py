"""Tanh-sinh quadrature: closed-form checks, structural properties, honesty."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadident.numerics import CONSTANTS, Rows, Tolerance
from quadident.quadrature import (
    _MAX_LEVELS,
    IntegrandSpec,
    QuadratureError,
    _eval_level,
    _level_nodes,
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
        f_right=lambda d: np.log1p(-d) * (np.log(d) - np.log(2.0 - d)) / (1.0 - d),
    )
    res = integrate_unit(spec, Tolerance())
    assert abs(res.value - 1.75 * Z3) <= 1e-11


# ---------------------------------------------------------------------------
# Semi-infinite split
# ---------------------------------------------------------------------------

def test_semi_infinite_arctan():
    spec = IntegrandSpec(
        lambda x: 2.0 * np.arctan(x) / (1.0 + x * x)
    )
    res = integrate_semi_infinite(spec, Tolerance())
    assert abs(res.value - PI**2 / 4) <= 1e-11


def test_semi_infinite_log_kernel():
    spec = IntegrandSpec(
        lambda x: np.log1p(x) / (x * (1.0 + x))
    )
    res = integrate_semi_infinite(spec, Tolerance())
    assert abs(res.value - Z2) <= 1e-11


def test_semi_infinite_atan_reciprocal():
    spec = IntegrandSpec(
        lambda x: np.arctan(x) * np.arctan(1.0 / x) / x
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
        IntegrandSpec(f_atan), Tolerance()
    )
    assert abs(full.value - 2.0 * unit.value) <= 1e-10


# ---------------------------------------------------------------------------
# Rows: a (k, nodes) batch is k one-row runs
# ---------------------------------------------------------------------------

# Built from correctly rounded operations only, so every row's values are the
# same bits at any shape and the test isolates the row sums and bookkeeping.
_ROW_FAMILIES = {
    "unit": (integrate_unit, lambda a: IntegrandSpec(lambda x: 1.0 / (1.0 + a * x * x))),
    "f_right": (integrate_unit, lambda a: IntegrandSpec(
        lambda x: 1.0 / np.sqrt(x) + a / np.sqrt(1.0 - x),
        f_right=lambda d: 1.0 / np.sqrt(1.0 - d) + a / np.sqrt(d))),
    "half_line": (integrate_semi_infinite,
                  lambda a: IntegrandSpec(lambda x: 1.0 / (1.0 + a * x * x) ** 2)),
}


def _quad_bits(res):
    return (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.converged)


def _row_bits(res):
    """``_quad_bits`` of each row of a ``QuadratureRows``."""
    return [(v.hex(), e.hex(), n, ok) for v, e, n, ok in zip(
        res.values.tolist(), res.error_estimates.tolist(), res.work.tolist(),
        res.row_converged.tolist())]


@settings(deadline=None, max_examples=60)
@given(family=st.sampled_from(sorted(_ROW_FAMILIES)), k=st.integers(1, 100),
       seed=st.integers(0, 2**32 - 1), levels=st.integers(0, 7),
       digits=st.sampled_from([6, 10, 14]))
@example(family="f_right", k=100, seed=1, levels=7, digits=14)
@example(family="half_line", k=33, seed=2, levels=5, digits=10)
@example(family="unit", k=9, seed=3, levels=3, digits=14)
def test_rows_equal_one_row_runs_at_any_row_count(family, k, seed, levels, digits):
    # numpy could sum a (k, nodes) array in another order for some k, which
    # would break the row contract silently; the level cap and the tolerance
    # make rows leave the batch at different levels
    integrate, build = _ROW_FAMILIES[family]
    values = np.random.default_rng(seed).uniform(0.05, 20.0, k).tolist()
    nodes = sum(len(_level_nodes(level)[0]) for level in range(levels + 1))
    pieces = 2 if integrate is integrate_semi_infinite else 1
    tol = Tolerance(10.0**-digits, 10.0**-digits, max_work=pieces * nodes)
    batch = integrate(Rows(build, [{"a": a} for a in values]), tol)
    alone = [integrate(build(a), tol) for a in values]
    assert _row_bits(batch) == [_quad_bits(one) for one in alone]
    assert type(batch.evaluations) is int and type(batch.converged) is bool
    assert batch.evaluations == sum(one.evaluations for one in alone)
    assert batch.converged == all(one.converged for one in alone)


# ---------------------------------------------------------------------------
# Error-estimate honesty on a suite of known integrals
# ---------------------------------------------------------------------------

_KNOWN_INTEGRALS = [
    (IntegrandSpec(lambda x: x), 0.5),
    (IntegrandSpec(lambda x: x**2), 1.0 / 3.0),
    (IntegrandSpec(np.exp), math.e - 1.0),
    (IntegrandSpec(np.sin), 1.0 - math.cos(1.0)),
    (IntegrandSpec(lambda x: 1.0 / (1.0 + x * x)), PI / 4.0),
    (IntegrandSpec(np.log), -1.0),
    (
        IntegrandSpec(
            lambda x: np.log1p(-x),
            f_right=lambda d: np.log(d),
        ),
        -1.0,
    ),
    (IntegrandSpec(lambda x: 1.0 / np.sqrt(x)), 2.0),
    (
        IntegrandSpec(
            lambda x: 1.0 / np.sqrt(1.0 - x),
            f_right=lambda d: 1.0 / np.sqrt(d),
        ),
        2.0,
    ),
    (IntegrandSpec(np.sqrt), 2.0 / 3.0),
    (IntegrandSpec(lambda x: np.log(x) ** 2), 2.0),
    (IntegrandSpec(np.arctan), PI / 4.0 - LOG2 / 2.0),
    (IntegrandSpec(lambda x: np.log1p(x) / x), Z2 / 2.0),
    (IntegrandSpec(lambda x: 5.0 * x**3 - 2.0 * x**2 + 3.0), 5.0 / 4.0 - 2.0 / 3.0 + 3.0),
    (
        IntegrandSpec(
            lambda x: 1.0 / np.sqrt(x * (1.0 - x)),
            f_right=lambda d: 1.0 / np.sqrt(d * (1.0 - d)),
        ),
        PI,
    ),
    (IntegrandSpec(lambda x: x * np.log(x)), -0.25),
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


def test_error_estimate_covers_the_truncation_at_the_outermost_nodes():
    # x**-0.9 is still large at t = -4: the level-to-level change alone
    # (about 2e-5) misses the truncated tail of the trapezoid sum
    res = quad(lambda x: x**-0.9)
    assert not res.converged
    assert abs(res.value - 10.0) <= res.error_estimate <= 10.0 * abs(res.value - 10.0)


def _fsum_reference(spec, tol):
    """The per-row loop the array driver replaced: ``math.fsum`` of each
    level, Python-float bookkeeping, the same estimate and stop rule."""
    total = habs = edge = 0.0
    err = math.inf
    evals = 0
    for level in range(_MAX_LEVELS + 1):
        if level >= 1 and evals + len(_level_nodes(level)[0]) > tol.max_work:
            break
        wf, _, n_new = _eval_level(spec.f, spec.f_right, level, 1)
        row = wf[0].tolist()
        evals += n_new
        h = 0.5 ** level
        s, a = h * math.fsum(row), h * math.fsum(map(abs, row))
        if level == 0:
            total, habs, edge = s, a, abs(row[0]) + abs(row[-1])
            continue
        prev, total, habs = total, 0.5 * total + s, 0.5 * habs + a
        err = 10.0 * abs(total - prev) + 8e-16 * habs + edge
        if level >= 2 and err <= tol.abs_tol + tol.rel_tol * abs(total):
            return total, err, evals, True
    return total, err, evals, False


@pytest.mark.parametrize("digits", [10, 14])
def test_pairwise_row_sums_stay_within_4_ulps_of_the_fsum_loop(digits):
    # numpy's pairwise row sum replaced an exactly rounded math.fsum per row:
    # values may move in the last bits, the work and the convergence may not
    tol = Tolerance(10.0**-digits, 10.0**-digits)
    specs = [spec for spec, _ in _KNOWN_INTEGRALS] + [
        build(a) for _, build in _ROW_FAMILIES.values() for a in (0.3, 7.0)]
    for i, spec in enumerate(specs):
        res = integrate_unit(spec, tol)
        value, err, evals, ok = _fsum_reference(spec, tol)
        ulp = np.spacing(abs(value))
        assert (res.evaluations, res.converged) == (evals, ok), i
        assert abs(res.value - value) <= 4.0 * ulp, i
        assert abs(res.error_estimate - err) <= 100.0 * ulp, i


# ---------------------------------------------------------------------------
# Failure modes and validation
# ---------------------------------------------------------------------------

def test_nan_integrand_raises_with_abscissa():
    def f(x):
        return np.where(np.abs(x - 0.5) < 0.01, np.nan, x)

    with pytest.raises(QuadratureError, match="x=") as info:
        quad(f)
    assert "np.float64" not in str(info.value)  # plain floats under numpy 2


def test_complex_integrand_raises_naming_the_piece():
    with pytest.raises(QuadratureError, match="piece f returned complex"):
        quad(lambda x: x + 0.5j)


def test_complex_right_piece_raises_naming_the_piece():
    # each piece is assigned into a float64 array, which would drop the
    # imaginary part with only a ComplexWarning
    with pytest.raises(QuadratureError, match="piece f_right returned complex"):
        quad(lambda x: x, f_right=lambda d: (1.0 - d) + 0.5j)


@pytest.mark.parametrize("right_piece", [False, True])
def test_scalar_integrand_is_broadcast(right_piece):
    spec = dict(f_right=lambda d: 2.0) if right_piece else {}
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
    with pytest.raises(ValueError, match="f_right"):
        integrate_semi_infinite(IntegrandSpec(lambda x: x, f_right=lambda d: d))


# ---------------------------------------------------------------------------
# Node contract: never on 0, but x rounds to 1.0 near the right end
# ---------------------------------------------------------------------------

def test_nodes_stay_off_zero_at_every_level():
    for level in range(_MAX_LEVELS + 1):
        _, x, delta, _ = _level_nodes(level)
        assert x.min() > 0.0 and delta.min() > 0.0, level


def test_some_right_end_nodes_round_to_one():
    assert any((_level_nodes(level)[1] == 1.0).any() for level in range(_MAX_LEVELS + 1))


def test_right_singular_integrand_needs_f_right():
    with np.errstate(divide="ignore"), pytest.raises(QuadratureError, match="x=1.0"):
        quad(lambda x: np.log1p(-x))
    res = quad(lambda x: np.log1p(-x), f_right=np.log)
    assert res.converged
    assert abs(res.value + 1.0) <= 1e-12

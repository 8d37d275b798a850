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
    _eval_levels,
    _level_nodes,
    integrate_semi_infinite,
    integrate_unit,
)
from quadident.registry import _spec_atan_cauchy

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
# Known values on (0, inf)
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
    tol = Tolerance(10.0**-digits, 10.0**-digits, max_work=nodes)
    batch = integrate(Rows(build, [{"a": a} for a in values]), tol)
    alone = [integrate(build(a), tol) for a in values]
    assert _row_bits(batch) == [_quad_bits(one) for one in alone]
    assert type(batch.evaluations) is int and type(batch.converged) is bool
    assert batch.evaluations == sum(one.evaluations for one in alone)
    assert batch.converged == all(one.converged for one in alone)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_half_line_rows_of_one_broadcast_integrand_are_its_one_row_run(k):
    # the builder ignores its parameter, so f returns one (nodes,) array for
    # all rows, which the driver broadcasts into every row of the block past
    # the first run (exp(-x) stops at 257 nodes, level 5)
    def f(x):
        return np.exp(-x)

    rows = integrate_semi_infinite(Rows(lambda a: IntegrandSpec(f), [{"a": a} for a in range(k)]))
    one = integrate_semi_infinite(IntegrandSpec(f))
    assert one.evaluations == 257 and one.converged
    assert _row_bits(rows) == k * [_quad_bits(one)]


# ---------------------------------------------------------------------------
# The first levels are one integrand call: pinned under work caps
# ---------------------------------------------------------------------------

_PINNED_SPECS = {
    "f_right": (integrate_unit, IntegrandSpec(
        lambda x: np.log(x) * (np.log1p(-x) - np.log1p(x)) / x,
        f_right=lambda d: np.log1p(-d) * (np.log(d) - np.log(2.0 - d)) / (1.0 - d))),
    "rows": (integrate_unit, Rows(lambda a: IntegrandSpec(lambda x: 1.0 / (1.0 + a * x * x)),
                                  [{"a": 0.3}, {"a": 2.0}, {"a": 7.0}])),
    "half_line": (integrate_semi_infinite,
                  IntegrandSpec(lambda x: np.arctan(x) * np.arctan(1.0 / x) / x)),
}
# (value, error estimate, evaluations, converged) of each row by max_work
# (None: the default); the unit-interval rows were recorded before levels 0-2
# became one integrand call, the half-line row when the half-line moved to
# exp-sinh nodes (the one-level fsum loop below checks its levels)
_PINNED = {
    "f_right": {
        1: [("0x1.08946b8ab5124p+1", "inf", 9, False)],
        9: [("0x1.08946b8ab5124p+1", "inf", 9, False)],
        16: [("0x1.08946b8ab5124p+1", "inf", 9, False)],
        17: [("0x1.0d42d9f42ccd0p+1", "0x1.768280f56a5dep-2", 17, False)],
        20: [("0x1.0d42d9f42ccd0p+1", "0x1.768280f56a5dep-2", 17, False)],
        32: [("0x1.0d42d9f42ccd0p+1", "0x1.768280f56a5dep-2", 17, False)],
        33: [("0x1.0d42c04520e2ap+1", "0x1.00d67727fca1dp-15", 33, False)],
        50: [("0x1.0d42c04520e2ap+1", "0x1.00d67727fca1dp-15", 33, False)],
        65: [("0x1.0d42c0452055dp+1", "0x1.60172874d0b40p-37", 65, True)],
        66: [("0x1.0d42c0452055dp+1", "0x1.60172874d0b40p-37", 65, True)],
        None: [("0x1.0d42c0452055dp+1", "0x1.60172874d0b40p-37", 65, True)],
    },
    "rows": {
        1: [
            ("0x1.dede7c77ad13dp-1", "inf", 9, False),
            ("0x1.5b44843d624cdp-1", "inf", 9, False),
            ("0x1.a942afb7fa65cp-2", "inf", 9, False),
        ],
        9: [
            ("0x1.dede7c77ad13dp-1", "inf", 9, False),
            ("0x1.5b44843d624cdp-1", "inf", 9, False),
            ("0x1.a942afb7fa65cp-2", "inf", 9, False),
        ],
        16: [
            ("0x1.dede7c77ad13dp-1", "inf", 9, False),
            ("0x1.5b44843d624cdp-1", "inf", 9, False),
            ("0x1.a942afb7fa65cp-2", "inf", 9, False),
        ],
        17: [
            ("0x1.d46c9f3548126p-1", "0x1.a1ca925fc83b2p-3", 17, False),
            ("0x1.59aa9b89ff9aep-1", "0x1.0031701daf3aep-5", 17, False),
            ("0x1.d45a78ad218c3p-2", "0x1.aeedd9938780dp-2", 17, False),
        ],
        20: [
            ("0x1.d46c9f3548126p-1", "0x1.a1ca925fc83b2p-3", 17, False),
            ("0x1.59aa9b89ff9aep-1", "0x1.0031701daf3aep-5", 17, False),
            ("0x1.d45a78ad218c3p-2", "0x1.aeedd9938780dp-2", 17, False),
        ],
        32: [
            ("0x1.d46c9f3548126p-1", "0x1.a1ca925fc83b2p-3", 17, False),
            ("0x1.59aa9b89ff9aep-1", "0x1.0031701daf3aep-5", 17, False),
            ("0x1.d45a78ad218c3p-2", "0x1.aeedd9938780dp-2", 17, False),
        ],
        33: [
            ("0x1.d46961668cae4p-1", "0x1.03509a8f4d4bdp-12", 33, False),
            ("0x1.59dc903d1fd94p-1", "0x1.f38eff42700dep-9", 33, False),
            ("0x1.d417773a26a42p-2", "0x1.4f073ee68884bp-9", 33, False),
        ],
        50: [
            ("0x1.d46961668cae4p-1", "0x1.03509a8f4d4bdp-12", 33, False),
            ("0x1.59dc903d1fd94p-1", "0x1.f38eff42700dep-9", 33, False),
            ("0x1.d417773a26a42p-2", "0x1.4f073ee68884bp-9", 33, False),
        ],
        65: [
            ("0x1.d46961670839fp-1", "0x1.34dd525e85f02p-31", 65, False),
            ("0x1.59dc8f2dc2564p-1", "0x1.5334e3c9bc31fp-22", 65, False),
            ("0x1.d417993a5bcaap-2", "0x1.540213816967bp-18", 65, False),
        ],
        66: [
            ("0x1.d46961670839fp-1", "0x1.34dd525e85f02p-31", 65, False),
            ("0x1.59dc8f2dc2564p-1", "0x1.5334e3c9bc31fp-22", 65, False),
            ("0x1.d417993a5bcaap-2", "0x1.540213816967bp-18", 65, False),
        ],
        None: [
            ("0x1.d4696167083a0p-1", "0x1.097a17c08f044p-49", 129, True),
            ("0x1.59dc8f2dc2563p-1", "0x1.dbc31f7bd7f52p-50", 129, True),
            ("0x1.d417993a5b6cep-2", "0x1.d4f4b3d6ac224p-41", 129, True),
        ],
    },
    "half_line": {
        1: [("0x1.0d625a5514c6cp+1", "inf", 9, False)],
        9: [("0x1.0d625a5514c6cp+1", "inf", 9, False)],
        16: [("0x1.0d625a5514c6cp+1", "inf", 9, False)],
        17: [("0x1.0d42bfbc69902p+1", "0x1.3c09f6b0227ddp-7", 17, False)],
        20: [("0x1.0d42bfbc69902p+1", "0x1.3c09f6b0227ddp-7", 17, False)],
        32: [("0x1.0d42bfbc69902p+1", "0x1.3c09f6b0227ddp-7", 17, False)],
        33: [("0x1.0d42c0452055fp+1", "0x1.55c8ee977389cp-21", 33, False)],
        50: [("0x1.0d42c0452055fp+1", "0x1.55c8ee977389cp-21", 33, False)],
        65: [("0x1.0d42c0452055ep+1", "0x1.bb9c4de33020fp-48", 65, True)],
        66: [("0x1.0d42c0452055ep+1", "0x1.bb9c4de33020fp-48", 65, True)],
        None: [("0x1.0d42c0452055ep+1", "0x1.bb9c4de33020fp-48", 65, True)],
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_first_levels_keep_their_bits_under_work_caps(name):
    # a cap may cut the run of levels 0-3 after level 0 (below 17 nodes),
    # level 1 (below 33) or level 2 (below 65), on either interval
    integrate, spec = _PINNED_SPECS[name]
    for max_work, expected in _PINNED[name].items():
        tol = Tolerance() if max_work is None else Tolerance(max_work=max_work)
        res = integrate(spec, tol)
        assert (_row_bits(res) if name == "rows" else [_quad_bits(res)]) == expected, max_work


def test_non_finite_value_is_named_level_by_level():
    # row 0 is NaN at a level-2 node, row 1 at a level-0 node: the three
    # levels are one integrand call, but the level-0 node is the one named
    x2, x0 = _level_nodes(2)[1][9], _level_nodes(0)[1][5]
    rows = Rows(lambda r: IntegrandSpec(lambda x: np.where(x == np.where(r == 0, x2, x0),
                                                           np.nan, x)), [{"r": 0}, {"r": 1}])
    with pytest.raises(QuadratureError) as info:
        integrate_unit(rows)
    assert str(info.value) == (f"integrand returned a non-finite value at x={float(x0)!r} "
                               f"(distance {float(_level_nodes(0)[2][5])!r} from 1)")


def test_half_line_non_finite_value_names_its_abscissa():
    # the first NaN node is x = exp((pi/2) sinh 1), at level 0; 1 - x is no
    # distance to an end of (0, inf), so no distance is named
    with pytest.raises(QuadratureError) as info:
        integrate_semi_infinite(IntegrandSpec(lambda x: np.sqrt(1.5 - x) / (1.0 + x * x)))
    assert str(info.value) == "integrand returned a non-finite value at x=6.334441939256981"


@pytest.mark.parametrize("f_right", [False, True])
@pytest.mark.parametrize("level", [1, 2, 4])
def test_non_finite_value_is_named_in_the_first_run_and_in_later_runs(level, f_right):
    # levels 1 and 2 lie in the first run (levels 0-3, one block), level 4 in
    # a one-level run; row 1 is also NaN at a node of the next level. The
    # node named is the first non-finite one of the earliest level, in row
    # order: on the left half for f, on the right half for f_right
    t, x, delta, _ = _level_nodes(level)
    j = len(t) - 2 if f_right else 1
    later = _level_nodes(level + 1)[1][3]

    def f(r):
        bad = np.where(r == 0, x[j], later)
        if not f_right:
            return IntegrandSpec(lambda v: np.where(v == bad, np.nan, v))
        return IntegrandSpec(lambda v: np.where(v == later, np.nan, v),
                             f_right=lambda d: np.where((d == delta[j]) & (r == 0), np.inf, 1.0 - d))

    with pytest.raises(QuadratureError) as info:
        integrate_unit(Rows(f, [{"r": 1}, {"r": 0}]), Tolerance(0.0, 1e-300))
    assert str(info.value) == (f"integrand returned a non-finite value at x={float(x[j])!r} "
                               f"(distance {float(delta[j])!r} from 1)")


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


def _fsum_reference(spec, tol, half_line=False, level_sum=math.fsum):
    """The per-row loop the array driver replaced: ``math.fsum`` of each
    level (or another ``level_sum``), Python-float bookkeeping, the same
    estimate and stop rule, one level evaluated at a time."""
    total = habs = edge = 0.0
    err = math.inf
    evals = 0
    for level in range(_MAX_LEVELS + 1):
        if level >= 1 and evals + len(_level_nodes(level)[0]) > tol.max_work:
            break
        # one level as a one-level run: the driver's run of levels 0-3 must
        # place each level's values as these blocks do
        block, [(_, n_new)] = _eval_levels(spec, range(level, level + 1), 1, half_line)
        row = block[0, 0].tolist()
        evals += n_new
        h = 0.5 ** level
        s, a = h * level_sum(row), h * level_sum(map(abs, row))
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
    # numpy's pairwise sum of each level's part of the run block replaced an
    # exactly rounded math.fsum per row: values may move in the last bits,
    # the work and the convergence may not
    tol = Tolerance(10.0**-digits, 10.0**-digits)
    specs = [(integrate_unit, spec) for spec, _ in _KNOWN_INTEGRALS] + [
        (integrate, build(a)) for integrate, build in _ROW_FAMILIES.values() for a in (0.3, 7.0)]
    for i, (integrate, spec) in enumerate(specs):
        res = integrate(spec, tol)
        value, err, evals, ok = _fsum_reference(spec, tol, integrate is integrate_semi_infinite)
        ulp = np.spacing(abs(value))
        assert (res.evaluations, res.converged) == (evals, ok), i
        assert abs(res.value - value) <= 4.0 * ulp, i
        assert abs(res.error_estimate - err) <= 100.0 * ulp, i


def _pairwise(values):
    """numpy's pairwise sum of one row, the driver's level sum."""
    return np.add.reduce(np.fromiter(values, float)).item()


@pytest.mark.parametrize("max_work", [None, 33, 64, 65])
def test_rows_leaving_inside_the_first_run_keep_their_one_row_bits(max_work):
    # E4's left side on its grid-9 points and ends: alpha = 0 stops at level
    # 2, inside the run of levels 0-3, alpha = 1 at level 3 and alpha = 0.1
    # at level 4. Caps of 33 and 64 end the run at level 2, 65 at level 3.
    # Each row of the batch has the bits of its one-row run and of the
    # one-level-at-a-time loop with the driver's pairwise level sums
    points = [{"alpha": k / 10.0} for k in range(1, 10)] + [{"alpha": 0.0}, {"alpha": 1.0}]
    tol = Tolerance(2.5e-11, 2.5e-11, max_work or Tolerance().max_work)
    batch = integrate_semi_infinite(Rows(_spec_atan_cauchy, points), tol)
    if max_work is None:
        assert sorted(set(batch.work.tolist())) == [33, 65, 129]
        assert batch.work[[0, 9, 10]].tolist() == [129, 33, 65]
    for i, point in enumerate(points):
        alone = integrate_semi_infinite(Rows(_spec_atan_cauchy, [point]), tol)
        loop = _fsum_reference(Rows(_spec_atan_cauchy, [point]).at(), tol, True, _pairwise)
        row = tuple(column[i].item() for column in batch)
        assert row == tuple(column[0].item() for column in alone) == loop, point


def test_non_finite_value_raises_only_for_a_row_that_uses_its_level():
    # level 3 lies in the first run, so a row that stops at level 2 is
    # evaluated there too: a NaN at a level-3 node fails only a row that
    # goes on to level 3, with the text of a one-level run
    _, x, delta, _ = _level_nodes(3)
    rows = Rows(lambda c: IntegrandSpec(lambda v: np.where(v == x[5], np.nan, c * v)),
                [{"c": 0.0}, {"c": 1.0}])
    zero = integrate_unit(Rows(rows.build, rows.points[:1]))
    assert (zero.values.tolist(), zero.work.tolist(), zero.converged) == ([0.0], [33], True)
    for batch in (rows, Rows(rows.build, rows.points[1:])):
        with pytest.raises(QuadratureError) as info:
            integrate_unit(batch)
        assert str(info.value) == (f"integrand returned a non-finite value at x={float(x[5])!r} "
                                   f"(distance {float(delta[5])!r} from 1)")


# ---------------------------------------------------------------------------
# Failure modes and validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("integrate", [integrate_unit, integrate_semi_infinite])
@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(1e-16, 0.0)])
def test_one_row_builds_its_integrand_once(integrate, tol):
    # the first run builds the rows' integrand, and the half-line's f_right
    # check reads that one; a row still active after the run (the second
    # tolerance is out of reach) keeps it through every later level
    calls = []

    def build(a):
        calls.append(a)
        return IntegrandSpec(lambda x: a / (1.0 + x * x) ** 1.5)

    rows = integrate(Rows(build, [{"a": 1.0}]), tol)
    assert len(calls) == 1
    assert rows.work[0] > (129 if tol.rel_tol == 0.0 else 0)


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


def test_max_work_has_a_floor_of_one_level_zero():
    # level 0 is always evaluated: 9 evaluations on either interval, however
    # small max_work is; above that, the integrator never runs past the cap
    for max_work in (1, 8, 9, 16):
        tol = Tolerance(1e-15, 1e-15, max_work)
        unit = quad(lambda x: np.log(x) ** 2, tol=tol)
        half = integrate_semi_infinite(IntegrandSpec(lambda x: (1.0 + x * x) ** -1.3), tol)
        assert (unit.evaluations, half.evaluations) == (9, 9), max_work
        assert not (unit.converged or half.converged)
    assert quad(lambda x: np.log(x) ** 2, tol=Tolerance(1e-15, 1e-15, 17)).evaluations == 17


def test_unreachable_tolerance_flagged():
    res = quad(lambda x: np.exp(x), tol=Tolerance(1e-30, 1e-30))
    assert not res.converged
    assert abs(res.value - (math.e - 1.0)) <= 1e-13  # still the best estimate


def test_spec_validation():
    with pytest.raises(ValueError, match="f_right"):
        integrate_semi_infinite(IntegrandSpec(lambda x: x, f_right=lambda d: d))


# ---------------------------------------------------------------------------
# Node contract: never on 0, but x rounds to 1.0 near the right end of (0, 1)
# ---------------------------------------------------------------------------

def test_nodes_stay_off_zero_at_every_level():
    smallest = 1.0
    for level in range(_MAX_LEVELS + 1):
        _, x, delta, _ = _level_nodes(level)
        assert x.min() > 0.0 and delta.min() > 0.0, level
        smallest = min(smallest, x.min(), delta.min())
    assert f"{smallest:.1e}" == "5.8e-38"


def test_half_line_nodes_are_finite_positive_and_span_the_half_line():
    # x = exp((pi/2) sinh t), w = (pi/2) cosh t x: both ascend with t, and
    # level 0 holds the outermost nodes t = -4 and t = 4
    lows, highs = [], []
    for level in range(_MAX_LEVELS + 1):
        t, x, delta, w = _level_nodes(level, half_line=True)
        assert delta is None
        assert np.array_equal(t, _level_nodes(level)[0]), level
        for a in (x, w):
            assert np.isfinite(a).all() and (a > 0.0).all(), level
            assert (np.diff(a) > 0.0).all(), level
        lows.append(x[0])
        highs.append(x[-1])
    assert min(lows) == lows[0] and max(highs) == highs[0]
    assert (f"{lows[0]:.1e}", f"{highs[0]:.1e}") == ("2.4e-19", "4.1e+18")


def test_some_right_end_nodes_round_to_one():
    assert any((_level_nodes(level)[1] == 1.0).any() for level in range(_MAX_LEVELS + 1))


def test_right_singular_integrand_needs_f_right():
    with pytest.raises(QuadratureError, match="x=1.0"):
        quad(lambda x: np.log1p(-x))
    res = quad(lambda x: np.log1p(-x), f_right=np.log)
    assert res.converged
    assert abs(res.value + 1.0) <= 1e-12

"""Every quadrature row against its exact value, in mpmath at 30 digits from
the same exact double parameter, with no quadident function. Each identity
is a theorem, so where it has a closed form (polylogarithms, zeta(3),
Catalan's G) that is the truth of the integral; E5, E7, E16, E21 and E22
have none, and take ``mpmath.quad`` of the integrand.

The rows are those of grids 9 and 33 and their ends on both intervals, and
on the half-line five alpha near the ends too. Each row's value must lie
within its own ``error_estimate``: an error, not a ratio, since E2 at
alpha = 0 reads 0 with an estimate of 0. The worst |value - truth| per case,
as a share of the side tolerance at the truth, is pinned from above: a
change that moves these values records the new worst.
"""

import inspect

import pytest

from quadident.ledger import _grid_points, side_tolerance
from quadident.numerics import DEFAULT_TOL, Rows
from quadident.quadrature import integrate_semi_infinite, integrate_unit
from quadident.registry import lookup, registry

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

# near both ends of the axis, where the half-line integrands' scale is
# 1/alpha or the closed forms' log terms read 0 * inf
_EXTRA_ALPHAS = (1e-14, 1e-10, 1e-6, 1.0 - 1e-10, 1.0 - 1e-14)


def _atan_cauchy(alpha):
    # 2 int_0^inf arctan(a x)/(1+x^2) dx; the log term tends to 0 at a = 0 and 1
    log_term = 0 if alpha in (0, 1) else mp.log(alpha) * mp.log((1 - alpha) / (1 + alpha))
    return log_term + mp.polylog(2, alpha) - mp.polylog(2, -alpha)


def _log_kernel(alpha):
    # int_0^inf log(1+a x)/(x(1+x)) dx; the log term tends to 0 at a = 1
    return (0 if alpha == 1 else mp.log(alpha) * mp.log(1 - alpha)) + mp.polylog(2, alpha)


def _unit(f):
    return mp.quad(f, [0, 1])


def _lemma(p, beta, sign):
    # (-1)^(p+1) p! [Li_{p+2}(b) + sign Li_{p+2}(-b)]
    return (-1) ** (p + 1) * mp.factorial(p) * (
        mp.polylog(p + 2, beta) + sign * mp.polylog(p + 2, -beta))


def _dilog_pair(alpha):
    w = (1 - alpha) / (1 + alpha)
    return mp.polylog(2, w) - mp.polylog(2, -w)


# each case's truth, taking the point's parameters by name, p as an integer
# and alpha or beta as an mpmath number
_TRUTH = {
    "E1": lambda: mp.zeta(2),
    "E2": lambda alpha: (mp.polylog(2, alpha) - mp.polylog(2, -alpha)) / 2,
    "E4": _atan_cauchy,
    "E4alt": _atan_cauchy,
    "E5": lambda alpha: 2 * _unit(lambda x: mp.atan(alpha * x) / (1 + x * x)),
    "E7": lambda alpha: _unit(lambda x: mp.atan(alpha * x) ** 2 / (1 + x * x)),
    "E9": _log_kernel,
    "E10": lambda alpha: mp.polylog(2, mp.mpf(1) / 2) - mp.polylog(2, (1 - alpha) / 2),
    "E10b": lambda: mp.zeta(2) / 2 - mp.log(2) ** 2 / 2,
    "E11": lambda p, beta: _lemma(p, beta, -1),
    "E12": lambda p, beta: _lemma(p, beta, 0),
    "E13": lambda: mp.zeta(3) * 7 / 8,
    "E13inf": lambda: mp.zeta(3) * 7 / 4,
    "E14": lambda: mp.zeta(3),
    "E14inf": lambda: mp.zeta(3) * 2,
    "E15": lambda: mp.pi * mp.catalan / 2 - mp.zeta(3) * 7 / 8,
    "E16": lambda alpha: _unit(lambda x: mp.atan(alpha * x) ** 2 / x),
    "E18d": _dilog_pair,
    "E21": lambda p, alpha: _unit(lambda x: mp.atan(alpha * x) ** p / x),
    "E22": lambda p, alpha: _unit(lambda x: mp.atan(alpha * x) ** p / (1 + x * x)),
}

# the worst |value - truth| / (abs_tol + rel_tol |truth|) at the side tolerance
_WORST = {
    "E1": 4.6e-7, "E2": 2.7e-6, "E4": 4.0e-4, "E4alt": 4.0e-4, "E5": 2.6e-6, "E7": 6.5e-7,
    "E9": 3.3e-5, "E10": 2.2e-6, "E10b": 1.5e-6, "E11": 8.8e-6, "E12": 9.3e-6, "E13": 4.1e-6,
    "E13inf": 5.4e-6, "E14": 8.9e-7, "E14inf": 1.1e-4, "E15": 7.6e-7, "E16": 2.5e-6,
    "E18d": 3.9e-6, "E21": 2.9e-6, "E22": 1.6e-6,
}


def _points(case, half_line):
    if not case.continuous:
        return [{}]
    points = [p for n in (9, 33) for p in _grid_points(case, n) + _grid_points(case, n, ends=True)]
    return points + [{"alpha": a} for a in _EXTRA_ALPHAS] if half_line else points


def test_the_table_covers_every_quadrature_side():
    # a quadrature side is made by _quad, whose rows function closes over
    # half_line; every registered one has a truth above
    quadrature_sides = {case.id for case in registry().values() for side in (case.lhs, case.rhs)
                        if "half_line" in inspect.getclosurevars(side).nonlocals}
    assert quadrature_sides == set(_TRUTH)


@pytest.mark.parametrize("case_id", sorted(_TRUTH))
def test_every_quadrature_row_lies_within_its_error_estimate(case_id):
    case = lookup(case_id)
    side = inspect.getclosurevars(case.lhs).nonlocals
    half_line = side["half_line"]
    tol = side_tolerance(DEFAULT_TOL)
    points = _points(case, half_line)
    integrate = integrate_semi_infinite if half_line else integrate_unit
    rows = integrate(Rows(side["build"], points), tol)
    assert rows.converged, case_id
    worst = 0.0
    with mpmath.workdps(30):
        for point, value, estimate in zip(points, rows.values.tolist(),
                                          rows.error_estimates.tolist()):
            truth = _TRUTH[case_id](**{name: v if name == "p" else mp.mpf(v)
                                       for name, v in point.items()})
            error = float(abs(value - truth))
            assert error <= estimate, (case_id, point, error, estimate)
            worst = max(worst, error / (tol.abs_tol + tol.rel_tol * float(abs(truth))))
    assert worst <= _WORST[case_id], (case_id, worst)

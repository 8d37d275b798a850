"""Every half-line row against its exact value: E4, E4alt and E9 from their
polylogarithm closed forms, E13inf and E14inf from zeta(3), in mpmath at 30
digits from the same exact double parameter. Each identity is a theorem, so
the closed form is the truth of the integral.

Each row's value must lie within its own ``error_estimate``. The worst
|value - truth| per case, as a share of the side tolerance at the truth, is
pinned from above: a change that moves these values records the new worst.
"""

import inspect

import pytest

from quadident.ledger import _grid_points, side_tolerance
from quadident.numerics import DEFAULT_TOL, Rows
from quadident.quadrature import integrate_semi_infinite
from quadident.registry import lookup

mpmath = pytest.importorskip("mpmath")

# near both ends of the axis, where the integrands' scale is 1/alpha or the
# closed forms' log terms read 0 * inf
_EXTRA_ALPHAS = (1e-14, 1e-10, 1e-6, 1.0 - 1e-10, 1.0 - 1e-14)


def _atan_cauchy(a):
    # 2 int_0^inf arctan(a x)/(1+x^2) dx; the log term tends to 0 at a = 0 and 1
    a = mpmath.mpf(a)
    log_term = 0 if a in (0, 1) else mpmath.log(a) * mpmath.log((1 - a) / (1 + a))
    return log_term + mpmath.polylog(2, a) - mpmath.polylog(2, -a)


def _log_kernel(a):
    # int_0^inf log(1+a x)/(x(1+x)) dx; the log term tends to 0 at a = 1
    a = mpmath.mpf(a)
    return (0 if a == 1 else mpmath.log(a) * mpmath.log(1 - a)) + mpmath.polylog(2, a)


_TRUTH = {
    "E4": _atan_cauchy,
    "E4alt": _atan_cauchy,
    "E9": _log_kernel,
    "E13inf": lambda: mpmath.zeta(3) * 7 / 4,
    "E14inf": lambda: mpmath.zeta(3) * 2,
}

# the worst |value - truth| / (abs_tol + rel_tol |truth|) at the side tolerance
_WORST = {"E4": 4.0e-4, "E4alt": 4.0e-4, "E9": 3.3e-5, "E13inf": 5.4e-6, "E14inf": 1.1e-4}


def _points(case):
    if not case.continuous:
        return [{}]
    points = [p for n in (9, 33) for p in _grid_points(case, n) + _grid_points(case, n, ends=True)]
    return points + [{"alpha": a} for a in _EXTRA_ALPHAS]


@pytest.mark.parametrize("case_id", sorted(_TRUTH))
def test_every_half_line_row_lies_within_its_error_estimate(case_id):
    case = lookup(case_id)
    build = inspect.getclosurevars(case.lhs).nonlocals["build"]
    tol = side_tolerance(DEFAULT_TOL)
    points = _points(case)
    rows = integrate_semi_infinite(Rows(build, points), tol)
    assert rows.converged, case_id
    worst = 0.0
    with mpmath.workdps(30):
        for point, value, estimate in zip(points, rows.values.tolist(),
                                          rows.error_estimates.tolist()):
            truth = _TRUTH[case_id](*point.values())
            error = float(abs(value - truth))
            assert error <= estimate, (case_id, point, error, estimate)
            worst = max(worst, error / (tol.abs_tol + tol.rel_tol * float(abs(truth))))
    assert worst <= _WORST[case_id], (case_id, worst)

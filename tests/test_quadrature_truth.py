"""Every registered side against the exact value of its identity
(``tests/_truth.py``) at the rows of grids 9 and 33 and their ends, on the
half-line at five alpha near the ends too. A quadrature row lies within its
``error_estimate`` (an error, not a ratio: E2 at alpha = 0 reads 0 with an
estimate of 0), a series row within its ``remainder_bound``; a closed form
has no bound. The worst |value - truth| of each quadrature and closed-form
side, as a share of the side tolerance at the truth, is pinned from above: a
change that moves these values records the new worst."""

import inspect

import pytest

from quadident.ledger import _grid_points, side_tolerance
from quadident.numerics import DEFAULT_TOL, Rows
from quadident.quadrature import integrate_semi_infinite, integrate_unit
from quadident.registry import lookup, registry
from quadident.series import sum_alternating_accelerated

from _one_point import maker

pytest.importorskip("mpmath")

from _truth import error, truth  # noqa: E402  (needs mpmath)

# near both ends of the axis, where the half-line integrands' scale is
# 1/alpha or the closed forms' log terms read 0 * inf
_EXTRA_ALPHAS = (1e-14, 1e-10, 1e-6, 1.0 - 1e-10, 1.0 - 1e-14)
_TOL = side_tolerance(DEFAULT_TOL)

# the worst |value - truth| / (abs_tol + rel_tol |truth|) at the side tolerance
_WORST = {
    "E1": 4.6e-7, "E2": 2.7e-6, "E4": 4.0e-4, "E4alt": 4.0e-4, "E5": 2.6e-6, "E7": 6.5e-7,
    "E9": 3.3e-5, "E10": 2.2e-6, "E10b": 1.5e-6, "E11": 8.8e-6, "E12": 9.3e-6, "E13": 4.1e-6,
    "E13inf": 5.4e-6, "E14": 8.9e-7, "E14inf": 1.1e-4, "E15": 7.6e-7, "E16": 2.5e-6,
    "E18d": 3.9e-6, "E21": 2.9e-6, "E22": 1.6e-6,
}
# the same for closed forms; at most 3.2e-15 absolute (E11, p = 3, beta = 1)
# for the ten whose former bound was 1e-14 absolute. E23's pi^5 errs by 4.0e-14
_CLOSED_WORST = {
    "E1": 4.6e-7, "E2": 3.5e-6, "E4": 5.0e-6, "E4alt": 1.6e-5, "E6": 9.7e-7, "E8": 5.0e-6,
    "E9": 4.4e-6, "E10": 8.7e-6, "E10b": 1.5e-6, "EC6": 8.7e-6, "EC6b": 1.5e-6, "E11": 9.7e-6,
    "E12": 9.2e-6, "E13": 3.0e-7, "E13inf": 3.9e-7, "E14": 8.9e-7, "E14inf": 1.2e-6,
    "E15": 2.5e-6, "E17": 3.9e-6, "E18": 1.8e-5, "E18d": 1.7e-5, "E19": 2.4e-5, "E23": 9.0e-6,
}
_E19_IMAG = 8.9e-16  # the largest |imaginary part| of E19's closed form


def _ids(kind):
    """The ids of the cases with a side made by ``kind``: _quad, _series or _closed."""
    return [i for i, case in registry().items() if kind in (maker(case.lhs), maker(case.rhs))]


def _side(case_id, kind):
    """The case, its one side made by ``kind``, and the side's closure."""
    case = lookup(case_id)
    [side] = [side for side in (case.lhs, case.rhs) if maker(side) == kind]
    return case, side, inspect.getclosurevars(side).nonlocals


def _points(case, half_line=False):
    if not case.continuous:
        return _grid_points(case, 1)  # the discrete values alone, or one point {}
    points = [p for n in (9, 33) for p in _grid_points(case, n) + _grid_points(case, n, ends=True)]
    return points + [{"alpha": a} for a in _EXTRA_ALPHAS] if half_line else points


def _ratio(case_id, point, err):
    return err / (_TOL.abs_tol + _TOL.rel_tol * float(abs(truth(case_id, point))))


@pytest.mark.parametrize("case_id", _ids("_quad"))
def test_every_quadrature_row_lies_within_its_error_estimate(case_id):
    case, _, closure = _side(case_id, "_quad")
    points = _points(case, closure["half_line"])
    integrate = integrate_semi_infinite if closure["half_line"] else integrate_unit
    rows = integrate(Rows(closure["build"], points), _TOL)
    assert rows.converged, case_id
    worst = 0.0
    for point, value, estimate in zip(points, rows.values.tolist(),
                                      rows.error_estimates.tolist()):
        err = error(case_id, point, value)
        assert err <= estimate, (case_id, point, err, estimate)
        worst = max(worst, _ratio(case_id, point, err))
    assert worst <= _WORST[case_id], (case_id, worst)


@pytest.mark.parametrize("case_id", _ids("_series"))
def test_every_series_row_lies_within_its_remainder_bound(case_id):
    # the bound is proven for E5, E6, EC6, EC6b and E21-E23 at p = 1, and an
    # estimate for E7, E8, E16-E19 and E21-E23 at p >= 2. The side's own
    # builder is summed: the factors of E8, E16, E22 and E23 and E18's van
    # Wijngaarden terms included
    case, _, closure = _side(case_id, "_series")
    points = _points(case)
    rows = sum_alternating_accelerated(Rows(closure["build"], points), _TOL)
    assert rows.converged, case_id
    for point, value, bound in zip(points, rows.values.tolist(),
                                   rows.remainder_bounds.tolist()):
        err = error(case_id, point, value)
        assert err <= bound, (case_id, point, err, bound)


@pytest.mark.parametrize("case_id", _ids("_closed"))
def test_every_closed_form_row_is_pinned_against_the_truth(case_id):
    # the registered side's value column; only E19's is complex
    case, side, _ = _side(case_id, "_closed")
    points = _points(case)
    values = [complex(v) for v in side(points, _TOL).value.tolist()]
    worst = max(_ratio(case_id, point, error(case_id, point, value.real))
                for point, value in zip(points, values))
    assert worst <= _CLOSED_WORST[case_id], (case_id, worst)
    assert max(abs(value.imag) for value in values) <= (_E19_IMAG if case_id == "E19" else 0.0)

"""Closed forms against mpmath at 40 digits, at the grid-33 points of their cases,
and E18's series and E18d's integral against the same values up to the ends
of their domain.

Each closed form is recomputed in mpmath from the same exact double
parameter. The worst error measured over all points is 1.8e-15
(``_rhs_lemma_odd``); the bound below is 1e-14 absolute.
"""

import math

import numpy as np
import pytest

from quadident.combinatorics import odd_harmonic
from quadident.ledger import side_tolerance, verify
from quadident.numerics import DEFAULT_TOL
from quadident.quadrature import integrate_unit
from quadident.registry import (
    _odd_harmonic_at,
    _rhs_arcsin,
    _rhs_atan_inf,
    _rhs_atan_inf_alt,
    _rhs_lemma_odd,
    _rhs_lemma_single,
    _rhs_li2_half_diff,
    _rhs_log_inf,
    _spec_dilog_pair,
    lookup,
)
from quadident.specfun import dilog_identity_rhs, eq19_rhs, ramanujan_rhs

mpmath = pytest.importorskip("mpmath")

_ABS_BOUND = 1e-14
_GRID = 33


def _points(case_id):
    return lookup(case_id).continuous[0].points(_GRID)


def _li(p, z):
    return mpmath.polylog(p, z)


def _ramanujan(a):
    w = (1 - a) / (1 + a)
    lw = mpmath.log(w)
    return (mpmath.log(a) * lw**2 / 2 + (_li(2, w) - _li(2, -w)) * lw
            - _li(3, w) + _li(3, -w) + mpmath.mpf(7) / 4 * mpmath.zeta(3))


def _dilog_identity(a):
    w = (1 - a) / (1 + a)
    return -mpmath.log(a) * mpmath.log(w) - _li(2, a) + _li(2, -a) + mpmath.pi**2 / 4


def eq19_rhs_real(alpha):
    return eq19_rhs(alpha).real


def _eq19_real(a):
    ia = mpmath.mpc(0, a)
    w = (1 - ia) / (1 + ia)
    at = mpmath.atan(a)
    value = (_li(3, w) - _li(3, -w)
             - 2j * at * (_li(2, ia) - _li(2, -ia) - mpmath.pi**2 / 4)
             - 2 * (1j * mpmath.pi / 2 + mpmath.log(a)) * at**2
             - mpmath.mpf(7) / 4 * mpmath.zeta(3))
    return mpmath.re(value)


def _lemma_odd(p, b):
    return (-1) ** (p + 1) * math.factorial(p) * (_li(p + 2, b) - _li(p + 2, -b))


def _lemma_single(p, b):
    return (-1) ** (p + 1) * math.factorial(p) * _li(p + 2, b)


_ALPHA_FORMS = [
    ("E2", _rhs_arcsin, lambda a: (_li(2, a) - _li(2, -a)) / 2),
    ("E4", _rhs_atan_inf,
     lambda a: mpmath.log(a) * (mpmath.log(1 - a) - mpmath.log(1 + a))
     + _li(2, a) - _li(2, -a)),
    ("E4alt", _rhs_atan_inf_alt,
     lambda a: mpmath.pi**2 / 3 - mpmath.log(1 + a) ** 2 / 2
     - _li(2, 1 / (1 + a)) - _li(2, 1 - a)),
    ("E9", _rhs_log_inf, lambda a: mpmath.log(a) * mpmath.log(1 - a) + _li(2, a)),
    ("E10", _rhs_li2_half_diff,
     lambda a: _li(2, mpmath.mpf(1) / 2) - _li(2, (1 - a) / 2)),
    ("E18", ramanujan_rhs, _ramanujan),
    ("E18d", dilog_identity_rhs, _dilog_identity),
    ("E19", eq19_rhs_real, _eq19_real),
]


@pytest.mark.parametrize("case_id, form, oracle", _ALPHA_FORMS,
                         ids=[f"{c}-{f.__name__}" for c, f, _ in _ALPHA_FORMS])
def test_alpha_closed_form_against_mpmath(case_id, form, oracle):
    with mpmath.workdps(40):
        worst = max(abs(form(a) - float(oracle(mpmath.mpf(a)))) for a in _points(case_id))
    assert worst <= _ABS_BOUND, worst


@pytest.mark.parametrize("case_id, form, oracle", [
    ("E11", _rhs_lemma_odd, _lemma_odd),
    ("E12", _rhs_lemma_single, _lemma_single),
])
def test_lemma_closed_form_against_mpmath(case_id, form, oracle):
    with mpmath.workdps(40):
        worst = max(abs(form(p, b) - float(oracle(p, mpmath.mpf(b))))
                    for p in range(4) for b in _points(case_id))
    assert worst <= _ABS_BOUND, worst


def test_e18_series_verifies_up_to_the_ends_of_its_domain():
    # summed directly, E18's positive series of ratio alpha^2 would need about
    # 1/(1 - alpha) terms; in van Wijngaarden's alternating form the CVZ sum
    # reads at most 24 terms b_k at every alpha, within 1e-14 of the value
    alphas = (1e-14, 1e-3, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 1e-14, 1 - 2.0**-52)
    outs = verify("E18", points=[{"alpha": a} for a in alphas], tol=DEFAULT_TOL)
    with mpmath.workdps(40):
        for a, o in zip(alphas, outs):
            assert o.passed and o.terms <= 24, o
            assert abs(o.lhs_value - float(_ramanujan(mpmath.mpf(a)))) <= _ABS_BOUND, o


def test_e18d_integral_holds_up_to_the_ends_of_its_domain():
    # E18d's left side integrates (log(1+w x) - log(1-w x))/x, w = (1-a)/(1+a),
    # apart from its closed right side; near x = 1, 1 - w x is gap + w d, which
    # keeps its digits as a -> 0 and w -> 1 (1 - w + w d errs by 3.6e-15 at
    # alpha = 1e-16)
    tol = side_tolerance(DEFAULT_TOL)
    for a in (1e-16, 1e-14, 1e-10, 1e-6, 1e-3, 0.5, 1 - 1e-6, 1 - 1e-12):
        res = integrate_unit(_spec_dilog_pair(a), tol)
        with mpmath.workdps(40):
            w = (1 - mpmath.mpf(a)) / (1 + mpmath.mpf(a))
            exact = float(_li(2, w) - _li(2, -w))
        assert res.converged and res.evaluations <= 257, (a, res)
        assert abs(res.value - exact) <= 2e-15, (a, res.value, exact)


def _ulps(value, exact):
    return abs(value - exact) / math.ulp(exact)


def test_odd_harmonic_at_any_index_is_within_two_ulp():
    # E18's van Wijngaarden terms read h_m at m = 2^j k, far past any prefix:
    # the float prefix below 4096 and the asymptotic expansion from there on
    # must both hold 2 ulp, against exact rationals across the switch and
    # against mpmath's H_2m - H_m/2 up to m = 1e15
    m = np.arange(1, 5001)
    values = _odd_harmonic_at(m.astype(float)).tolist()
    assert max(_ulps(v, float(odd_harmonic(i))) for i, v in zip(m.tolist(), values)) <= 2
    big = [10**e for e in range(4, 16)]
    with mpmath.workdps(40):
        exact = [float(mpmath.harmonic(2 * i) - mpmath.harmonic(i) / 2) for i in big]
    values = _odd_harmonic_at(np.array(big, dtype=float)).tolist()
    assert max(_ulps(v, e) for v, e in zip(values, exact)) <= 2

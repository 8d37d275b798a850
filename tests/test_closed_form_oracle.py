"""Closed forms against mpmath at 40 digits, at the grid-33 points of their cases.

Each closed form is recomputed in mpmath from the same exact double
parameter. The worst error measured over all points is 1.8e-15
(``_rhs_lemma_odd``); the bound below is 1e-14 absolute.
"""

import math

import pytest

from quadident.registry import (
    _lhs_dilog_pair,
    _rhs_arcsin,
    _rhs_atan_inf,
    _rhs_atan_inf_alt,
    _rhs_lemma_odd,
    _rhs_lemma_single,
    _rhs_li2_half_diff,
    _rhs_log_inf,
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
    ("E18d", _lhs_dilog_pair, lambda a: _li(2, (1 - a) / (1 + a)) - _li(2, (a - 1) / (1 + a))),
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

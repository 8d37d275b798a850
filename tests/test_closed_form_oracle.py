"""E18's series and E18d's integral against their identities' exact values
up to the ends of their domain, and E18's odd harmonic numbers at any index
against exact rationals and mpmath."""

import math

import numpy as np
import pytest

from quadident.combinatorics import odd_harmonic
from quadident.ledger import side_tolerance, verify
from quadident.numerics import DEFAULT_TOL
from quadident.quadrature import integrate_unit
from quadident.registry import _odd_harmonic_at, _spec_dilog_pair

mpmath = pytest.importorskip("mpmath")

from _truth import error  # noqa: E402  (needs mpmath)


def test_e18_series_verifies_up_to_the_ends_of_its_domain():
    # summed directly, E18's positive series of ratio alpha^2 would need about
    # 1/(1 - alpha) terms; in van Wijngaarden's alternating form the CVZ sum
    # reads at most 24 terms b_k at every alpha, within 1e-14 of the value
    alphas = (1e-14, 1e-3, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 1e-14, 1 - 2.0**-52)
    outs = verify("E18", points=[{"alpha": a} for a in alphas], tol=DEFAULT_TOL)
    for a, o in zip(alphas, outs):
        assert o.passed and o.terms <= 24, o
        assert error("E18", {"alpha": a}, o.lhs_value) <= 1e-14, o


def test_e18d_integral_holds_up_to_the_ends_of_its_domain():
    # E18d's left side integrates (log(1+w x) - log(1-w x))/x, w = (1-a)/(1+a),
    # apart from its closed right side; near x = 1, 1 - w x is gap + w d, which
    # keeps its digits as a -> 0 and w -> 1 (1 - w + w d errs by 3.6e-15 at
    # alpha = 1e-16)
    tol = side_tolerance(DEFAULT_TOL)
    for a in (1e-16, 1e-14, 1e-10, 1e-6, 1e-3, 0.5, 1 - 1e-6, 1 - 1e-12):
        res = integrate_unit(_spec_dilog_pair(a), tol)
        assert res.converged and res.evaluations <= 257, (a, res)
        assert error("E18d", {"alpha": a}, res.value) <= 2e-15, (a, res.value)


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

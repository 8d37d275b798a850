"""Tolerance policy, compensated summation, and constants re-derived by oracles."""

import math
import random

import pytest

from quadident.numerics import CONSTANTS, NeumaierSum, Tolerance


# ---------------------------------------------------------------------------
# Tolerance
# ---------------------------------------------------------------------------

def test_tolerance_pass_predicate():
    tol = Tolerance(1e-10, 1e-10)
    for a in (0.0, 1.0, -3.5, 1e300, 1e-300):
        assert tol.passes(a, a)
    assert tol.passes(1.0, 1.0 + 5e-11)
    assert not tol.passes(1.0, 1.0 + 5e-10)
    assert not tol.passes(float("nan"), 0.0)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(0.0, 0.0)
    with pytest.raises(ValueError):
        Tolerance(-1e-10, 1e-10)
    with pytest.raises(ValueError):
        Tolerance(1e-10, 1e-10, max_work=0)
    Tolerance(1e-7, 0.0)  # absolute-only is allowed


# ---------------------------------------------------------------------------
# Compensated summation
# ---------------------------------------------------------------------------

def test_neumaier_stream_matches_fsum():
    rng = random.Random(7)
    terms = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(2000)]
    acc = NeumaierSum()
    for t in terms:
        acc.add(t)
    assert abs(acc.value - math.fsum(terms)) <= 4e-16 * sum(map(abs, terms))


# ---------------------------------------------------------------------------
# Constants: each literal re-derived by an independent oracle
# ---------------------------------------------------------------------------

def _machin_pi() -> float:
    # 16 arctan(1/5) - 4 arctan(1/239), arctan by its power series
    def arctan_series(x: float, terms: int) -> float:
        return math.fsum(
            (-1.0) ** k * x ** (2 * k + 1) / (2 * k + 1) for k in range(terms)
        )

    return 16.0 * arctan_series(0.2, 30) - 4.0 * arctan_series(1.0 / 239.0, 12)


def test_pi_literal():
    oracle = _machin_pi()
    assert abs(CONSTANTS.pi - oracle) <= 1e-15 * CONSTANTS.pi
    assert CONSTANTS.pi == math.pi


def test_log2_literal():
    oracle = math.fsum(1.0 / (n * 2.0**n) for n in range(1, 60))
    assert abs(CONSTANTS.log2 - oracle) <= 1e-15 * CONSTANTS.log2


def test_zeta2_literal():
    n_cut = 10**4
    head = math.fsum(1.0 / n**2 for n in range(1, n_cut + 1))
    # Euler-Maclaurin tail: 1/N - 1/(2N^2) + 1/(6N^3)
    oracle = head + 1.0 / n_cut - 0.5 / n_cut**2 + 1.0 / (6.0 * n_cut**3)
    assert abs(CONSTANTS.zeta2 - oracle) <= 1e-15 * CONSTANTS.zeta2


def test_zeta3_literal():
    n_cut = 10**4
    head = math.fsum(1.0 / n**3 for n in range(1, n_cut + 1))
    # tail correction 1/(2N^2) - 1/(2N^3) + 1/(4N^4)
    oracle = head + 0.5 / n_cut**2 - 0.5 / n_cut**3 + 0.25 / n_cut**4
    assert abs(CONSTANTS.zeta3 - oracle) <= 1e-15 * CONSTANTS.zeta3
    assert abs(CONSTANTS.zeta3 - 1.2020569031595942854) <= 4e-16


def test_catalan_literal():
    # Euler transform (iterated averaging) of sum (-1)^n/(2n+1)^2
    partials = []
    acc = 0.0
    for n in range(72):
        acc += (-1.0) ** n / (2 * n + 1) ** 2
        partials.append(acc)
    s = partials
    while len(s) >= 2:
        s = [0.5 * (a + b) for a, b in zip(s[:-1], s[1:])]
    oracle = s[0]
    assert abs(CONSTANTS.catalan - oracle) <= 1e-15 * CONSTANTS.catalan
    assert abs(CONSTANTS.catalan - 0.9159655941772190151) <= 4e-16


def test_constants_cross_relations():
    assert 16.0 * (CONSTANTS.pi**2 / 16.0) == CONSTANTS.pi**2
    assert abs(CONSTANTS.zeta2 - CONSTANTS.pi**2 / 6.0) <= math.ulp(CONSTANTS.zeta2)
    assert abs(CONSTANTS.pi**2 / 16.0 - 0.61685027506808491) <= 4e-16

"""Tolerance policy, compensated summation, and constants re-derived by oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadident.numerics import CONSTANTS, Tolerance, neumaier_prefix

from _neumaier import NeumaierSum
from _oracles import margin, passes


# ---------------------------------------------------------------------------
# Tolerance
# ---------------------------------------------------------------------------

def test_tolerance_pass_predicate():
    # the pass rule over the margin, as the tests' scalar judge reads it
    tol = Tolerance(1e-10, 1e-10)
    for a in (0.0, 1.0, -3.5, 1e300, 1e-300):
        assert passes(tol, a, a)
    assert margin(tol, 1.0, -3.5) == 1e-10 + 1e-10 * 3.5
    assert passes(tol, 1.0, 1.0 + 5e-11)
    assert not passes(tol, 1.0, 1.0 + 5e-10)
    assert not passes(tol, float("nan"), 0.0)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(a=_FINITE, b=_FINITE, abs_tol=st.floats(0.0, 1e3), rel_tol=st.floats(1e-16, 1.0))
def test_tolerance_passes_is_symmetric(a, b, abs_tol, rel_tol):
    tol = Tolerance(abs_tol, rel_tol)
    assert passes(tol, a, b) == passes(tol, b, a)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(0.0, 0.0)
    with pytest.raises(ValueError):
        Tolerance(-1e-10, 1e-10)
    with pytest.raises(ValueError):
        Tolerance(1e-10, 1e-10, max_work=0)
    # an infinite tolerance passes every finite difference, and a NaN one
    # fails every comparison after summing to max_work
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Tolerance(bad, 1e-10)
        with pytest.raises(ValueError, match="finite"):
            Tolerance(1e-10, bad)
    # a NaN cap never stops a sum, and a float or bool one is not a count
    for bad in (math.nan, math.inf, -math.inf, 2.5, 5.0, True, False, -3):
        with pytest.raises(ValueError, match="max_work must be a positive integer"):
            Tolerance(1e-10, 1e-10, bad)
    Tolerance(1e-10, 1e-10, np.int64(7))
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


# terms spread over 120 binades, each followed later by its near-negative, so
# the running sums cancel heavily and every addition order rounds differently
_SPREAD = st.builds(lambda m, e: m * 2.0 ** e,
                    st.floats(-1.0, 1.0, allow_nan=False), st.integers(-60, 60))


@st.composite
def _cancelling_rows(draw):
    width = draw(st.integers(1, 24))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        head = draw(st.lists(_SPREAD, min_size=width, max_size=width))
        nudge = draw(st.lists(_SPREAD, min_size=width, max_size=width))
        rows.append(head + [-t + 1e-9 * d for t, d in zip(reversed(head), nudge)])
    return rows


@settings(deadline=None, max_examples=150)
@given(rows=_cancelling_rows(), split=st.integers(0, 48))
def test_neumaier_prefix_is_the_streaming_sum(rows, split):
    # every prefix of every row, computed in two chunks (the second seeded
    # with the first's last sum and compensation), equals NeumaierSum fed the
    # same terms one by one, bit for bit
    terms = np.array(rows)
    s, c = np.zeros(len(rows)), np.zeros(len(rows))
    sums, comps = [], []
    for part in (terms[:, :split], terms[:, split:]):
        part_sums, part_comps = neumaier_prefix(s, c, part)
        sums.append(part_sums)
        comps.append(part_comps)
        if part.shape[1]:
            s, c = part_sums[:, -1], part_comps[:, -1]
    sums, comps = np.concatenate(sums, axis=1), np.concatenate(comps, axis=1)
    for i, row in enumerate(rows):
        acc = NeumaierSum()
        for j, t in enumerate(row):
            acc.add(t)
            assert (sums[i, j], comps[i, j]) == (acc._s, acc._c), (i, j)
            assert sums[i, j] + comps[i, j] == acc.value


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

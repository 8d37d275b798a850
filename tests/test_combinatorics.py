"""Exact combinatorics: harmonic sums, Stirling/Lah numbers, arctan-power
coefficients, and the power-series oracle that cross-checks them."""

import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadident import combinatorics
from quadident.combinatorics import (
    RationalPowerSeries,
    arctan_power_coeff,
    arctan_series,
    lah,
    leibniz_partial_float,
    odd_harmonic,
    odd_harmonic_float,
    series_pow,
    skew_harmonic,
    skew_harmonic_float,
    stirling_first,
)
from quadident.numerics import neumaier_prefix

from _arctan_oracles import arctan_power_coeff_lah, arctan_power_coeff_stirling
from _neumaier import NeumaierSum
from _oracles import leibniz_partial


# ---------------------------------------------------------------------------
# Harmonic-type prefix sums
# ---------------------------------------------------------------------------

def test_skew_harmonic_values():
    assert skew_harmonic(0) == 0
    assert skew_harmonic(2) == Fraction(1, 2)
    assert skew_harmonic(3) == Fraction(5, 6)


def test_skew_harmonic_difference():
    for n in range(1, 81):
        step = skew_harmonic(n) - skew_harmonic(n - 1)
        assert step == Fraction((-1) ** (n - 1), n)


def test_odd_harmonic_values():
    assert odd_harmonic(0) == 0
    assert odd_harmonic(2) == Fraction(4, 3)
    assert odd_harmonic(3) == Fraction(23, 15)


def test_odd_harmonic_vs_ordinary():
    # h_n = H_{2n} - H_n / 2, exactly
    def harmonic(m):
        return sum((Fraction(1, k) for k in range(1, m + 1)), Fraction(0))

    for n in range(1, 41):
        assert odd_harmonic(n) == harmonic(2 * n) - harmonic(n) / 2


def test_leibniz_partial_values():
    assert leibniz_partial(0) == 0
    assert leibniz_partial(1) == 1
    assert leibniz_partial(2) == Fraction(2, 3)
    assert leibniz_partial(3) == Fraction(13, 15)


def test_float_streams_match_exact():
    for n in (1, 2, 10, 100, 317):
        assert math.isclose(skew_harmonic_float(n), float(skew_harmonic(n)),
                            rel_tol=0, abs_tol=1e-15)
        assert math.isclose(odd_harmonic_float(n), float(odd_harmonic(n)),
                            rel_tol=1e-15)
        assert math.isclose(leibniz_partial_float(n), float(leibniz_partial(n)),
                            rel_tol=0, abs_tol=1e-15)


# each float prefix's module cache, and its terms as the term-by-term
# accumulator adds them
_FLOAT_PREFIXES = [
    (skew_harmonic_float, "_SKEW_F", lambda k: (1.0 if k % 2 else -1.0) / k),
    (odd_harmonic_float, "_ODD_F", lambda k: 1.0 / (2 * k - 1)),
    (leibniz_partial_float, "_LEIBNIZ_F", lambda k: (1.0 if k % 2 else -1.0) / (2 * k - 1)),
]
_PREFIX_IDS = [accessor.__name__ for accessor, _, _ in _FLOAT_PREFIXES]


def _fresh_prefix(monkeypatch, cache, step=None):
    """An empty prefix in place of the module's cache, growing by ``step``
    (by default the cache's own)."""
    prefix = combinatorics._FloatPrefix(step or getattr(combinatorics, cache)._step)
    monkeypatch.setattr(combinatorics, cache, prefix)


@pytest.mark.parametrize("accessor, cache, term", _FLOAT_PREFIXES, ids=_PREFIX_IDS)
def test_float_prefixes_are_the_streaming_sums(monkeypatch, accessor, cache, term):
    # every value up to 10^5 is bit for bit the term-by-term accumulator's,
    # whether the prefix grows to the last index in one call or one index at
    # a time, across each block boundary
    n = 10**5
    acc, expected = NeumaierSum(), [0.0]
    for k in range(1, n + 1):
        acc.add(term(k))
        expected.append(acc.value)
    _fresh_prefix(monkeypatch, cache)
    accessor(n)
    assert [accessor(k) for k in range(n + 1)] == expected
    _fresh_prefix(monkeypatch, cache)
    assert [accessor(k) for k in range(n + 1)] == expected
    # an integer array reads the same doubles: from a fresh prefix, from one
    # grown to the last index, and across a block boundary from one that
    # holds only the indices below it
    indices = np.arange(n + 1)
    _fresh_prefix(monkeypatch, cache)
    assert accessor(indices).tolist() == expected
    assert accessor(indices).tolist() == expected
    _fresh_prefix(monkeypatch, cache)
    accessor(1)
    held = len(getattr(combinatorics, cache)._vals)  # index 0 and the first block
    assert held == 1 + combinatorics._BLOCK
    assert accessor(indices[held - 3:held + 3]).tolist() == expected[held - 3:held + 3]
    assert accessor(indices[::-1][:5]).tolist() == expected[::-1][:5]


def test_float_prefix_grows_geometrically(monkeypatch):
    # reading a prefix in chunks of 4096 indices up to 800k grows it in a few
    # calls of neumaier_prefix, each to about twice its length, not one call
    # per 1024 values; the values are one single read's, bit for bit
    calls = []

    def counted(s, c, terms):
        calls.append(terms.shape[1])
        return neumaier_prefix(s, c, terms)

    step = combinatorics._ODD_F._step
    indices = np.arange(800_001)
    expected = combinatorics._FloatPrefix(step).value(indices)
    prefix = combinatorics._FloatPrefix(step)
    monkeypatch.setattr(combinatorics, "neumaier_prefix", counted)
    chunks = [prefix.value(indices[i:i + 4096]) for i in range(0, len(indices), 4096)]
    assert len(calls) < 20, calls
    assert np.concatenate(chunks).tobytes() == expected.tobytes()


def test_negative_index_rejected():
    for fn in (skew_harmonic, odd_harmonic,
               skew_harmonic_float, odd_harmonic_float, leibniz_partial_float):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(-1)
    # an array with a negative index raises too, where numpy indexing would
    # read from the end of the stored values
    for fn in (skew_harmonic_float, odd_harmonic_float, leibniz_partial_float):
        fn(10)
        for indices in ([-1], [3, -1, 5], [-2000]):
            with pytest.raises(ValueError, match="nonnegative"):
                fn(np.array(indices))
        assert fn(np.array([], dtype=int)).tolist() == []


# ---------------------------------------------------------------------------
# Stirling and Lah numbers
# ---------------------------------------------------------------------------

def test_stirling_base_and_small_values():
    assert stirling_first(0, 0) == 1
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert stirling_first(3, 2) == -3
    assert stirling_first(3, 1) == 2
    assert stirling_first(4, 2) == 11
    assert stirling_first(2, 5) == 0
    with pytest.raises(ValueError):
        stirling_first(-1, 0)


def test_stirling_row_sums():
    for k in range(2, 26):
        row = [stirling_first(k, p) for p in range(k + 1)]
        assert sum(row) == 0
        assert sum(abs(v) for v in row) == math.factorial(k)


def test_stirling_matches_falling_factorial():
    # s(k, p) is the coefficient of x^p in x (x-1) ... (x-k+1): every p for
    # k <= 40, and the low columns at k = 430, as deep as the arctan oracle
    poly = [1]  # coefficients of the falling factorial of degree k, from x^0
    for k in range(431):
        if k <= 40:
            assert [stirling_first(k, p) for p in range(k + 1)] == poly, k
        if k == 430:
            assert [stirling_first(k, p) for p in range(9)] == poly[:9]
        # multiply by (x - k)
        poly = [(poly[p - 1] if p else 0) - k * (poly[p] if p <= k else 0)
                for p in range(k + 2)]


def test_lah_values_and_recurrence():
    assert lah(1, 1) == 1
    assert lah(3, 2) == 6
    assert lah(4, 1) == 24
    # closed form equals L(n+1,k) = L(n,k-1) + (n+k) L(n,k)
    for n in range(1, 21):
        for k in range(1, n + 1):
            recur = (lah(n, k - 1) if k > 1 else 0) + (n + k) * lah(n, k)
            assert lah(n + 1, k) == recur
    with pytest.raises(ValueError):
        lah(3, 4)
    with pytest.raises(ValueError):
        lah(3, 0)


# ---------------------------------------------------------------------------
# Arctan-power coefficients
# ---------------------------------------------------------------------------

def test_arctan_power_coeff_values():
    assert arctan_power_coeff(1, 2) == 0  # n < p
    assert arctan_power_coeff(4, 2) == Fraction(-2, 3)
    assert arctan_power_coeff(6, 2) == Fraction(23, 45)


def test_arctan_power_coeff_parity_zeros():
    for p in range(1, 6):
        for n in range(1, 25):
            if n < p or (n - p) % 2:
                assert arctan_power_coeff(n, p) == 0


def test_arctan_power_oracle_equivalence():
    # closed form == power-series route, exactly, for 1 <= p <= 6, n <= 30
    base = arctan_series(30)
    for p in range(1, 7):
        powered = series_pow(base, p)
        for n in range(1, 31):
            expected = powered.coefficient(n)
            assert arctan_power_coeff(n, p) == expected
            assert arctan_power_coeff_lah(n, p) == expected


def test_arctan_power_recurrence_matches_stirling_sum():
    # every nonzero A(n, p) a grid-33 pass reads (p <= 4, n <= 430), and
    # higher powers to n = 119, against the closed-form sum, exactly
    pairs = [(n, p) for p in range(1, 5) for n in range(p, 431, 2)]
    pairs += [(n, p) for p in range(5, 9) for n in range(p, 120, 2)]
    for n, p in pairs:
        assert arctan_power_coeff(n, p) == arctan_power_coeff_stirling(n, p), (n, p)


@settings(deadline=None, max_examples=60)
@given(p=st.integers(1, 4), q=st.integers(1, 4), n=st.integers(1, 60))
def test_arctan_power_cauchy_product(p, q, n):
    # arctan^(p+q) = arctan^p * arctan^q, coefficient by coefficient
    product = sum(
        (arctan_power_coeff(k, p) * arctan_power_coeff(n - k, q) for k in range(1, n)),
        Fraction(0),
    )
    assert arctan_power_coeff(n, p + q) == product


def _fill_in_threads(table, orders):
    """Request ``table(*pair)`` for every pair of each order from its own
    thread; a thread still running after the timeout fails the test instead
    of hanging it."""
    results = [{} for _ in orders]
    errors = []
    start = threading.Barrier(len(orders))

    def work(order, out):
        try:
            start.wait()
            for pair in order:
                out[pair] = table(*pair)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(order, out), daemon=True)
               for order, out in zip(orders, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "column growth deadlocked"
    assert errors == []
    return results


@pytest.mark.parametrize(
    "cache, step, table",
    [("_ATAN_COLUMNS", "_atan_step", arctan_power_coeff),
     ("_STIRLING_COLUMNS", "_stirling_step", stirling_first)],
    ids=["arctan", "stirling"],
)
def test_columns_grow_safely_across_threads(monkeypatch, cache, step, table):
    # every step offers the interpreter lock to another thread, so an append
    # left unguarded races even where a step is one fast integer operation
    exact_step = getattr(combinatorics, step)

    def yielding_step(*args):
        time.sleep(0)
        return exact_step(*args)

    monkeypatch.setattr(combinatorics, step, yielding_step)
    by_power = [(n, p) for p in range(1, 5) for n in range(p, 201)]
    by_index = sorted(by_power)
    monkeypatch.setattr(combinatorics, cache, {})
    [expected] = _fill_in_threads(table, [by_power])
    # four overlapping request orders; the two descending ones both grow
    # every column from the top at once. An unguarded append shows up in
    # most rounds, so ten rounds leave little chance of missing one.
    orders = [by_index, by_index[::-1], by_power, by_power[::-1]]
    for _ in range(10):
        monkeypatch.setattr(combinatorics, cache, {})
        for out in _fill_in_threads(table, orders):
            assert out == expected


@pytest.mark.parametrize("accessor, cache", [prefix[:2] for prefix in _FLOAT_PREFIXES],
                         ids=_PREFIX_IDS)
def test_float_prefixes_grow_safely_across_threads(monkeypatch, accessor, cache):
    # threads that grow one prefix to different indices at once each read
    # the single-thread values, bit for bit; each block's terms offer the
    # interpreter lock to another thread, so a block left unguarded races
    exact_step = getattr(combinatorics, cache)._step

    def yielding_step(k):
        time.sleep(0)
        return exact_step(k)

    top = 5 * combinatorics._BLOCK
    _fresh_prefix(monkeypatch, cache)
    expected = {(n,): accessor(n) for n in range(top)}
    orders = [[(n,) for n in range(top)], [(n,) for n in range(top - 1, -1, -1)],
              [(n,) for n in range(0, top, 997)], [(n,) for n in range(top - 1, 0, -1500)]]
    for _ in range(10):
        _fresh_prefix(monkeypatch, cache, yielding_step)
        for order, out in zip(orders, _fill_in_threads(accessor, orders)):
            assert out == {pair: expected[pair] for pair in order}


def test_arctan_power_squared_is_odd_harmonic():
    for n in range(1, 16):
        assert arctan_power_coeff(2 * n, 2) == Fraction((-1) ** (n - 1)) * odd_harmonic(n) / n


def test_arctan_power_coeff_validation():
    with pytest.raises(ValueError):
        arctan_power_coeff(0, 1)
    with pytest.raises(ValueError):
        arctan_power_coeff(3, 0)


# ---------------------------------------------------------------------------
# Rational power series
# ---------------------------------------------------------------------------

def test_series_pow_binomial():
    one_plus_x = RationalPowerSeries((Fraction(1), Fraction(1), Fraction(0)))
    sq = series_pow(one_plus_x, 2)
    assert sq.coefficients == (Fraction(1), Fraction(2), Fraction(1))


def test_series_pow_arctan_square():
    sq = series_pow(arctan_series(6), 2)
    assert sq.coefficient(2) == 1
    assert sq.coefficient(4) == Fraction(-2, 3)
    assert sq.coefficient(6) == Fraction(23, 45)
    assert sq.coefficient(3) == 0


def test_series_pow_identity():
    f = RationalPowerSeries((Fraction(2), Fraction(-1, 3), Fraction(5, 7)))
    assert series_pow(f, 1) == f


def test_product_truncates_to_smaller_order():
    f = arctan_series(8)
    g = arctan_series(4)
    assert (f * g).order == 4


def test_arctan_series_layout():
    s = arctan_series(5)
    assert s.coefficients[1] == 1
    assert s.coefficients[3] == Fraction(-1, 3)
    assert s.coefficients[5] == Fraction(1, 5)
    assert s.coefficients[2] == s.coefficients[4] == 0
    assert arctan_series(4).coefficient(4) == 0
    with pytest.raises(IndexError):
        s.coefficient(6)
    with pytest.raises(ValueError):
        arctan_series(0)

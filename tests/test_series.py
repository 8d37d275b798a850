"""Series engine: remainder bounds, CVZ acceleration, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadident.combinatorics import arctan_power_coeff, odd_harmonic_float, skew_harmonic_float
from quadident.numerics import CONSTANTS, Rows, Tolerance
from quadident.series import (
    NonFiniteTermError,
    SignPatternError,
    TermGenerator,
    sum_alternating_accelerated,
    sum_direct,
    sum_eq8,
)

from _neumaier import NeumaierSum

PI = CONSTANTS.pi
LOG2 = CONSTANTS.log2
G = CONSTANTS.catalan
Z3 = CONSTANTS.zeta3


def _gen(term, first=0, **kw):
    """A generator from a function of one index."""
    return TermGenerator(lambda n0, n1: [term(n) for n in range(n0, n1)], first, **kw)


def _alt_harmonic_gen():
    return _gen(lambda n: (-1.0) ** n / (n + 1.0))


def _skew_odd_gen():
    # terms of pi^2/16 = sum (log2 - H_n^-)/(2n+1)
    return _gen(lambda n: (LOG2 - skew_harmonic_float(n)) / (2 * n + 1))


# ---------------------------------------------------------------------------
# Direct summation
# ---------------------------------------------------------------------------

def test_direct_geometric_series():
    # sum_{n>=1} (-alpha^2)^n at alpha = 0.5 is -1/5
    r = -0.25
    g = _gen(lambda n: r**n, 1)
    res = sum_direct(g, Tolerance(1e-12, 0.0, 10**4))
    assert res.converged
    assert abs(res.value + 0.2) <= res.remainder_bound


def test_direct_cross_module_against_quadrature():
    # the skew-harmonic series at alpha = 1/2 equals 2 int_0^1 arctan(x/2)/(1+x^2)
    import numpy as np

    from quadident.quadrature import IntegrandSpec, integrate_unit

    def term(n):
        return (LOG2 - skew_harmonic_float(n)) * 0.5 ** (2 * n + 1) / (2 * n + 1)

    res = sum_direct(_gen(term), Tolerance(1e-12, 0.0))
    oracle = integrate_unit(
        IntegrandSpec(lambda x: 2.0 * np.arctan(0.5 * x) / (1.0 + x * x)),
        Tolerance(1e-13, 1e-13),
    )
    assert abs(res.value - oracle.value) <= 1e-11


def test_direct_alternating_bound_is_valid():
    # truncation error of the alternating harmonic series never exceeds the
    # first omitted term, for every cutoff up to 10^4
    n = np.arange(0.0, 10_001.0)
    terms = (-1.0) ** n / (n + 1.0)
    partials = np.cumsum(terms)
    errors = np.abs(partials - LOG2)
    assert np.all(errors[:-1] <= np.abs(terms[1:]) + 1e-15)


def test_direct_not_converged_flag():
    g = _gen(lambda n: (-1.0) ** n / (n + 1.0) ** 2)
    res = sum_direct(g, Tolerance(1e-12, 0.0, max_work=50))
    assert not res.converged
    assert res.terms_used == 50


def _bits(res):
    return (res.value.hex(), res.terms_used, res.remainder_bound.hex(), res.converged)


def _row_bits(res):
    """``_bits`` of each row of a ``SummationRows``."""
    return [(v.hex(), n, b.hex(), ok) for v, n, b, ok in zip(
        res.values.tolist(), res.work.tolist(), res.remainder_bounds.tolist(),
        res.row_converged.tolist())]


@pytest.mark.parametrize("poison", ["nan", "same_sign"])
def test_terms_past_every_stop_are_never_read(poison):
    # a sum that stops after u terms reads terms 0..u (term u is the first
    # omitted one); anything the chunked driver computes beyond that must not
    # reach a value, a bound or the alternation check
    from quadident.registry import _gen_skew_odd_denom

    tol = Tolerance(2.5e-11, 2.5e-11)
    used = []
    for alpha in (k / 10.0 for k in range(1, 10)):
        g = _gen_skew_odd_denom(alpha)
        clean = sum_direct(g, tol)
        used.append(clean.terms_used)

        def terms(n0, n1, g=g, last=clean.terms_used):
            t = g.terms(n0, n1)
            past = np.arange(n0, n1) > last
            return np.where(past, np.nan if poison == "nan" else np.abs(t), t)

        assert _bits(sum_direct(g._replace(terms=terms), tol)) == _bits(clean), alpha
    assert max(used) > 32  # some sum reads past the first chunk


def test_non_finite_term_fails_fast_in_one_chunk():
    # a NaN term makes the value and the bound NaN, so no stop test can pass:
    # without the check the sum would run to tol.max_work (2,000,000 terms).
    # A generator of scalar parameters and one of a (1, 1) column both raise
    calls = []

    def build(alpha):
        def terms(n0, n1):
            calls.append((n0, n1))
            n = np.arange(n0, n1)
            return np.where(n == 3, np.nan, (-alpha) ** n)

        return TermGenerator(terms, 0, name="geometric series")

    for alpha in (0.5, np.array([[0.5]])):
        calls.clear()
        with pytest.raises(NonFiniteTermError,
                           match=r"index 3 of geometric series is not finite \(nan\)"):
            sum_direct(build(alpha))
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Accelerated (CVZ) summation
# ---------------------------------------------------------------------------

_KNOWN_ALTERNATING = {
    "log 2": (lambda n: (-1.0) ** n / (n + 1.0), LOG2),
    "pi/4": (lambda n: (-1.0) ** n / (2 * n + 1.0), PI / 4.0),
    "eta(2)": (lambda n: (-1.0) ** n / (n + 1.0) ** 2, PI * PI / 12.0),
}


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(_KNOWN_ALTERNATING)),
       scale=st.floats(1e-3, 1e3), shift=st.integers(0, 30),
       digits=st.sampled_from([10, 12]))
def test_accelerated_sum_of_known_alternating_series(name, scale, shift, digits):
    # sum_{n>=shift} scale a_n = scale (S - sum_{n<shift} a_n) for the
    # alternating series of log 2, pi/4 and eta(2) = pi^2/12
    term, total = _KNOWN_ALTERNATING[name]
    g = _gen(lambda n: scale * term(n), first=shift)
    truth = scale * (total - math.fsum(term(n) for n in range(shift)))
    tol = Tolerance(10.0 ** -digits * scale, 0.0)
    res = sum_alternating_accelerated(g, tol)
    assert res.converged
    assert abs(res.value - truth) <= tol.abs_tol
    # the term magnitudes are moment sequences, so the bound is proven
    assert abs(res.value - truth) <= res.remainder_bound


def test_proven_term_classes_are_completely_monotone():
    # the accelerated sum's bound is proven when the term magnitudes a_k are a
    # Hausdorff moment sequence, that is completely monotone:
    # (-1)^j Delta^j a_k >= 0 for all j and k. Check every class its docstring
    # calls proven, as used by the tests above and by E5, E6, EC6, EC6b and
    # E21-E23 at p = 1, on the first 40 terms and every difference order, at
    # 80 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        log2 = mpmath.log(2)
        skew = [mpmath.mpf(0)]
        for k in range(1, 40):
            skew.append(skew[-1] + mpmath.mpf((-1) ** (k - 1)) / k)
        # int_0^1 x^k/(1+x) dx, which is also incomplete_beta(k + 1)
        gap = [abs(log2 - h) for h in skew]
        classes = {
            "log 2": lambda k: 1 / mpmath.mpf(k + 1),
            "pi/4": lambda k: 1 / mpmath.mpf(2 * k + 1),
            "eta(2)": lambda k: 1 / mpmath.mpf(k + 1) ** 2,
            "E6": lambda k: gap[k] / (2 * k + 1),
            "EC6b": lambda k: gap[k] / (k + 1),
        }
        # |A(2k+1, 1)|, the arctangent's coefficients; beta((n+1)/2) at
        # n = 2k + 1 is gap[k]
        atan = [abs(mpmath.mpf(c.numerator) / c.denominator)
                for c in (arctan_power_coeff(2 * k + 1, 1) for k in range(40))]
        for alpha in (mpmath.mpf("0.5"), mpmath.mpf("0.99"), mpmath.mpf(1)):
            classes |= {
                ("E5", alpha): lambda k, a=alpha: gap[k] * a ** (2 * k + 1) / (2 * k + 1),
                ("EC6", alpha): lambda k, a=alpha: gap[k] * a ** (k + 1) / (k + 1),
                ("E21 p=1", alpha): lambda k, a=alpha: atan[k] * a ** (2 * k + 1) / (2 * k + 1),
                ("E22 p=1", alpha): lambda k, a=alpha: atan[k] * gap[k] * a ** (2 * k + 1),
            }
        for name, a in classes.items():
            row = [a(k) for k in range(40)]
            for order in range(40):
                assert all(v > 0 for v in row), (name, order)
                row = [x - y for x, y in zip(row, row[1:])]


def test_accelerated_rows_equal_one_row_runs():
    # rows whose first terms differ take different n; each row still carries
    # the bits of the one-row run of its scalar-parameter generator
    from quadident.registry import _gen_atan_pow_beta, _gen_skew_odd_denom

    values = (1e-3, 0.3, 0.99, 1.0)
    tol = Tolerance(1e-12, 0.0)
    for build in (_gen_skew_odd_denom, lambda alpha: _gen_atan_pow_beta(alpha, 3)):
        rows = sum_alternating_accelerated(Rows(build, [{"alpha": v} for v in values]), tol)
        assert len(set(rows.work.tolist())) > 1
        assert _row_bits(rows) == [
            _bits(sum_alternating_accelerated(build(value), tol)) for value in values]


def test_accelerated_log2_under_100_terms():
    res = sum_alternating_accelerated(_alt_harmonic_gen(), Tolerance(1e-12, 0.0))
    assert res.converged
    assert res.terms_used <= 100
    assert abs(res.value - LOG2) <= 1e-12


def test_accelerated_pi_squared_over_16():
    res = sum_alternating_accelerated(_skew_odd_gen(), Tolerance(1e-10, 1e-10))
    assert res.converged
    assert res.terms_used <= 10**5
    assert abs(res.value - PI**2 / 16.0) <= 1e-10
    assert abs(res.value - PI**2 / 16.0) <= res.remainder_bound


def test_accelerated_catalan_zeta3_combination():
    g = _gen(lambda n: (-1.0) ** (n - 1) * odd_harmonic_float(n) / n**2, 1)
    res = sum_alternating_accelerated(g, Tolerance(1e-10, 1e-10))
    assert res.converged
    assert abs(res.value - (PI * G - 1.75 * Z3)) <= 1e-10


def test_acceleration_consistent_with_direct():
    # both methods must agree within the sum of their remainder bounds
    for alpha in (0.5, 0.75):
        def term(n, a=alpha):
            return (LOG2 - skew_harmonic_float(n)) * a ** (2 * n + 1) / (2 * n + 1)

        g = _gen(term)
        direct = sum_direct(g, Tolerance(1e-12, 0.0))
        accel = sum_alternating_accelerated(g, Tolerance(1e-12, 0.0))
        assert abs(direct.value - accel.value) <= (
            direct.remainder_bound + accel.remainder_bound
        )


def test_acceleration_consistent_across_registry_series():
    # every alternating series generator the registry uses, sampled over its
    # grid: direct and accelerated summation agree within their bounds
    from quadident.registry import (
        _gen_alt_odd_harmonic_sq,
        _gen_atan_pow_beta,
        _gen_atan_pow_over_n,
        _gen_odd_harmonic_leibniz,
        _gen_skew_linear_denom,
        _gen_skew_odd_denom,
    )

    generators = []
    for alpha in (0.25, 0.5, 0.75):
        generators.append(_gen_skew_odd_denom(alpha))
        generators.append(_gen_skew_linear_denom(alpha))
        generators.append(_gen_odd_harmonic_leibniz(alpha))
        generators.append(_gen_alt_odd_harmonic_sq(alpha))
    for p in (1, 2, 3, 4):
        generators.append(_gen_atan_pow_over_n(0.5, p))
        generators.append(_gen_atan_pow_beta(0.8, p))

    tol = Tolerance(1e-11, 0.0)
    for g in generators:
        direct = sum_direct(g, tol)
        accel = sum_alternating_accelerated(g, tol)
        assert direct.converged and accel.converged, g.name
        assert abs(direct.value - accel.value) <= (
            direct.remainder_bound + accel.remainder_bound
        ), g.name


def euler_diagonal_estimates(partial_sums) -> np.ndarray:
    """Iterated-averaging estimates: entry k is the last element after k
    pairwise-averaging passes over the partial sums (entry 0 is the plain
    partial sum)."""
    s = np.asarray(partial_sums, dtype=float)
    out = [s[-1]]
    while len(s) >= 2:
        s = 0.5 * (s[:-1] + s[1:])
        out.append(s[-1])
    return np.array(out)


def test_monotone_improvement_with_averaging_depth():
    # each extra averaging pass improves the estimate, up to stabilization
    terms = [(LOG2 - skew_harmonic_float(n)) / (2 * n + 1) for n in range(256)]
    acc = NeumaierSum()
    partials = []
    for t in terms:
        acc.add(t)
        partials.append(acc.value)
    estimates = euler_diagonal_estimates(partials)
    errors = np.abs(estimates - PI**2 / 16.0)
    best = int(np.argmin(errors))
    assert best >= 3
    assert all(errors[k + 1] < errors[k] for k in range(best))


def test_scaling_is_exact():
    # scaling terms by a power of two scales the value and bound exactly
    scale = 0.5
    g = _skew_odd_gen()
    gs = TermGenerator(lambda n0, n1: scale * np.asarray(g.terms(n0, n1)), 0)
    tol = Tolerance(1e-10, 0.0)
    res = sum_alternating_accelerated(g, tol)
    res_s = sum_alternating_accelerated(
        gs, Tolerance(scale * tol.abs_tol, 0.0, tol.max_work)
    )
    assert res_s.value == scale * res.value
    assert res_s.remainder_bound == scale * res.remainder_bound
    assert res_s.terms_used == res.terms_used


def test_max_work_caps_a_direct_sum_exactly_and_a_cvz_sum_from_five_terms():
    # the CVZ sum takes n >= 1 and reads n + 4 terms, so a cap below 5 still
    # reads 5; the direct sum stops at any cap
    g = _alt_harmonic_gen()
    for max_work in (1, 2, 3, 4, 5, 6, 10):
        tol = Tolerance(1e-15, 1e-15, max_work)
        assert sum_alternating_accelerated(g, tol).terms_used == max(max_work, 5), max_work
        res = sum_direct(g, tol)
        assert res.terms_used == max_work and not res.converged, max_work


def test_sign_violation_raises_with_index():
    g = _gen(lambda n: 1.0 / (n + 1.0) ** 2, name="bogus")
    with pytest.raises(SignPatternError, match=r"indices \d+"):
        sum_alternating_accelerated(g)


def test_default_generator_is_checked_as_alternating():
    # a generator with default fields is alternating: positive terms raise at
    # the first same-sign pair past the grace window, in either sum
    g = TermGenerator(lambda n0, n1: 1.0 / (np.arange(n0, n1) + 1.0) ** 2)
    for summer in (sum_alternating_accelerated, sum_direct):
        with pytest.raises(SignPatternError, match=r"^terms at indices 4 and 5 of series "):
            summer(g)


@pytest.mark.parametrize("first", [0, 1, 3])
def test_sign_grace_window_exempts_the_first_four_pairs_in_both_sums(first):
    # terms (-1)^n/(n+1) that keep the sign of term flip - 1 from index flip
    # on: the one same-sign pair is (flip - 1, flip). Pairs starting at
    # indices first .. first+3 are exempt, the one at first+4 is not; at this
    # tolerance and cap either sum reads past index first+5
    def gen(flip):
        return _gen(lambda n: (-1.0) ** (n if n < flip else n + 1) / (n + 1.0), first,
                    name="flipped series")

    tol = Tolerance(1e-12, 1e-12, 100)
    for summer in (sum_alternating_accelerated, sum_direct):
        summer(gen(first + 4), tol)
        with pytest.raises(SignPatternError, match=(
                rf"^terms at indices {first + 4} and {first + 5} of flipped series ")):
            summer(gen(first + 5), tol)
    # the first pair of a direct sum's second chunk: its first term is the
    # one carried over from the first chunk
    with pytest.raises(SignPatternError, match=(
            rf"^terms at indices {first + 32} and {first + 33} of flipped series ")):
        sum_direct(gen(first + 33), tol)


@pytest.mark.parametrize("dtype, term", [
    ("complex128", lambda n: (-1.0) ** n / (n + 1.0) * (1 + 1j)),
    ("<U", lambda n: ((-1.0) ** n / (n + 1.0)).astype(str)),
    ("object", lambda n: np.array([str(t) for t in (-1.0) ** n / (n + 1.0)], dtype=object)),
])
def test_complex_or_text_terms_raise_in_both_sums(dtype, term):
    # a float cast kept the real part of complex terms (log 2, converged) and
    # parsed text terms, held in an object array too; either sum, and a rows
    # call, names the series instead
    g = TermGenerator(lambda n0, n1: term(np.arange(n0, n1)), name="odd series")
    for summer, arg in ((sum_direct, g), (sum_alternating_accelerated, g),
                        (sum_alternating_accelerated, Rows(lambda: g, [{}, {}]))):
        with pytest.raises(TypeError, match=rf"^terms of odd series are {dtype}"):
            summer(arg)


def test_accelerated_non_finite_term_fails_fast():
    # a NaN term makes the weighted sum NaN, so the result would be NaN and
    # not converged; it raises with the direct sum's text instead, after the
    # one call that builds every term the sum may use
    calls = []

    def terms(n0, n1):
        calls.append((n0, n1))
        n = np.arange(n0, n1)
        return np.where(n == 3, np.nan, (-1.0) ** n / (n + 1.0))

    g = TermGenerator(terms, 0, name="poisoned series")
    with pytest.raises(NonFiniteTermError,
                       match=r"^term at index 3 of poisoned series is not finite \(nan\)$"):
        sum_alternating_accelerated(g)
    # the first term 1 sets n = 15 at the default tolerance: 8/(3+sqrt 8)^15 is
    # below 1e-10 + 1e-10/2, and the row uses n + 4 terms. The one call reads
    # 20: no row's n exceeds ceil(log(8/(1e-10/2))/log(3+sqrt 8)) = 15 at
    # rel_tol 1e-10, one more for rounding, and 4 past it
    assert calls == [(0, 20)]
    with pytest.raises(NonFiniteTermError, match=r"index 3 of poisoned series"):
        sum_direct(g)


_FIRST_TERMS = [0.0, 5e-324, 1e-310, 1e-300, 1e-20, 1.0, -3.0, 1e300, -1.7e308,
                math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FIRST_TERMS) | st.floats(-1e6, 1e6), min_size=1, max_size=6),
       st.sampled_from([0.0, 1e-300, 1e-16, 1e-10, 1.0, 1e10]),
       st.sampled_from([0.0, 1e-300, 1e-16, 2.5e-11, 1e-10, 0.5, 1.0, 1e300]),
       st.integers(1, 40) | st.just(2_000_000),
       st.integers(0, 3))
def test_accelerated_reads_every_term_a_row_uses_in_one_call(firsts, abs_tol, rel_tol,
                                                              max_work, first_index):
    # rows with these first terms t_0 (then t_0 (-1/2)^k) read their terms in
    # one call, which covers every row's n + 4; a non-finite t_0 sets n = 1
    # and fails at the first index
    if abs_tol == rel_tol == 0.0:
        rel_tol = 1e-10
    tol = Tolerance(abs_tol, rel_tol, max_work)
    calls = []

    def build(t0):
        def terms(n0, n1):
            calls.append((n0, n1))
            with np.errstate(all="ignore"):
                return t0 * (-0.5) ** np.arange(n0 - first_index, n1 - first_index)

        return TermGenerator(terms, first_index)

    finite = [t for t in firsts if math.isfinite(t)]
    if finite:
        res = sum_alternating_accelerated(Rows(build, [{"t0": t} for t in finite]), tol)
        [(n0, n1)] = calls
        assert n0 == first_index and n1 - n0 >= res.work.max()
        assert (res.work >= 5).all() and (res.work <= max(5, max_work)).all()
    if len(finite) < len(firsts):
        calls.clear()
        with pytest.raises(NonFiniteTermError, match=rf"^term at index {first_index} of "):
            sum_alternating_accelerated(Rows(build, [{"t0": t} for t in firsts]), tol)
        [(n0, n1)] = calls
        assert n0 == first_index and n1 - n0 >= 5


def test_unreachable_tolerance_flagged_not_converged():
    res = sum_alternating_accelerated(_skew_odd_gen(), Tolerance(1e-30, 0.0, 2000))
    assert not res.converged
    assert abs(res.value - PI**2 / 16.0) <= 1e-12  # still the best estimate


# ---------------------------------------------------------------------------
# The pi^3 series
# ---------------------------------------------------------------------------

def test_eq8_first_terms():
    quarter_pi = PI / 4.0
    t1 = odd_harmonic_float(1) / 1 * (1.0 - quarter_pi)
    t2 = odd_harmonic_float(2) / 2 * (2.0 / 3.0 - quarter_pi)
    assert abs(t1 - (1.0 - quarter_pi)) <= 1e-15
    assert abs(t2 - (4.0 / 3.0 / 2.0) * (2.0 / 3.0 - quarter_pi)) <= 1e-15
    assert t1 > 0 > t2


def test_eq8_accelerated_value():
    res = sum_eq8(Tolerance(1e-9, 0.0, 2 * 10**5))
    assert res.converged
    assert abs(res.value - PI**3 / 192.0) <= res.remainder_bound
    assert abs(192.0 * res.value - PI**3) <= 1e-12


def test_pi_power_series_errors():
    # E8 and E23 compare pi^3 and pi^(p+1) with scaled accelerated sums of
    # 18-19 terms; their errors stay far below the 1e-7 gate
    from quadident.ledger import verify

    assert all(o.abs_error <= 1e-12 for o in verify("E8", 1))
    assert all(o.abs_error <= 1e-11 for o in verify("E23", 1))

"""Registry sides: the per-(n, p) coefficient cache, batched quadrature,
series and closed-form rows against one-point runs, the sides that cases
share, and the layers that the two sides of a case do not share."""

import collections
import functools
import hashlib
import importlib
import itertools
import math
import os
import sys

import numpy as np
import pytest

from quadident.combinatorics import arctan_power_coeff
from quadident.ledger import _grid_points, side_tolerance, verify
from quadident.numerics import DEFAULT_TOL, Rows, Tolerance
from quadident.quadrature import IntegrandSpec, integrate_semi_infinite
from quadident.registry import (
    GridAxis,
    Side,
    _gen_alt_odd_harmonic_sq,
    _gen_atan_pow_beta,
    _gen_atan_pow_over_n,
    _gen_odd_harmonic_leibniz,
    _gen_pos_odd_harmonic_sq,
    _gen_skew_odd_denom,
    _powers,
    registry,
)
from quadident.series import TermGenerator, sum_alternating_accelerated, sum_eq8
from quadident.specfun import incomplete_beta
from _one_point import one_point
from _oracles import margin

_N_MAX = 430
_ALPHAS = (0.1, 0.5, 0.97, 1.0)


def test_cached_arctan_power_terms_are_the_uncached_doubles():
    # the cache must not change a single bit of any term, at every grid alpha;
    # the powers a^n come from the builders' kernel, np.power over a row
    for p in (1, 2, 3, 4):
        for a in _ALPHAS:
            count = (_N_MAX - p) // 2 + 1
            beta_terms = _gen_atan_pow_beta(a, p).terms(0, count)[0]
            over_n_terms = _gen_atan_pow_over_n(a, p).terms(0, count)[0]
            powers = np.power([[a]], p + 2 * np.arange(count))[0].tolist()
            for m in range(count):
                n = p + 2 * m
                coeff = float(arctan_power_coeff(n, p))
                assert beta_terms[m] == (
                    coeff * incomplete_beta((n + 1) / 2.0) * powers[m]
                ), (p, a, n)
                assert over_n_terms[m] == coeff * powers[m] / n, (p, a, n)


def test_row_powers_are_their_one_row_powers_within_2_ulp_of_python():
    # a row's powers keep their bits in any batch, shared exponents or one
    # row each, at the grid alphas and their squares; np.power rounds some
    # of them 1 ulp away from Python's pow, never more than 2
    bases = sorted({a * s for n in (9, 33) for a in GridAxis("alpha", 0.0, 1.0).points(n)
                    for s in (1.0, a)})
    column, exponents = np.array(bases)[:, None], np.arange(450)
    rows = _powers(column, range(450))
    assert rows.shape == (len(bases), 450)
    assert np.array_equal(rows, np.concatenate([_powers(b, range(450)) for b in bases]))
    assert np.array_equal(rows, _powers(column, np.tile(exponents, (len(bases), 1))))
    assert np.array_equal(rows[:, 7:90], _powers(column, exponents[7:90]))
    python = np.array([[b**n for n in range(450)] for b in bases])
    assert (np.abs(rows - python) <= 2.0 * np.spacing(python)).all()


def _bits(res):
    return (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.converged)


def _row_bits(res):
    """``_bits`` of each row of a ``QuadratureRows``."""
    return [(v.hex(), e.hex(), n, ok) for v, e, n, ok in zip(
        res.values.tolist(), res.error_estimates.tolist(), res.work.tolist(),
        res.row_converged.tolist())]


def _side_rows(out, work):
    """Each row of an ``EvalRows`` as Python ``(value, work, converged)``."""
    return list(zip(out.value.tolist(), getattr(out, work).tolist(), out.converged.tolist()))


def _record_calls(monkeypatch, names):
    """Replace the registry's ``names`` by recorders; each call appends
    ``(name, argument, tol, result)`` to the returned list. The originals are
    returned too, to run the scalar-parameter spec or generator of a point."""
    module = importlib.import_module("quadident.registry")
    calls, originals = [], {name: getattr(module, name) for name in names}
    for name, fn in originals.items():
        def record(arg, tol, _name=name, _fn=fn):
            calls.append((_name, arg, tol, _fn(arg, tol)))
            return calls[-1][3]
        monkeypatch.setattr(module, name, record)
    return calls, originals


def _is_scalar_spec(spec):
    # a spec built from scalar parameters returns one value per node, not a row
    return np.ndim(spec.f(np.array([0.5]))) == 1


def _side_points(case):
    """The grid-33 points of a case with a continuous parameter and the
    points at its axis's ends, for every discrete value (or the discrete
    values alone): all the points one side evaluates in its one rows call."""
    combos = itertools.product(*[[(d.name, v) for v in d.values] for d in case.discrete])
    if not case.continuous:
        return [dict(combo) for combo in combos]
    axis = case.continuous[0]
    values = axis.points(33) + list(axis.ends)
    return [dict(combo) | {axis.name: v} for combo in combos for v in values]


def test_quadrature_rows_equal_one_point_runs(monkeypatch):
    # a (rows x nodes) level must give every row the bits of the one-point run
    # of the spec its builder makes from scalar parameters; a different SIMD
    # path for 2-D ufunc calls, or numpy's pow of a p column, could break this.
    # Every point of a side, each p included, goes through one rows call
    calls, originals = _record_calls(monkeypatch, ("integrate_unit", "integrate_semi_infinite"))
    batched = set()
    for case in registry().values():
        if case.lhs.kind not in ("unit", "half_line") or not case.continuous:
            continue
        batched.add(case.id)
        tol = side_tolerance(DEFAULT_TOL)
        points = _side_points(case)
        del calls[:]
        outs = _side_rows(case.lhs(points, tol), "evals")
        [(name, batch, _, res)] = calls
        assert list(batch.points) == points
        assert len(_row_bits(res)) == len(outs) == len(points)
        for point, row, out in zip(points, _row_bits(res), outs):
            spec = batch.build(**point)
            assert _is_scalar_spec(spec), (case.id, point)
            assert [_bits(originals[name](spec, tol))] == [row], (case.id, point)
            one = one_point(case.lhs, point, tol)
            assert out == (one.value, one.evals, one.converged), (case.id, point)
    assert batched == {"E2", "E4", "E4alt", "E5", "E7", "E9", "E10", "E11", "E12",
                       "E16", "E18d", "E21", "E22"}


@pytest.mark.parametrize("case_id", ["E4", "E9", "E13inf", "E14inf"])
def test_half_line_pass_rows_are_their_one_row_runs(monkeypatch, case_id):
    # the k rows of a half-line side are one driver pass on the exp-sinh
    # nodes, and each row is its one-row run, bit for bit, whatever level it
    # stops at
    module = importlib.import_module("quadident.quadrature")
    driver, passes = module._tanh_sinh, []

    def count(spec_of, k, tol, half_line):
        passes.append((k, half_line))
        return driver(spec_of, k, tol, half_line)

    monkeypatch.setattr(module, "_tanh_sinh", count)
    case = registry()[case_id]
    build = case.lhs.build
    tol = side_tolerance(DEFAULT_TOL)
    points = _grid_points(case, 9) + _grid_points(case, 9, ends=True)
    rows = integrate_semi_infinite(Rows(build, points), tol)
    assert passes == [(len(points), True)]
    for point, row in zip(points, _row_bits(rows)):
        assert row == _bits(integrate_semi_infinite(build(**point), tol)), (case_id, point)
    # the grid rows of E4 and E9 stop at different levels
    assert len(set(rows.work.tolist())) > 1 or case_id in ("E13inf", "E14inf")


@pytest.mark.parametrize("case_id", ["E13inf", "E14inf"])
def test_self_reciprocal_half_line_integrands_reach_both_ends(case_id):
    # f(1/x)/x**2 is f(x) for both integrands, so mapping x > 1 back to (0, 1)
    # integrated the nodes of E13 or E14 twice; the half-line side now calls
    # its integrand beyond 1e18 and below 1e-18
    f, seen = registry()[case_id].lhs.build().f, []

    def record(x):
        seen.append(x)
        return f(x)

    res = integrate_semi_infinite(IntegrandSpec(record), side_tolerance(DEFAULT_TOL))
    assert res.converged
    assert min(x.min() for x in seen) < 1e-18 and max(x.max() for x in seen) > 1e18


def _sum_bits(res):
    return (res.value.hex(), res.terms_used, res.remainder_bound.hex(), res.converged)


def _sum_row_bits(res):
    """``_sum_bits`` of each row of a ``SummationRows``."""
    return [(v.hex(), n, b.hex(), ok) for v, n, b, ok in zip(
        res.values.tolist(), res.work.tolist(), res.remainder_bounds.tolist(),
        res.row_converged.tolist())]


def test_series_rows_equal_one_point_runs(monkeypatch):
    # every row of a batched accelerated sum must carry the bits of the
    # one-point run of the generator its builder makes from scalar parameters;
    # a side sends all of its points, each p included, to one rows call of the
    # accelerated sum, E18's positive series in van Wijngaarden's alternating
    # form. E23 has only its discrete p, and a scale column over p
    calls, originals = _record_calls(monkeypatch, ("sum_direct", "sum_alternating_accelerated"))
    batched = set()
    for case in registry().values():
        for side in (case.lhs, case.rhs):
            if side.kind != "series" or not (case.continuous or case.discrete):
                continue
            batched.add(case.id)
            tol = side_tolerance(DEFAULT_TOL)
            points = _side_points(case)
            del calls[:]
            outs = _side_rows(side(points, tol), "terms")
            [(name, batch, _, res)] = calls
            assert list(batch.points) == points and len(_sum_row_bits(res)) == len(points)
            assert name == "sum_alternating_accelerated"
            for point, out, row in zip(points, outs, _sum_row_bits(res)):
                alone = originals[name](batch.build(**point), tol)
                assert [row] == [_sum_bits(alone)], (case.id, point)
                one = one_point(side, point, tol)
                assert out == (one.value, one.terms, one.converged), (case.id, point)
    assert batched == {"E5", "E7", "EC6", "E16", "E18", "E19", "E21", "E22", "E23"}


def test_series_builders_read_each_prefix_once_per_terms_call(monkeypatch):
    # a float prefix is read as one integer array per terms call, never index
    # by index, and a series side makes one terms call: a warm grid-33 pass of
    # E18 (its 33 rows) makes one prefix read; E18 reads h_m at every
    # m = 2^j k of a block as one (k, j) array
    module = importlib.import_module("quadident.registry")
    series = importlib.import_module("quadident.series")
    verify("E18", grid_size=33)
    reads, terms_calls = [], []
    prefix, read_terms = module.odd_harmonic_float, series._terms

    def record_read(n):
        reads.append(np.ndim(n))
        return prefix(n)

    def record_terms(*args):
        terms_calls.append(args)
        return read_terms(*args)

    monkeypatch.setattr(module, "odd_harmonic_float", record_read)
    monkeypatch.setattr(series, "_terms", record_terms)
    outs = verify("E18", grid_size=33)
    assert all(o.passed for o in outs)
    assert len(reads) == len(terms_calls) == 1
    assert reads == [2] * len(reads)  # no scalar read


def _alternating_harmonic(n0, n1):
    n = np.arange(n0, n1)
    return np.where(n % 2 == 0, 1.0, -1.0) / (n + 1.0)


def test_accelerated_rows_keep_their_bits_under_work_caps():
    # terms, bounds, values and flags of CVZ rows at max_work 1..30 and three
    # tolerances, pinned as a digest of the sums that read the first term
    # alone and then the rest: one read of every term a row may use keeps
    # them. The series are those whose terms take no power of alpha, and E18's
    # b_k at five alphas
    sides = [
        Rows(lambda: TermGenerator(_alternating_harmonic, 0), [{}]),
        Rows(lambda: _gen_skew_odd_denom(1.0), [{}]),
        Rows(lambda: _gen_alt_odd_harmonic_sq(1.0), [{}]),
        Rows(lambda: _gen_odd_harmonic_leibniz(1.0), [{}]),
        Rows(lambda p: _gen_atan_pow_beta(1.0, p), [{"p": p} for p in (1, 2, 3, 4)]),
        Rows(_gen_pos_odd_harmonic_sq, [{"alpha": a} for a in (1e-3, 0.25, 0.5, 0.9, 0.999)]),
    ]
    rows = []
    for max_work in range(1, 31):
        for tol in (Tolerance(1e-10, 1e-10, max_work), Tolerance(2.5e-11, 2.5e-11, max_work),
                    Tolerance(1e-14, 0.0, max_work)):
            for side in sides:
                r = sum_alternating_accelerated(side, tol)
                rows += [(w, v.hex(), b.hex(), c) for v, b, w, c in zip(
                    r.values.tolist(), r.remainder_bounds.tolist(), r.work.tolist(),
                    r.row_converged.tolist())]
    assert len(rows) == 1170
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "c8348b458f6d1f7e8454d362ddb2961d522fd5ebf541431c3583d9ca2bf78f95")


def test_every_side_is_made_by_one_of_three_evaluators():
    # every side is a Side record whose call is one batched quadrature (on the
    # unit interval or the half-line), series or closed-form call over its
    # points; a fourth way to evaluate a side must not come back
    sides = [side for case in registry().values() for side in (case.lhs, case.rhs)]
    assert {type(side) for side in sides} == {Side}
    assert {side.kind for side in sides} == {"unit", "half_line", "series", "closed"}


def _times(s, g):
    """``g`` with each term times ``s``, built apart from the registry's."""
    return g._replace(terms=lambda n0, n1: s * np.asarray(g.terms(n0, n1)))


def test_scaled_series_sides_equal_the_scaled_one_generator_sums():
    # E8's right side is the CVZ sum of 192 x the terms of series.sum_eq8, and
    # E23's of (p+1) 2^(2p+1) x the beta series at alpha = 1, at the side's
    # tolerance unchanged: value, terms and flag keep every bit. The CVZ n
    # depends on |t_0| / abs_tol, so wherever abs_tol / s >= 1e-16 a side
    # reads the terms of its unscaled sum at abs_tol / s
    sides = [("E8", {}, 192.0, _gen_odd_harmonic_leibniz(1.0), sum_eq8)] + [
        ("E23", {"p": p}, (p + 1) * 2.0 ** (2 * p + 1), _gen_atan_pow_beta(1.0, p),
         functools.partial(sum_alternating_accelerated, _gen_atan_pow_beta(1.0, p)))
        for p in (1, 2, 3, 4)]
    unscaled_rows = 0
    for case_id, params, s, g, summed in sides:
        case = registry()[case_id]
        for tol in (DEFAULT_TOL, side_tolerance(DEFAULT_TOL), Tolerance(1e-9, 0.0, 2 * 10**5),
                    Tolerance(1e-14, 0.0)):
            res = sum_alternating_accelerated(_times(s, g), tol)
            one = one_point(case.rhs, params, tol)
            assert (one.value.hex(), one.terms, one.converged) == (
                res.value.hex(), res.terms_used, res.converged), (case_id, params, tol)
            if tol.abs_tol / s >= 1e-16:
                unscaled_rows += 1
                inner = summed(Tolerance(tol.abs_tol / s, tol.rel_tol, tol.max_work))
                assert one.terms == inner.terms_used, (case_id, params, tol)
    assert unscaled_rows == 17  # all but Tolerance(1e-14, 0) at s = 192, 512 and 2560


def test_halved_series_sides_are_half_their_sums_at_twice_the_abs_tol():
    # E16's and E22's factor 1/2 is a power of two: each side is, bit for
    # bit, half the sum of its unhalved terms at twice the absolute tolerance
    tol = side_tolerance(DEFAULT_TOL)
    doubled = Tolerance(2.0 * tol.abs_tol, tol.rel_tol, tol.max_work)
    for case_id, build in (("E16", _gen_alt_odd_harmonic_sq), ("E22", _gen_atan_pow_beta)):
        points = _grid_points(registry()[case_id], 9)
        side = registry()[case_id].rhs(points, tol)
        res = sum_alternating_accelerated(Rows(build, points), doubled)
        assert (side.value.tolist(), side.terms.tolist(), side.converged.tolist()) == (
            (0.5 * res.values).tolist(), res.work.tolist(), res.row_converged.tolist()), case_id


def _parts_hex(value, complex_ok):
    """The hex of a closed-form value, as (real, imaginary) where complex."""
    assert type(value) is (complex if complex_ok else float)
    return (value.real.hex(), value.imag.hex()) if complex_ok else value.hex()


def test_closed_form_rows_equal_one_point_runs():
    # a closed form over columns must give every row the bits of the value
    # its builder gives for scalar parameters, and of its one-point call;
    # only E19's right side is complex, and both of its parts must match
    batched = set()
    tol = Tolerance()
    for case in registry().values():
        if not case.continuous:
            continue
        for side in (case.lhs, case.rhs):
            if side.kind != "closed":
                continue
            batched.add(case.id)
            value = side.build
            points = _side_points(case)
            outs = side(points, tol)
            complex_ok = case.id == "E19"
            assert outs.value.dtype == (complex if complex_ok else float)
            assert len(outs.value) == len(points)
            for point, out in zip(points, outs.value.tolist()):
                scalar = np.asarray(value(**point)).item()
                one = one_point(side, point, tol)
                assert (_parts_hex(out, complex_ok) == _parts_hex(scalar, complex_ok)
                        == _parts_hex(one.value, complex_ok)), (case.id, point)
    assert batched == {"E2", "E4", "E4alt", "E9", "E10", "EC6", "E11", "E12", "E18", "E18d",
                       "E19"}


def test_every_grouped_call_runs_without_the_one_point_fallback(monkeypatch):
    # a side whose rows call raises is evaluated again by halves down to
    # single points: correct, but slow and silent. No registered side may
    # take that path: each side makes exactly one _fill call, and every
    # outcome passes
    module = importlib.import_module("quadident.ledger")
    fill, calls = module._fill, []

    def count(parts, errors, side, idx, points, tol):
        calls.append(side)
        return fill(parts, errors, side, idx, points, tol)

    monkeypatch.setattr(module, "_fill", count)
    for case_id, case in registry().items():
        del calls[:]
        outs = verify(case_id, 33)
        assert outs and all(o.passed for o in outs), case_id
        assert calls == [case.lhs, case.rhs], case_id


def test_every_case_verifies_at_the_one_gate_with_a_wide_margin():
    # every case is judged at DEFAULT_TOL. The ten cases that had gates 10
    # to 1000 times looser keep their largest margin, |a - b| over
    # margin(DEFAULT_TOL, a, b), below 1e-4 (E21's is 5.5e-5) at grid 33;
    # E19 at grid 9
    assert {case.default_tol for case in registry().values()} == {DEFAULT_TOL}
    for case_id in ("E7", "E8", "E11", "E12", "E16", "E17", "E19", "E21", "E22", "E23"):
        outs = verify(case_id, 9 if case_id == "E19" else 33)
        assert all(o.passed for o in outs), case_id
        worst = max(o.abs_error / margin(DEFAULT_TOL, o.lhs_value, o.rhs_value) for o in outs)
        assert worst <= 1e-4, (case_id, worst)


def test_every_side_makes_one_driver_call(monkeypatch):
    # a quadrature or series side sends all of its points, every p and
    # endpoint included, to one integrator or summer call, at the side
    # tolerance unchanged: a scaled series side (E8, E16, E22, E23) carries
    # its factor in its terms, so no side rescales its tolerance
    calls, _ = _record_calls(monkeypatch, ("integrate_unit", "integrate_semi_infinite",
                                           "sum_direct", "sum_alternating_accelerated"))
    for case in registry().values():
        del calls[:]
        verify(case.id, 9)
        sides = sum(side.kind != "closed" for side in (case.lhs, case.rhs))
        assert len(calls) == sides, case.id
        assert [tol for _, _, tol, _ in calls] == [side_tolerance(DEFAULT_TOL)] * sides, case.id


def test_e11_makes_one_polylog_call(monkeypatch):
    # E11's closed form takes all 136 points (p = 0..3, each at 33 grid
    # points and beta = 1) in one call, and evaluates Li_{p+2}(b) and
    # Li_{p+2}(-b) for every p in one polylog_real call over 272 elements
    module = importlib.import_module("quadident.registry")
    calls = []
    polylog_real = module.polylog_real

    def record(p, x):
        calls.append((np.unique(p).tolist(), np.broadcast_shapes(np.shape(p), np.shape(x)),
                      np.sign(x).min(), np.sign(x).max()))
        return polylog_real(p, x)

    monkeypatch.setattr(module, "polylog_real", record)
    assert all(o.passed for o in verify("E11", 33))
    assert calls == [([2, 3, 4, 5], (2, 136, 1), -1.0, 1.0)]


def test_every_closed_form_side_makes_one_polylog_pass(monkeypatch):
    # every polylogarithm, order and sign of a closed-form side shares one
    # specfun._polylog pass over the side's grid-33 points; E19 makes two,
    # its trilogarithms and its dilogarithms
    specfun = importlib.import_module("quadident.specfun")
    passes = []
    polylog = specfun._polylog

    def record(orders, z):
        passes.append(orders)
        return polylog(orders, z)

    monkeypatch.setattr(specfun, "_polylog", record)
    counted = {}
    for case in registry().values():
        for side in (case.lhs, case.rhs):
            if side.kind != "closed":
                continue
            del passes[:]
            side(_side_points(case), DEFAULT_TOL)
            counted[case.id] = passes[:]
    assert {case_id: len(p) for case_id, p in counted.items() if len(p) > 1} == {"E19": 2}
    assert counted["E19"] == [(3,), (2,)]
    assert counted["E11"] == counted["E12"] == [(2, 3, 4, 5)]
    assert counted["E18"] == [(2, 3)]
    assert {case_id for case_id, p in counted.items() if p} == {
        "E2", "E4", "E4alt", "E9", "E10", "EC6", "E11", "E12", "E18", "E18d", "E19"}


def test_e19_fails_a_point_off_its_domain_alone():
    # E19's right side raises for its whole column at alpha = 1.5; the
    # ledger retries by halves, so that point alone fails and the others,
    # the end alpha = 1 included, keep the bits of their own runs
    bad, good, end = verify("E19", points=[{"alpha": 1.5}, {"alpha": 0.5}])
    assert not bad.passed and bad.reason == "error: eq19_rhs requires 0 < alpha <= 1, got 1.5"
    assert math.isnan(bad.rhs_value)
    alone = verify("E19", points=[{"alpha": 0.5}])
    assert [good, end] == alone and good.passed
    assert [o.rhs_value.hex() for o in (good, end)] == [o.rhs_value.hex() for o in alone]


@pytest.mark.parametrize("case_id", ["E11", "E12", "E21", "E22", "E23"])
def test_odd_discrete_parameters_fail_alone(case_id):
    # p = 1.5 or p = -1 has no value in these identities: the point fails
    # with an error, never passes as if p were cut to an integer, and leaves
    # every other point of the same call with its bits. A p that is not an
    # integer (1.5, 2.0, a bool, a string) or lies below the axis (-1; 0
    # where p starts at 1) fails unevaluated, naming p
    grid = _grid_points(registry()[case_id], 9)
    clean = repr(verify(case_id, points=grid))
    half = len(grid) // 2
    low = min(registry()[case_id].discrete[0].values)
    for p in (1.5, -1, 0, 2.0, True, "2"):
        if type(p) is int and p >= low:
            continue  # p = 0 is a value of E11 and E12
        odd = {"p": p} | {axis.name: 0.5 for axis in registry()[case_id].continuous}
        [alone, *_] = verify(case_id, points=[odd])
        assert not alone.passed and alone.evals == alone.terms == 0, (p, alone)
        if type(p) is int:
            assert alone.reason == f"error: p must be >= {low}, got {p}"
        else:
            assert alone.reason == f"error: p must be an integer, got {p!r}"
        mixed = verify(case_id, points=grid[:half] + [odd] + grid[half:])
        assert mixed[half].params == odd and mixed[half].reason == alone.reason
        assert repr(mixed[:half] + mixed[half + 1:]) == clean, p


@pytest.mark.parametrize("case_id", ["E2", "E11", "E19", "E21"])
def test_non_finite_continuous_parameters_fail_alone(case_id):
    # a NaN or infinite alpha or beta fails unevaluated, as a missing
    # parameter does, naming the parameter, where a side would blame a node
    # or a term; every other point of the same call keeps its bits
    case = registry()[case_id]
    name = case.continuous[0].name
    grid = _grid_points(case, 9)
    clean = repr(verify(case_id, points=grid))
    half = len(grid) // 2
    for v in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        odd = grid[0] | {name: v}
        [alone, *_] = verify(case_id, points=[odd])
        assert not alone.passed and alone.evals == alone.terms == 0, (v, alone)
        assert alone.reason == f"error: {name} must be finite, got {v!r}"
        mixed = verify(case_id, points=grid[:half] + [odd] + grid[half:])
        assert mixed[half].params is odd and mixed[half].reason == alone.reason
        assert repr(mixed[:half] + mixed[half + 1:]) == clean, v


def test_equal_sides_are_shared_sides_with_equal_bits():
    # a side two cases share is one Side value, equal by its kind and builder;
    # the 56 slots hold 46 distinct sides. At grid 33 with its ends a shared
    # side gives every row its value and work in either case, whatever else
    # its batch holds (E21's p column, E16's alpha = 1 end): a case without
    # alpha is the other at alpha = 1, and only p = 2 rows are compared
    slots = collections.defaultdict(list)
    for case in registry().values():
        for name in ("lhs", "rhs"):
            slots[getattr(case, name)].append(f"{case.id}.{name}")
    assert len(slots) == 46
    assert sorted(names for names in slots.values() if len(names) > 1) == sorted([
        ["E4.lhs", "E4alt.lhs"], ["E5.rhs", "E6.rhs"], ["E7.lhs", "E22.lhs"],
        ["E10.lhs", "E10b.lhs"], ["E10.rhs", "EC6.lhs"], ["E10b.rhs", "EC6b.rhs"],
        ["EC6.rhs", "EC6b.lhs"], ["E15.lhs", "E16.lhs", "E21.lhs"], ["E17.lhs", "E19.lhs"]])
    tol = side_tolerance(DEFAULT_TOL)

    def rows(case_id, name):
        case = registry()[case_id]
        points = _grid_points(case, 33) + _grid_points(case, 33, ends=True)
        out = getattr(case, name)(points, tol)
        columns = [np.broadcast_to(c, len(points)).tolist() for c in out]
        return {p.get("alpha", 1.0): (v.hex(), e, t, c)
                for p, v, e, t, c in zip(points, *columns) if p.get("p", 2) == 2}

    for a, b, name_a, name_b, shared in [
            ("E4alt", "E4", "lhs", "lhs", 35), ("E7", "E22", "lhs", "lhs", 33),
            ("E16", "E21", "lhs", "lhs", 33), ("EC6", "E10", "lhs", "rhs", 33),
            ("E15", "E16", "lhs", "lhs", 1), ("E10b", "E10", "lhs", "lhs", 1),
            ("E6", "E5", "rhs", "rhs", 1), ("E17", "E19", "lhs", "lhs", 1),
            ("E10b", "EC6b", "rhs", "rhs", 1)]:
        assert getattr(registry()[a], name_a) == getattr(registry()[b], name_b), (a, b)
        rows_a, rows_b = rows(a, name_a), rows(b, name_b)
        common = rows_a.keys() & rows_b.keys()
        assert len(common) == shared, (a, b)
        assert [rows_a[k] for k in sorted(common)] == [rows_b[k] for k in sorted(common)], (a, b)


# the helpers both sides of a case may run besides Side.__call__: its points'
# columns, and the compensated sum and powers that hold no numerical method
_SHARED_HELPERS = {"Rows", "fsum_rows", "_pow", "_powers"}


def _package_functions(side, points, tol):
    """The package's functions that ``side(points, tol)`` runs, each as the
    file, first line and qualified name of its code, with every ``functools``
    cache of the package cleared first, so that a cached helper runs too."""
    package = os.path.dirname(importlib.import_module("quadident").__file__)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("quadident."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    seen = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == package:
            seen.add((os.path.basename(code.co_filename), code.co_firstlineno,
                      getattr(code, "co_qualname", code.co_name)))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        side(points, tol)
    finally:
        sys.setprofile(previous)
    return seen


def test_the_two_sides_of_every_case_share_no_numerical_layer():
    # the north star's first contract: each identity compares two separate
    # computations. No case holds one side twice, and at grid 5 with its ends
    # the two sides run no common function of the package beyond the shared
    # helpers (a comprehension inside one of them counts as the helper)
    tol = side_tolerance(DEFAULT_TOL)
    for case in registry().values():
        assert case.lhs != case.rhs, case.id
        points = _grid_points(case, 5) + _grid_points(case, 5, ends=True)
        lhs, rhs = (_package_functions(side, points, tol) for side in (case.lhs, case.rhs))
        assert lhs and rhs, case.id
        shared = {(file, line, name) for file, line, name in lhs & rhs
                  if name != "Side.__call__" and name.split(".")[0] not in _SHARED_HELPERS}
        assert shared == set(), case.id

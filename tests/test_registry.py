"""Registry evaluators: the per-(n, p) coefficient cache, and batched
quadrature, series and closed-form rows against one-point runs."""

import functools
import importlib
import inspect
import itertools

import numpy as np
import pytest

from quadident.combinatorics import arctan_power_coeff
from quadident.ledger import _grid_points, side_tolerance, verify
from quadident.numerics import DEFAULT_TOL, Rows, Tolerance
from quadident.quadrature import IntegrandSpec, integrate_semi_infinite, integrate_unit
from quadident.registry import (
    GridAxis,
    _gen_alt_odd_harmonic_sq,
    _gen_atan_pow_beta,
    _gen_atan_pow_over_n,
    _gen_odd_harmonic_leibniz,
    _powers,
    registry,
)
from quadident.series import sum_alternating_accelerated, sum_direct, sum_eq8
from quadident.specfun import incomplete_beta
from _one_point import one_point

_N_MAX = 430
_ALPHAS = (0.1, 0.5, 0.97, 1.0)


def test_cached_arctan_power_terms_are_the_uncached_doubles():
    # the cache must not change a single bit of any term, at every grid alpha
    for p in (1, 2, 3, 4):
        for a in _ALPHAS:
            count = (_N_MAX - p) // 2 + 1
            beta_terms = _gen_atan_pow_beta(a, p).terms(0, count)[0]
            over_n_terms = _gen_atan_pow_over_n(a, p).terms(0, count)[0]
            for m in range(count):
                n = p + 2 * m
                coeff = float(arctan_power_coeff(n, p))
                assert beta_terms[m] == (
                    coeff * incomplete_beta((n + 1) / 2.0) * a**n
                ), (p, a, n)
                assert over_n_terms[m] == coeff * a**n / n, (p, a, n)


def test_row_powers_are_python_powers():
    # np.power rounds some a**n at the grid alphas differently, which would
    # change the terms' doubles; the builders' powers must be Python's
    bases = sorted({a * s for n in (9, 33) for a in GridAxis("alpha", 0.0, 1.0).points(n)
                    for s in (1.0, a)})
    column = np.array(bases)[:, None]
    assert _powers(column, range(450)).tolist() == [[b**n for n in range(450)] for b in bases]


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
        if "tanh-sinh" not in case.lhs.describe or not case.continuous:
            continue
        batched.add(case.id)
        tol = side_tolerance(DEFAULT_TOL)
        points = _side_points(case)
        del calls[:]
        outs = _side_rows(case.lhs.rows(points, tol), "evals")
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


@pytest.mark.parametrize("case_id", ["E4", "E9", "E13inf"])
def test_half_line_pass_equals_its_two_pieces(monkeypatch, case_id):
    # the near and far pieces of k rows are the 2k rows of one driver pass;
    # each row is the sum of the one-row runs of its near integrand and of
    # f(1/u)/u**2, both at half the tolerance, whatever level each stops at
    module = importlib.import_module("quadident.quadrature")
    driver, passes = module._tanh_sinh, []

    def count(spec_of, k, tol):
        passes.append(k)
        return driver(spec_of, k, tol)

    monkeypatch.setattr(module, "_tanh_sinh", count)
    case = registry()[case_id]
    build = inspect.getclosurevars(case.lhs.rows).nonlocals["build"]
    tol = side_tolerance(DEFAULT_TOL)
    half = Tolerance(tol.abs_tol / 2.0, tol.rel_tol / 2.0, tol.max_work // 2)
    points = _grid_points(case, 9)
    rows = integrate_semi_infinite(Rows(build, points), tol)
    assert passes == [2 * len(points)]
    levels_differ = False
    for point, row in zip(points, _row_bits(rows)):
        f = build(**point).f
        near = integrate_unit(IntegrandSpec(f), half)
        far = integrate_unit(IntegrandSpec(lambda u: f(1.0 / u) / u**2), half)
        levels_differ |= near.evaluations != far.evaluations
        assert row == ((near.value + far.value).hex(),
                       (near.error_estimate + far.error_estimate).hex(),
                       near.evaluations + far.evaluations,
                       near.converged and far.converged), (case_id, point)
    assert levels_differ or case_id == "E13inf"


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
            if "series" not in side.describe or not (case.continuous or case.discrete):
                continue
            batched.add(case.id)
            tol = side_tolerance(DEFAULT_TOL)
            points = _side_points(case)
            del calls[:]
            outs = _side_rows(side.rows(points, tol), "terms")
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
    # by index: a warm grid-33 pass of E18 (its 33 rows, the first term and
    # then the rest) makes as many prefix reads as its generator makes terms
    # calls; E18 reads h_m at every m = 2^j k of a block as one (k, j) array
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
    assert len(reads) == len(terms_calls) > 1
    assert reads == [2] * len(reads)  # no scalar read


def test_every_side_is_made_by_one_of_three_evaluators():
    # every side is one batched quadrature, series or closed-form call over
    # its points; a fourth way to evaluate a side must not come back
    makers = {side.rows.__qualname__ for case in registry().values()
              for side in (case.lhs, case.rhs)}
    assert makers == {"_quad.<locals>.rows", "_series.<locals>.rows", "_closed.<locals>.rows"}


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
        side = registry()[case_id].rhs.rows(points, tol)
        res = sum_alternating_accelerated(Rows(build, points), doubled)
        assert (side.value.tolist(), side.terms.tolist(), side.converged.tolist()) == (
            (0.5 * res.values).tolist(), res.work.tolist(), res.row_converged.tolist()), case_id


def _is_closed_form(side):
    return side.rows.__qualname__.startswith("_closed.")


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
            if not _is_closed_form(side):
                continue
            batched.add(case.id)
            value = inspect.getclosurevars(side.rows).nonlocals["value"]
            points = _side_points(case)
            outs = side.rows(points, tol)
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
    # take that path, and every outcome passes
    def fallback(side, errors, evaluator, idx, points, tol):
        raise AssertionError(f"{evaluator.describe!r} fell back to halves at {points}")

    monkeypatch.setattr(importlib.import_module("quadident.ledger"), "_bisect", fallback)
    for case_id in registry():
        outs = verify(case_id, 33)
        assert outs and all(o.passed for o in outs), case_id


def test_every_case_verifies_at_the_one_gate_with_a_wide_margin():
    # every case is judged at DEFAULT_TOL. The ten cases that had gates 10
    # to 1000 times looser keep their largest margin, |a - b| over
    # DEFAULT_TOL.margin(a, b), below 1e-4 (E21's is 5.5e-5) at grid 33;
    # E19 at grid 9
    assert {case.default_tol for case in registry().values()} == {DEFAULT_TOL}
    for case_id in ("E7", "E8", "E11", "E12", "E16", "E17", "E19", "E21", "E22", "E23"):
        outs = verify(case_id, 9 if case_id == "E19" else 33)
        assert all(o.passed for o in outs), case_id
        worst = max(o.abs_error / DEFAULT_TOL.margin(o.lhs_value, o.rhs_value) for o in outs)
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
        sides = sum(not _is_closed_form(side) for side in (case.lhs, case.rhs))
        assert len(calls) == sides, case.id
        assert [tol for _, _, tol, _ in calls] == [side_tolerance(DEFAULT_TOL)] * sides, case.id


def test_e11_makes_one_polylog_call_per_order_and_sign(monkeypatch):
    # E11's closed form takes all 136 points (p = 0..3, each at 33 grid
    # points and beta = 1) in one call, and evaluates Li_{p+2}(b) and then
    # Li_{p+2}(-b) with one polylog_real pass per order over that order's rows
    module = importlib.import_module("quadident.registry")
    calls = []
    polylog_real = module.polylog_real

    def record(p, x):
        calls.append((p, np.shape(x), np.sign(x).min(), np.sign(x).max()))
        return polylog_real(p, x)

    monkeypatch.setattr(module, "polylog_real", record)
    assert all(o.passed for o in verify("E11", 33))
    assert calls == [(p, (34,), sign, sign) for sign in (1.0, -1.0) for p in (2, 3, 4, 5)]


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


def test_accelerated_bound_covers_every_grid_row():
    # every series side goes through the CVZ sum; its bound is proven for
    # E5, EC6 and E21/E22 at p = 1 and only an estimate for E7, E16, E18,
    # E19 and E21/E22 at p >= 2. At the evaluation tolerance it must still
    # cover the error of every grid-33 row against a one-row direct sum
    # taken to the rounding floor. Each side's own builder is summed, the
    # factor 1/2 of E16 and E22 and E18's van Wijngaarden terms included
    sides = {"E5": "rhs", "EC6": "rhs", "E7": "rhs", "E16": "rhs", "E18": "lhs", "E19": "lhs",
             "E21": "rhs", "E22": "rhs"}
    reference = Tolerance(1e-18, 0.0)
    for case_id, side in sides.items():
        case = registry()[case_id]
        build = inspect.getclosurevars(getattr(case, side).rows).nonlocals["build"]
        tol = side_tolerance(DEFAULT_TOL)
        points = [fixed | {"alpha": a} for fixed in ([{"p": p} for p in (1, 2, 3, 4)]
                                                     if case.discrete else [{}])
                  for a in case.continuous[0].points(33)]
        rows = sum_alternating_accelerated(Rows(build, points), tol)
        assert rows.row_converged.all(), case_id
        for point, value, bound in zip(points, rows.values.tolist(),
                                       rows.remainder_bounds.tolist()):
            truth = sum_direct(build(**point), reference).value
            assert abs(value - truth) <= bound, (case_id, point)

"""Registry evaluators: the per-(n, p) coefficient cache, and batched
quadrature, series and closed-form rows against one-point runs."""

import functools
import importlib
import inspect
import itertools
import warnings

import numpy as np
import pytest

from quadident.combinatorics import arctan_power_coeff
from quadident.ledger import _grid_points, verify
from quadident.numerics import Rows, Tolerance
from quadident.registry import (
    GridAxis,
    _gen_alt_odd_harmonic_sq,
    _gen_atan_pow_beta,
    _gen_atan_pow_over_n,
    _gen_odd_harmonic_leibniz,
    _gen_skew_linear_denom,
    _gen_skew_odd_denom,
    _powers,
    registry,
)
from quadident.series import ALTERNATING, sum_alternating_accelerated, sum_direct, sum_eq8
from quadident.specfun import incomplete_beta

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
    ``(name, argument, result)`` to the returned list. The originals are
    returned too, to run the scalar-parameter spec or generator of a point."""
    module = importlib.import_module("quadident.registry")
    calls, originals = [], {name: getattr(module, name) for name in names}
    for name, fn in originals.items():
        def record(arg, tol, _name=name, _fn=fn):
            calls.append((_name, arg, _fn(arg, tol)))
            return calls[-1][2]
        monkeypatch.setattr(module, name, record)
    return calls, originals


def _is_scalar_spec(spec):
    # a spec built from scalar parameters returns one value per node, not a row
    return np.ndim(spec.f(np.array([0.5]))) == 1


def _side_points(case, override):
    """The grid-33 points of a case with a continuous parameter, for every
    discrete value, and its registered endpoints whose ``override`` value is
    None: all the points one side evaluates in its one rows call."""
    axis = case.continuous[0]
    values = axis.points(33) + [dict(ep.params)[axis.name] for ep in case.extra_points
                                if getattr(ep, override) is None]
    combos = itertools.product(*[[(d.name, v) for v in d.values] for d in case.discrete])
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
        tol = Tolerance(case.default_tol.abs_tol / 4.0, case.default_tol.rel_tol / 4.0,
                        case.default_tol.max_work)
        points = _side_points(case, "lhs_value")
        del calls[:]
        outs = _side_rows(case.lhs.rows(points, tol), "evals")
        [(name, batch, res)] = calls
        assert list(batch.points) == points
        assert len(_row_bits(res)) == len(outs) == len(points)
        for point, row, out in zip(points, _row_bits(res), outs):
            spec = batch.build(**point)
            assert _is_scalar_spec(spec), (case.id, point)
            assert [_bits(originals[name](spec, tol))] == [row], (case.id, point)
            one = case.lhs.fn(point, tol)
            assert out == (one.value, one.evals, one.converged), (case.id, point)
    assert batched == {"E2", "E4", "E4alt", "E5", "E7", "E9", "E10", "E11", "E12",
                       "E16", "E21", "E22"}


def _sum_bits(res):
    return (res.value.hex(), res.terms_used, res.remainder_bound.hex(), res.converged)


def _sum_row_bits(res):
    """``_sum_bits`` of each row of a ``SummationRows``."""
    return [(v.hex(), n, b.hex(), ok) for v, n, b, ok in zip(
        res.values.tolist(), res.work.tolist(), res.remainder_bounds.tolist(),
        res.row_converged.tolist())]


def test_series_rows_equal_one_point_runs(monkeypatch):
    # every row of a batched direct or accelerated sum must carry the bits of
    # the one-point run of the generator its builder makes from scalar
    # parameters; a side sends all of its points, each p included, to one rows
    # call: the accelerated sum for an alternating series, the direct sum for
    # a positive one
    calls, originals = _record_calls(monkeypatch, ("sum_direct", "sum_alternating_accelerated"))
    batched, accelerated = set(), set()
    for case in registry().values():
        for side, override in ((case.lhs, "lhs_value"), (case.rhs, "rhs_value")):
            if "series" not in side.describe or not case.continuous:
                continue
            batched.add(case.id)
            tol = Tolerance(case.default_tol.abs_tol / 4.0,
                            case.default_tol.rel_tol / 4.0, case.default_tol.max_work)
            points = _side_points(case, override)
            del calls[:]
            outs = _side_rows(side.rows(points, tol), "terms")
            [(name, batch, res)] = calls
            assert list(batch.points) == points and len(_sum_row_bits(res)) == len(points)
            alternating = batch.at().sign_pattern == ALTERNATING
            assert name == ("sum_alternating_accelerated" if alternating else "sum_direct")
            if alternating:
                accelerated.add(case.id)
            for point, out, row in zip(points, outs, _sum_row_bits(res)):
                alone = originals[name](batch.build(**point), tol)
                assert [row] == [_sum_bits(alone)], (case.id, point)
                one = side.fn(point, tol)
                assert out == (one.value, one.terms, one.converged), (case.id, point)
    assert batched == {"E5", "E7", "EC6", "E16", "E18", "E19", "E21", "E22"}
    assert accelerated == {"E5", "E7", "EC6", "E16", "E19", "E21", "E22"}


def test_every_side_is_made_by_one_of_three_evaluators():
    # every side is one batched quadrature, series or closed-form call over
    # its points; a fourth way to evaluate a side must not come back
    makers = {side.rows.__qualname__ for case in registry().values()
              for side in (case.lhs, case.rhs)}
    assert makers == {"_quad.<locals>.rows", "_series.<locals>.rows", "_closed.<locals>.rows"}


def test_scaled_series_sides_equal_the_scaled_one_generator_sums():
    # E8's right side is 192 x the series of series.sum_eq8, and E23's is
    # (p+1) 2^(2p+1) x the beta series at alpha = 1. A side scaled by s > 1
    # sums to the absolute tolerance max(abs_tol / s, 1e-16), so the scaled
    # value still meets abs_tol; value, terms and flag keep every bit
    def inner(tol, scale):
        return Tolerance(max(tol.abs_tol / scale, 1e-16), tol.rel_tol, tol.max_work)

    sides = [("E8", {}, 192, sum_eq8)] + [
        ("E23", {"p": p}, (p + 1) * 2 ** (2 * p + 1),
         functools.partial(sum_alternating_accelerated, _gen_atan_pow_beta(1.0, p)))
        for p in (1, 2, 3, 4)]
    for case_id, params, scale, summed in sides:
        case = registry()[case_id]
        default = case.default_tol
        for tol in (Tolerance(), default,
                    Tolerance(default.abs_tol / 4.0, default.rel_tol / 4.0, default.max_work),
                    Tolerance(2.5e-11, 2.5e-11), Tolerance(1e-9, 0.0, 2 * 10**5),
                    Tolerance(1e-14, 0.0)):
            res = summed(inner(tol, scale))
            one = case.rhs.fn(params, tol)
            assert (one.value.hex(), one.terms, one.converged) == (
                (scale * res.value).hex(), res.terms_used, res.converged), (case_id, params, tol)


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
        for side, override in ((case.lhs, "lhs_value"), (case.rhs, "rhs_value")):
            if not _is_closed_form(side):
                continue
            batched.add(case.id)
            value = inspect.getclosurevars(side.rows).nonlocals["value"]
            points = _side_points(case, override)
            outs = side.rows(points, tol)
            complex_ok = case.id == "E19"
            assert outs.value.dtype == (complex if complex_ok else float)
            assert len(outs.value) == len(points)
            for point, out in zip(points, outs.value.tolist()):
                scalar = np.asarray(value(**point)).item()
                one = side.fn(point, tol)
                assert (_parts_hex(out, complex_ok) == _parts_hex(scalar, complex_ok)
                        == _parts_hex(one.value, complex_ok)), (case.id, point)
    assert batched == {"E2", "E4", "E4alt", "E9", "E10", "EC6", "E11", "E12", "E18", "E18d",
                       "E19"}


def test_every_grouped_call_runs_without_the_one_point_fallback(monkeypatch):
    # a side whose rows call raises is evaluated again by halves down to
    # single points: correct, but slow and silent. No registered side may
    # take that path, and every outcome passes
    def fallback(side, evaluator, idx, points, tol):
        raise AssertionError(f"{evaluator.describe!r} fell back to halves at {points}")

    monkeypatch.setattr(importlib.import_module("quadident.ledger"), "_bisect", fallback)
    for case_id in registry():
        outs = verify(case_id, 33)
        assert outs and all(o.passed for o in outs), case_id


def test_every_side_makes_one_driver_call(monkeypatch):
    # a quadrature or series side sends all of its points, every p and
    # endpoint included, to one integrator or summer call; only E23's right
    # side makes one call per p, because its scale (p+1) 2^(2p+1) sets the
    # tolerance of its sum
    calls, _ = _record_calls(monkeypatch, ("integrate_unit", "integrate_semi_infinite",
                                           "sum_direct", "sum_alternating_accelerated"))
    for case in registry().values():
        del calls[:]
        verify(case.id, 9)
        sides = sum(not _is_closed_form(side) for side in (case.lhs, case.rhs))
        assert len(calls) == sides + (3 if case.id == "E23" else 0), case.id


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
    # every other point of the same call with its bits. NaN powers warn
    grid = _grid_points(registry()[case_id], 9)
    clean = repr(verify(case_id, points=grid))
    half = len(grid) // 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for p in (1.5, -1):
            odd = {"p": p} | {axis.name: 0.5 for axis in registry()[case_id].continuous}
            [alone, *_] = verify(case_id, points=[odd])
            assert not alone.passed and alone.reason.startswith("error: "), (p, alone)
            mixed = verify(case_id, points=grid[:half] + [odd] + grid[half:])
            assert mixed[half].params == odd and mixed[half].reason == alone.reason
            assert repr(mixed[:half] + mixed[half + 1:]) == clean, p


def test_accelerated_bound_covers_every_grid_row():
    # every alternating series side goes through the CVZ sum; its bound is
    # proven for E5, EC6 and E21/E22 at p = 1 and only an estimate for E7,
    # E16, E19 and E21/E22 at p >= 2. At each case's evaluation tolerance it
    # must still cover the error of every grid-33 row against a direct sum
    # taken to the rounding floor
    builders = {
        "E5": _gen_skew_odd_denom,
        "EC6": _gen_skew_linear_denom,
        "E7": _gen_odd_harmonic_leibniz,
        "E16": _gen_alt_odd_harmonic_sq,
        "E19": _gen_alt_odd_harmonic_sq,
        "E21": _gen_atan_pow_over_n,
        "E22": _gen_atan_pow_beta,
    }
    reference = Tolerance(1e-18, 0.0)
    for case_id, build in builders.items():
        case = registry()[case_id]
        tol = Tolerance(case.default_tol.abs_tol / 4.0, case.default_tol.rel_tol / 4.0)
        points = [fixed | {"alpha": a} for fixed in ([{"p": p} for p in (1, 2, 3, 4)]
                                                     if case.discrete else [{}])
                  for a in case.continuous[0].points(33)]
        batch = Rows(build, points)
        rows = sum_alternating_accelerated(batch, tol)
        truth = sum_direct(batch, reference).values
        assert rows.row_converged.all(), case_id
        for point, value, bound, ref in zip(points, rows.values.tolist(),
                                            rows.remainder_bounds.tolist(), truth.tolist()):
            assert abs(value - ref) <= bound, (case_id, point)

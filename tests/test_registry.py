"""Registry evaluators: the per-(n, p) coefficient cache, and batched
quadrature, series and closed-form rows against one-point runs."""

import importlib
import itertools

import numpy as np

from quadident.combinatorics import arctan_power_coeff
from quadident.ledger import verify
from quadident.numerics import Tolerance
from quadident.registry import (
    GridAxis,
    _gen_atan_pow_beta,
    _gen_atan_pow_over_n,
    _powers,
    registry,
)
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


def test_quadrature_rows_equal_one_point_runs(monkeypatch):
    # a (rows x nodes) level must give every row the bits of the one-point run
    # of its scalar-parameter spec; a different SIMD path for 2-D ufunc calls
    # could break this. A call is batched or one-point by what made it: the
    # evaluator's rows over the grid, or its fn at one point
    calls, originals = _record_calls(monkeypatch, ("integrate_unit", "integrate_semi_infinite"))
    batched = set()
    for case in registry().values():
        if "tanh-sinh" not in case.lhs.describe or not case.continuous:
            continue
        batched.add(case.id)
        tol = Tolerance(case.default_tol.abs_tol / 4.0, case.default_tol.rel_tol / 4.0,
                        case.default_tol.max_work)
        axis = case.continuous[0]
        values = axis.points(33) + [
            dict(ep.params)[axis.name] for ep in case.extra_points if ep.lhs_value is None
        ]
        for combo in itertools.product(*[[(d.name, v) for v in d.values]
                                         for d in case.discrete]):
            fixed = dict(combo)
            del calls[:]
            outs = case.lhs.rows(fixed, axis.name, values, tol)
            [(_, batch, res)] = calls
            assert batch.values == tuple(values)
            assert len(res.rows) == len(outs) == len(values)
            for value, row, out in zip(values, res.rows, outs):
                del calls[:]
                one = case.lhs.fn(fixed | {axis.name: value}, tol)
                [(name, point, point_res)] = calls
                spec = point.at()
                assert _is_scalar_spec(spec), (case.id, fixed, value)
                alone = originals[name](spec, tol)
                assert _bits(alone) == _bits(row) == _bits(point_res.rows[0]), (
                    case.id, fixed, value)
                assert (out.value, out.evals, out.converged) == (
                    one.value, one.evals, one.converged)
    assert batched == {"E2", "E4", "E4alt", "E5", "E7", "E9", "E10", "E11", "E12",
                       "E16", "E21", "E22"}


def _sum_bits(res):
    return (res.value.hex(), res.terms_used, res.remainder_bound.hex(), res.converged)


def test_series_rows_equal_one_point_runs(monkeypatch):
    # every row of a batched direct or accelerated sum must carry the bits of
    # the one-point run of its scalar-parameter generator; a side sends the
    # points it accelerates (alpha > 0.98) to one accelerated rows call and
    # the others to one direct rows call
    calls, originals = _record_calls(monkeypatch, ("sum_direct", "sum_alternating_accelerated"))
    batched, accelerated = set(), set()
    for case in registry().values():
        for side, override in ((case.lhs, "lhs_value"), (case.rhs, "rhs_value")):
            if "series" not in side.describe or not case.continuous:
                continue
            batched.add(case.id)
            tol = Tolerance(case.default_tol.abs_tol / 4.0,
                            case.default_tol.rel_tol / 4.0, case.default_tol.max_work)
            axis = case.continuous[0]
            values = axis.points(33) + [dict(ep.params)[axis.name]
                                        for ep in case.extra_points
                                        if getattr(ep, override) is None]
            for combo in itertools.product(*[[(d.name, v) for v in d.values]
                                             for d in case.discrete]):
                fixed = dict(combo)
                del calls[:]
                outs = side.rows(fixed, axis.name, values, tol)
                assert len({name for name, _, _ in calls}) == len(calls)
                rows = {}
                for name, batch, res in calls:
                    assert len(res.rows) == len(batch.values)
                    rows.update((v, (name, row)) for v, row in zip(batch.values, res.rows))
                assert sorted(rows) == sorted(values)
                for value, out in zip(values, outs):
                    name, row = rows[value]
                    assert (name == "sum_alternating_accelerated") == (value > 0.98)
                    if value > 0.98:
                        accelerated.add(case.id)
                    del calls[:]
                    one = side.fn(fixed | {axis.name: value}, tol)
                    # the one-point row's column is NaN: a generator that read
                    # it instead of its scalar parameters would not match the
                    # finite batched row
                    [(one_name, point, point_res)] = calls
                    assert one_name == name and point.values == (None,)
                    alone = originals[name](point.at(), tol)
                    assert _sum_bits(row) == _sum_bits(alone) == _sum_bits(
                        point_res.rows[0]), (case.id, fixed, value)
                    assert (out.value, out.terms, out.converged) == (
                        one.value, one.terms, one.converged)
    assert batched == {"E5", "E7", "EC6", "E16", "E18", "E19", "E21", "E22"}
    assert accelerated == {"E5", "E16", "E19"}


def _is_closed_form(side):
    return side.rows.__qualname__.startswith("_closed.")


def test_closed_form_rows_equal_one_point_runs():
    # a closed form over a column must give every row the bits of its
    # one-point run, whose builder receives the parameters as scalars
    batched = set()
    tol = Tolerance()
    for case in registry().values():
        if not case.continuous:
            continue
        axis = case.continuous[0]
        for side, override in ((case.lhs, "lhs_value"), (case.rhs, "rhs_value")):
            if not _is_closed_form(side):
                continue
            batched.add(case.id)
            values = axis.points(33) + [dict(ep.params)[axis.name]
                                        for ep in case.extra_points
                                        if getattr(ep, override) is None]
            for combo in itertools.product(*[[(d.name, v) for v in d.values]
                                             for d in case.discrete]):
                fixed = dict(combo)
                outs = side.rows(fixed, axis.name, values, tol)
                assert len(outs) == len(values)
                for value, out in zip(values, outs):
                    one = side.fn(fixed | {axis.name: value}, tol)
                    assert type(out.value) is type(one.value) is float
                    assert out.value.hex() == one.value.hex(), (case.id, fixed, value)
    assert batched == {"E2", "E4", "E4alt", "E9", "E10", "EC6", "E11", "E12", "E18", "E18d"}


def test_every_grouped_call_runs_without_the_one_point_fallback(monkeypatch):
    # a side whose rows call raises is evaluated again one point at a time:
    # correct, but slow and silent. No registered side may take that path
    def fallback(evaluator, params, tol):
        raise AssertionError(f"{evaluator.describe!r} fell back to one point at {params}")

    monkeypatch.setattr(importlib.import_module("quadident.ledger"), "_evaluate_one", fallback)
    for case_id in registry():
        assert verify(case_id, 33)


def test_e11_makes_one_polylog_call_per_group_and_order(monkeypatch):
    # E11 has four groups (p = 0..3), each of 33 grid points and beta = 1,
    # and its closed form evaluates Li_{p+2}(b) and Li_{p+2}(-b) over the column
    module = importlib.import_module("quadident.registry")
    calls = []
    polylog_real = module.polylog_real

    def record(p, x):
        calls.append((p, np.shape(x)))
        return polylog_real(p, x)

    monkeypatch.setattr(module, "polylog_real", record)
    assert all(o.passed for o in verify("E11", 33))
    assert calls == [(p, (34, 1)) for p in (2, 3, 4, 5) for _ in range(2)]

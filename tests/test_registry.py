"""Registry evaluators: the per-(n, p) coefficient cache, and batched
quadrature and series rows against one-point runs."""

import importlib
import itertools

import numpy as np

from quadident.combinatorics import arctan_power_coeff
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


def test_quadrature_rows_equal_one_point_runs(monkeypatch):
    # a (rows x nodes) level must give every row the bits of its one-row run;
    # a different SIMD path for 2-D ufunc calls could break this
    module = importlib.import_module("quadident.registry")
    results = []
    for name in ("integrate_unit", "integrate_semi_infinite"):
        def record(spec, tol, _fn=getattr(module, name)):
            results.append(_fn(spec, tol))
            return results[-1]
        monkeypatch.setattr(module, name, record)

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
            outs = case.lhs.rows(fixed, axis.name, values, tol)
            rows = results[-1].rows
            assert len(rows) == len(outs) == len(values)
            for value, row, out in zip(values, rows, outs):
                one = case.lhs.fn(fixed | {axis.name: value}, tol)
                assert _bits(results[-1]) == _bits(row), (case.id, fixed, value)
                assert (out.value, out.evals, out.converged) == (
                    one.value, one.evals, one.converged)
    assert batched == {"E2", "E4", "E4alt", "E5", "E7", "E9", "E10", "E11", "E12",
                       "E16", "E21", "E22"}


def _sum_bits(res):
    return (res.value.hex(), res.terms_used, res.remainder_bound.hex(), res.converged)


def test_series_rows_equal_one_point_runs(monkeypatch):
    # every row of a batched direct sum must carry the bits of its one-row
    # run; points the case sums by the Euler transform stay one at a time
    module = importlib.import_module("quadident.registry")
    batches, singles = [], []
    for name in ("sum_direct", "sum_alternating_accelerated"):
        def record(g, tol, _fn=getattr(module, name)):
            res = _fn(g, tol)
            (batches if hasattr(res, "rows") else singles).append((g, res))
            return res
        monkeypatch.setattr(module, name, record)

    batched = set()
    for case in registry().values():
        for side, override in ((case.lhs, "lhs_value"), (case.rhs, "rhs_value")):
            if "series" not in side.describe or side.rows is None or not case.continuous:
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
                del batches[:], singles[:]
                outs = side.rows(fixed, axis.name, values, tol)
                [(batch, res)] = batches
                assert batch.values == tuple(v for v in values if v <= 0.98)
                assert len(singles) == len(values) - len(batch.values)
                rows = dict(zip(batch.values, res.rows))
                for value, out in zip(values, outs):
                    del singles[:]
                    one = side.fn(fixed | {axis.name: value}, tol)
                    [(_, alone)] = singles
                    if value in rows:
                        assert _sum_bits(rows[value]) == _sum_bits(alone), (
                            case.id, fixed, value)
                    assert (out.value, out.terms, out.converged) == (
                        one.value, one.terms, one.converged)
    assert batched == {"E5", "E7", "EC6", "E16", "E18", "E19", "E21", "E22"}

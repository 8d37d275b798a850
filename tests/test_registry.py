"""Registry evaluators: the per-(n, p) coefficient cache, and batched
quadrature rows against one-point runs."""

import importlib
import itertools

from quadident.combinatorics import arctan_power_coeff
from quadident.numerics import Tolerance
from quadident.registry import _gen_atan_pow_beta, _gen_atan_pow_over_n, registry
from quadident.specfun import incomplete_beta

_N_MAX = 430
_ALPHAS = (0.1, 0.5, 0.97, 1.0)


def test_cached_arctan_power_terms_are_the_uncached_doubles():
    # the cache must not change a single bit of any term, at every grid alpha
    for p in (1, 2, 3, 4):
        for a in _ALPHAS:
            beta_gen = _gen_atan_pow_beta(a, p)
            over_n_gen = _gen_atan_pow_over_n(a, p)
            for m in range((_N_MAX - p) // 2 + 1):
                n = p + 2 * m
                coeff = float(arctan_power_coeff(n, p))
                assert beta_gen.term(m) == (
                    coeff * incomplete_beta((n + 1) / 2.0) * a**n
                ), (p, a, n)
                assert over_n_gen.term(m) == coeff * a**n / n, (p, a, n)


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
        if case.lhs.rows is None or not case.continuous:
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

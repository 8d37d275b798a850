"""The record types of the package: immutable named tuples whose fields,
defaults, ``repr`` and checks are those the frozen dataclasses they replace
had (``GridAxis`` adds ``ends``; ``IdentityCase`` drops ``default_tol``,
``TermGenerator`` ``sign_pattern`` and ``tail_bound``),
and the values of ``specfun.zeta``, computed once each."""

import hashlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from quadident.combinatorics import RationalPowerSeries
from quadident.ledger import Report
from quadident.numerics import ConstantsTable, Rows, Tolerance
from quadident.quadrature import IntegrandSpec, QuadratureResult, QuadratureRows
from quadident.registry import (
    DiscreteAxis,
    EvalRows,
    Evaluator,
    GridAxis,
    IdentityCase,
)
from quadident.series import SummationResult, SummationRows, TermGenerator
from quadident.specfun import zeta

_EV = Evaluator("pi^2/6", abs)
_EV_REPR = "Evaluator(describe='pi^2/6', rows=<built-in function abs>)"
_AXIS = GridAxis("alpha", 0.0, 1.0, (1.0,))
_P = DiscreteAxis("p", (1, 2))

# (hand-built record, its fields in order, its defaults, the former
# dataclass's repr of it)
_RECORDS = [
    (Tolerance(1e-9, 0.0, 5), ("abs_tol", "rel_tol", "max_work"),
     {"abs_tol": 1e-10, "rel_tol": 1e-10, "max_work": 2000000},
     "Tolerance(abs_tol=1e-09, rel_tol=0.0, max_work=5)"),
    (ConstantsTable(), ("pi", "log2", "zeta2", "zeta3", "catalan"),
     {"pi": 3.141592653589793, "log2": 0.6931471805599453, "zeta2": 1.6449340668482264,
      "zeta3": 1.2020569031595942, "catalan": 0.915965594177219},
     "ConstantsTable(pi=3.141592653589793, log2=0.6931471805599453, "
     "zeta2=1.6449340668482264, zeta3=1.2020569031595942, catalan=0.915965594177219)"),
    (Rows(abs, [{"alpha": 0.5}]), ("build", "points"), {},
     "Rows(build=<built-in function abs>, points=[{'alpha': 0.5}])"),
    (IntegrandSpec(np.log, np.log1p), ("f", "f_right"), {"f_right": None},
     "IntegrandSpec(f=<ufunc 'log'>, f_right=<ufunc 'log1p'>)"),
    (QuadratureResult(1.5, 2e-16, 129, True),
     ("value", "error_estimate", "evaluations", "converged"), {},
     "QuadratureResult(value=1.5, error_estimate=2e-16, evaluations=129, converged=True)"),
    (QuadratureRows(np.array([1.5]), np.array([2e-16]), np.array([129]), np.array([True])),
     ("values", "error_estimates", "work", "row_converged"), {},
     "QuadratureRows(values=array([1.5]), error_estimates=array([2.e-16]), "
     "work=array([129]), row_converged=array([ True]))"),
    (TermGenerator(abs, 1, "s"),
     ("terms", "first_index", "name"),
     {"first_index": 0, "name": ""},
     "TermGenerator(terms=<built-in function abs>, first_index=1, name='s')"),
    (SummationResult(0.25, 17, 1e-12),
     ("value", "terms_used", "remainder_bound", "converged"), {"converged": True},
     "SummationResult(value=0.25, terms_used=17, remainder_bound=1e-12, converged=True)"),
    (SummationRows(np.array([0.25]), np.array([1e-12]), np.array([17]), np.array([False])),
     ("values", "remainder_bounds", "work", "row_converged"), {},
     "SummationRows(values=array([0.25]), remainder_bounds=array([1.e-12]), "
     "work=array([17]), row_converged=array([False]))"),
    (EvalRows(np.array([1.0, 2.0]), 3), ("value", "evals", "terms", "converged"),
     {"evals": 0, "terms": 0, "converged": True},
     "EvalRows(value=array([1., 2.]), evals=3, terms=0, converged=True)"),
    (_EV, ("describe", "rows"), {}, _EV_REPR),
    (_AXIS, ("name", "lo", "hi", "ends"), {"ends": ()},
     "GridAxis(name='alpha', lo=0.0, hi=1.0, ends=(1.0,))"),
    (_P, ("name", "values"), {}, "DiscreteAxis(name='p', values=(1, 2))"),
    (IdentityCase("EX", "d", "s", _EV, _EV, (_AXIS,), (_P,)),
     ("id", "description", "source", "lhs", "rhs", "continuous", "discrete"),
     {"continuous": (), "discrete": ()},
     f"IdentityCase(id='EX', description='d', source='s', lhs={_EV_REPR}, rhs={_EV_REPR}, "
     "continuous=(GridAxis(name='alpha', lo=0.0, hi=1.0, ends=(1.0,)),), "
     "discrete=(DiscreteAxis(name='p', values=(1, 2)),))"),
    (Report("9.9", "T", None, 1e-9, ()),
     ("version", "timestamp", "tol_abs", "tol_rel", "outcomes"), {},
     "Report(version='9.9', timestamp='T', tol_abs=None, tol_rel=1e-09, outcomes=())"),
    (RationalPowerSeries((1, Fraction(1, 2), 0)), ("coefficients",), {},
     "RationalPowerSeries(coefficients=(Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)))"),
]


@pytest.mark.parametrize("record, fields, defaults, text", _RECORDS,
                         ids=[type(r[0]).__name__ for r in _RECORDS])
def test_record_contract(record, fields, defaults, text):
    # fields, defaults and repr as the former frozen dataclass had them, and
    # no field can be assigned
    assert isinstance(record, tuple) and type(record)._fields == fields
    assert type(record)._field_defaults == defaults
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)


@pytest.mark.parametrize("make, message", [
    (lambda: Tolerance(math.nan), "tolerances must be finite"),
    (lambda: Tolerance(1e-9, math.inf), "tolerances must be finite"),
    (lambda: Tolerance(-1.0), "tolerances must be nonnegative"),
    (lambda: Tolerance(0.0, 0.0), "at least one of abs_tol, rel_tol must be positive"),
    (lambda: Tolerance(1e-9, 1e-9, 0), "max_work must be a positive integer"),
    (lambda: Tolerance(1e-9, 1e-9, True), "max_work must be a positive integer"),
    (lambda: Tolerance(1e-9, 1e-9, 2.0), "max_work must be a positive integer"),
    (lambda: Tolerance()._replace(rel_tol=-1.0), "tolerances must be nonnegative"),
    (lambda: RationalPowerSeries(()), "a series needs at least the constant coefficient"),
    (lambda: RationalPowerSeries((1,))._replace(coefficients=()),
     "a series needs at least the constant coefficient"),
])
def test_checked_records_keep_their_messages(make, message):
    # the checks run in __new__, so _make and _replace run them too
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_checked_records_normalise_through_replace():
    assert Tolerance(max_work=7) == Tolerance(1e-10, 1e-10, 7)
    assert type(Tolerance()._replace(max_work=7)) is Tolerance
    series = RationalPowerSeries((1,))._replace(coefficients=(2, 0.5))
    assert type(series) is RationalPowerSeries and series.coefficients == (2, Fraction(1, 2))
    assert all(type(c) is Fraction for c in series.coefficients)


def test_rational_power_series_takes_no_tuple_arithmetic():
    # as a tuple the series would repeat or concatenate; its one operator is
    # the truncated Cauchy product of two series
    s = RationalPowerSeries((1, 2))
    for operate in (lambda: 2 * s, lambda: s * 2, lambda: s * Fraction(1, 2),
                    lambda: s + s, lambda: s + (3,), lambda: 1 + s):
        with pytest.raises(TypeError):
            operate()
    assert s * s == RationalPowerSeries((1, 4))


def test_zeta_keeps_its_bits_and_computes_each_value_once():
    # the SHA-256 of the packed doubles zeta(2), ..., zeta(60) as computed
    # before the values were cached
    values = [zeta(p) for p in range(2, 61)]
    assert hashlib.sha256(struct.pack("<59d", *values)).hexdigest() == (
        "fecd7b317817363a1f33e4f6c063c89f5723908e8dd8680e621a5b1c0950c0eb")
    assert all(zeta(p) is value for p, value in zip(range(2, 61), values))
    with pytest.raises(ValueError, match="zeta requires p >= 2"):
        zeta(1)

"""Registry integrity, the verification driver, report rendering, and the CLI."""

import json
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from quadident import cli, ledger
from quadident.ledger import (
    Report,
    make_report,
    render_report,
    verify,
    verify_all,
)
from quadident.numerics import CONSTANTS, Tolerance
from quadident.quadrature import IntegrandSpec, QuadratureError
from quadident.series import (
    NonFiniteTermError,
    SignPatternError,
    TermGenerator,
)
from quadident.registry import (
    EvalRows,
    Evaluator,
    GridAxis,
    IdentityCase,
    _closed,
    _quad,
    _series,
    lookup,
    register_all,
    registry,
)
from _one_point import one_point

PI = CONSTANTS.pi
G = CONSTANTS.catalan
Z2 = CONSTANTS.zeta2
Z3 = CONSTANTS.zeta3


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_size_and_unique_ids():
    cases = register_all()
    # the full equation list: E1-E2, E4-E10 (+alt/b forms), the corollary pair,
    # E11-E19 with the half-line companions, and E21-E23
    assert len(cases) == 28
    assert len({c.id for c in cases}) == len(cases)


def test_lookup_e15():
    case = lookup("E15")
    assert "zeta(3)" in case.description
    out = one_point(case.rhs, {}, Tolerance())
    assert abs(out.value - (0.5 * PI * G - 0.875 * Z3)) <= 1e-15


def test_lookup_unknown_id():
    with pytest.raises(KeyError):
        lookup("E3")  # the two-candidate display is not an identity


def test_every_case_has_source_and_description():
    for case in register_all():
        assert case.description
        assert case.source


# ---------------------------------------------------------------------------
# verify()
# ---------------------------------------------------------------------------

def test_verify_e15_single_point():
    outs = verify("E15", 1)
    assert len(outs) == 1
    out = outs[0]
    assert out.passed
    assert out.abs_error <= 1e-10
    assert abs(out.lhs_value - (0.5 * PI * G - 0.875 * Z3)) <= 1e-10


def test_verify_e4_grid_and_endpoints():
    outs = verify("E4", 9)
    assert len(outs) == 11  # 0.1..0.9 plus the axis's two ends
    alphas = [o.params["alpha"] for o in outs]
    assert alphas[:9] == pytest.approx([0.1 * k for k in range(1, 10)])
    assert set(alphas[9:]) == {0.0, 1.0}
    assert all(o.passed for o in outs)
    endpoint = next(o for o in outs if o.params["alpha"] == 1.0)
    assert abs(endpoint.rhs_value - 1.5 * Z2) <= 1e-12


def test_failing_row_fails_only_its_own_outcome(monkeypatch):
    # the integrand goes non-finite for alpha = 0.5 only: the batched call
    # raises, and its points are evaluated again by halves down to that point
    def build(alpha):
        return IntegrandSpec(lambda x: np.where(alpha == 0.5, np.nan, alpha * x))

    case = IdentityCase(
        id="X1", description="int_0^1 a x dx = a/2", source="synthetic",
        lhs=_quad("tanh-sinh on (0,1)", build),
        rhs=_closed("a/2", lambda alpha: 0.5 * alpha),
        continuous=(GridAxis("alpha", 0.0, 1.0),),
    )
    monkeypatch.setitem(registry(), "X1", case)
    outs = verify("X1", 3)
    assert [o.params["alpha"] for o in outs] == [0.25, 0.5, 0.75]
    eval_tol = Tolerance(2.5e-11, 2.5e-11)
    with pytest.raises(QuadratureError):
        case.lhs.rows([{"alpha": a} for a in (0.25, 0.5, 0.75)], eval_tol)
    with pytest.raises(QuadratureError) as alone:
        one_point(case.lhs, {"alpha": 0.5}, eval_tol)
    bad = outs[1]
    assert not bad.passed
    assert bad.reason == f"error: {alone.value}"
    assert bad.reason.startswith("error: integrand returned a non-finite value at x=")
    assert math.isnan(bad.lhs_value) and math.isnan(bad.rhs_value)
    assert (bad.evals, bad.terms) == (0, 0)
    for o in (outs[0], outs[2]):
        one = one_point(case.lhs, o.params, eval_tol)
        assert o.passed and o.reason == ""
        assert (o.lhs_value, o.evals) == (one.value, one.evals)
        assert o.rhs_value == 0.5 * o.params["alpha"]


def test_failing_series_row_fails_only_its_own_outcome(monkeypatch):
    # the terms of alpha = 0.5 stop alternating at index 5: the batched sum
    # raises, and its points are summed again by halves down to that point
    def build(alpha):
        def terms(n0, n1):
            n = np.arange(n0, n1)
            t = (-alpha) ** n / (n + 1.0)
            return np.where((alpha == 0.5) & (n == 6), -t, t)

        return TermGenerator(terms, 0, name="synthetic series")

    case = IdentityCase(
        id="X2", description="sum (-a)^n/(n+1) = log(1+a)/a", source="synthetic",
        lhs=_series("alternating series", build),
        rhs=_closed("log(1+a)/a", lambda alpha: np.log1p(alpha) / alpha),
        continuous=(GridAxis("alpha", 0.0, 1.0),),
    )
    monkeypatch.setitem(registry(), "X2", case)
    outs = verify("X2", 3)
    assert [o.params["alpha"] for o in outs] == [0.25, 0.5, 0.75]
    eval_tol = Tolerance(2.5e-11, 2.5e-11)
    with pytest.raises(SignPatternError, match="indices 5 and 6 of synthetic series"):
        case.lhs.rows([{"alpha": a} for a in (0.25, 0.5, 0.75)], eval_tol)
    with pytest.raises(SignPatternError) as alone:
        one_point(case.lhs, {"alpha": 0.5}, eval_tol)
    bad = outs[1]
    assert not bad.passed
    assert bad.reason == f"error: {alone.value}"
    assert bad.reason.startswith("error: terms at indices 5 and 6 of synthetic series")
    assert math.isnan(bad.lhs_value) and math.isnan(bad.rhs_value)
    assert (bad.evals, bad.terms) == (0, 0)
    for o in (outs[0], outs[2]):
        one = one_point(case.lhs, o.params, eval_tol)
        assert o.passed and o.reason == ""
        assert (o.lhs_value, o.terms) == (one.value, one.terms)


def test_non_finite_series_row_fails_only_its_own_outcome(monkeypatch):
    # the alpha = 0.5 row has a NaN term at index 6, read before its stop
    def build(alpha):
        def terms(n0, n1):
            n = np.arange(n0, n1)
            return np.where((alpha == 0.5) & (n == 6), np.nan, (-alpha) ** n / (n + 1.0))

        return TermGenerator(terms, 0, name="synthetic series")

    case = IdentityCase(
        id="X3", description="sum (-a)^n/(n+1) = log(1+a)/a", source="synthetic",
        lhs=_series("alternating series", build),
        rhs=_closed("log(1+a)/a", lambda alpha: np.log1p(alpha) / alpha),
        continuous=(GridAxis("alpha", 0.0, 1.0),),
    )
    monkeypatch.setitem(registry(), "X3", case)
    outs = verify("X3", 3)
    with pytest.raises(NonFiniteTermError) as alone:
        one_point(case.lhs, {"alpha": 0.5}, Tolerance(2.5e-11, 2.5e-11))
    assert [o.passed for o in outs] == [True, False, True]
    assert outs[1].reason == f"error: {alone.value}"
    assert outs[1].reason == "error: term at index 6 of synthetic series is not finite (nan)"


def test_raising_closed_form_fails_only_its_own_outcome(monkeypatch):
    # closed forms go through the batched call too, with the parameter as a
    # column: the left side raises when its column holds alpha = 0.5, so the
    # points are evaluated again by halves ([0.25] alone, then [0.5, 0.75]),
    # and the right side of that point is never evaluated
    def lhs(alpha):
        if 0.5 in np.ravel(alpha):
            raise ValueError("no closed form at alpha=0.5")
        return 0.5 * alpha

    seen = []

    def rhs(alpha):
        seen.extend(np.ravel(alpha).tolist())
        return alpha / 2.0

    case = IdentityCase(
        id="X4", description="a/2 = a/2", source="synthetic",
        lhs=_closed("a/2, raising at 1/2", lhs),
        rhs=_closed("a/2", rhs),
        continuous=(GridAxis("alpha", 0.0, 1.0),),
    )
    monkeypatch.setitem(registry(), "X4", case)
    outs = verify("X4", 3)
    assert [o.params["alpha"] for o in outs] == [0.25, 0.5, 0.75]
    assert seen == [0.25, 0.75]
    with pytest.raises(ValueError):
        case.lhs.rows([{"alpha": a} for a in (0.25, 0.5, 0.75)], Tolerance())
    with pytest.raises(ValueError) as alone:
        one_point(case.lhs, {"alpha": 0.5}, Tolerance())
    assert [o.passed for o in outs] == [True, False, True]
    bad = outs[1]
    assert bad.reason == f"error: {alone.value}" == "error: no closed form at alpha=0.5"
    assert math.isnan(bad.lhs_value) and math.isnan(bad.rhs_value)
    assert (bad.evals, bad.terms) == (0, 0)
    for o in (outs[0], outs[2]):
        assert o.lhs_value == o.rhs_value == 0.5 * o.params["alpha"]


def test_one_bad_point_is_found_by_halving(monkeypatch):
    # 33 points with one raising point: the failed call is retried by halves,
    # each half one rows call down to single points, so about 2 log2(33)
    # calls find it instead of 33
    axis = GridAxis("alpha", 0.0, 1.0)
    alphas = axis.points(33)
    bad = alphas[19]
    sizes = []

    def lhs(alpha):
        sizes.append(np.size(alpha))
        if bad in np.ravel(alpha):
            raise ValueError(f"no closed form at alpha={bad!r}")
        return 0.5 * alpha

    case = IdentityCase(
        id="X5", description="a/2 = a/2", source="synthetic",
        lhs=_closed("a/2, raising at one point", lhs),
        rhs=_closed("a/2", lambda alpha: alpha / 2.0),
        continuous=(axis,),
    )
    monkeypatch.setitem(registry(), "X5", case)
    outs = verify("X5", 33)
    # 33 -> 16 + 17; 17 -> 8 + 9; 8 -> 4 + 4; 4 -> 2 + 2; 2 -> two single points
    assert sizes == [33, 16, 17, 8, 4, 2, 2, 1, 1, 4, 9]
    assert len(sizes) == 11 <= 2 * math.ceil(math.log2(33))
    with pytest.raises(ValueError) as alone:
        one_point(case.lhs, {"alpha": bad}, Tolerance())
    assert [o.params["alpha"] for o in outs] == alphas
    for o in outs:
        if o.params["alpha"] == bad:
            assert not o.passed and o.reason == f"error: {alone.value}"
            assert math.isnan(o.lhs_value) and math.isnan(o.rhs_value)
        else:
            assert o.passed and o.reason == ""
            assert o.lhs_value == o.rhs_value == 0.5 * o.params["alpha"]


# ---------------------------------------------------------------------------
# The judge: every outcome of a case in one array pass, against the scalar rule
# ---------------------------------------------------------------------------


def _scalar_rule(eff, lhs, rhs):
    """One outcome's fields from each side's ``(value, evals, terms,
    converged)`` or exception, point by point: the reference for the
    vectorised judge."""
    evals = terms = 0
    converged = True
    lhs_value = rhs_value = math.nan
    imag_excess = False
    for side, result in (("lhs", lhs), ("rhs", rhs)):
        if isinstance(result, Exception):
            return (lhs_value, rhs_value, math.nan, math.nan, False,
                    f"error: {result}", evals, terms)
        value, e, t, c = result
        evals, terms, converged = evals + e, terms + t, converged and c
        if isinstance(value, complex):
            margin = eff.abs_tol + eff.rel_tol * max(
                abs(value.real), abs(lhs_value) if side == "rhs" else 0.0)
            imag_excess = imag_excess or abs(value.imag) > margin
            value = value.real
        if side == "lhs":
            lhs_value = value
        else:
            rhs_value = value
    diff = abs(lhs_value - rhs_value)
    scale = max(abs(lhs_value), abs(rhs_value))
    rel = 0.0 if scale == 0.0 else diff / scale
    ok = eff.passes(lhs_value, rhs_value)
    reason = ("not_converged" if not converged else
              "imaginary_part_exceeds_tolerance" if imag_excess else
              "" if ok else "mismatch")
    return (lhs_value, rhs_value, diff, rel, ok and converged and not imag_excess,
            reason, evals, terms)


def _table_side(table):
    """An evaluator that looks each alpha up in ``table``: ``(value, evals,
    terms, converged)``, or an exception, which its rows call raises."""
    def rows(points, tol):
        entries = [table[point["alpha"]] for point in points]
        for entry in entries:
            if isinstance(entry, Exception):
                raise entry
        value, evals, terms, converged = zip(*entries)
        return EvalRows(np.array(value), np.array(evals), np.array(terms),
                        np.array(converged))

    return Evaluator("table", rows)


_INF, _NAN = math.inf, math.nan
_JUDGE_CASES = [  # (lhs, rhs) per point
    ((0.0, 0, 0, True), (0.0, 0, 0, True)),                  # both 0: rel_error 0
    ((1.0, 129, 0, True), (1.0 + 1e-12, 0, 17, True)),       # pass, with work
    ((1.0, 5, 0, True), (1.1, 0, 0, True)),                  # mismatch
    ((_INF, 0, 0, True), (1.0, 0, 0, True)),                 # infinite side
    ((-_INF, 0, 0, True), (-_INF, 0, 0, True)),              # inf - inf is NaN
    ((_NAN, 0, 0, True), (1.0, 0, 0, True)),                 # NaN side
    ((0.0, 0, 0, True), (_NAN, 0, 0, True)),                 # max(0, nan) is 0
    ((1.0, 7, 0, False), (2.0, 0, 3, True)),                 # not converged first
    ((1.0, 0, 0, True), (1.0 + 1e-3j, 0, 0, False)),         # ... before imaginary
    ((2.0, 0, 0, True), (2.0 + 1e-3j, 0, 0, True)),          # imaginary part
    ((2.0, 0, 0, True), (2.0 + 1e-11j, 0, 0, True)),         # imaginary within margin
    ((3.0 + 1e-3j, 0, 0, True), (3.0, 0, 0, True)),          # complex left side
    ((3.0 + 1e-3j, 0, 0, True), (4.0, 0, 0, True)),          # ... and a mismatch
    ((1.5, 33, 4, True), ValueError("rhs boom")),            # rhs error keeps lhs
    (ValueError("lhs boom"), (1.0, 0, 0, True)),             # lhs error: all NaN
]


def test_vectorised_judge_matches_the_scalar_rule(monkeypatch):
    alphas = [k / 100.0 for k in range(1, len(_JUDGE_CASES) + 1)]
    case = IdentityCase(
        id="X6", description="synthetic sides", source="synthetic",
        lhs=_table_side({a: left for a, (left, _) in zip(alphas, _JUDGE_CASES)}),
        rhs=_table_side({a: right for a, (_, right) in zip(alphas, _JUDGE_CASES)}),
        continuous=(GridAxis("alpha", 0.0, 1.0),),
    )
    monkeypatch.setitem(registry(), "X6", case)
    eff = Tolerance(1e-10, 1e-10)
    outs = verify("X6", points=[{"alpha": a} for a in alphas], tol=eff)
    for o, (left, right) in zip(outs, _JUDGE_CASES):
        got = (o.lhs_value, o.rhs_value, o.abs_error, o.rel_error, o.passed, o.reason,
               o.evals, o.terms)
        want = _scalar_rule(eff, left, right)
        assert [type(v) for v in got] == [float] * 4 + [bool, str, int, int], o
        assert repr(got) == repr(want), o.params
    by_reason = [o.reason for o in outs]
    assert by_reason == ["", "", "mismatch", "mismatch", "mismatch", "mismatch",
                         "mismatch", "not_converged", "not_converged",
                         "imaginary_part_exceeds_tolerance", "",
                         "imaginary_part_exceeds_tolerance",
                         "imaginary_part_exceeds_tolerance",
                         "error: rhs boom", "error: lhs boom"]
    assert outs[0].rel_error == 0.0 and outs[0].passed
    assert (outs[13].lhs_value, outs[13].evals, outs[13].terms) == (1.5, 33, 4)
    assert math.isnan(outs[14].lhs_value) and (outs[14].evals, outs[14].terms) == (0, 0)
    parsed = json.loads(render_report(Report("v", "t", None, None, tuple(outs)), "json"))
    for got in parsed["outcomes"][3:6]:
        assert got["pass"] is False and got["abs_error"] is None
    assert parsed["outcomes"][3]["lhs"] is None and parsed["outcomes"][5]["lhs"] is None
    assert parsed["outcomes"][6]["rhs"] is None and parsed["outcomes"][6]["rel_error"] == 0.0


def test_verify_e19_checks_imaginary_part():
    outs = verify("E19", 3)
    assert all(o.passed for o in outs)
    assert any(o.params["alpha"] == 1.0 for o in outs)


def test_verify_explicit_points():
    outs = verify("E18", 1, points=[{"alpha": 0.35}, {"alpha": 0.65}])
    assert [o.params["alpha"] for o in outs] == [0.35, 0.65]
    assert all(o.passed for o in outs)


def _record_evaluated_points(monkeypatch):
    """The indices each ``ledger._evaluate`` call evaluates, one list per call."""
    calls = []
    evaluate = ledger._evaluate

    def record(evaluator, pts, skip, tol):
        calls.append(sorted(i for i in range(len(pts)) if i not in skip))
        return evaluate(evaluator, pts, skip, tol)

    monkeypatch.setattr(ledger, "_evaluate", record)
    return calls


def test_point_missing_a_parameter_fails_unevaluated(monkeypatch):
    # a point that lacks a discrete or a continuous parameter of its case
    # fails naming it, with no work on either side; the other points and the
    # points at the axis's ends keep their outcomes
    calls = _record_evaluated_points(monkeypatch)
    outs = verify("E11", points=[{"beta": 0.5}, {"p": 2}, {"beta": 0.5, "p": 2}])
    assert [o.reason for o in outs[:2]] == ["error: missing parameter p",
                                            "error: missing parameter beta"]
    assert all(o.evals == o.terms == 0 and math.isnan(o.lhs_value) for o in outs[:2])
    assert all(o.passed for o in outs[2:]) and len(outs) == 3 + 4
    assert calls == [[2, 3, 4, 5, 6]] * 2
    [alone] = verify("E2", points=[{}])[:1]
    assert alone.reason == "error: missing parameter alpha" and alone.evals == 0


def test_point_with_an_unknown_parameter_fails_unevaluated(monkeypatch):
    # a caller's point that names a parameter its case lacks fails naming it,
    # with no work on either side, instead of reaching a builder; the other
    # points and those at the axis's ends keep their outcomes
    calls = _record_evaluated_points(monkeypatch)
    outs = verify("E2", points=[{"alpha": 0.5, "beta": 3}, {"alpha": 0.5}])
    assert outs[0].reason == "error: unknown parameter beta"
    assert outs[0].evals == outs[0].terms == 0 and math.isnan(outs[0].lhs_value)
    assert [o.params for o in outs[1:]] == [{"alpha": 0.5}, {"alpha": 1.0}]
    assert all(o.passed for o in outs[1:]) and calls == [[1, 2]] * 2
    [basel] = verify("E1", points=[{"alpha": 0.5}])
    assert basel.reason == "error: unknown parameter alpha" and basel.evals == 0


@pytest.mark.parametrize("value", ["x", None, 0.5j, True, [0.5], Fraction(1, 2)])
def test_non_real_continuous_value_raises_before_any_side_runs(monkeypatch, value):
    # the sides could not evaluate it, nor a report sort and render its
    # outcome
    def unreachable(*args):
        raise AssertionError("a side ran")

    monkeypatch.setattr(ledger, "_evaluate", unreachable)
    with pytest.raises(ValueError) as info:
        verify("E2", points=[{"alpha": 0.5}, {"alpha": value}])
    assert str(info.value) == f"alpha must be a real number, got {value!r}"


@pytest.mark.parametrize("case_id, point", [("E2", {"alpha": 0.5, 1: 2}),
                                             ("E1", {(1, 2): 3})])
def test_parameter_name_that_is_no_string_raises_before_any_side_runs(
        monkeypatch, case_id, point):
    # a report could neither sort such a point's outcome among string names
    # nor write it as a JSON key
    def unreachable(*args):
        raise AssertionError("a side ran")

    monkeypatch.setattr(ledger, "_evaluate", unreachable)
    with pytest.raises(ValueError) as info:
        verify(case_id, points=[point])
    [name] = [name for name in point if not isinstance(name, str)]
    assert str(info.value) == f"parameter names must be strings, got {name!r}"


def test_real_continuous_values_of_numpy_and_python_types_pass():
    outs = verify("E2", points=[{"alpha": np.float64(0.25)}, {"alpha": np.float32(0.5)},
                                {"alpha": 1}, {"alpha": np.int64(1)}])
    assert all(o.passed for o in outs)


def test_narrow_numpy_floats_verify_as_their_python_floats():
    # a float32 parameter is widened to float64 before any side runs; kept
    # narrow, a side squared alpha in single precision and E7, E18 and E18d
    # read mismatches of 1e-9 to 1e-7
    for case in registry().values():
        if not case.continuous:
            continue
        axis = case.continuous[0].name
        fixed = [{d.name: v} for d in case.discrete for v in d.values] or [{}]
        narrow = verify(case.id, points=[f | {axis: np.float32(0.3)} for f in fixed])
        wide = verify(case.id, points=[f | {axis: float(np.float32(0.3))} for f in fixed])
        assert all(o.passed for o in narrow), case.id
        assert [(o.lhs_value, o.rhs_value) for o in narrow] == [
            (o.lhs_value, o.rhs_value) for o in wide], case.id


def test_verify_rejects_bad_grid():
    with pytest.raises(ValueError):
        verify("E1", 0)


@pytest.mark.parametrize("case_id", ["E1", "E2"])
@pytest.mark.parametrize("grid_size", [2.5, 3.0, "3", None, True, False, 0, -1, np.int64(0)])
def test_grid_size_that_is_no_integer_from_one_raises_before_any_side_runs(
        monkeypatch, case_id, grid_size):
    # the rule of discrete parameters: Python and numpy integers, not bools;
    # E1 has no grid to build, so it would run a float or a bool
    def unreachable(*args):
        raise AssertionError("a side ran")

    monkeypatch.setattr(ledger, "_evaluate", unreachable)
    with pytest.raises(ValueError) as info:
        verify(case_id, grid_size=grid_size)
    assert str(info.value) == f"grid_size must be an integer >= 1, got {grid_size!r}"


def test_numpy_integer_grid_size_runs_the_python_integer_grid():
    assert verify("E21", grid_size=np.int64(3)) == verify("E21", grid_size=3)


def test_unreachable_tolerance_reported_not_converged():
    outs = verify("E6", 1, tol=Tolerance(1e-30, 0.0, 2000))
    assert len(outs) == 1
    assert not outs[0].passed
    assert outs[0].reason == "not_converged"


# ---------------------------------------------------------------------------
# Cross-case coherence
# ---------------------------------------------------------------------------

def test_e4_and_e4alt_closed_forms_agree():
    rhs4 = partial(one_point, lookup("E4").rhs)
    rhs4alt = partial(one_point, lookup("E4alt").rhs)
    tol = Tolerance()
    for k in range(1, 10):
        alpha = 0.1 * k
        a = rhs4({"alpha": alpha}, tol).value
        b = rhs4alt({"alpha": alpha}, tol).value
        assert abs(a - b) <= 1e-10


def test_e23_at_p1_reproduces_e6_series():
    tol = Tolerance(1e-10, 1e-10)
    eval_tol = Tolerance(2.5e-11, 2.5e-11)
    e6_series = one_point(lookup("E6").rhs, {}, eval_tol).value
    e23_scaled = one_point(lookup("E23").rhs, {"p": 1}, eval_tol).value
    # pi^2 = 16 sum: the E23 prefactor at p=1 is exactly 16
    assert abs(e23_scaled / 16.0 - e6_series) <= 1e-12
    assert tol.passes(e23_scaled, PI**2)


def test_half_line_integrals_double_the_unit_ones():
    tol = Tolerance()
    for unit_id, full_id in (("E13", "E13inf"), ("E14", "E14inf")):
        unit_val = one_point(lookup(unit_id).lhs, {}, tol).value
        full_val = one_point(lookup(full_id).lhs, {}, tol).value
        assert abs(full_val - 2.0 * unit_val) <= 1e-10


# the limits of the closed forms whose log term reads 0 * inf at an end
_LIMITS = [
    ("E4", 0.0, 0.0),
    ("E4", 1.0, 1.5 * Z2),
    ("E9", 1.0, Z2),
]


def test_registered_limits_are_continuous():
    # each limit is approached by the general formula near the end;
    # log-type ends move like eps*log(eps) at distance 1e-4, so the
    # comparison tolerance is 5e-3
    eps = 1e-4
    tol = Tolerance()
    for case_id, end, limit in _LIMITS:
        near = one_point(lookup(case_id).rhs, {"alpha": abs(end - eps)}, tol).value
        assert abs(near - limit) <= 5e-3


def test_closed_forms_take_their_limits_at_the_ends():
    # at the ends the closed form itself gives the limit, to the bit, alone
    # and among grid points, and the end's outcome passes
    tol = Tolerance()
    for case_id, end, limit in _LIMITS:
        case = lookup(case_id)
        assert one_point(case.rhs, {"alpha": end}, tol).value.hex() == limit.hex()
        rows = case.rhs.rows([{"alpha": 0.5}, {"alpha": end}], tol).value
        assert rows[1].hex() == limit.hex()
        [out] = [o for o in verify(case_id, 1) if o.params["alpha"] == end]
        assert out.passed and out.rhs_value.hex() == limit.hex()


def test_registered_ends_lie_on_their_axis():
    # an end is the lower or the upper limit of its axis's interval, never
    # a point inside it, and each is listed once
    ends = 0
    for case in registry().values():
        for axis in case.continuous:
            assert set(axis.ends) <= {axis.lo, axis.hi}, case.id
            assert len(set(axis.ends)) == len(axis.ends), case.id
            ends += len(axis.ends)
    assert ends == 12


# ---------------------------------------------------------------------------
# verify_all and reports
# ---------------------------------------------------------------------------

def test_verify_all_small_grid_everything_passes():
    report = verify_all(2)
    summary = report.summary
    assert summary["failed"] == 0
    assert summary["not_converged"] == 0
    assert summary["passed"] == len(report.outcomes)
    ids = [o.id for o in report.outcomes]
    assert ids == sorted(ids)


def test_report_writes_a_parameter_that_is_no_number_as_its_repr():
    # a caller's p = "2" fails its point; the report still sorts it after
    # the real values and writes it as its repr in JSON and in the table,
    # while the numbers, numpy's included, are written as numbers
    outs = verify("E21", points=[{"alpha": 0.5, "p": "2"}, {"alpha": 0.5, "p": 1},
                                 {"alpha": np.float32(0.25), "p": 1}])
    report = make_report(outs, None, None)
    assert [o.params["p"] for o in report.outcomes if o.params["alpha"] == 0.5] == [1, "2"]
    parsed = json.loads(render_report(report, "json"))
    params = [o["params"] for o in parsed["outcomes"]]
    assert {"alpha": 0.5, "p": "'2'"} in params and {"alpha": 0.25, "p": 1} in params
    assert all(type(q["alpha"]) is float for q in params)
    [line] = [row for row in render_report(report).splitlines() if "p='2'" in row]
    assert line.startswith("E21     alpha=0.5,p='2' ") and "error: p must be an integer" in line


def test_report_json_round_trip():
    report = verify_all(1)
    text = render_report(report, "json")
    parsed = json.loads(text)
    # the outcomes are dumped one by one; joined, they must read exactly as
    # one compact dump of the whole document
    assert text == json.dumps(parsed, separators=(",", ":"))
    assert parsed["version"] == report.version
    assert parsed["tolerance"] == {"abs": None, "rel": None}
    assert len(parsed["outcomes"]) == len(report.outcomes)
    for got, out in zip(parsed["outcomes"], report.outcomes):
        # 17 significant digits uniquely identify a double
        assert got["lhs"] == out.lhs_value
        assert got["rhs"] == out.rhs_value
        assert got["abs_error"] == out.abs_error
        assert got["pass"] == out.passed
        assert got["work"] == {"evals": out.evals, "terms": out.terms}
    assert parsed["summary"] == report.summary


def test_empty_report_rendering():
    report = Report("0.0-test", "2000-01-01T00:00:00+00:00", None, None, ())
    text = render_report(report, "json")
    parsed = json.loads(text)
    assert text == json.dumps(parsed, separators=(",", ":"))
    assert parsed["outcomes"] == []
    assert parsed["summary"] == {"passed": 0, "failed": 0, "not_converged": 0}


def test_table_rendering_contains_values():
    outs = verify("E6", 1)
    report = Report("0.0-test", "t", None, None, tuple(outs))
    table = render_report(report, "table")
    assert "E6" in table
    assert "0.6168502751" in f"{outs[0].lhs_value:.10f}"
    assert "pass" in table
    with pytest.raises(ValueError):
        render_report(report, "xml")


def test_nan_renders_as_null():
    from quadident.ledger import VerificationOutcome

    out = VerificationOutcome(
        "EX", {"alpha": 0.5}, math.nan, 1.0, math.nan, math.nan,
        False, "error: boom", 0, 0,
    )
    parsed = json.loads(render_report(Report("v", "t", None, None, (out,)), "json"))
    assert parsed["outcomes"][0]["lhs"] is None
    assert parsed["outcomes"][0]["reason"] == "error: boom"


def test_reason_control_characters_round_trip():
    from quadident.ledger import VerificationOutcome

    reason = 'error: line one\nline two\tcol "q" \\ \x01'
    out = VerificationOutcome(
        "EX", {"alpha": 0.5}, 1.0, 1.0, 0.0, 0.0, False, reason, 0, 0,
    )
    parsed = json.loads(render_report(Report("v", "t", None, None, (out,)), "json"))
    assert parsed["outcomes"][0]["reason"] == reason


def test_outcome_record_contract():
    # an outcome is an immutable named tuple whose fields are in report
    # order; both renderings of hand-built records are the former
    # dataclass's, byte for byte
    from quadident.ledger import VerificationOutcome

    assert all(type(o) is VerificationOutcome for o in verify("E4", 3))
    assert VerificationOutcome._fields == (
        "id", "params", "lhs_value", "rhs_value", "abs_error", "rel_error", "passed",
        "reason", "evals", "terms")
    outs = (VerificationOutcome("E21", {"p": 2, "alpha": 0.25}, 0.5, 0.5000000001,
                                1.000000082740371e-10, 2.000000165480742e-10, False,
                                "mismatch", 129, 17),
            VerificationOutcome("E4", {"alpha": 0.5}, math.nan, math.inf, math.nan, math.nan,
                                False, "error: boom", 0, 0))
    with pytest.raises(AttributeError):
        outs[0].passed = True
    assert repr(outs[0]) == (
        "VerificationOutcome(id='E21', params={'p': 2, 'alpha': 0.25}, lhs_value=0.5, "
        "rhs_value=0.5000000001, abs_error=1.000000082740371e-10, "
        "rel_error=2.000000165480742e-10, passed=False, reason='mismatch', evals=129, "
        "terms=17)")
    report = Report("9.9", "T", None, 1e-9, outs)
    assert render_report(report, "json") == (
        '{"version":"9.9","timestamp":"T","tolerance":{"abs":null,"rel":1e-09},"outcomes":['
        '{"id":"E21","params":{"alpha":0.25,"p":2},"lhs":0.5,"rhs":0.5000000001,'
        '"abs_error":1.000000082740371e-10,"rel_error":2.000000165480742e-10,"pass":false,'
        '"reason":"mismatch","work":{"evals":129,"terms":17}},'
        '{"id":"E4","params":{"alpha":0.5},"lhs":null,"rhs":null,"abs_error":null,'
        '"rel_error":null,"pass":false,"reason":"error: boom","work":{"evals":0,"terms":0}}],'
        '"summary":{"passed":0,"failed":2,"not_converged":0}}')
    assert render_report(report, "table") == "\n".join([
        "id      params                                           lhs                     rhs"
        "    abs_err  status",
        "E21     alpha=0.25,p=2                                   0.5            0.5000000001"
        "   1.00e-10  mismatch",
        "E4      alpha=0.5                                        nan                     inf"
        "        nan  error: boom",
        "summary: passed=0 failed=2 not_converged=0"])


def test_report_determinism_modulo_timestamp():
    a = verify_all(2)
    b = verify_all(2)
    ja = json.loads(render_report(a, "json"))
    jb = json.loads(render_report(b, "json"))
    ja.pop("timestamp"), jb.pop("timestamp")
    assert ja == jb


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_verify_pass_subset(capsys):
    code = cli.main(["verify", "--ids", "E13,E15", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["summary"]["failed"] == 0
    assert {o["id"] for o in parsed["outcomes"]} == {"E13", "E15"}


def test_cli_json_pass_is_boolean(capsys):
    assert cli.main(["verify", "--ids", "E17", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["outcomes"]
    assert all(isinstance(o["pass"], bool) for o in parsed["outcomes"])


def test_cli_exit_code_on_failure(capsys):
    code = cli.main(["verify", "--ids", "E6", "--tol", "1e-30", "--max-work", "2000"])
    capsys.readouterr()
    assert code == 1


def test_cli_max_work_alone_keeps_the_one_gate(tmp_path, capsys):
    # --max-work without --tol runs every listed case at DEFAULT_TOL's
    # 1e-10/1e-10 with that cap, as verify does with Tolerance(max_work=N),
    # and the report records no tolerance override. The cap leaves some
    # points of E12 and E21 unconverged, so it reaches every case
    ids, cap, path = ["E8", "E12", "E21"], 100, tmp_path / "report.json"
    argv = ["verify", "--ids", ",".join(ids), "--grid", "3", "--max-work", str(cap),
            "--format", "json", "--out", str(path)]
    assert cli.main(argv) == 1
    capsys.readouterr()
    outs = [o for case_id in ids for o in verify(case_id, 3, Tolerance(max_work=cap))]
    assert {o.reason for o in outs} == {"", "not_converged"}
    parsed = json.loads(path.read_text())
    expected = json.loads(render_report(make_report(outs, None, None), "json"))
    assert parsed["tolerance"] == {"abs": None, "rel": None}
    assert parsed["outcomes"] == expected["outcomes"]


def test_cli_unknown_id(capsys):
    code = cli.main(["verify", "--ids", "E99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "E99" in err


@pytest.mark.parametrize("args", [["--tol", "nan"], ["--tol", "inf"], ["--max-work", "0"],
                                  ["--ids", ""], ["--ids", ","], ["--tol", "1e-323"]])
def test_cli_rejects_bad_options_before_any_case_runs(monkeypatch, capsys, args):
    # a non-finite tolerance, one that quarters to zero for the sides, a zero
    # work cap and an empty id list are usage errors: exit 2 with an error
    # line, not an internal error or a report
    ran = []
    monkeypatch.setattr(cli, "verify", lambda case_id, **kwargs: ran.append(case_id))
    argv = ["verify"] + (args if args[0] == "--ids" else ["--ids", "E1,E13"] + args)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert ran == []


def test_cli_usage_error():
    assert cli.main(["bogus-subcommand"]) == 2


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for case_id in registry():
        assert case_id in out


def test_cli_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["verify", "--ids", "E1", "--format", "json", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    parsed = json.loads(path.read_text())
    assert parsed["outcomes"][0]["id"] == "E1"

"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here; nothing is deferred to calibration.
"""

import json
import math
import time
from fractions import Fraction
from functools import partial

import numpy as np

from quadident import cli
from quadident.combinatorics import (
    arctan_power_coeff,
    arctan_series,
    lah,
    odd_harmonic,
    series_pow,
    skew_harmonic,
    stirling_first,
)
from quadident.ledger import verify, verify_all
from quadident.numerics import CONSTANTS, Tolerance
from quadident.quadrature import integrate_unit
from quadident.registry import lookup
from quadident.series import sum_eq8
from quadident.specfun import incomplete_beta, polylog_real
from _one_point import one_point
from test_series import euler_diagonal_estimates

PI = CONSTANTS.pi
G = CONSTANTS.catalan
Z2 = CONSTANTS.zeta2
Z3 = CONSTANTS.zeta3
LOG2 = CONSTANTS.log2


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _max_err(outcomes) -> float:
    return max(o.abs_error for o in outcomes)


def test_criterion_01_basel_closed_forms():
    t0 = time.perf_counter()
    e1 = one_point(lookup("E1").lhs, {}, Tolerance()).value
    # the half-line arctangent integral at its upper endpoint equals
    # (3/2) Li2(1), so dividing by 3/2 must reproduce pi^2/6
    e4_top = one_point(lookup("E4").lhs, {"alpha": 1.0}, Tolerance()).value
    elapsed = time.perf_counter() - t0
    err1 = abs(e1 - 1.6449340668482264)
    err4 = abs(e4_top / 1.5 - Z2)
    ok = err1 <= 1e-10 and err4 <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"Basel errors {err1:.2e}, {err4:.2e}; {elapsed * 1e3:.0f} ms")


def test_criterion_02_three_constants_integral():
    t0 = time.perf_counter()
    value = one_point(lookup("E15").lhs, {}, Tolerance()).value
    elapsed = time.perf_counter() - t0
    err = abs(value - (0.5 * PI * G - 0.875 * Z3))
    ok = err <= 1e-10 and elapsed < 1.0
    _report(2, ok, f"arctan^2/t error {err:.2e}; {elapsed * 1e3:.0f} ms")


def test_criterion_03_zeta3_representations():
    tol = Tolerance()
    e13 = one_point(lookup("E13").lhs, {}, tol).value
    e14 = one_point(lookup("E14").lhs, {}, tol).value
    e13i = one_point(lookup("E13inf").lhs, {}, tol).value
    e14i = one_point(lookup("E14inf").lhs, {}, tol).value
    errs = (
        abs(e13 - 0.875 * Z3),
        abs(e14 - Z3),
        abs(e13i - 2.0 * e13),
        abs(e14i - 2.0 * e14),
    )
    ok = all(e <= 1e-10 for e in errs)
    _report(3, ok, "zeta(3) integrals, errors " + ", ".join(f"{e:.1e}" for e in errs))


def test_criterion_04_half_line_arctan_both_forms():
    outs4 = verify("E4", 9)
    outs4a = verify("E4alt", 9)
    ok = all(o.passed for o in outs4 + outs4a)
    # the two closed forms must also agree with each other
    tol = Tolerance()
    rhs4, rhs4a = (partial(one_point, lookup(i).rhs) for i in ("E4", "E4alt"))
    cross = max(
        abs(rhs4({"alpha": 0.1 * k}, tol).value - rhs4a({"alpha": 0.1 * k}, tol).value)
        for k in range(1, 10)
    )
    ok = ok and cross <= 1e-10
    endpoints = {o.params["alpha"] for o in outs4} & {0.0, 1.0}
    ok = ok and endpoints == {0.0, 1.0}
    _report(4, ok, f"22 grid+limit points, worst {_max_err(outs4 + outs4a):.2e}, "
                   f"cross-form {cross:.2e}")


def test_criterion_05_skew_harmonic_series():
    outs = verify("E5", 3)  # 0.25, 0.5, 0.75 plus the registered alpha=1
    alphas = sorted(o.params["alpha"] for o in outs)
    assert alphas == [0.25, 0.5, 0.75, 1.0]
    ok = all(o.passed for o in outs) and _max_err(outs) <= 1e-10
    e6 = one_point(lookup("E6").rhs, {}, Tolerance(2.5e-11, 2.5e-11))
    err6 = abs(e6.value - PI**2 / 16.0)
    ok = ok and err6 <= 1e-10 and e6.terms <= 10**5
    _report(5, ok, f"series-vs-integral worst {_max_err(outs):.2e}; "
                   f"accelerated sum error {err6:.2e} with {e6.terms} raw terms")


def test_criterion_06_squared_arctan_series_and_pi_cubed():
    outs = verify("E7", 3, tol=Tolerance(1e-9, 1e-9))
    ok = all(o.passed for o in outs) and _max_err(outs) <= 1e-9

    res = sum_eq8(Tolerance(1e-9, 0.0, 2 * 10**5))
    err = abs(192.0 * res.value - PI**3)
    if err <= 1e-7 and res.terms_used <= 2 * 10**5:
        branch = f"primary branch held: |192 sum - pi^3| = {err:.2e} " \
                 f"with {res.terms_used} raw terms"
    else:
        # fallback: monotone improvement with averaging depth and 1e-5
        from quadident.combinatorics import (
            leibniz_partial_float,
            odd_harmonic_float,
        )

        quarter_pi = PI / 4.0
        acc = 0.0
        partials = []
        for n in range(1, 257):
            acc += odd_harmonic_float(n) / n * (leibniz_partial_float(n) - quarter_pi)
            partials.append(acc)
        estimates = euler_diagonal_estimates(partials)
        errors = np.abs(192.0 * estimates - PI**3)
        best = int(np.argmin(errors))
        monotone = all(errors[k + 1] < errors[k] for k in range(best))
        ok = ok and monotone and err <= 1e-5
        branch = f"fallback branch: monotone={monotone}, error {err:.2e}"
    _report(6, ok, branch)


def test_criterion_07_log_kernel_identities():
    outs = verify("E9", 9) + verify("E10", 9) + verify("EC6", 9)
    outs += verify("E10b", 1) + verify("EC6b", 1)
    ok = all(o.passed for o in outs) and _max_err(outs) <= 1e-10
    li2_half = polylog_real(2, 0.5)
    err = abs(li2_half - (Z2 / 2.0 - LOG2**2 / 2.0))
    ok = ok and err <= 1e-13
    _report(7, ok, f"{len(outs)} points, worst {_max_err(outs):.2e}; "
                   f"Li2(1/2) error {err:.1e}")


def test_criterion_08_log_power_lemma():
    pts = [{"p": p, "beta": b} for p in (0, 1, 2, 3) for b in (0.3, 0.7)]
    outs = verify("E11", 1, points=pts) + verify("E12", 1, points=pts)
    # the explicit-points call still appends the registered beta=1 endpoints
    betas = {o.params["beta"] for o in outs}
    ok = betas == {0.3, 0.7, 1.0}
    ok = ok and all(o.passed for o in outs) and _max_err(outs) <= 1e-9
    _report(8, ok, f"{len(outs)} points (p in 0..3), worst {_max_err(outs):.2e}")


def test_criterion_09_odd_harmonic_series_family():
    e16 = verify("E16", 1, points=[{"alpha": a} for a in (0.3, 0.6, 0.9)])
    ok = all(o.passed for o in e16) and _max_err(e16) <= 1e-9
    assert any(o.params["alpha"] == 1.0 for o in e16)

    e17 = verify("E17", 1)
    ok = ok and e17[0].passed and e17[0].abs_error <= 1e-9

    e18 = verify("E18", 9)
    e18d = verify("E18d", 9)
    ok = ok and all(o.passed for o in e18 + e18d) and _max_err(e18 + e18d) <= 1e-10

    tol = Tolerance(1e-9, 1e-9)
    worst_re = worst_im = 0.0
    from quadident.specfun import eq19_rhs

    for alpha in (0.2, 0.5, 0.8, 1.0):
        rhs = eq19_rhs(alpha)
        lhs = one_point(lookup("E19").lhs, {"alpha": alpha}, Tolerance(2.5e-10, 2.5e-10)).value
        worst_re = max(worst_re, abs(lhs - rhs.real))
        worst_im = max(worst_im, abs(rhs.imag))
    ok = ok and worst_re <= 1e-9 and worst_im <= 1e-9
    _report(9, ok, f"E16 worst {_max_err(e16):.2e}; E17 {e17[0].abs_error:.2e}; "
                   f"E18/E18d worst {_max_err(e18 + e18d):.2e}; "
                   f"E19 re {worst_re:.2e}, im {worst_im:.2e}")


def test_criterion_10_arctan_power_family():
    base = arctan_series(30)
    exact = True
    for p in (1, 2, 3, 4):
        powered = series_pow(base, p)
        for n in range(1, 31):
            if arctan_power_coeff(n, p) != powered.coefficient(n):
                exact = False
    outs = []
    pts = [{"p": p, "alpha": a} for p in (1, 2, 3, 4) for a in (0.5, 0.8)]
    outs += verify("E21", 1, points=pts, tol=Tolerance(1e-8, 1e-8))
    outs += verify("E22", 1, points=pts, tol=Tolerance(1e-8, 1e-8))
    ok = exact and all(o.passed for o in outs) and _max_err(outs) <= 1e-8

    worst23 = 0.0
    eval_tol = Tolerance(2.5e-8, 0.0)
    for p in (1, 2, 3, 4):
        val = one_point(lookup("E23").rhs, {"p": p}, eval_tol).value
        worst23 = max(worst23, abs(val - PI ** (p + 1)))
    ok = ok and worst23 <= 1e-6

    e23_p1 = one_point(lookup("E23").rhs, {"p": 1}, Tolerance(2.5e-11, 2.5e-11)).value
    e6 = one_point(lookup("E6").rhs, {}, Tolerance(2.5e-11, 2.5e-11)).value
    consistency = abs(e23_p1 / 16.0 - e6)
    ok = ok and consistency <= 1e-12
    _report(10, ok, f"coefficients exact to n=30: {exact}; quadrature worst "
                    f"{_max_err(outs):.2e}; pi-powers worst {worst23:.2e}; "
                    f"p=1 vs direct series {consistency:.2e}")


def test_criterion_11_property_suites():
    # headline exact identities
    ok = all(
        skew_harmonic(n) - skew_harmonic(n - 1) == Fraction((-1) ** (n - 1), n)
        for n in range(1, 51)
    )
    ok = ok and all(
        sum(stirling_first(k, p) for p in range(k + 1)) == 0 for k in range(2, 21)
    )
    ok = ok and all(
        lah(n, k) == math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
        for n in range(1, 16) for k in range(1, n + 1)
    )
    oracle6 = series_pow(arctan_series(30), 6)
    ok = ok and all(
        arctan_power_coeff(n, 6) == oracle6.coefficient(n) for n in range(1, 31)
    )
    # beta recurrence at 1e-13
    ok = ok and all(
        abs(incomplete_beta(0.5 * k) + incomplete_beta(0.5 * k + 1.0) - 2.0 / k) <= 1e-13
        for k in range(1, 51)
    )
    # polylog duplication and derivative checks
    dup = max(
        abs(polylog_real(p, x) + polylog_real(p, -x)
            - 2.0 ** (1 - p) * polylog_real(p, x * x))
        for p in (2, 3) for x in (-1.0, -0.5, 0.3, 0.8, 1.0)
    )
    ok = ok and dup <= 1e-11
    h = 1e-4
    deriv = max(
        abs(x * (polylog_real(p, x + h) - polylog_real(p, x - h)) / (2 * h)
            - polylog_real(p - 1, x))
        for p in (2, 3) for x in (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8)
    )
    ok = ok and deriv <= 1e-6
    # quadrature error-estimate honesty (19 of 20 known integrals)
    from test_quadrature import _KNOWN_INTEGRALS

    honest = sum(
        1
        for spec, truth in _KNOWN_INTEGRALS
        if abs((res := integrate_unit(spec, Tolerance())).value - truth)
        <= 5.0 * res.error_estimate
    )
    ok = ok and honest >= 19
    _report(11, ok, f"exact identities hold; duplication {dup:.1e}; "
                    f"derivative {deriv:.1e}; honesty {honest}/20")


def test_criterion_12_determinism(capsys):
    args = ["verify", "--ids", "E1,E4,E11,E16,E19,E23", "--grid", "3",
            "--format", "json"]
    code_a = cli.main(args)
    out_a = capsys.readouterr().out
    code_b = cli.main(args)
    out_b = capsys.readouterr().out
    ja, jb = json.loads(out_a), json.loads(out_b)
    ts_a, ts_b = ja.pop("timestamp"), jb.pop("timestamp")
    ok = code_a == code_b == 0 and ja == jb and ts_a != ts_b
    # byte-identical apart from the timestamp field
    ok = ok and out_a.replace(ts_a, "T") == out_b.replace(ts_b, "T")
    _report(12, ok, "two verify runs identical modulo timestamp")


def test_full_registry_grid_five():
    t0 = time.perf_counter()
    report = verify_all(5)
    elapsed = time.perf_counter() - t0
    summary = report.summary
    ok = summary["failed"] == 0 and summary["not_converged"] == 0
    print(f"{'PASS' if ok else 'FAIL'} full registry: {summary} "
          f"({len(report.outcomes)} outcomes, {elapsed:.1f} s)")
    assert ok

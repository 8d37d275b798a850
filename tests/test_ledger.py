"""Registry integrity, the verification driver, report rendering, and the CLI."""

import json
import math

import pytest

from quadident import cli
from quadident.ledger import (
    Report,
    render_report,
    verify,
    verify_all,
)
from quadident.numerics import CONSTANTS, Tolerance
from quadident.registry import lookup, register_all, registry

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
    out = case.rhs.fn({}, Tolerance())
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
    assert len(outs) == 11  # 0.1..0.9 plus the two registered endpoints
    alphas = [o.params["alpha"] for o in outs]
    assert alphas[:9] == pytest.approx([0.1 * k for k in range(1, 10)])
    assert set(alphas[9:]) == {0.0, 1.0}
    assert all(o.passed for o in outs)
    endpoint = next(o for o in outs if o.params["alpha"] == 1.0)
    assert abs(endpoint.rhs_value - 1.5 * Z2) <= 1e-12


def test_verify_e19_checks_imaginary_part():
    outs = verify("E19", 3)
    assert all(o.passed for o in outs)
    assert any(o.params["alpha"] == 1.0 for o in outs)


def test_verify_explicit_points():
    outs = verify("E18", 1, points=[{"alpha": 0.35}, {"alpha": 0.65}])
    assert [o.params["alpha"] for o in outs] == [0.35, 0.65]
    assert all(o.passed for o in outs)


def test_verify_rejects_bad_grid():
    with pytest.raises(ValueError):
        verify("E1", 0)


def test_unreachable_tolerance_reported_not_converged():
    outs = verify("E6", 1, tol=Tolerance(1e-30, 0.0, 2000))
    assert len(outs) == 1
    assert not outs[0].passed
    assert outs[0].reason == "not_converged"


# ---------------------------------------------------------------------------
# Cross-case coherence
# ---------------------------------------------------------------------------

def test_e4_and_e4alt_closed_forms_agree():
    rhs4 = lookup("E4").rhs.fn
    rhs4alt = lookup("E4alt").rhs.fn
    tol = Tolerance()
    for k in range(1, 10):
        alpha = 0.1 * k
        a = rhs4({"alpha": alpha}, tol).value
        b = rhs4alt({"alpha": alpha}, tol).value
        assert abs(a - b) <= 1e-10


def test_e23_at_p1_reproduces_e6_series():
    tol = Tolerance(1e-10, 1e-10)
    eval_tol = Tolerance(2.5e-11, 2.5e-11)
    e6_series = lookup("E6").rhs.fn({}, eval_tol).value
    e23_scaled = lookup("E23").rhs.fn({"p": 1}, eval_tol).value
    # pi^2 = 16 sum: the E23 prefactor at p=1 is exactly 16
    assert abs(e23_scaled / 16.0 - e6_series) <= 1e-12
    assert tol.passes(e23_scaled, PI**2)


def test_half_line_integrals_double_the_unit_ones():
    tol = Tolerance()
    for unit_id, full_id in (("E13", "E13inf"), ("E14", "E14inf")):
        unit_val = lookup(unit_id).lhs.fn({}, tol).value
        full_val = lookup(full_id).lhs.fn({}, tol).value
        assert abs(full_val - 2.0 * unit_val) <= 1e-10


def test_registered_limits_are_continuous():
    # each override value is approached by the general formula near the
    # endpoint; log-type endpoints move like eps*log(eps) at distance 1e-4,
    # so the comparison tolerance is 5e-3
    eps = 1e-4
    tol = Tolerance()
    checks = [
        ("E4", {"alpha": eps}, 0.0),
        ("E4", {"alpha": 1.0 - eps}, 1.5 * Z2),
        ("E9", {"alpha": 1.0 - eps}, Z2),
    ]
    for case_id, params, registered in checks:
        near = lookup(case_id).rhs.fn(params, tol).value
        assert abs(near - registered) <= 5e-3


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


def test_report_json_round_trip():
    report = verify_all(1)
    parsed = json.loads(render_report(report, "json"))
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
    parsed = json.loads(render_report(report, "json"))
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


def test_cli_unknown_id(capsys):
    code = cli.main(["verify", "--ids", "E99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "E99" in err


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

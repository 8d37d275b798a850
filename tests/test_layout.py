"""Layout rules of the package: module boundaries, and the entry points the
benchmark's tracer wraps from outside."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadident"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_another_modules_private_names():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            parts = [part for name in names for part in name.split(".")]
            if any(_is_private(part) for part in parts):
                offences.append(f"{path.name}:{node.lineno}")
    assert offences == []


_TRACED_PASS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
verify = tracer.install()
for case_id in ("E2", "E8", "E19", "E21", "E22"):
    verify(case_id, grid_size=1)
print(json.dumps(sorted(tracer.take_pass()["calls"])))
"""


def test_benchmark_tracer_installs_and_traces_its_layers():
    # perfbench/tracer.py wraps entry points by name in the modules that call
    # them; a renamed or unbound one fails its install, an unused one drops
    # its layer from a pass. -B keeps bytecode out of perfbench/.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_PASS,
         str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {
        "quadrature",
        "series",
        "specfun.incomplete_beta",
        "specfun.polylog_real",
        "specfun.polylog_complex.circle",
        "specfun.closed_form",
        "combinatorics.arctan_power_coeff",
        "combinatorics.prefix",
        "case:E21",
    } <= layers, sorted(layers)


_COUNTED_PASS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
verify = tracer.install()
outs = [o for case_id in ("E5", "E8", "E9", "E11", "E18", "E21", "E22", "E23")
        for o in verify(case_id, grid_size=3)]
traced = tracer.take_pass()
json.dumps(traced)  # a numpy scalar in the tracer's counters would not serialise
counts = traced["counts"]
print(json.dumps([counts.get("quadrature.evals", 0), sum(o.evals for o in outs),
                  counts.get("series.terms", 0), sum(o.terms for o in outs),
                  traced["calls"].get("series", 0)]))
"""


def test_benchmark_tracer_counts_every_point_of_a_batched_call():
    # a batched quadrature or series call carries the summed evaluations or
    # terms of its rows, so the traced counts still equal the report's work
    # per outcome: E9 is a half-line integral (two batched pieces), E18 a
    # positive series with a tail bound, E21 and E22 batch every p at once,
    # and the scaled sides of E8 and E23 sum through the same traced names. The
    # whole pass must serialise as JSON: the totals the tracer adds up must
    # be Python numbers, as the benchmark writes them
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _COUNTED_PASS,
         str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    evals, outcome_evals, terms, outcome_terms, series_calls = json.loads(
        proc.stdout.splitlines()[-1])
    assert evals == outcome_evals > 0
    assert terms == outcome_terms > 0
    # one batch per side: E5 (accelerated, alpha = 1 included), E18
    # (direct), E21, E22 (accelerated, every p), E8 (one point); E23: one
    # point per p, because its scale differs by p
    assert series_calls == 1 + 1 + 1 + 1 + 1 + 4


def test_cli_verifies_through_its_traced_name(monkeypatch, capsys):
    # the benchmark's tracer assigns quadident.cli.verify to time each case,
    # so the CLI must call verify by that module-level name, once per id
    from quadident import cli, ledger

    seen = []

    def record(case_id, *args, **kwargs):
        seen.append(case_id)
        return ledger.verify(case_id, *args, **kwargs)

    monkeypatch.setattr(cli, "verify", record)
    assert cli.main(["verify", "--ids", "E1,E2", "--grid", "1"]) == 0
    capsys.readouterr()
    assert seen == ["E1", "E2"]


def test_package_name_registry_shadows_the_submodule():
    # quadident binds the name registry to the function registry.registry, so
    # attribute access on the package yields the function; code that patches
    # the module (as the benchmark's tracer does) must import it by name
    import importlib

    import quadident.registry as by_attribute

    module = importlib.import_module("quadident.registry")
    assert callable(by_attribute) and by_attribute is module.registry
    assert module.__name__ == "quadident.registry"
    assert by_attribute is not module

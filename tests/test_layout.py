"""Layout rules of the package: module boundaries, and the entry points the
benchmark's tracer wraps from outside."""

import ast
import json
import os
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


def _defined_names(statement) -> list[str]:
    """The names a module-level statement defines, dunders left out."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _read_names(statement) -> set[str]:
    """The names a statement reads, as a name or as an attribute."""
    return {node.id for node in ast.walk(statement)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)} | {
        node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}


def test_every_module_level_name_is_used_or_public():
    # a function, class or constant of the package that no other statement
    # of the package reads and __all__ does not list is dead code or a
    # test-only oracle, which belongs under tests/
    import quadident

    statements = [(path.name, statement) for path in sorted(PACKAGE.glob("*.py"))
                  for statement in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_read_names(statement) for _, statement in statements]
    unused = [f"{module}:{statement.lineno} {name}"
              for i, (module, statement) in enumerate(statements)
              for name in _defined_names(statement)
              if name not in quadident.__all__
              and not any(name in names for j, names in enumerate(reads) if j != i)]
    assert unused == []


# Imports that their module does not read: the benchmark's tracer wraps each
# by name in that module, and its install fails if one is gone
_TRACER_HOOKS = {
    ("registry.py", "sum_direct"),  # moves to perfbench/ with ROADMAP item 1
    ("registry.py", "sum_eq8"),  # moves to perfbench/ with ROADMAP item 1
    ("registry.py", "leibniz_partial_float"),  # moves to perfbench/ with ROADMAP item 1
}


def test_every_import_is_read_exported_or_a_tracer_hook():
    import quadident

    unread, hooks = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        if path.name == "__init__.py":
            read |= set(quadident.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name in read:
                    continue
                if (path.name, name) in _TRACER_HOOKS:
                    hooks.add((path.name, name))
                else:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []
    assert hooks == _TRACER_HOOKS  # every hook is still imported, and read nowhere else there


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
    # positive series in van Wijngaarden's alternating form, whose terms b_k
    # are counted, E21, E22 and E23 batch every p at once, and the scaled
    # sides of E8, E22 and E23 sum through the same traced names. The whole pass must serialise as JSON: the totals the
    # tracer adds up must be Python numbers, as the benchmark writes them
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
    # one accelerated batch per side: E5 (alpha = 1 included), E18, E21, E22
    # and E23 (every p), E8 (one point)
    assert series_calls == 1 + 1 + 1 + 1 + 1 + 1


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


def test_package_imports_no_dataclasses():
    # every record is a typing.NamedTuple: importing dataclasses and building
    # 17 of them cost 9-15 ms of the package's import in a fresh interpreter
    code = "import sys, quadident; quadident.registry(); print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

"""quadident benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from anywhere inside a checkout; it measures the package under
``src/``, which needs no build. Workloads (each one process, one thread):

full_grid9
    In process: ``verify(id, grid_size=9)`` for all 28 ids, 285 outcomes a
    pass, after one untimed pass fills the caches. Nearly all of the time is
    the circle trilogarithm of E19, so a ``polylog_complex`` change shows here.
warm_grid33
    In process, warm: the 27 ids other than E19 at grid 33, 923 outcomes a
    pass. Quadrature, series and ``incomplete_beta`` share the time; it is the
    workload of quadrature and series changes and the no-change side of
    ``polylog_complex`` and cache changes.
cold_cli_grid33
    The same inputs through ``quadident.cli.main`` as ``verify --ids ...
    --grid 33 --format json`` in a fresh interpreter per pass, so every cache
    starts cold; the JSON report is parsed. Import, lazy set-up and the
    ``arctan_power_coeff`` cache fill show here.

The seed fixes the order of the ids in each pass of the in-process
workloads; grid points stay the registry's own. It has no effect on
cold_cli_grid33, because the CLI sorts the ids it is given. Every outcome
is checked against its case's default tolerance, and the deterministic work
counts must repeat exactly, pass to pass and against ``baseline.json`` for
identical sources.

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``. With ``--trace 1`` half of the time runs untraced and half
runs with the wrappers of ``tracer.py``, and the metrics are the
``per_layer`` list; every layer is also printed as a table with its share of
the traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads, here and in children

import speed  # noqa: E402
from judge import judge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PACKAGE = ROOT / "src" / "quadident"

WORKLOADS = {
    # name: (grid size, ids left out, outcomes per pass, through the CLI)
    "full_grid9": (9, (), 285, False),
    "warm_grid33": (33, ("E19",), 923, False),
    "cold_cli_grid33": (33, ("E19",), 923, True),
}
SETUP_RUNS = 7         # timed fresh interpreters behind setup_s (one more warms .pyc files)
TAIL_BEYOND = 10       # samples that must lie beyond a reported tail percentile
DEADLINE_MARGIN_S = 140.0  # beyond --seconds: set-up, warm pass, the pass that runs over


class BenchError(RuntimeError):
    pass


class Clock:
    """The deadline of the whole run, children included: --seconds plus
    DEADLINE_MARGIN_S, which is 170 s at the run_seconds of BENCHMARK.json."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds + DEADLINE_MARGIN_S

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("deadline passed")
        return left


def _spawn(args, clock, flags=()):
    """Run child.py to completion; return (stdout, stderr, exit code)."""
    try:
        proc = subprocess.run([sys.executable, *flags, str(CHILD), *args], cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=clock.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} timed out") from exc
    return proc.stdout, proc.stderr, proc.returncode


def _child_json(args, clock, flags=()):
    out, err, rc = _spawn(args, clock, flags)
    if rc != 0:
        raise BenchError(f"child {args[0]} exited {rc}: {err.strip()[-500:]}")
    return json.loads(out.splitlines()[-1]), err


def _numpy_import_s(importtime: str) -> float:
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def measure_setup(clock, importtime: bool) -> dict:
    """Set-up times at the reference speed, medians over SETUP_RUNS fresh
    interpreters, and the registry's ids and default tolerances."""
    flags = ("-X", "importtime") if importtime else ()
    runs = []
    for _ in range(SETUP_RUNS + 1):
        result, err = _child_json(["setup"], clock, flags)
        result["import_numpy_s"] = _numpy_import_s(err)
        runs.append(result)
    runs = runs[1:]
    first = runs[0]
    scales = [speed.factor([r["speed_s"]]) for r in runs]
    return {"ids": first["ids"], "tols": {k: tuple(v) for k, v in first["tols"].items()},
            "env": first["env"], "speed_factor": statistics.median(scales),
            "unscaled_setup_s": statistics.median(r["setup_s"] for r in runs),
            **{key: statistics.median(f * r[key] for f, r in zip(scales, runs))
               for key in ("setup_s", "import_s", "import_numpy_s")}}


def _to_reference(run) -> dict:
    """Scale each pass's times by the machine speed around it (see speed.py)."""
    around = run["speed_s"]
    scales = [speed.factor(around[i:i + 2]) for i in range(len(run["pass_s"]))]
    run["speed_factor"] = statistics.median(scales)
    run["unscaled_pass_s"] = run["pass_s"]
    run["pass_s"] = [f * t for f, t in zip(scales, run["pass_s"])]
    run["case_s"] = {k: [f * t for f, t in zip(scales, v)] for k, v in run["case_s"].items()}
    for f, layers in zip(scales, run["layers"]):
        for key in ("self_s", "total_s"):
            layers[key] = {k: f * t for k, t in layers[key].items()}
    return run


def run_inproc(ids, grid, seed, seconds, trace, clock) -> dict:
    args = ["inproc", "--ids", ",".join(ids), "--grid", str(grid),
            "--seed", str(seed), "--seconds", repr(seconds)]
    result, _ = _child_json(args + (["--trace"] if trace else []), clock)
    return _to_reference({**result, "crashed": 0})


def run_cli(ids, grid, seconds, tols, trace, clock) -> dict:
    argv = ["verify", "--ids", ",".join(ids), "--grid", str(grid), "--format", "json"]
    passes, judged, layers, rss, speed_s = [], [], [], [], []
    case_s = {i: [] for i in ids}
    crashed = numeric_pass = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        speed_s.append(speed.sample())
        start = time.perf_counter()
        out, err, rc = _spawn(["cli", *(["--trace"] if trace else []), "--", *argv], clock)
        elapsed = time.perf_counter() - start
        telemetry = [line for line in err.splitlines() if line.startswith("TELEMETRY ")]
        try:
            report = json.loads(out)
            telemetry = json.loads(telemetry[-1].split(" ", 1)[1])
        except (ValueError, IndexError):
            report = None
        if rc not in (0, 1) or report is None:
            crashed += 1
            speed_s.pop()
            print(f"cli process crashed (exit {rc}): {err.strip()[-300:]}")
            continue
        passes.append(elapsed)
        numeric_pass += sum(not isinstance(o["pass"], bool) for o in report["outcomes"])
        rows = ((o["id"], o["lhs"], o["rhs"], o["abs_error"], o["pass"],
                 o["work"]["evals"] + o["work"]["terms"]) for o in report["outcomes"])
        judged.append(judge(rows, tols))
        for case_id, seconds_taken in telemetry["case_s"].items():
            case_s[case_id].append(seconds_taken)
        rss.append(telemetry["peak_rss_mb"])
        if trace:
            layers.append(telemetry["layers"])
    speed_s.append(speed.sample())
    return _to_reference({"pass_s": passes, "case_s": case_s, "judged": judged,
                          "layers": layers, "speed_s": speed_s,
                          "peak_rss_mb": max(rss, default=math.nan), "crashed": crashed,
                          "numeric_pass": numeric_pass})


def tail(values):
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond
    it, as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def source_key(env: dict) -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return f"{digest.hexdigest()[:16]} python {env['python']} numpy {env['numpy']}"


def check(run, outcomes_per_pass) -> list[str]:
    """Every reason one run of the workload is not correct; empty when it is."""
    problems = []
    if not run["judged"]:
        problems.append("no pass completed")
    for j in run["judged"]:
        if j["outcomes"] != outcomes_per_pass:
            problems.append(f"{j['outcomes']} outcomes in a pass, expected {outcomes_per_pass}")
        if j["failed"] or j["inconsistent"]:
            problems.append(f"{j['failed']} failed and {j['inconsistent']} passing beyond "
                            f"tolerance, in cases {j['failures']}")
        if j["work"] != run["judged"][0]["work"]:
            problems.append("case work counts differ between passes")
    if run["crashed"]:
        problems.append(f"{run['crashed']} cli processes crashed")
    counts = [layer_counts(layers, j) for layers, j in zip(run["layers"], run["judged"])]
    if any(c != counts[0] for c in counts):
        problems.append("traced work counts differ between passes")
    return problems


def work_record(runs) -> dict:
    """The deterministic work counts of the first pass of each run."""
    record = {}
    for run in runs:
        if run["judged"]:
            record["case_work"] = run["judged"][0]["work"]
        if run["layers"]:
            record["layer_counts"] = layer_counts(run["layers"][0], run["judged"][0])
    return record


def check_recorded(workload, setup, record) -> list[str]:
    """Compare the work counts with those baseline.json holds for the same
    sources, interpreter and numpy, if it holds any."""
    recorded = json.loads((HERE / "baseline.json").read_text())["work_counts"]
    mine = recorded.get(source_key(setup["env"]), {}).get(workload, {})
    return [f"{key} differ from baseline.json for these sources"
            for key, value in record.items() if key in mine and mine[key] != value]


def layer_counts(layers, judged) -> dict:
    """The deterministic work counts of one traced pass."""
    calls, counts = layers["calls"], layers["counts"]
    out = {f"{layer}.calls": calls.get(layer, 0) for layer in (
        "specfun.polylog_complex.circle", "specfun.polylog_complex.disc", "quadrature",
        "series", "specfun.incomplete_beta", "specfun.polylog_real",
        "combinatorics.arctan_power_coeff", "combinatorics.prefix")}
    for key in ("quadrature.evals", "quadrature.not_converged", "series.terms",
                "series.not_converged", "combinatorics.arctan_power_coeff.first_calls"):
        out[key] = counts.get(key, 0)
    out["ledger.outcomes"] = judged["outcomes"]
    return out


def layer_times(layers, ids) -> dict:
    """Self times of one traced pass, by metric name, in seconds."""
    self_s, total_s = layers["self_s"], layers["total_s"]
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in (
        "quadrature", "series", "specfun.incomplete_beta", "specfun.polylog_real",
        "specfun.closed_form", "combinatorics.arctan_power_coeff", "combinatorics.prefix",
        "specfun.polylog_complex.circle", "specfun.polylog_complex.disc")}
    out["specfun.polylog.self_s"] = sum(out[f"specfun.{layer}.self_s"] for layer in (
        "polylog_real", "polylog_complex.circle", "polylog_complex.disc"))
    out["ledger.render_json_s"] = self_s.get("ledger.render_json", 0.0)
    out["ledger.self_s"] = out["ledger.render_json_s"] + sum(
        v for k, v in self_s.items() if k.startswith("case:"))
    for case_id in ids:
        out[f"registry.case.{case_id}.s"] = total_s.get("case:" + case_id, 0.0)
    return out


def end_to_end(run, setup, outcomes_per_pass):
    per_case_ms = [1e3 * statistics.median(v) for v in run["case_s"].values() if v]
    pass_s = statistics.median(run["pass_s"])
    pass_tail, pass_pct = tail(run["pass_s"])
    case_tail, case_pct = tail(per_case_ms)
    n_pass, n_case = len(run["pass_s"]), len(per_case_ms)
    return {
        "setup_s": (setup["setup_s"], "s", f"median of {SETUP_RUNS} fresh interpreters"),
        "pass_s": (pass_s, "s", f"median of {n_pass} passes"),
        "pass_tail_s": (pass_tail, "s", f"p{pass_pct:.0f} of {n_pass} passes"),
        "outcomes_per_s": (outcomes_per_pass / pass_s, "1/s",
                           f"{outcomes_per_pass} outcomes a pass"),
        "case_p50_ms": (statistics.median(per_case_ms), "ms",
                        f"p50 of {n_case} per-case medians over {n_pass} passes"),
        "case_tail_ms": (case_tail, "ms", f"p{case_pct:.0f} of {n_case} per-case medians"),
        "max_margin": (max(j["max_margin"] for j in run["judged"]), "ratio",
                       "largest abs_error / allowed, default tolerances"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB", "peak RSS of the workload process"),
    }


def unscaled(run, setup, outcomes_per_pass) -> dict:
    """The gated times before scaling to the reference speed, and the
    median speed factors that scaled them."""
    passes = run["unscaled_pass_s"]
    return {"setup_s": setup["unscaled_setup_s"], "pass_s": statistics.median(passes),
            "pass_tail_s": tail(passes)[0],
            "outcomes_per_s": outcomes_per_pass / statistics.median(passes),
            "speed_factor_setup": setup["speed_factor"], "speed_factor": run["speed_factor"]}


def per_layer(untraced, traced, setup, ids):
    passes = list(zip(traced["layers"], traced["judged"]))
    rows = {}
    for name, value in layer_counts(*passes[0]).items():
        rows[name] = (value, "count", "per pass, exact")
    times = [layer_times(layers, ids) for layers, _ in passes]
    for name in times[0]:
        rows[name] = (statistics.median(t[name] for t in times), "s",
                      f"median of {len(times)} traced passes")
    for case_id in setup["ids"]:
        rows[f"registry.case.{case_id}.work"] = (passes[0][1]["work"].get(case_id, 0), "count",
                                                 "evals + terms per pass, exact")
    rows["cli.import_s"] = (setup["import_s"], "s", f"median of {SETUP_RUNS}, -X importtime")
    rows["cli.import_numpy_s"] = (setup["import_numpy_s"], "s", f"median of {SETUP_RUNS}")
    plain = statistics.median(untraced["pass_s"])
    with_spans = statistics.median(traced["pass_s"])
    rows["trace.untraced_pass_s"] = (plain, "s", f"median of {len(untraced['pass_s'])} passes")
    rows["trace.pass_s"] = (with_spans, "s", f"median of {len(traced['pass_s'])} passes")
    rows["trace.overhead_s"] = (with_spans - plain, "s", "traced minus untraced pass_s")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no package at {PACKAGE}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    clock = Clock(args.seconds)
    grid, left_out, outcomes_per_pass, through_cli = WORKLOADS[args.workload]
    setup = measure_setup(clock, importtime=bool(args.trace))
    ids = [i for i in setup["ids"] if i not in left_out]

    def workload(seconds, trace):
        if through_cli:
            return run_cli(ids, grid, seconds, setup["tols"], trace, clock)
        return run_inproc(ids, grid, args.seed, seconds, trace, clock)

    if args.trace:
        untraced = workload(args.seconds / 2, False)
        traced = workload(args.seconds / 2, True)
        runs = [untraced, traced]
    else:
        runs = [workload(args.seconds, False)]
    record = work_record(runs)
    problems = [p for run in runs for p in check(run, outcomes_per_pass)]
    problems += check_recorded(args.workload, setup, record)
    if len(setup["ids"]) != 28:
        problems.append(f"registry has {len(setup['ids'])} ids, expected 28")
    attempted = sum(outcomes_per_pass * (len(r["judged"]) + r["crashed"]) for r in runs)
    failed = sum(j["failed"] for r in runs for j in r["judged"]) + sum(r["crashed"] for r in runs)

    if not all(r["judged"] for r in runs):
        raise BenchError("no pass completed: " + "; ".join(sorted(set(problems))))
    rows = (per_layer(*runs, setup, ids) if args.trace
            else end_to_end(runs[0], setup, outcomes_per_pass))
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print(f"  times are at the reference speed of speed.py; median speed factors: "
          f"set-up {setup['speed_factor']:.4f}, workload "
          + ", ".join(f"{r['speed_factor']:.4f}" for r in runs))
    scale = statistics.median(runs[-1]["pass_s"])
    for name, (value, unit, note) in sorted(rows.items()):
        share = (f"{100 * value / scale:6.1f}%" if args.trace
                 and name.endswith(("self_s", ".s", "render_json_s")) else "       ")
        print(f"  {name:<48}{value:>16.6g} {unit:<6}{share}  {note}")
    print(f"  fail_frac {failed}/{attempted}")
    numeric_pass = sum(r.get("numeric_pass", 0) for r in runs)
    if numeric_pass:
        # known defect: the report writes "pass":1 where the comparison
        # returned numpy.bool_; the harness reads "pass" by truthiness
        print(f"  known defect: {numeric_pass} outcomes report \"pass\" as a number, "
              "not a JSON boolean")
    print("  work counts " + json.dumps({"source": source_key(setup["env"]),
                                        "env": setup["env"], **record}))
    print("  rows " + json.dumps({name: value for name, (value, _, _) in rows.items()}))
    if not args.trace:
        print("  unscaled " + json.dumps(unscaled(runs[0], setup, outcomes_per_pass)))
    for problem in sorted(set(problems)):
        print(f"  NOT CORRECT: {problem}")
    missing = [m["name"] for m in wanted
               if m["name"] not in rows or rows[m["name"]][1] != m["unit"]]
    if missing:
        raise BenchError(f"metrics not measured in their units: {missing}")
    metrics = {m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)

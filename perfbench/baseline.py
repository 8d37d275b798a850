"""Run the benchmark repeatedly and summarise its run-to-run spread.

    python3 perfbench/baseline.py [--first-seed 1] [--write]

Each workload of BENCHMARK.json runs RUNS times untraced, with seeds
``--first-seed`` onwards and ``run_seconds`` each, then TRACE_RUNS times
traced. For every end-to-end metric it prints the median, the quartiles and
the spread, (q3 - q1) / median, against the metric's bound, both for the
reported times (scaled to the reference speed of ``speed.py``) and for the
same times unscaled. It checks that the work counts repeated exactly across
all runs. ``--write`` stores the set under its first seed in
``perfbench/baseline.json``, with the environment, the speed factors, every
row of the traced runs and the work counts, which ``run.py`` checks later runs
of the same sources against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10        # untraced runs per workload, one seed each
TRACE_RUNS = 2   # traced runs per workload


def run_once(workload, seed, seconds, trace):
    """The result line of one run and its ``work counts``, ``rows`` and
    (untraced) ``unscaled`` lines, parsed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = {}
    for line in lines:
        for key in ("work counts", "rows", "unscaled"):
            if line.startswith(f"  {key} "):
                detail[key] = json.loads(line[len(key) + 3:])
    return json.loads(lines[-1]), detail


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + RUNS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, raw, factors, layers, works, env, ok = {}, {}, {}, {}, {}, {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        results, details = [], []
        for seed in seeds:
            result, detail = run_once(workload, seed, seconds, 0)
            results.append(result)
            details.append(detail)
            print(f"{workload} seed {seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for seed in seeds[:TRACE_RUNS]:
            result, detail = run_once(workload, seed, seconds, 1)
            results.append(result)
            details.append(detail)
            layers.setdefault(workload, []).append(detail["rows"])
        ok &= all(r["correct"] for r in results)
        for detail in details:
            work = detail["work counts"]
            works.setdefault(work["source"], {}).setdefault(workload, []).append(work)
            env = work["env"]
        untraced = results[:RUNS]
        summary[workload] = {m["name"]: spread([r["metrics"][m["name"]]["value"]
                                                for r in untraced])
                             for m in spec["end_to_end"]}
        unscaled = [d["unscaled"] for d in details[:RUNS]]
        raw[workload] = {name: spread([u[name] for u in unscaled])
                         for name in ("setup_s", "pass_s", "pass_tail_s", "outcomes_per_s")}
        factors[workload] = {name: [u[name] for u in unscaled]
                             for name in ("speed_factor_setup", "speed_factor")}

    print(f"{'workload':<17}{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}{'unscaled':>10}")
    for workload, metrics in summary.items():
        for metric, s in metrics.items():
            flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] / 3 else "  WIDE"
            plain = raw[workload].get(metric)
            plain = f"{plain['spread']:>10.4f}" if plain else " " * 10
            print(f"{workload:<17}{metric:<16}{s['median']:>12.6g}{s['q1']:>12.6g}"
                  f"{s['q3']:>12.6g}{s['spread']:>9.4f}{bounds[metric]:>7}{plain}{flag}")

    counts = {}
    for source, per_workload in works.items():
        for workload, records in per_workload.items():
            merged = {}
            for record in records:
                for key, value in record.items():
                    if key in ("source", "env"):
                        continue
                    if merged.setdefault(key, value) != value:
                        print(f"WORK COUNTS DIFFER between runs: {workload} {key}")
                        ok = False
            counts.setdefault(source, {})[workload] = merged
    print("correct and repeatable" if ok else "NOT CORRECT OR NOT REPEATABLE")

    if args.write:
        path = HERE / "baseline.json"
        stored = json.loads(path.read_text())
        for source, per_workload in counts.items():
            stored["work_counts"].setdefault(source, {}).update(per_workload)
        stored["environment"] = {
            **env, "cpu": cpu_model(), "nproc": os.cpu_count(), "commit": git_commit(),
        }
        stored.setdefault("sets", {})[str(args.first_seed)] = {
            "seeds": [seeds[0], seeds[-1]], "seconds": seconds, "end_to_end": summary,
            "unscaled": raw, "speed_factors": factors, "per_layer_traced": layers}
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

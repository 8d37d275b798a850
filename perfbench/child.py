"""Child processes of the benchmark; each runs in a fresh interpreter.

    child.py setup
        Time ``import quadident`` plus the first ``registry()`` call; print
        the registry's ids and default tolerances.
    child.py inproc --ids A,B --grid N --seed S --seconds T [--trace]
        One untimed pass, then passes of ``verify(id, grid_size=N)`` over the
        ids in a seeded order until T seconds are spent.
    child.py cli [--trace] -- ARGV...
        Run ``quadident.cli.main(ARGV)``; its report goes to stdout and the
        per-case times to stderr, on a line starting with ``TELEMETRY``.

``--trace`` installs the per-layer wrappers of ``tracer.py``. The results
are one JSON object, printed as the last line.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import sys
import time
from pathlib import Path

from judge import judge

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package():
    """Import quadident, refusing any copy but the checkout's own."""
    start = time.perf_counter()
    import quadident
    elapsed = time.perf_counter() - start
    if Path(quadident.__file__).resolve() != SRC / "quadident" / "__init__.py":
        raise SystemExit(f"quadident imported from {quadident.__file__}, not {SRC}")
    return quadident, elapsed


def _tols(quadident, ids):
    return {i: (quadident.lookup(i).default_tol.abs_tol,
                quadident.lookup(i).default_tol.rel_tol) for i in ids}


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image. ``ru_maxrss`` would also
    count the parent's memory at the fork that started this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup() -> dict:
    quadident, import_s = _import_package()
    start = time.perf_counter()
    ids = sorted(quadident.registry())
    registry_s = time.perf_counter() - start
    import numpy
    import speed  # imports numpy; only after the timed import
    return {"setup_s": import_s + registry_s, "import_s": import_s,
            "ids": ids, "tols": _tols(quadident, ids), "speed_s": speed.sample(),
            "env": {"python": platform.python_version(), "numpy": numpy.__version__}}


def _rows(outcomes):
    for o in outcomes:
        yield o.id, o.lhs_value, o.rhs_value, o.abs_error, o.passed, o.evals + o.terms


def inproc(ids, grid, seed, seconds, trace) -> dict:
    quadident, _ = _import_package()
    import speed
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        verify = tracer.install()
    else:
        verify = quadident.verify
    tols = _tols(quadident, ids)
    for case_id in ids:  # fills the caches
        verify(case_id, grid_size=grid)
    if trace:
        tracer.take_pass()

    rng = random.Random(seed)
    order = list(ids)
    passes, layers, judged, speed_s = [], [], [], []
    case_s = {i: [] for i in ids}
    clock = time.perf_counter
    begin = clock()
    while clock() - begin < seconds:
        speed_s.append(speed.sample())
        rng.shuffle(order)
        outcomes = []
        start = clock()
        for case_id in order:
            t0 = clock()
            outcomes.extend(verify(case_id, grid_size=grid))
            case_s[case_id].append(clock() - t0)
        passes.append(clock() - start)
        judged.append(judge(_rows(outcomes), tols))
        if trace:
            layers.append(tracer.take_pass())
    speed_s.append(speed.sample())
    return {"pass_s": passes, "case_s": case_s, "judged": judged, "layers": layers,
            "speed_s": speed_s, "peak_rss_mb": _peak_rss_mb()}


def cli(argv, trace) -> int:
    _import_package()
    import quadident.cli as cli_module
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    case_s = {}
    verify = cli_module.verify

    def timed(case_id, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return verify(case_id, *args, **kwargs)
        finally:
            case_s[case_id] = time.perf_counter() - t0

    cli_module.verify = timed
    rc = cli_module.main(argv)
    sys.stdout.flush()
    telemetry = {"rc": rc, "case_s": case_s,
                 "peak_rss_mb": _peak_rss_mb(),
                 "layers": tracer.take_pass() if trace else None}
    print("TELEMETRY " + json.dumps(telemetry), file=sys.stderr)
    return rc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "inproc", "cli"))
    parser.add_argument("--ids", default="")
    parser.add_argument("--grid", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    own, _, argv = " ".join(sys.argv[1:]).partition(" -- ")
    args = parser.parse_args(own.split())
    if args.mode == "cli":
        return cli(argv.split(), args.trace)
    if args.mode == "setup":
        result = setup()
    else:
        result = inproc(args.ids.split(","), args.grid, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

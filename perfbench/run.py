"""Benchmark of layoutsynth, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads BENCHMARK.json lists, or ``all`` (the
default) for each of them in turn, every one in a process of its own so
that none inherits another's peak memory. The seed fixes each
workload's scenes and solver seeds. S, the measuring time, defaults to
BENCHMARK.json's ``run_seconds``.

Every metric is printed by name with its unit. With one workload the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, the metrics being the ones
BENCHMARK.json lists under the same names: its end_to_end metrics with
``--trace 0`` and its per_layer metrics with ``--trace 1``. With
``all`` the last line sums ``correct``, ``attempted`` and ``failed``
and holds each workload's own object under ``workloads``. A traced run
wraps the package's layer functions from outside (see tracer.py) in a
run of its own, so the end-to-end figures never carry tracing cost.
Full records, with configs, environment and the span log of traced
runs, are written to perfbench/results/.

Run it from a checkout: the package is imported from ``src/`` next to
this directory and nowhere else, and without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def run_all(names, args, seconds: float) -> int:
    """Each workload in a child process; passes its output through."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout, end="")
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        for line in lines[:-1]:
            print(line, flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "layoutsynth"
    spec_path = ROOT / "BENCHMARK.json"
    if not (package / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/layoutsynth or BENCHMARK.json; "
              "run from a layoutsynth checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not seconds > 0:
        parser.error("--seconds must be positive")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(names, args, seconds)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2

    # one thread for every numeric library, set before numpy loads
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import layoutsynth

    if Path(layoutsynth.__file__).resolve().parent != package.resolve():
        print(f"error: imported layoutsynth from {layoutsynth.__file__}, not {package}",
              file=sys.stderr)
        return 2

    import harness

    record = harness.run_workload(args.workload, args.seed, seconds, bool(args.trace),
                                  ROOT / "src", HERE / "results")
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

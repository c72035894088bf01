"""convpow benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {analyze,bounds,maximal} --seed N \\
        --seconds S --trace {0,1}

The checkout's ``src`` directory is imported directly; nothing is installed.
Processes start one at a time, each from a fresh interpreter: set-up probes
(``setup_s`` is their median) before and after one worker process that runs
the workload's command in a closed loop for S seconds and reports the median
command time and its own peak RSS (see worker.py).  With ``--trace 1``
the worker also runs two traced commands and the per-layer metrics are
printed instead of the end-to-end ones.  Every output is checked (see
checks.py); the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Inputs, the spans of the traced commands and the command outputs go to
``.bench_out/<workload>-<seed>/`` in the checkout; the command outputs are
removed at the end.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import METRIC_MAP, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# import time alone varies by tens of percent between processes, so setup_s
# is the median of many
SETUP_PROBES = 12
TIME_LIMIT_S = 170.0
# native libraries may not add threads to the two the CLI runs
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_size", ".points")):
        return "points"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_child(argv: list, deadline: float, env: dict) -> dict:
    """Run one child process to completion; return the JSON on its last line."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # a termination request raises inside subprocess.run, which then kills
    # and waits for the running child before the exception propagates
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "convpow" / "__init__.py").is_file():
        print(f"bench: no convpow sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    spec, phi = workload.inputs(args.seed)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    if phi is not None:
        (workdir / "phi.json").write_text(json.dumps(phi, indent=2) + "\n")
    env = {**os.environ, **SINGLE_THREADED}

    try:
        probe = [sys.executable, str(BENCH / "probe.py"), str(SRC), str(spec_path)]
        run_child(probe, deadline, env)  # fills the file cache and bytecode cache
        # half the probes run before the worker and half after it, so that
        # their median spans the run, not one moment of the machine's load
        setup = [run_child(probe, deadline, env)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        result = run_child([sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
                            "--workload", workload.name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--workdir", str(workdir)], deadline, env)
        setup += [run_child(probe, deadline, env)["setup_s"]
                  for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        print(f"bench: {workload.name}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir / "out", ignore_errors=True)

    times = result["command_times"]
    attempted, failed = result["attempted"], result["failed"]
    end_to_end = {
        "command_s": (result["command_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(f"workload {workload.name}, seed {args.seed}: closed loop, one client, "
          f"--threads 2, spec {json.dumps(spec)}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    print(f"  {'error_rate':<14} {failed / attempted:.6g} ({failed} failed of {attempted})")
    print(f"  command_s is the median of {len(times)} untraced commands "
          f"(min {min(times):.4g} s, max {max(times):.4g} s); "
          f"setup_s the median of {len(setup)} fresh processes")
    if args.trace:
        layers = result["layers"]
        if set(layers) != set(METRIC_MAP):
            print(f"bench: traced metrics {sorted(set(layers) ^ set(METRIC_MAP))} "
                  "do not match the metric map", file=sys.stderr)
            return 1
        metrics = {name: {"value": layers[name], "unit": layer_unit(name)}
                   for name in METRIC_MAP}
        for name, metric in metrics.items():
            print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

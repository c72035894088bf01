"""One benchmark workload in a fresh process: a closed loop of CLI commands.

run.py starts this with the checkout's ``src`` directory, the seed and the
directory holding the inputs it wrote.  The process's peak RSS is read right
after its first command, so it is the peak of one command as the CLI runs
it, and that command's outputs are checked against the workload's oracle.
Then commands run one after another for the requested seconds, untraced,
and ``command_s`` is the median of the wall times of all untraced commands.
With ``--trace 1`` two more commands run with the tracer installed, and
their counts must agree exactly.  The last line of standard output is one
JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


class Loop:
    """Runs the workload's command and counts the commands that fail a check."""

    def __init__(self, cli_main, checks, argv, out: Path):
        self.cli_main = cli_main
        self.checks = checks
        self.argv = argv
        self.out = out
        self.attempted = 0
        self.failed = set()
        self.messages = []
        self.expected = None

    def fail(self, commands, message: str) -> None:
        self.failed.update(commands)
        self.messages.append(message)

    def command(self, tracer=None) -> float:
        """Run one command and check its outputs; return its wall time."""
        self.attempted += 1
        index = self.attempted
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli_main(self.argv)
            else:
                with tracer.span("cli"):
                    code = self.cli_main(self.argv)
            elapsed = time.perf_counter() - start
            self.checks.require(code == 0, f"exit code {code}")
            got = self.checks.fingerprint(self.out)
            if self.expected is None:
                self.expected = got
            self.checks.require(got == self.expected,
                                "outputs differ from the first command's")
        except Exception as exc:  # noqa: BLE001 - a raising command is a failed one
            elapsed = time.perf_counter() - start
            self.fail([index], f"command {index}: {exc!r}")
        return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    import convpow.cli

    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    spec, phi = workload.inputs(args.seed)
    out = workdir / "out" / "report.json"
    loop = Loop(convpow.cli.main, checks,
                workload.argv(str(workdir / "spec.json"), str(workdir / "phi.json"), str(out)),
                out)

    times = [loop.command()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_ok = True
    try:
        checks.check_oracle(workload.name, spec, phi, out, args.seed)
    except Exception as exc:  # noqa: BLE001 - a failed oracle fails the run
        oracle_ok = False
        loop.messages.append(f"oracle: {exc!r}")

    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(times) < 3:
        times.append(loop.command())
    result = {"command_times": times, "command_s": statistics.median(times),
              "peak_rss_mb": peak_rss_mb}

    if args.trace:
        from tracer import COUNT_METRICS, Tracer

        runs = []
        for _ in range(2):
            tracer = Tracer()
            with tracer.installed():
                elapsed = loop.command(tracer)
            layers = tracer.metrics()
            layers["cli.output_bytes"] = (checks.output_bytes(out, loop.expected[0])
                                          if loop.expected else 0)
            runs.append({"command_s": elapsed, "layers": layers, "spans": tracer.spans()})
        first, second = (run["layers"] for run in runs)
        for name in (*COUNT_METRICS, "cli.output_bytes"):
            if first[name] != second[name]:
                loop.fail([loop.attempted - 1, loop.attempted],
                          f"count {name} differs between traced runs: "
                          f"{first[name]} then {second[name]}")
        layers = {name: statistics.median(run["layers"][name] for run in runs)
                  if name.endswith("_s") else value for name, value in first.items()}
        layers["trace.overhead_s"] = (statistics.median(run["command_s"] for run in runs)
                                      - result["command_s"])
        result["layers"] = layers
        (workdir / "trace.json").write_text(json.dumps(runs))

    # every command must reproduce the first one's outputs, so a failed
    # oracle fails them all
    failed = len(loop.failed) if oracle_ok else loop.attempted
    for message in loop.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result.update(attempted=loop.attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

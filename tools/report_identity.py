"""Compare the outputs of two source trees on the benchmark's workloads.

Usage, from the root of a checkout:

    python3 tools/report_identity.py BASE_SRC CHANGE_SRC

Each workload of ``bench/workloads.py`` runs its command on seeds 1 and 7,
once with BASE_SRC and once with CHANGE_SRC as the ``src`` directory
imported (``python -m convpow``).  The two runs must agree on the exit code
and on ``bench/checks.py``'s fingerprint: the report outside ``meta`` and
the digest of every CSV sidecar.  The reports are compared as JSON text, so
an integer written where a float was (``1`` against ``1.0``) is a
difference.  One line is printed per case; the exit code is 1 when any case
differs and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)


def run(src: Path, workload, seed: int, workdir: Path):
    """Run one workload under ``src``; return (exit code, fingerprint or None)."""
    from checks import fingerprint

    workdir.mkdir(parents=True)
    spec, phi = workload.inputs(seed)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    phi_path = None
    if phi is not None:
        phi_path = workdir / "phi.json"
        phi_path.write_text(json.dumps(phi))
    out = workdir / "report.json"
    argv = workload.argv(str(spec_path), phi_path and str(phi_path), str(out))
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = subprocess.run([sys.executable, "-m", "convpow", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    if not out.exists():
        return code, None
    report, digests = fingerprint(out)
    return code, (json.dumps(report, sort_keys=True, allow_nan=False), digests)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/report_identity.py BASE_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    base, change = (Path(a).resolve() for a in args)
    # checks.py validates with the schema of the tree under comparison
    sys.path[:0] = [str(ROOT / "bench"), str(change)]
    from workloads import WORKLOADS

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                case = Path(tmp) / f"{name}-{seed}"
                got = [run(src, workload, seed, case / side)
                       for side, src in (("base", base), ("change", change))]
                same = got[0] == got[1] and got[0][1] is not None
                differ += not same
                print(f"{name} seed {seed}: {'identical' if same else 'DIFFERENT'} "
                      f"(exit {got[0][0]} / {got[1][0]})", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

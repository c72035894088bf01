"""Compare the outputs of two source trees on the benchmark's workloads.

Usage, from the root of a checkout:

    python3 tools/report_identity.py [--rtol R] BASE_SRC CHANGE_SRC

Each workload of ``bench/workloads.py``, ``maximal-lazy`` (the ``maximal``
workload on the lazy walk, where no window cuts anything and the full pass
runs), ``maximal-heavy`` (the ``maximal`` workload on ``power_law`` beta 2.5,
K=1e4 with ``--n-max 64``: a heavy tail, whose windows must grow past the
first), ``maximal-signed`` (the ``maximal`` workload with a signed 5-point
phi, bracketed by its positive and negative parts), ``maximal-gapped`` (the
``maximal`` workload on atoms 0.25/0.5/0.25 at -2000/0/2000 with ``--n-max
24``: two windowed passes that cannot certify, then the full pass),
``maximal-drift`` (the ``maximal`` workload on the mixture 0.5 ``power_law``
beta 2.5, K=1e4 plus 0.5 an atom at 5: a drifting law, whose windows move
from row to row over two windowed passes), ``maximal-log-squared`` (the
``maximal`` workload on ``log_squared`` K=1e4: a tail heavier than any power,
whose windows grow over seven passes to a half width of 16,384),
``analyze-lazy`` (the ``analyze`` workload on the lazy walk, whose finite
support takes the growth curve's saturating path and whose profile sidecar
is thick with signed zeros), ``analyze-heavy`` (the ``analyze`` workload on
``log_squared`` K=1e5, whose envelope quadrature takes six passes, from
32,770 to 34,614 panels), ``analyze-gapped`` (the ``analyze`` workload on
the atoms of ``maximal-gapped``: the grid cannot certify aperiodicity, so
the rational-point scan runs, and the command exits 1 with
``gaussian_decay_skipped``), ``analyze-skewed`` (the ``analyze`` workload on
the mixture 0.5 ``power_law`` beta 2.5, K=1e5 plus 0.5 atoms 1/2, 1/2 at -1
and 2: a transform that is not real, so the angular probe's refinement sups
are not all about 1), ``analyze-wide-range`` (the ``analyze`` workload on
atoms at -300..300 with weights ``10**-|k|``, normalized: sums whose terms
span 300 decades, which ``measure.exact_sum`` takes in many rounds) and
``bounds-lazy`` (the ``bounds``
workload on the lazy walk, whose kernel table is the unfolded one: its
modulus is the padded size and its alias error 0) and ``bounds-delta`` (the
``bounds`` workload with ``--delta 0.3 --alpha 0.3``: the workload
estimates delta = alpha = 1, where the global difference regime has the
restricted one's weight ``x^2/|y|``; at 0.3 the weights differ and the
small-n and restricted masks move) and ``bounds-heavy`` (the ``bounds``
workload on ``power_law`` beta 2.5, K=1e4: a heavy tail, whose kernel table
climbs four rungs of the modulus ladder) and ``bounds-log-squared`` (the
``bounds`` workload on ``log_squared`` K=1e4: delta is estimated on a tail
heavier than any power, and the kernel table climbs six rungs, from 8,192 to
262,144 points) and ``bounds-odd-depth`` (the ``bounds`` workload with ``--n-max
96``: row 96 of the kernel table is B_64 * B_32, a depth that is not a power
of two, with B_32 kept past row 64) and ``bounds-wide`` (the ``bounds``
workload on the lazy walk with ``--n-max 16 --x-max 4096``: 4,096 shifts
over 8,193 columns, the widest table here, where the difference fits' bound
sweep skips the half of the (y, x) cells with 2|y| > |x|) runs its command
on seeds 1 and 7,
once with BASE_SRC and once with CHANGE_SRC as the ``src`` directory
imported (``python -m convpow``).  The two runs must agree on the exit
code.

By default they must also agree exactly on ``bench/checks.py``'s
fingerprint: the report outside ``meta`` and the digest of every CSV
sidecar.  The reports are compared as JSON text, so an integer written where
a float was (``1`` against ``1.0``) is a difference.

With ``--rtol R`` numbers may differ by R times the largest absolute value
of their column: a CSV column, or a report field with list positions
ignored (``j1`` of the envelope integrals is one column).  Text, booleans,
nulls, shapes and every ``worst`` tuple must still agree exactly, and a
report field the base has must remain; a field only the change has is
listed, not counted.  Each case prints its largest difference relative to
its column and names every worst tuple that moved.

One line is printed per case (``verdict``); the exit code is 1 when any
case differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)
# atoms 0.25/0.5/0.25 at -2000/0/2000, from offset -2000
GAPPED_WEIGHTS = [0.25, *[0.0] * 1999, 0.5, *[0.0] * 1999, 0.25]
# 0.5 power_law beta 2.5, K=1e4 plus 0.5 an atom at 5: a mean of 2.5 a step
DRIFT = {"kind": "mixture",
         "params": {"a1": 0.5, "eta": {"kind": "power_law", "params": {"beta": 2.5}, "K": 10_000},
                    "nu": {"kind": "atoms", "params": {"offset": 5, "weights": [1.0]}}}}
# 0.5 power_law beta 2.5, K=1e5 plus 0.5 atoms 1/2, 1/2 at -1 and 2: theta is not real
SKEWED = {"kind": "mixture",
          "params": {"a1": 0.5, "eta": {"kind": "power_law", "params": {"beta": 2.5}, "K": 100_000},
                     "nu": {"kind": "atoms",
                            "params": {"offset": -1, "weights": [0.5, 0.0, 0.0, 0.5]}}}}
# atoms at -300..300 with weights 10**-|k|, normalized: terms 300 decades apart
DECADES = np.array([10.0 ** -abs(k) for k in range(-300, 301)])
WIDE_RANGE = {"kind": "atoms",
              "params": {"offset": -300, "weights": (DECADES / math.fsum(DECADES)).tolist()}}


def cases(workloads: dict) -> dict:
    """The benchmark's workloads, ``maximal-lazy``, ``maximal-heavy``,
    ``maximal-signed``, ``maximal-gapped``, ``maximal-drift``,
    ``maximal-log-squared``, ``analyze-lazy``, ``analyze-heavy``,
    ``analyze-gapped``, ``analyze-skewed``, ``analyze-wide-range``,
    ``bounds-lazy``, ``bounds-delta``, ``bounds-heavy``, ``bounds-log-squared``,
    ``bounds-odd-depth`` and ``bounds-wide``."""
    gapped = {"kind": "atoms", "params": {"offset": -2000, "weights": GAPPED_WEIGHTS}}
    log_squared = {"kind": "log_squared", "params": {}, "K": 10_000}
    def lazy(name: str, why: str):
        return dataclasses.replace(workloads[name], name=f"{name}-lazy", why=why,
                                   spec=lambda rng: {"kind": "lazy_walk", "params": {}})
    maximal = workloads["maximal"]
    extra = (lazy("maximal", "maximal on the lazy walk: no window cuts, the full pass runs"),
             dataclasses.replace(maximal, name="maximal-heavy",
                                 flags=("--n-max", "64", "--lambda-min", "0.0001"),
                                 spec=lambda rng: {"kind": "power_law",
                                                   "params": {"beta": 2.5}, "K": 10_000},
                                 why="maximal on a heavy tail: windows that must grow"),
             dataclasses.replace(maximal, name="maximal-signed",
                                 phi=lambda rng: {"offset": -2, "weights": [0.5, -1.0, 0.25,
                                                                            2.0, -0.75]},
                                 why="maximal with a signed phi: both parts bracketed"),
             dataclasses.replace(maximal, name="maximal-gapped",
                                 flags=("--n-max", "24", "--lambda-min", "0.0001"),
                                 spec=lambda rng: gapped,
                                 why="maximal on atoms 2000 apart: windowed passes that "
                                     "stall, then the full pass"),
             dataclasses.replace(maximal, name="maximal-drift", spec=lambda rng: DRIFT,
                                 why="maximal on a drifting law: windows that move"),
             dataclasses.replace(maximal, name="maximal-log-squared",
                                 spec=lambda rng: log_squared,
                                 why="maximal on log_squared: windows that grow over "
                                     "seven passes"),
             lazy("analyze", "analyze on the lazy walk: the saturating growth curve, and "
                             "a profile sidecar with thousands of -0 and 0 cells"),
             dataclasses.replace(workloads["analyze"], name="analyze-heavy",
                                 spec=lambda rng: {"kind": "log_squared", "params": {},
                                                   "K": 100_000},
                                 why="analyze on log_squared: an envelope quadrature "
                                     "of six passes"),
             dataclasses.replace(workloads["analyze"], name="analyze-gapped",
                                 spec=lambda rng: gapped,
                                 why="analyze on atoms 2000 apart: the rational-point "
                                     "aperiodicity scan runs, and the command exits 1"),
             dataclasses.replace(workloads["analyze"], name="analyze-skewed",
                                 spec=lambda rng: SKEWED,
                                 why="analyze on a skewed law: a transform that is not "
                                     "real, probed off the real axis"),
             dataclasses.replace(workloads["analyze"], name="analyze-wide-range",
                                 spec=lambda rng: WIDE_RANGE,
                                 why="analyze on weights 10**-|k|, |k| <= 300: moments "
                                     "whose terms span 300 decades"),
             lazy("bounds", "verify-bounds on the lazy walk: the unfolded kernel table, "
                            "with alias error 0"),
             dataclasses.replace(workloads["bounds"], name="bounds-delta",
                                 flags=(*workloads["bounds"].flags, "--delta", "0.3",
                                        "--alpha", "0.3"),
                                 why="verify-bounds at delta = alpha = 0.3: difference "
                                     "regimes with different weights, other masks"),
             dataclasses.replace(workloads["bounds"], name="bounds-heavy",
                                 spec=lambda rng: {"kind": "power_law",
                                                   "params": {"beta": 2.5}, "K": 10_000},
                                 why="verify-bounds on a heavy tail: a kernel table "
                                     "certified four rungs up the ladder"),
             dataclasses.replace(workloads["bounds"], name="bounds-log-squared",
                                 spec=lambda rng: log_squared,
                                 why="verify-bounds on log_squared: delta estimated on "
                                     "that tail, six rungs of the ladder"),
             dataclasses.replace(workloads["bounds"], name="bounds-odd-depth",
                                 flags=("--n-max", "96", "--x-max", "512"),
                                 why="verify-bounds to depth 96: a row that is the product "
                                     "of two kept squares"),
             dataclasses.replace(workloads["bounds"], name="bounds-wide",
                                 flags=("--n-max", "16", "--x-max", "4096"),
                                 spec=lambda rng: {"kind": "lazy_walk", "params": {}},
                                 why="verify-bounds at x_max 4096: a bound sweep that "
                                     "skips half of the (y, x) cells"))
    return {**workloads, **{case.name: case for case in extra}}


def run(src: Path, workload, seed: int, workdir: Path):
    """Run one workload under ``src``; return (exit code, report path or None)."""
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
    return code, out if out.exists() else None


def fingerprint(out: Path):
    """``checks.fingerprint`` without its validation: the command validated its
    report with the schema of the tree that wrote it, and the change's schema
    need not accept the base's ``meta``."""
    from checks import sidecars

    report = json.loads(out.read_text())
    report.pop("meta")
    digests = {p.name.rsplit(".", 2)[-2]: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sidecars(out)}
    return report, digests


def exact_fingerprint(out: Path):
    report, digests = fingerprint(out)
    return json.dumps(report, sort_keys=True, allow_nan=False), digests


def _leaves(value, path: str, out: dict) -> None:
    """Flatten a JSON value into path -> leaf; a list also leaves its length."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and not path.endswith(".worst"):
        out[f"{path}[]"] = f"{len(value)} items"
        for i, item in enumerate(value):
            _leaves(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sidecars(out: Path) -> dict:
    """name -> (header, 2-D array) of every CSV sidecar next to ``out``."""
    from checks import sidecars

    tables = {}
    for path in sidecars(out):
        with path.open() as handle:
            header = handle.readline().rstrip().split(",")
        tables[path.name.rsplit(".", 2)[-2]] = (
            header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    return tables


def compare_within(base_out: Path, change_out: Path, rtol: float):
    """(problems, notes, largest relative difference and where) of two outputs."""
    base, change = {}, {}
    for out, flat in ((base_out, base), (change_out, change)):
        _leaves(fingerprint(out)[0], "", flat)
    problems = [f"field {p} is gone" for p in sorted(base.keys() - change.keys())]
    notes = []
    added = sorted(change.keys() - base.keys())
    if added:
        notes.append("new fields: " + ", ".join(added))
    cells = {}   # report column -> [(path, base number, change number)]
    for path in sorted(base.keys() & change.keys()):
        a, b = base[path], change[path]
        if path.endswith(".worst"):
            if a != b:
                problems.append(f"worst tuple {path}: {a} -> {b}")
        elif _is_number(a) and _is_number(b):
            # list positions do not split a column
            cells.setdefault(re.sub(r"\[\d+\]", "[]", path), []).append((path, a, b))
        elif a != b:
            problems.append(f"{path}: {a!r} -> {b!r}")
    # every column as (cell labels, base array, change array)
    columns = [([p for p, _, _ in col], *np.array([(a, b) for _, a, b in col], float).T)
               for col in cells.values()]

    sides = [_sidecars(out) for out in (base_out, change_out)]
    if sides[0].keys() != sides[1].keys():
        problems.append(f"sidecars {sorted(sides[0])} -> {sorted(sides[1])}")
    for name in sorted(sides[0].keys() & sides[1].keys()):
        (head_a, a), (head_b, b) = sides[0][name], sides[1][name]
        if head_a != head_b or a.shape != b.shape:
            problems.append(f"{name}.csv: header or shape differs")
            continue
        columns.extend(([f"{name}.csv:{col}[{i}]" for i in range(a.shape[0])], a[:, j], b[:, j])
                       for j, col in enumerate(head_a))

    largest, where = 0.0, None
    for labels, xs, ys in columns:
        gap = np.abs(xs - ys)
        scale = max(np.abs(xs).max(), np.abs(ys).max())
        i = int(np.argmax(gap))
        if scale > 0 and gap[i] / scale > largest:
            largest, where = float(gap[i] / scale), labels[i]
        problems.extend(f"{labels[k]}: {float(xs[k])!r} -> {float(ys[k])!r} beyond rtol"
                        for k in np.flatnonzero(gap > rtol * scale))
    return problems, notes, largest, where


def verdict(base_out: Path, change_out: Path, rtol: float | None):
    """(differs, verdict, detail lines) of two outputs of one case.

    ``rtol`` None compares the fingerprints exactly.
    """
    if rtol is None:
        same = exact_fingerprint(base_out) == exact_fingerprint(change_out)
        return not same, "identical" if same else "DIFFERENT", []
    problems, notes, largest, where = compare_within(base_out, change_out, rtol)
    text = "DIFFERENT" if problems else f"within rtol {rtol:g}"
    text += f", largest difference {largest:.3g} of its column"
    if where:
        text += f" at {where}"
    lines = problems[:10] + notes
    if len(problems) > 10:
        lines.append(f"... {len(problems) - 10} more")
    return bool(problems), text, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rtol", type=float, default=None,
                        help="compare numbers within this multiple of their column's "
                             "largest absolute value instead of exactly")
    args = parser.parse_args(argv)
    if args.rtol is not None and not args.rtol >= 0.0:
        parser.error("--rtol must be nonnegative")
    base, change = args.base.resolve(), args.change.resolve()
    # checks.py and its sidecar list import convpow: the tree under comparison
    sys.path[:0] = [str(ROOT / "bench"), str(change)]
    from workloads import WORKLOADS

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in cases(WORKLOADS).items():
            for seed in SEEDS:
                case = Path(tmp) / f"{name}-{seed}"
                (code_a, out_a), (code_b, out_b) = (
                    run(src, workload, seed, case / side)
                    for side, src in (("base", base), ("change", change)))
                exits = f"(exit {code_a} / {code_b})"
                if code_a != code_b or out_a is None or out_b is None:
                    differ += 1
                    print(f"{name} seed {seed}: DIFFERENT {exits}", flush=True)
                    continue
                differs, text, lines = verdict(out_a, out_b, args.rtol)
                differ += differs
                print(f"{name} seed {seed}: {text} {exits}", flush=True)
                for line in lines:
                    print(f"  {line}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

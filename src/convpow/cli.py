"""Command-line interface.

Usage:
    convpow analyze --spec measure.json --out report.json
    convpow verify-bounds --spec measure.json --out report.json --n-max 512
    convpow maximal --spec measure.json --phi phi.json --out report.json

Each command writes one schema-validated JSON report plus CSV side files
for the curves (named <out stem>.<curve>.csv next to the report).  Exit
codes: 0 success, 1 hypothesis-failure findings present, 2 input error.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .maximal import LatticeSequence
from .report import (
    analyze_report,
    maximal_report,
    validate_report,
    verify_bounds_report,
)
from .spectral import DEFAULT_GRID_SIZE, DEFAULT_PUNCTURE, MIN_GRID_SIZE
from .zoo import MeasureSpec, SpecError


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--spec", required=True, help="measure spec JSON file")
    parser.add_argument("--out", required=True, help="report JSON output path")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored; every command "
                             "runs on one thread")


# argparse dest, or (command, dest) where the subcommands give one flag
# different meanings -> (accepts, requirement); unset flags are not checked
_RANGES = {
    "grid_size": (lambda v: v >= MIN_GRID_SIZE, f"at least {MIN_GRID_SIZE}"),
    "puncture": (lambda v: 0 < v < 0.5, "in (0, 0.5)"),
    "n_max": (lambda v: v >= 1, "at least 1"),
    "x_max": (lambda v: v >= 1, "at least 1"),
    "alpha": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "lambda_min": (lambda v: 0 < v < 1, "in (0, 1)"),
    ("analyze", "delta"): (lambda v: 0 < v <= 0.5, "in (0, 0.5]"),
    ("verify-bounds", "delta"): (lambda v: 0 < v < math.inf, "finite and positive"),
}


def _grid_has_node_in(N: int, puncture: float, delta: float) -> bool:
    """Whether a node t of ``grid_nodes(N)`` has puncture < |t| <= delta, for
    0 < puncture: the nodes ascend with j, so a bisection on each side finds
    the node nearest the puncture, evaluated as ``grid_nodes`` evaluates it."""
    def node(j):
        return -0.5 + j / N

    above = bisect.bisect_right(range(N), puncture, key=node)   # the first node above puncture
    below = bisect.bisect_left(range(N), -puncture, key=node)   # the number of nodes below -puncture
    return (above < N and node(above) <= delta) or (below > 0 and -node(below - 1) <= delta)


def _check_ranges(args: argparse.Namespace) -> None:
    for dest, value in vars(args).items():
        rule = _RANGES.get((args.command, dest), _RANGES.get(dest))
        if rule is not None and value is not None and not rule[0](value):
            raise SpecError("--" + dest.replace("_", "-"), f"must be {rule[1]}, got {value!r}")
    if args.command == "analyze":  # the majorant is fitted on puncture < |t| <= delta
        if not _grid_has_node_in(args.grid_size, args.puncture, args.delta):
            raise SpecError("--delta", f"({args.puncture!r}, {args.delta!r}] holds no node "
                                       f"of the {args.grid_size}-point grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convpow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="transform and tail diagnostics")
    _add_common(analyze)
    analyze.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    analyze.add_argument("--puncture", type=float, default=DEFAULT_PUNCTURE)
    analyze.add_argument("--delta", type=float, default=0.25,
                         help="majorant fit window half width")

    bounds = sub.add_parser("verify-bounds", help="kernel decay and difference fits")
    _add_common(bounds)
    bounds.add_argument("--n-max", type=int, default=512)
    bounds.add_argument("--x-max", type=int, default=512)
    bounds.add_argument("--delta", type=float, default=None,
                        help="smoothness exponent; estimated when omitted")
    bounds.add_argument("--alpha", type=float, default=None,
                        help="global difference exponent; defaults to min(delta, 1)")

    maximal = sub.add_parser("maximal", help="maximal function level sets")
    _add_common(maximal)
    maximal.add_argument("--phi", required=True, help="test sequence JSON file")
    maximal.add_argument("--n-max", type=int, default=256)
    maximal.add_argument("--lambda-min", type=float, default=1e-4,
                         help="lowest level of the level-set grid, relative to ||phi||_1")
    return parser


def _load_spec(path: str) -> MeasureSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError("spec", f"cannot read {path}: {exc}") from None
    return MeasureSpec.from_json(text)


def _load_phi(path: str) -> LatticeSequence:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SpecError("phi", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError("phi", f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "weights" not in payload:
        raise SpecError("phi.weights", "missing")
    try:
        seq = LatticeSequence.from_dict(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError("phi", str(exc)) from None
    try:
        norm = seq.l1_norm()
    except OverflowError:
        raise SpecError("phi.weights", "l1 norm overflows a float") from None
    if norm < sys.float_info.min:   # below it the levels lambda * norm underflow
        raise SpecError("phi.weights", f"zero l1 norm, or below the smallest normal float: {norm!r}")
    return seq


# rows per %-format in _write_sidecar: the Python loop runs once a block, not once a
# row, and only one block's text is held at a time, not the whole sidecar's
SIDECAR_BLOCK_ROWS = 1024


def _write_sidecar(path: Path, header, columns: np.ndarray) -> None:
    """Write the header line, then each block of rows with one %-format.

    Each row is a line of ``%.17g`` fields joined by ``,`` and ended by
    ``\\r\\n``, the bytes of formatting one row at a time: %.17g round-trips
    floats (``nan``, ``-inf`` and ``-0`` too) and prints integers below 1e17
    exactly.
    """
    row = ",".join(["%.17g"] * columns.shape[1]) + "\r\n"
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, len(columns), SIDECAR_BLOCK_ROWS):
            block = columns[start:start + SIDECAR_BLOCK_ROWS]
            handle.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_outputs(report: dict, sidecars: dict, out_path: str, command_start: float) -> None:
    """Validate the report, write its sidecars, then the report.

    The report goes last so that ``meta.timings`` can hold the time of the
    other two (``validate`` and ``sidecars``), and ``total``: the time since
    ``command_start``, the ``perf_counter`` reading when the command began.
    """
    timings = report["meta"]["timings"]
    start = time.perf_counter()
    validate_report(report)
    timings["validate"] = time.perf_counter() - start
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    stem = out.with_suffix("") if out.suffix == ".json" else out
    start = time.perf_counter()
    for name, (header, columns) in sidecars.items():
        _write_sidecar(Path(f"{stem}.{name}.csv"), header, columns)
    timings["sidecars"] = time.perf_counter() - start
    timings["total"] = time.perf_counter() - command_start
    out.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


def main(argv=None) -> int:
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        spec = _load_spec(args.spec)
        if args.command == "analyze":
            report, sidecars = analyze_report(
                spec, grid_size=args.grid_size, puncture_radius=args.puncture,
                majorant_delta=args.delta)
        elif args.command == "verify-bounds":
            report, sidecars = verify_bounds_report(
                spec, n_max=args.n_max, x_max=args.x_max, delta=args.delta, alpha=args.alpha)
        else:
            report, sidecars = maximal_report(
                spec, _load_phi(args.phi), n_max=args.n_max, lambda_min=args.lambda_min)
    except SpecError as exc:
        print(f"convpow: input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # numpy refuses an allocation past what the host has
        detail = f": {exc}" if str(exc) else ""
        print(f"convpow: input error: the input needs more memory than can be allocated{detail}",
              file=sys.stderr)
        return 2

    try:
        _write_outputs(report, sidecars, args.out, start)
    except OSError as exc:
        print(f"convpow: cannot write output: {exc}", file=sys.stderr)
        return 2

    for finding in report["findings"]:
        print(f"finding [{finding['section']}/{finding['code']}]: {finding['message']}",
              file=sys.stderr)
    return 1 if report["findings"] else 0


if __name__ == "__main__":
    sys.exit(main())

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
import functools
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

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
    if not isinstance(payload, dict):
        raise SpecError("phi", "expected a JSON object")
    for key in ("offset", "weights"):
        if key not in payload:
            raise SpecError(f"phi.{key}", "missing")
    try:
        seq = LatticeSequence.from_dict(payload)
    except (ValueError, TypeError) as exc:
        raise SpecError("phi", str(exc)) from None
    try:
        norm = seq.l1_norm()
    except OverflowError:
        raise SpecError("phi.weights", "l1 norm overflows a float") from None
    if norm < sys.float_info.min:   # below it the levels lambda * norm underflow
        raise SpecError("phi.weights", f"zero l1 norm, or below the smallest normal float: {norm!r}")
    return seq


# rows per encoded block in _write_sidecar: the Python loop runs once a block, not once a
# row, and only one block's bytes are held at a time, not the whole sidecar's
SIDECAR_BLOCK_ROWS = 1024

# floor(log10 |x|) of every finite nonzero double is in -324..308; one more on each
# side takes the guess of a cell next to a power of ten
_DECIMAL_EXPONENTS = range(-325, 310)
# 2**27 + 1: Veltkamp's split of a double into two halves of at most 26 bits
_SPLIT = 134217729.0


class _G17Tables(NamedTuple):
    """The lookup tables of ``_g17_rows``; ``X`` is a decimal exponent and
    ``j = X + 325`` its index in ``_DECIMAL_EXPONENTS``."""

    power: np.ndarray    # (4, 635) float: hi, its two halves, lo
    shift: np.ndarray    # (635,) int32: (hi + lo) 2**shift is 10**(16 - X) to 2**-106
    prefix: np.ndarray   # (2 * 5 * 10,) words: sign, "", "0.", "0.0", "0.00" or "0.000", then d0
    group: np.ndarray    # (10000,) words: the 4 digits of v at odd bytes; even bytes take a point
    mask: np.ndarray     # (4, 17) words: the bytes of group i that hold digits 1..keep of d1..d16
    last: np.ndarray     # (10000,) int: the place 1..4 of v's last nonzero digit, -16 for v = 0
    suffix: np.ndarray   # (2 * 636,) words: nothing or "e+XX" for j + 1, then "," or "\r\n"


def _words(strings) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian words, padded with NULs."""
    return np.array(list(strings), dtype="S8").view("<u8")


@functools.cache
def _g17_tables() -> _G17Tables:
    """Build the encoder's tables (a few ms, 0.2 MB) on the first sidecar write."""
    hi, lo, shift = [], [], []
    for X in _DECIMAL_EXPONENTS:
        k = 16 - X
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        s = num.bit_length() - den.bit_length()   # 2**(s-1) < 10**k < 2**(s+1)
        scaled = (num << max(110 - s, 0)) // (den << max(s - 110, 0))   # 10**k 2**(110-s), floored
        hi.append(float(scaled))
        lo.append(float(scaled - int(hi[-1])))
        shift.append(s - 110)
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    v = np.arange(10000)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    group = np.zeros((10000, 8), np.uint8)
    group[:, 1::2] = digits + ord("0")
    kept = np.clip(np.arange(17) - 4 * np.arange(4)[:, None], 0, 4)
    mask = np.where(np.arange(8) < 2 * kept[..., None], 0xFF, 0).astype(np.uint8)
    last = np.where(v == 0, -16, np.max(np.where(digits != 0, np.arange(1, 5), 0), axis=1))
    return _G17Tables(
        power=np.stack([hi, hi_hi, hi - hi_hi, lo]),
        shift=np.array(shift, dtype=np.int32),   # as frexp's exponents: ldexp is slow on int64
        prefix=_words(sign + point + b"%d" % d for sign in (b"", b"-")
                      for point in (b"", b"0.", b"0.0", b"0.00", b"0.000") for d in range(10)),
        group=group.view("<u8").ravel(),
        mask=mask.view("<u8")[..., 0],
        last=last,
        suffix=_words(exponent + separator for separator in (b",", b"\r\n")
                      for exponent in [b""] + [b"e%+03d" % X for X in _DECIMAL_EXPONENTS]))


def _g17_rows(block: np.ndarray) -> bytes:
    """The rows of ``block`` as ``%.17g`` fields joined by ``,``, each ended by ``\\r\\n``.

    For a finite nonzero cell ``x`` with the guess ``X = floor(log10|x|)``,
    ``y = |x| 10**(16 - X)`` is taken in double-double: the mantissa of ``x``
    times the table's ``hi + lo`` by Dekker's exact product (numpy has no fma),
    to within 2**-100 y. ``D = round(y)`` holds the 17 significant digits that
    ``%.17g`` prints, rounded correctly, unless the fraction of ``y`` is within
    1e-9 of 1/2, ``y`` is below ``10**16`` (the guess ``X`` was one too high)
    or ``D`` reaches ``10**17`` (``X`` one too low, or rounding carries into an
    18th digit). Those cells and the non-finite ones are formatted by
    ``%.17g`` itself. Each cell is six words gathered from the
    tables -- sign, ``0.000`` prefix and ``d0``; four groups of 4 digits with
    the trailing zeros of the fraction dropped; exponent and separator -- with
    one scatter for the decimal point; the NUL padding is then deleted.
    """
    tables = _g17_tables()
    rows, cols = block.shape
    x = block.ravel().astype(np.float64, copy=False)
    zero = x == 0
    nonzero = np.isfinite(x) & ~zero
    magnitude = np.abs(np.where(nonzero, x, 1.0))
    X = np.floor(np.log10(magnitude)).astype(np.int64)
    j = X - _DECIMAL_EXPONENTS.start
    hi, hi_hi, hi_lo, lo = tables.power.take(j, axis=1)
    m, e = np.frexp(magnitude)
    c = _SPLIT * m
    m_hi = c - (c - m)
    m_lo = m - m_hi
    p = m * hi
    tail = ((m_hi * hi_hi - p) + m_hi * hi_lo + m_lo * hi_hi) + m_lo * hi_lo + m * lo
    y = p + tail
    tail -= y - p   # now y + tail = p + tail exactly, with |tail| <= ulp(y) / 2
    scale = e + tables.shift[j]
    y, tail = np.ldexp(y, scale), np.ldexp(tail, scale)   # y >= 2**53 is an integer
    up = np.rint(tail)
    D = y.astype(np.int64) + up.astype(np.int64)
    fast = (nonzero & (np.abs(np.abs(tail - up) - 0.5) > 1e-9) & (D < 10**17)
            & ((y > 1e16) | ((y == 1e16) & (tail >= 0))))
    D = np.where(fast, D, 0)   # a zero prints as its sign and "0"
    X = np.where(fast, X, 0)

    fixed = (X >= -4) & (X <= 16)   # %g prints -4 <= X < 17 without an exponent
    kind = np.where(fixed & (X < 0), -X, 0)   # the fraction's leading zeros, with "0."
    whole = np.where(fixed, np.maximum(X, 0), 0)   # d0 .. d_whole precede the point
    d0, rest = np.divmod(D, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = (*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    keep = whole
    for i, g in enumerate(groups):
        keep = np.maximum(keep, tables.last[g] + 4 * i)
    words = np.empty((x.size, 6), "<u8")
    words[:, 0] = tables.prefix[(np.signbit(x) * 5 + kind) * 10 + d0]
    for i, g in enumerate(groups):
        words[:, 1 + i] = tables.group[g] & tables.mask[i][keep]
    suffix = np.where(fixed, 0, j + 1).reshape(rows, cols)
    suffix[:, -1] += len(_DECIMAL_EXPONENTS) + 1   # the row's end
    words[:, 5] = tables.suffix[suffix.ravel()]
    dotted = np.flatnonzero((keep > whole) & (kind == 0))
    place = whole[dotted]   # the point goes before digit place + 1
    words.view(np.uint8).ravel()[48 * dotted + 8 + 8 * (place // 4) + 2 * (place % 4)] = ord(".")
    slow = np.flatnonzero(~fast & ~zero)
    if slow.size:   # at most 24 bytes each, in the 40 of the first five words
        words[slow, :5] = np.array([b"%.17g" % v for v in x[slow].tolist()],
                                   dtype="S40").view("<u8").reshape(-1, 5)
    return words.tobytes().translate(None, b"\0")


def _write_sidecar(path: Path, header, columns: np.ndarray) -> None:
    """Write the header line, then each block of rows encoded by ``_g17_rows``.

    Each row is a line of ``%.17g`` fields joined by ``,`` and ended by
    ``\\r\\n``, the bytes of formatting one row at a time: %.17g round-trips
    floats (``nan``, ``-inf`` and ``-0`` too) and prints integers below 1e17
    exactly.
    """
    with path.open("wb") as handle:
        handle.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(columns), SIDECAR_BLOCK_ROWS):
            handle.write(_g17_rows(columns[start:start + SIDECAR_BLOCK_ROWS]))


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


def _out_of_memory(exc: MemoryError) -> int:
    detail = f": {exc}" if str(exc) else ""
    print(f"convpow: input error: the input needs more memory than can be allocated{detail}",
          file=sys.stderr)
    return 2


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
        return _out_of_memory(exc)

    try:
        _write_outputs(report, sidecars, args.out, start)
    except OSError as exc:
        print(f"convpow: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # in validation or a sidecar's encoding
        return _out_of_memory(exc)

    for finding in report["findings"]:
        print(f"finding [{finding['section']}/{finding['code']}]: {finding['message']}",
              file=sys.stderr)
    return 1 if report["findings"] else 0

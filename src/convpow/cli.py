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
import ctypes
import functools
import json
import math
import sys
import threading
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
from .spectral import DEFAULT_GRID_SIZE, DEFAULT_PUNCTURE, MIN_GRID_SIZE, grid_has_node_in
from .zoo import MeasureSpec, SpecError


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--spec", required=True, help="measure spec JSON file")
    parser.add_argument("--out", required=True, help="report JSON output path")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored; analyze "
                             "writes its profile sidecar on one background thread, "
                             "the rest runs on the main thread")


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


def _check_ranges(args: argparse.Namespace) -> None:
    for dest, value in vars(args).items():
        rule = _RANGES.get((args.command, dest), _RANGES.get(dest))
        if rule is not None and value is not None and not rule[0](value):
            raise SpecError("--" + dest.replace("_", "-"), f"must be {rule[1]}, got {value!r}")
    if args.command == "analyze":  # the majorant is fitted on puncture < |t| <= delta
        if not grid_has_node_in(args.grid_size, args.puncture, args.delta):
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
    except (json.JSONDecodeError, RecursionError) as exc:   # too deep to decode
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
    digits: np.ndarray   # (10000,) words: the 4 digits of v in the low 4 bytes
    last: np.ndarray     # (10000,) int: the place 1..4 of v's last nonzero digit, -16 for v = 0
    low: np.ndarray      # (9,) words: low[k] keeps the k lowest bytes of a word
    high: np.ndarray     # (9,) words: high[k] keeps the bytes from byte k on
    point: np.ndarray    # (17,) words: point[k] is "." at byte k % 8
    suffix: np.ndarray   # (2 * 635,) words: "e+XX" unless -4 <= X <= 16, then "," or "\r\n"


def _words(strings) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian words, padded with NULs."""
    return np.array(list(strings), dtype="S8").view("<u8")


@functools.cache
def _g17_tables() -> _G17Tables:
    """Build the encoder's tables (a few ms, 0.19 MB) on the first sidecar write."""
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
    v = np.arange(10000, dtype=np.uint32)
    digits = np.zeros(10000, np.uint32)
    last = np.full(10000, -16)
    for place in range(4):   # one digit at a time: no temporary (10000, 4) table
        digit = v // 10**(3 - place) % 10
        digits |= (digit + ord("0")) << 8 * place
        last[digit != 0] = place + 1
    low = [2**(8 * k) - 1 for k in range(9)]
    return _G17Tables(
        power=np.stack([hi, hi_hi, hi - hi_hi, lo]),
        shift=np.array(shift, dtype=np.int32),   # as frexp's exponents: ldexp is slow on int64
        prefix=_words(sign + point + b"%d" % d for sign in (b"", b"-")
                      for point in (b"", b"0.", b"0.0", b"0.00", b"0.000") for d in range(10)),
        digits=digits.astype("<u8"),
        last=last,
        low=np.array(low, dtype="<u8"),
        high=np.array([2**64 - 1 - m for m in low], dtype="<u8"),
        point=np.array([ord(".") << 8 * (k % 8) for k in range(17)], dtype="<u8"),
        suffix=_words((b"" if -4 <= X <= 16 else b"e%+03d" % X) + separator
                      for separator in (b",", b"\r\n") for X in _DECIMAL_EXPONENTS))


def _divmod(v: np.ndarray, unit: int):
    """``(v // unit, v % unit)`` by one ``//`` and a multiply-subtract: twice
    as fast as numpy's divmod, since ``//`` by a scalar divides by a
    precomputed reciprocal."""
    q = v // unit
    return q, v - q * unit


def _g17_significands(x: np.ndarray, tables: _G17Tables):
    """``(D, j, slow)`` for the cells ``x``: the 17 significant digits that
    ``%.17g`` prints as one integer ``D``, and the index ``j`` of its decimal
    exponent ``X``; ``D = 0`` and ``X = 0`` where ``slow`` or ``x`` is zero.

    For a finite nonzero cell with the guess ``X = floor(log10|x|)``,
    ``y = |x| 10**(16 - X)`` is taken in double-double: the mantissa of ``x``
    times the table's ``hi + lo`` by Dekker's exact product (numpy has no fma),
    to within 2**-100 y. ``D = round(y)`` is correctly rounded unless the
    fraction of ``y`` is within 1e-9 of 1/2, ``y`` is below ``10**16`` (the
    guess ``X`` was one too high) or ``D`` reaches ``10**17`` (``X`` one too
    low, or rounding carries into an 18th digit). Those cells and the
    non-finite ones are ``slow``: ``%.17g`` itself formats them.
    """
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
    scale = e + tables.shift.take(j)
    y, tail = np.ldexp(y, scale), np.ldexp(tail, scale)   # y >= 2**53 is an integer
    up = np.rint(tail)
    D = y.astype(np.int64) + up.astype(np.int64)
    fast = (nonzero & (np.abs(np.abs(tail - up) - 0.5) > 1e-9) & (D < 10**17)
            & ((y > 1e16) | ((y == 1e16) & (tail >= 0))))
    return (np.where(fast, D, 0), np.where(fast, j, -_DECIMAL_EXPONENTS.start),
            ~fast & ~zero)


def _g17_digits(rest: np.ndarray, whole: np.ndarray, tables: _G17Tables):
    """The digits ``d1..d16`` of ``rest`` as two words of ASCII, ``d1..d8``
    and ``d9..d16``, with the zeros after the last nonzero digit past
    ``d_whole`` masked off; and ``keep``, the count of the digits kept.

    Gathers are by ``take``: indexing an array by another is about three
    times slower here.
    """
    upper, lower = _divmod(rest, 10**8)
    groups = (*_divmod(upper, 10**4), *_divmod(lower, 10**4))
    last, digits, low = tables.last, tables.digits, tables.low
    keep = np.maximum(np.maximum(last.take(groups[0]), last.take(groups[1]) + 4),
                      np.maximum(last.take(groups[2]) + 8, last.take(groups[3]) + 12))
    keep = np.maximum(keep, whole)
    first = ((digits.take(groups[0]) | digits.take(groups[1]) << 32)
             & low.take(np.minimum(keep, 8)))
    second = ((digits.take(groups[2]) | digits.take(groups[3]) << 32)
              & low.take(np.maximum(keep, 8) - 8))
    return first, second, keep


def _g17_rows(block: np.ndarray) -> bytes:
    """The rows of ``block`` as ``%.17g`` fields joined by ``,``, each ended by ``\\r\\n``.

    Each cell is four words gathered from the tables: sign, ``0.000``
    prefix and ``d0``; ``d1..d8`` and ``d9..d16`` (``_g17_digits``);
    exponent and separator. One byte goes in after digit ``whole`` by
    shifting the bytes behind it: the decimal point, or a NUL where none is
    printed. The NUL padding is then deleted. The stages are functions so
    that the temporaries of each are freed when it returns.
    """
    tables = _g17_tables()
    rows, cols = block.shape
    x = block.ravel().astype(np.float64, copy=False)
    D, j, slow = _g17_significands(x, tables)
    X = j + _DECIMAL_EXPONENTS.start
    fixed = (X >= -4) & (X <= 16)   # %g prints -4 <= X < 17 without an exponent
    kind = np.where(fixed & (X < 0), -X, 0)   # the zeros after "0." that precede d0
    whole = np.where(fixed, np.maximum(X, 0), 0)   # d1..d_whole precede the point
    d0, rest = _divmod(D, 10**16)
    first, second, keep = _g17_digits(rest, whole, tables)
    # the bytes from place ``whole`` of d1..d16 on move up one across words
    # 1..3, which split at byte 8, so no shift reaches 64 bits
    above = tables.high.take(np.minimum(whole, 8))
    first_up = first & above
    second_up = second & tables.high.take(np.maximum(whole, 8) - 8)
    # the byte that goes in is the point where a digit follows it, else a NUL
    point = np.where((keep > whole) & (kind == 0), tables.point.take(whole), 0)
    point_first = point & above   # in word 1 when whole < 8, else in word 2
    j.reshape(rows, cols)[:, -1] += len(_DECIMAL_EXPONENTS)   # the row's end
    words = np.empty((x.size, 4), "<u8")
    words[:, 0] = tables.prefix.take((np.signbit(x) * 5 + kind) * 10 + d0)
    words[:, 1] = (first ^ first_up) | first_up << 8 | point_first
    words[:, 2] = (second ^ second_up) | second_up << 8 | first_up >> 56 | (point ^ point_first)
    words[:, 3] = tables.suffix.take(j) << 8 | second_up >> 56
    slow = np.flatnonzero(slow)
    if slow.size:   # at most 24 bytes each, in words 0..2
        words[slow, :3] = np.array([b"%.17g" % v for v in x[slow].tolist()],
                                   dtype="S24").view("<u8").reshape(-1, 3)
    return words.tobytes().translate(None, b"\0")


def _write_sidecar(path: Path, header, columns) -> None:
    """Write the header line, then each block of rows encoded by ``_g17_rows``.

    ``columns`` are equal-length sequences of numbers, arrays or not; one
    block of rows is stacked at a time, so the whole table is never copied. Each row is a line of
    ``%.17g`` fields joined by ``,`` and ended by ``\\r\\n``, the bytes of
    formatting one row at a time: %.17g round-trips floats (``nan``, ``-inf``
    and ``-0`` too) and prints integers below 1e17 exactly.
    """
    with path.open("wb") as handle:
        handle.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(columns[0]), SIDECAR_BLOCK_ROWS):
            handle.write(_g17_rows(np.stack(
                [column[start:start + SIDECAR_BLOCK_ROWS] for column in columns], axis=1)))


def _sidecar_path(out: Path, name: str) -> Path:
    stem = out.with_suffix("") if out.suffix == ".json" else out
    return Path(f"{stem}.{name}.csv")


class _SidecarWriter(threading.Thread):
    """Writes one sidecar on its own thread while the command goes on.

    The thread writes ``<path>.part``. An exception is kept, never raised on
    the thread; ``finish`` joins the thread, raises it on the caller's, and
    renames the file to ``path``. A command that fails before ``finish``
    removes the ``.part`` file, so it leaves the previous run's files as
    they were.
    """

    def __init__(self, path: Path, header, columns):
        super().__init__(name=f"convpow-{path.name}")
        self.path, self.header, self.columns = path, header, columns
        self.partial = path.with_name(path.name + ".part")
        self.error = None

    def run(self) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _write_sidecar(self.partial, self.header, self.columns)
        except BaseException as exc:   # noqa: BLE001 - finish() raises it on the main thread
            self.error = exc
        self.columns = None   # written: the table can be freed before the command ends

    def finish(self) -> None:
        self.join()
        if self.error is not None:
            raise self.error
        self.partial.replace(self.path)


def _write_outputs(report: dict, sidecars: dict, writers: list, out: Path,
                   command_start: float) -> None:
    """Validate the report, wait for ``writers``, write the other sidecars,
    then write the report.

    The report goes last so that ``meta.timings`` can hold the time of the
    other two (``validate``, and ``sidecars``: the wait for the writers and
    the writes on this thread), and ``total``: the time since
    ``command_start``, the ``perf_counter`` reading when the command began.
    The writers are waited for first: with a sidecar written while they
    ran, truncating the previous report took about 4.5 ms on ext4, against
    0.2 ms.
    """
    timings = report["meta"]["timings"]
    start = time.perf_counter()
    validate_report(report)
    timings["validate"] = time.perf_counter() - start
    start = time.perf_counter()
    for writer in writers:
        writer.finish()
    out.parent.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in sidecars.items():
        _write_sidecar(_sidecar_path(out, name), header, columns)
    timings["sidecars"] = time.perf_counter() - start
    timings["total"] = time.perf_counter() - command_start
    out.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _out_of_memory(exc: MemoryError) -> int:
    detail = f": {exc}" if str(exc) else ""
    print(f"convpow: input error: the input needs more memory than can be allocated{detail}",
          file=sys.stderr)
    return 2


def _run(args: argparse.Namespace, writers: list, start: float) -> int:
    out = Path(args.out)

    def hand_over(name, header, columns):
        writer = _SidecarWriter(_sidecar_path(out, name), header, columns)
        writer.start()
        writers.append(writer)   # only a started thread can be joined

    try:
        _check_ranges(args)
        spec = _load_spec(args.spec)
        if args.command == "analyze":
            report, sidecars = analyze_report(
                spec, grid_size=args.grid_size, puncture_radius=args.puncture,
                majorant_delta=args.delta, on_sidecar=hand_over)
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
        _write_outputs(report, sidecars, writers, out, start)
    except OSError as exc:
        print(f"convpow: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # in validation or a sidecar's encoding
        return _out_of_memory(exc)

    for finding in report["findings"]:
        print(f"finding [{finding['section']}/{finding['code']}]: {finding['message']}",
              file=sys.stderr)
    return 1 if report["findings"] else 0


def _trim_heap() -> None:
    """Give the C heap's free pages back to the system, where the C library can.

    This serves a process that calls ``main`` again and again, such as the
    benchmark's worker or a test session; a process that exits after one
    command gains nothing. glibc keeps the pages of freed blocks mapped, in
    the main thread's heap and in the writer's, and maps a later large block
    beside them: after one ``analyze`` on the benchmark's input the process
    held 51 MB, and reading the 12 MB profile back set its peak at 62.7 MB.
    After ``malloc_trim(0)``, which takes about 0.1 ms, it holds 41.6 MB and
    the peak stays the command's own, 59.8 MB. Other C libraries have no
    such call.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):   # not glibc, or no C library to open
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    writers = []   # sidecars handed over while the command runs, each on a thread
    try:
        return _run(args, writers, start)
    finally:
        for writer in writers:   # no writer outlives the command, on any exit path
            writer.join()
            writer.partial.unlink(missing_ok=True)   # left if the command failed before finish()
        if writers:   # analyze, whose freed profile and report arrays are the largest
            _trim_heap()

"""Correctness checks of the benchmark's command outputs.

Every command must exit 0, write a report that passes ``validate_report``,
and write the same report outside ``meta`` and the same CSV sidecars as the
first command of the run.  The first command's outputs are also checked
once against an oracle that shares no code path with the command:

* analyze: sampled profile CSV rows against the termwise ``transform_at`` and
  ``derivative_at``;
* bounds: the kernel CSV cells at n in {1, 2, 4} against
  ``convolution_power(method="direct")``;
* maximal: M phi at sampled indices, on a depth-8 check run of
  ``maximal_function``, against the max over n <= 8 of |mu^n * phi| built
  from direct convolution powers.

Values agree when |got - want| <= RTOL * |want| + ATOL * scale, where scale
is an upper bound of the compared quantity (the l1 norm of its terms).
RTOL leaves room for windowed or aliased power engines and for a change of
quadrature rule, whose errors are of order 1e-9 to 1e-7; ATOL only absorbs
round-off in the sums.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from convpow.maximal import LatticeSequence, maximal_function
from convpow.measure import convolution_power
from convpow.report import validate_report
from convpow.spectral import TWO_PI, derivative_at, transform_at
from convpow.zoo import MeasureSpec

RTOL = 1e-6
ATOL = 1e-12
SAMPLED_ROWS = 24
CHECK_DEPTH = 8
ORACLE_POWERS = (1, 2, 4)


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * abs(want) + ATOL * scale


def sidecars(out: Path) -> list:
    stem = out.with_suffix("")
    return sorted(out.parent.glob(f"{stem.name}.*.csv"))


def fingerprint(out: Path):
    """Validate the report at ``out``; return (report outside meta, sidecar digests)."""
    report = json.loads(out.read_text())
    validate_report(report)
    report.pop("meta")
    digests = {p.name.rsplit(".", 2)[-2]: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sidecars(out)}
    return report, digests


def output_bytes(out: Path, report: dict) -> int:
    """Bytes of the CSV sidecars plus the report as written, without ``meta``."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return len(text.encode()) + sum(p.stat().st_size for p in sidecars(out))


def check_oracle(workload: str, spec: dict, phi: dict | None, out: Path, seed: int) -> None:
    mu = MeasureSpec.from_dict(spec).build()
    rng = random.Random(seed)
    if workload == "analyze":
        _check_profile(mu, out.with_suffix(".profile.csv"), rng)
    elif workload == "bounds":
        _check_kernel(mu, out.with_suffix(".kernel.csv"))
    else:
        _check_maximal(mu, LatticeSequence.from_dict(phi), json.loads(out.read_text()), rng)


def _check_profile(mu, path: Path, rng: random.Random) -> None:
    lines = path.read_text().splitlines()
    require(lines[0].split(",") == ["t", "re_theta", "im_theta", "abs_theta", "re_d1",
                                    "im_d1", "re_d2", "im_d2", "phi"],
            f"unexpected profile header {lines[0]!r}")
    rows = len(lines) - 1
    ts = np.array([float(line.split(",", 1)[0]) for line in lines[1:]])
    # both ends, the two rows next to the puncture, and seeded rows
    near_zero = int(np.searchsorted(ts, 0.0))
    picks = {0, rows - 1, max(0, near_zero - 1), min(rows - 1, near_zero)}
    picks.update(rng.randrange(rows) for _ in range(SAMPLED_ROWS))
    ks = mu.indices().astype(float)
    scale1 = math.fsum(TWO_PI * np.abs(ks) * mu.weights)
    scale2 = math.fsum((TWO_PI * ks) ** 2 * mu.weights)
    for i in sorted(picks):
        row = [float(v) for v in lines[1 + i].split(",")]
        t = row[0]
        theta = transform_at(mu, t)
        d1 = derivative_at(mu, t, 1)
        d2 = derivative_at(mu, t, 2)
        want = [(theta.real, 1.0), (theta.imag, 1.0), (abs(theta), 1.0),
                (d1.real, scale1), (d1.imag, scale1), (d2.real, scale2), (d2.imag, scale2),
                (abs(d1.real / t), scale1 / abs(t))]
        for name, got, (value, scale) in zip(lines[0].split(",")[1:], row[1:], want):
            require(_close(got, value, scale),
                    f"profile row {i} (t={t!r}) {name}: {got!r} against termwise {value!r}")


def _check_kernel(mu, path: Path) -> None:
    lines = path.read_text().splitlines()
    require(lines[0] == "n,x,value", f"unexpected kernel header {lines[0]!r}")
    cells = {}
    for line in lines[1:]:
        n, x, value = line.split(",")
        if int(n) in ORACLE_POWERS:
            cells[int(n), int(x)] = float(value)
    for n in ORACLE_POWERS:
        power = convolution_power(mu, n, method="direct")
        scale = float(power.weights.max())
        xs = [x for (m, x) in cells if m == n]
        require(len(xs) > 0, f"kernel CSV has no row n={n}")
        for x in xs:
            want = power.weight_at(x)
            require(_close(cells[n, x], want, scale),
                    f"kernel cell n={n} x={x}: {cells[n, x]!r} against direct {want!r}")


def _check_maximal(mu, phi: LatticeSequence, report: dict, rng: random.Random) -> None:
    m = maximal_function(mu, phi, CHECK_DEPTH)
    best = np.zeros(m.values.size)
    for n in range(1, CHECK_DEPTH + 1):
        power = convolution_power(mu, n, method="direct")
        conv = np.abs(np.convolve(power.weights, phi.values))
        start = power.offset + phi.offset - m.offset
        require(0 <= start and start + conv.size <= best.size,
                f"mu^{n} * phi leaves the maximal-function window")
        np.maximum(best[start:start + conv.size], conv, out=best[start:start + conv.size])
    scale = phi.l1_norm()
    picks = {int(np.argmax(best))}
    picks.update(rng.randrange(best.size) for _ in range(SAMPLED_ROWS))
    for i in sorted(picks):
        require(_close(float(m.values[i]), float(best[i]), scale),
                f"M phi at index {m.offset + i}: {m.values[i]!r} against direct {best[i]!r}")
    # M phi grows with the depth, so the reported maxima bound the check run's
    section = report["maximal"]
    require(section["max_value"] >= best.max() * (1.0 - RTOL),
            f"max_value {section['max_value']!r} below the depth-{CHECK_DEPTH} max {best.max()!r}")
    require(section["doubling"]["headline_constant"] >= section["headline_constant"],
            "headline constant shrank when the depth doubled")

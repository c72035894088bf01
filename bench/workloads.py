"""Workloads of the convpow benchmark.

Each workload is one CLI command run in a closed loop (the next command
starts when the previous one has returned) with ``--threads 2``: one
thread per core on the 2-core machines the benchmark targets, where 2 is
also the CLI default (``os.cpu_count()``).  The seed draws only the
power-law exponent beta, the mixture weight a1 and the phi weights; support
widths, depths and grid sizes are fixed, so array sizes and loop counts are
the same for every seed.  The one exception is the adaptive envelope
quadrature of ``analyze``, whose integrand evaluations vary with beta, from
about 77k at beta 2.6 to 89k at beta 2.4.

This module is the record later changes cite: each workload's spec and
flags, why it was chosen (which layer does most of its work and which layers
it bypasses), and the map from each per-layer metric to the end-to-end
metric it should move and on which workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

THREADS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple
    spec: Callable[[random.Random], dict]
    phi: Callable[[random.Random], dict] | None
    why: str    # the layers doing most of the work, and those that do not run

    def inputs(self, seed: int):
        """The spec and phi documents drawn from ``seed``."""
        rng = random.Random(seed)
        spec = self.spec(rng)
        phi = self.phi(rng) if self.phi is not None else None
        return spec, phi

    def argv(self, spec_path: str, phi_path: str | None, out_path: str) -> list:
        argv = [self.command, "--spec", spec_path, "--out", out_path, *self.flags,
                "--threads", str(THREADS)]
        if self.phi is not None:
            argv += ["--phi", phi_path]
        return argv


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _power_law(beta: float, K: int) -> dict:
    return {"kind": "power_law", "params": {"beta": beta}, "K": K}


def _mixture(rng: random.Random, K: int) -> dict:
    """The README mixture a1 * power_law(beta, K) + (1 - a1) * lazy_walk."""
    a1 = _uniform(rng, 0.4, 0.6)
    beta = _uniform(rng, 2.9, 3.1)
    return {"kind": "mixture",
            "params": {"a1": a1, "eta": _power_law(beta, K),
                       "nu": {"kind": "lazy_walk", "params": {}}}}


def _phi16(rng: random.Random) -> dict:
    """A nonnegative test sequence of 16 points centred on the origin."""
    return {"offset": -8, "weights": [_uniform(rng, 0.05, 1.0) for _ in range(16)]}


WORKLOADS = {
    "analyze": Workload(
        name="analyze",
        command="analyze",
        flags=("--grid-size", "65537"),
        spec=lambda rng: _power_law(_uniform(rng, 2.4, 2.6), 100_000),
        phi=None,
        why="analyze, power_law K=1e5 (200,001 points), 65,537-point grid: the "
            "scalar envelope quadrature and the 12 MB profile CSV dominate; kernels "
            "and maximal do not run",
    ),
    "bounds": Workload(
        name="bounds",
        command="verify-bounds",
        flags=("--n-max", "512", "--x-max", "512"),
        spec=lambda rng: _mixture(rng, 3000),
        phi=None,
        why="verify-bounds, n and x <= 512, mixture with eta at K=3000: kernel_table "
            "raises one 2^22-point spectrum, then _difference_scan; quadrature and "
            "maximal do not run",
    ),
    "maximal": Workload(
        name="maximal",
        command="maximal",
        flags=("--n-max", "96", "--lambda-min", "0.0001"),
        spec=lambda rng: _mixture(rng, 1000),
        phi=_phi16,
        why="maximal, n_max=96, mixture with eta at K=1000: many small incremental "
            "fft_convolve calls, base and doubled passes overlap on 2 threads; "
            "quadrature and kernels do not run",
    ),
}


# Per-layer metric -> (end-to-end metric it should move, workloads where it
# should move).  On the other workloads the predicted change is none.
METRIC_MAP = {
    "zoo.build_s": ("setup_s", ("analyze", "bounds", "maximal")),
    "measure.moments_s": ("command_s", ("analyze", "bounds", "maximal")),
    "measure.aperiodic_s": ("command_s", ("analyze", "bounds", "maximal")),
    "spectral.aperiodicity_check_s": ("command_s", ("analyze", "bounds", "maximal")),
    "spectral.profile_s": ("command_s", ("analyze",)),
    "spectral.angular_ratio_s": ("command_s", ("analyze",)),
    "spectral.gaussian_decay_s": ("command_s", ("analyze",)),
    "spectral.phi_properties_s": ("command_s", ("analyze",)),
    "spectral.component_ratios_s": ("command_s", ("analyze",)),
    "spectral.majorant_fit_s": ("command_s", ("analyze",)),
    "spectral.envelope_integrals_s": ("command_s", ("analyze",)),
    "spectral.phi_fn.calls": ("command_s", ("analyze",)),
    "quadrature.integrate.calls": ("command_s", ("analyze",)),
    "quadrature.integrate_s": ("command_s", ("analyze",)),
    "quadrature.integrand.evals": ("command_s", ("analyze",)),
    "tails.growth_s": ("command_s", ("analyze",)),
    "tails.lipschitz_s": ("command_s", ("analyze", "bounds")),
    "kernels.kernel_table_s": ("command_s, peak_rss_mb", ("bounds",)),
    "kernels.kernel_table.cells": ("command_s, peak_rss_mb", ("bounds",)),
    "kernels.kernel_table.fft_size": ("command_s, peak_rss_mb", ("bounds",)),
    "kernels.pointwise_fit_s": ("command_s", ("bounds",)),
    "kernels.small_n_fit_s": ("command_s", ("bounds",)),
    "kernels.smoothness_fit_s": ("command_s", ("bounds",)),
    "kernels.difference_scan.samples": ("command_s", ("bounds",)),
    "kernels.oscillation_fit_s": ("command_s", ("bounds",)),
    "maximal.maximal_function_s": ("command_s", ("maximal",)),
    "maximal.maximal_function.calls": ("command_s", ("maximal",)),
    "maximal.steps": ("command_s", ("maximal",)),
    "maximal.useful_step_ratio": ("command_s", ("maximal",)),
    "maximal.weak_type_curve_s": ("command_s", ("maximal",)),
    "measure.fft_convolve.calls": ("command_s", ("maximal",)),
    "measure.fft_convolve_s": ("command_s", ("maximal",)),
    "numpy_fft.calls": ("command_s", ("bounds", "maximal")),
    "numpy_fft.points": ("command_s", ("bounds", "maximal")),
    "numpy_fft_s": ("command_s", ("bounds", "maximal")),
    "report.self_s": ("command_s", ("analyze", "maximal")),
    "report.validate_s": ("command_s", ("analyze", "bounds", "maximal")),
    "report.parallel_overlap_s": ("command_s", ("analyze", "maximal")),
    "cli.self_s": ("command_s", ("analyze",)),
    "cli.output_bytes": ("command_s", ("analyze",)),
    "trace.overhead_s": ("none; traced minus untraced command_s", ()),
}

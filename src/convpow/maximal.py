"""Maximal function of the convolution powers on summable sequences.

The system is the integer shift with counting measure: for a summable phi,
M phi(k) = sup over 1 <= n <= n_max of |(mu^n * phi)(k)|, computed on the
full window the powers can reach.  Level sets of M phi above lambda ||phi||_1
give empirical weak (1,1) constants lambda * count, which do not change when
phi is scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticRefused
from .measure import LatticeMeasure, convolution_rows, lattice_index

# direct convolution below this work estimate, transform-based above
_DIRECT_WORK_LIMIT = 10_000_000


@dataclass(frozen=True)
class LatticeSequence:
    """Finitely supported real sequence on the lattice (no normalization)."""

    offset: int
    values: np.ndarray

    @classmethod
    def from_values(cls, offset: int, values) -> "LatticeSequence":
        v = np.asarray(values, dtype=float).copy()
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        v.setflags(write=False)
        return cls(lattice_index(offset, "offset"), v)

    @classmethod
    def from_dict(cls, payload: dict) -> "LatticeSequence":
        return cls.from_values(payload["offset"], payload["weights"])

    def l1_norm(self) -> float:
        return math.fsum(np.abs(self.values))


@dataclass(frozen=True)
class MaximalFunction:
    offset: int
    values: np.ndarray     # M phi, nonnegative
    n_max: int             # truncation depth of the sup
    phi_norm: float
    prefix: "MaximalFunction | None" = None   # the same sup at the checkpoint depth


@dataclass(frozen=True)
class LevelSetCurve:
    lambda_values: tuple   # descending, relative to ||phi||_1
    counts: tuple
    constants: tuple       # lambda * count
    n_max: int
    phi_norm: float

    @property
    def headline_constant(self) -> float:
        return max(self.constants) if self.constants else 0.0


def _window(mu: LatticeMeasure, phi: LatticeSequence, n_max: int):
    """First and last index of the union of the supports of mu^n * phi, n <= n_max."""
    lo = phi.offset + min(mu.offset, n_max * mu.offset)
    hi = (phi.offset + phi.values.size - 1) + max(mu.last, n_max * mu.last)
    return lo, hi


def maximal_function(mu: LatticeMeasure, phi: LatticeSequence, n_max: int, *,
                     checkpoint: int | None = None) -> MaximalFunction:
    """Pointwise max of |mu^n * phi| over 1 <= n <= n_max.

    Each row is the previous one convolved with mu: directly while cheap, then
    from ``convolution_rows`` started at the last direct row.  The sup is
    truncated at n_max, which is recorded.  ``checkpoint`` c keeps in
    ``prefix`` the running max after step c on its own window, equal to
    ``maximal_function(mu, phi, c)``, to round-off once the spectrum runs.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if checkpoint is not None and not 1 <= checkpoint <= n_max:
        raise ValueError("checkpoint must lie in [1, n_max]")
    norm = phi.l1_norm()
    # run on phi / 2^scale, of norm in [0.5, 1): no transform overflows, and 2^scale is exact
    scale = math.frexp(norm)[1]
    out_offset, hi = _window(mu, phi, n_max)
    best = np.zeros(hi - out_offset + 1)
    prefix = rows = None
    current = np.ldexp(phi.values, -scale)
    for step in range(1, n_max + 1):
        # the work test is monotone in step: the engine starts at most once
        if rows is None and mu.weights.size * current.size > _DIRECT_WORK_LIMIT:
            rows = convolution_rows(mu.weights, current, range(1, n_max - step + 2))
        if rows is None:
            current = np.convolve(mu.weights, current)
        else:
            current = None   # free the old row before the next inverse
            _, current = next(rows)
        start = phi.offset + step * mu.offset - out_offset
        seg = best[start : start + current.size]
        np.maximum(seg, np.abs(current), out=seg)
        if step == checkpoint:
            lo, hi = _window(mu, phi, step)
            values = np.ldexp(best[lo - out_offset : hi - out_offset + 1], scale)
            values.setflags(write=False)
            prefix = MaximalFunction(offset=lo, values=values, n_max=step, phi_norm=norm)
    np.ldexp(best, scale, out=best)
    best.setflags(write=False)
    return MaximalFunction(offset=out_offset, values=best, n_max=n_max, phi_norm=norm,
                           prefix=prefix)


def weak_type_curve(m_phi: MaximalFunction, lambda_values=None) -> LevelSetCurve:
    """Level-set counts |{k : M phi(k) > lambda ||phi||_1}| and weak-type
    constants lambda * count.

    Levels are relative to ||phi||_1, the top of M phi, so phi and c * phi
    give the same curve.  Level sets use strict inequality.  The default
    grid is 40 logarithmic points on [1e-4, 1], descending.
    """
    if m_phi.phi_norm <= 0.0:
        raise DiagnosticRefused("phi has zero l1 norm; weak-type constants undefined")
    if lambda_values is None:
        lambda_values = default_lambda_grid()
    lam = np.asarray(lambda_values, dtype=float)
    if lam.size == 0 or np.any(lam <= 0.0):
        raise ValueError("lambda grid must contain positive values")
    lam = np.sort(lam)[::-1]
    counts = [int(np.count_nonzero(m_phi.values > v * m_phi.phi_norm)) for v in lam]
    constants = [float(v * c) for v, c in zip(lam, counts)]
    return LevelSetCurve(
        lambda_values=tuple(float(v) for v in lam),
        counts=tuple(counts),
        constants=tuple(constants),
        n_max=m_phi.n_max,
        phi_norm=m_phi.phi_norm,
    )


LAMBDA_GRID_POINTS = 40


def default_lambda_grid(lambda_min: float = 1e-4) -> np.ndarray:
    if not 0.0 < lambda_min < 1.0:
        raise ValueError("lambda_min must lie in (0, 1)")
    return np.logspace(math.log10(lambda_min), 0.0, LAMBDA_GRID_POINTS)[::-1]

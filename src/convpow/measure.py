"""Probability measures on the integer lattice.

A measure is stored as a contiguous window of nonnegative weights together
with the index of the first stored weight.  All scalar reductions over
weights use correctly rounded summation (math.fsum), so results do not
depend on chunking or thread count.  Values are immutable after
construction and every operation here is a pure function.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import PrecisionExhausted

NORMALIZATION_TOL = 1e-12
CLAMP_DEFICIT_TOL = 1e-9


def lattice_index(value, name: str) -> int:
    """``int(value)``, but a float that is not integral raises ValueError naming ``name``."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class LatticeMeasure:
    """Finitely supported probability measure on the integers.

    Parameters
    ----------
    offset : int
        Lattice index of the first stored weight.
    weights : array_like
        Nonnegative weights; leading and trailing zeros are trimmed.
    tail_mass : float
        Mass missing from the stored window (a truncated law kept without
        renormalization).  ``sum(weights) + tail_mass`` must equal 1 to
        within 1e-12.
    pre_truncation_deficit : float
        Metadata only: estimated mass that truncation removed before any
        renormalization.  Not part of the normalization invariant and not
        propagated by arithmetic.
    """

    __slots__ = ("offset", "weights", "tail_mass", "pre_truncation_deficit")

    def __init__(self, offset, weights, tail_mass=0.0, *, pre_truncation_deficit=0.0):
        w = np.array(weights, dtype=float, copy=True)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            k = int(np.argmax(w < 0.0))
            raise ValueError(f"negative weight {w[k]!r} at lattice index {int(offset) + k}")
        nz = np.flatnonzero(w)
        if nz.size == 0:
            raise ValueError("measure must carry at least one positive weight")
        w = np.ascontiguousarray(w[nz[0] : nz[-1] + 1])
        offset = int(offset) + int(nz[0])
        tail_mass = float(tail_mass)
        # written so that NaN fails both checks
        if not tail_mass >= 0.0:
            raise ValueError(f"tail_mass must be nonnegative, got {tail_mass!r}")
        total = math.fsum(w) + tail_mass
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"stored mass {total!r} is not 1 to within {NORMALIZATION_TOL:g}")
        w.setflags(write=False)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tail_mass", tail_mass)
        object.__setattr__(self, "pre_truncation_deficit", float(pre_truncation_deficit))

    def __setattr__(self, name, value):
        raise AttributeError("LatticeMeasure is immutable")

    # -- shape helpers ---------------------------------------------------------
    @property
    def last(self) -> int:
        return self.offset + self.weights.size - 1

    @property
    def width(self) -> int:
        return self.weights.size

    @property
    def radius(self) -> int:
        """Largest |k| carrying stored weight."""
        return max(abs(self.offset), abs(self.last))

    @property
    def is_truncated_proxy(self) -> bool:
        """True when the measure stands in for an infinite-support law."""
        return self.tail_mass > 0.0 or self.pre_truncation_deficit > 0.0

    def indices(self) -> np.ndarray:
        """Lattice indices of the stored window, ascending."""
        return np.arange(self.offset, self.offset + self.weights.size)

    def support(self) -> np.ndarray:
        """Lattice indices with strictly positive weight, ascending."""
        return self.offset + np.flatnonzero(self.weights)

    def weight_at(self, k: int) -> float:
        i = int(k) - self.offset
        if 0 <= i < self.weights.size:
            return float(self.weights[i])
        return 0.0

    def stored_mass(self) -> float:
        return math.fsum(self.weights)

    def reflected(self) -> "LatticeMeasure":
        """The measure of -X: weights mirrored about the origin."""
        return LatticeMeasure(
            -self.last,
            self.weights[::-1],
            self.tail_mass,
            pre_truncation_deficit=self.pre_truncation_deficit,
        )

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "offset": int(self.offset),
            "weights": [float(x) for x in self.weights],
            "tail_mass": float(self.tail_mass),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LatticeMeasure":
        return cls(payload["offset"], payload["weights"], payload.get("tail_mass", 0.0))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LatticeMeasure":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"LatticeMeasure(offset={self.offset}, width={self.width}, "
            f"tail_mass={self.tail_mass:g})"
        )


def expectation(mu: LatticeMeasure) -> float:
    """Mean of the measure over the stored window."""
    return math.fsum(mu.indices() * mu.weights)


def moment(mu: LatticeMeasure, p: float) -> float:
    """Absolute moment of order p > 0 over the stored window.

    For a truncated proxy (``mu.is_truncated_proxy``) the value is a lower
    bound for the untruncated law; callers should surface that flag.
    """
    if not p > 0:
        raise ValueError(f"moment order must be positive, got {p!r}")
    ks = np.abs(mu.indices()).astype(float)
    return math.fsum(ks**p * mu.weights)


def convolve(mu: LatticeMeasure, nu: LatticeMeasure) -> LatticeMeasure:
    """Distribution of the sum of independent draws, by direct convolution.

    The support window is the Minkowski sum of the inputs and the result's
    tail_mass is whatever stored mass is missing from 1.
    """
    w = np.convolve(mu.weights, nu.weights)
    tail = max(0.0, 1.0 - math.fsum(w))
    return LatticeMeasure(mu.offset + nu.offset, w, tail)


def _freq_pow(base: np.ndarray, n: int) -> np.ndarray:
    """Pointwise n-th power of a spectrum by square and multiply."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def fft_size(length: int) -> int:
    """Smallest power of two holding ``length`` points: the one FFT padding rule."""
    return 1 << max(0, int(length - 1).bit_length())

def _finalize_power(raw: np.ndarray, target_mass: float) -> np.ndarray:
    """Clamp round-off negatives and rescale a transform-computed power.

    Raises PrecisionExhausted when the clamped mass exceeds the tolerance.
    """
    neg = raw < 0.0
    if neg.any():
        deficit = float(-raw[neg].sum())
        if deficit > CLAMP_DEFICIT_TOL:
            raise PrecisionExhausted(
                f"clamping deficit {deficit:.3e} exceeds {CLAMP_DEFICIT_TOL:g}; "
                "reduce the power or enlarge precision"
            )
        raw = np.where(neg, 0.0, raw)
    current = math.fsum(raw)
    if current <= 0.0:
        raise PrecisionExhausted("transform-based power lost all mass")
    return raw * (target_mass / current)


def convolution_rows(weights: np.ndarray, start: np.ndarray, n_values, modulus: int | None = None):
    """Yield (n, start * weights^{*n}) for ascending n from one running spectrum.

    The spectrum is padded for the last row and advanced in place by ``_freq_pow``
    jumps, one inverse FFT a row; the unit start ``[1.0]`` adds no transform.  A
    ``modulus`` M below the padded size folds weights and start modulo M: by
    Poisson summation a row longer than M comes out wrapped onto M points.
    """
    width, length = weights.size, start.size
    size = fft_size(length + n_values[-1] * (width - 1))
    if modulus is not None and modulus < size:
        size = int(modulus)
        weights, start = (np.bincount(np.arange(v.size) % size, weights=v, minlength=size)
                          for v in (weights, start))
    base = np.fft.rfft(weights, size)
    spectrum = None if length == 1 and start[0] == 1.0 else np.fft.rfft(start, size)
    del start   # only its spectrum is needed from here on
    done = 0
    for n in n_values:
        step = _freq_pow(base, n - done)
        if spectrum is None:
            spectrum = step.copy() if step is base else step
        else:
            spectrum *= step
        done = n
        yield n, np.fft.irfft(spectrum, size)[: length + n * (width - 1)]


def power_rows(mu: LatticeMeasure, n_values, modulus: int | None = None):
    """Yield (n, weights of mu^n on n*mu.offset .. n*mu.last) for ascending n:
    the rows of ``convolution_rows`` from a unit start, each clamped and
    rescaled to mass ``stored_mass ** n``.  PrecisionExhausted propagates."""
    total = mu.stored_mass()
    for n, row in convolution_rows(mu.weights, np.ones(1), n_values, modulus):
        yield n, _finalize_power(row, total**n)
        del row   # free the raw row before the engine's next inverse


def convolution_power(mu: LatticeMeasure, n: int, method: str = "fast") -> LatticeMeasure:
    """n-fold self-convolution.

    ``direct`` iterates plain convolution and is the oracle path; ``fast``
    takes the single row of ``power_rows``: the zero-padded transform raised
    to the n-th power, round-off negatives clamped and the result rescaled,
    provided the clamped mass stays below 1e-9.
    """
    n = int(n)
    if n < 1:
        raise ValueError("power must be a positive integer")
    if method not in ("direct", "fast"):
        raise ValueError(f"unknown method {method!r}")
    if n == 1:
        return mu
    if method == "direct":
        acc = mu
        for _ in range(n - 1):
            acc = convolve(acc, mu)
        return acc
    w = mu.weights
    if w.size == 1:
        # single atom: translation only
        return LatticeMeasure(n * mu.offset, [w[0] ** n], max(0.0, 1.0 - w[0] ** n))
    _, out = next(power_rows(mu, [n]))
    return LatticeMeasure(n * mu.offset, out, max(0.0, 1.0 - mu.stored_mass() ** n))


def is_strictly_aperiodic(mu: LatticeMeasure) -> bool:
    """True when the support generates the full lattice.

    Equivalent to: the gcd of all pairwise support differences is 1.  A
    single atom is contained in the coset a + 0*Z, so by convention it
    returns False.
    """
    pts = mu.support()
    if pts.size < 2:
        return False
    return int(np.gcd.reduce(np.diff(pts))) == 1

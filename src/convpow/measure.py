"""Probability measures on the integer lattice.

A measure is stored as a contiguous window of nonnegative weights together
with the index of the first stored weight.  Scalar reductions over a
measure's weights (its stored mass, moments, the mean) use correctly rounded
summation (math.fsum), taken once where the value is reused.  The mass of a
transform-computed power row is one ``np.add.reduce`` over the whole row:
the row is never split, so the sum does not depend on chunking or thread
count, and it differs from the correctly rounded sum only at round-off, so
the rescaled row moves only at round-off.  Values are immutable after
construction and every operation here is a pure function.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PrecisionExhausted

NORMALIZATION_TOL = 1e-12
CLAMP_DEFICIT_TOL = 1e-9
# a-priori FFT round-off allowance of one convolution step, per unit of the
# input's l1 norm and per bit of the padded size (kernels.kernel_table,
# maximal._Window)
ROUNDOFF_PER_STEP = 16 * float(np.finfo(float).eps)


def lattice_index(value, name: str) -> int:
    """``value`` as an int.  Only an int, a numpy integer or an integral float is
    one: anything else (text, a boolean, a fraction, inf, NaN) raises
    ValueError naming ``name``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


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

    __slots__ = ("offset", "weights", "tail_mass", "pre_truncation_deficit", "_stored_mass")

    def __init__(self, offset, weights, tail_mass=0.0, *, pre_truncation_deficit=0.0):
        offset = lattice_index(offset, "offset")
        w = np.array(weights, dtype=float, copy=True)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            k = int(np.argmax(w < 0.0))
            raise ValueError(f"negative weight {float(w[k])!r} at lattice index {offset + k}")
        nz = np.flatnonzero(w)
        if nz.size == 0:
            raise ValueError("measure must carry at least one positive weight")
        w = np.ascontiguousarray(w[nz[0] : nz[-1] + 1])
        offset += int(nz[0])
        # indices() is an int64 arange, so its stop offset + width must fit, and
        # every |k| too; the bound is symmetric so reflected() keeps it
        if max(-offset, offset + w.size - 1) > 2**63 - 2:
            raise ValueError(f"offset {offset} puts the {w.size} stored weights past "
                             f"|k| = 2**63 - 2, the largest int64 lattice index")
        tail_mass = float(tail_mass)
        # written so that NaN fails both checks
        if not tail_mass >= 0.0:
            raise ValueError(f"tail_mass must be nonnegative, got {tail_mass!r}")
        try:
            stored = math.fsum(w)
        except OverflowError:
            raise ValueError("stored mass overflows a float") from None
        total = stored + tail_mass
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"stored mass {total!r} is not 1 to within {NORMALIZATION_TOL:g}")
        w.setflags(write=False)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tail_mass", tail_mass)
        object.__setattr__(self, "pre_truncation_deficit", float(pre_truncation_deficit))
        object.__setattr__(self, "_stored_mass", stored)

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
        """The correctly rounded sum of the weights, taken once at construction."""
        return self._stored_mass

    def reflected(self) -> "LatticeMeasure":
        """The measure of -X: weights mirrored about the origin."""
        return LatticeMeasure(
            -self.last,
            self.weights[::-1],
            self.tail_mass,
            pre_truncation_deficit=self.pre_truncation_deficit,
        )

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


def fold(values: np.ndarray, first: int, modulus: int) -> np.ndarray:
    """``values[i]`` summed into slot ``(first + i) mod modulus``: the one modulo wrap.

    The window is zero-padded to whole periods and the periods are added in
    index order onto ``+0.0``: each slot is its values summed in index order
    from ``+0.0`` (so never ``-0.0``), the same floats as a weighted histogram
    of the indices modulo ``modulus``.  A window inside one period is the
    padded copy.
    """
    lead = first % modulus
    periods = -(-(lead + values.size) // modulus)
    padded = np.zeros(periods * modulus)
    padded[lead : lead + values.size] += values   # += turns a lone -0.0 into +0.0
    if periods == 1:
        return padded
    return np.add.reduce(padded.reshape(periods, modulus), axis=0, initial=0.0)


def _finalize_power(raw: np.ndarray, target_mass: float) -> tuple[np.ndarray, float]:
    """Clamp round-off negatives and rescale a transform-computed power.

    Returns the row and the mass the clamp removed (its deficit, 0.0 when no
    cell is negative).  Raises PrecisionExhausted when the deficit exceeds
    CLAMP_DEFICIT_TOL.  The row's mass before the rescale to ``target_mass``
    is one ``np.add.reduce`` over the whole clamped row: the same float for
    the same row, and within round-off of the correctly rounded sum
    (``math.fsum`` of a long row costs about as much as its transforms).
    """
    neg = raw < 0.0
    deficit = 0.0
    if neg.any():
        deficit = float(-raw[neg].sum())
        if deficit > CLAMP_DEFICIT_TOL:
            raise PrecisionExhausted(
                f"clamping deficit {deficit:.3e} exceeds {CLAMP_DEFICIT_TOL:g}; "
                "reduce the power or enlarge precision"
            )
        raw = np.where(neg, 0.0, raw)
    current = float(np.add.reduce(raw))
    if current <= 0.0:
        raise PrecisionExhausted("transform-based power lost all mass")
    return raw * (target_mass / current), deficit


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
        weights, start = fold(weights, 0, size), fold(start, 0, size)
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
    """Yield (n, weights of mu^n on n*mu.offset .. n*mu.last, clamp deficit) for ascending n:
    the rows of ``convolution_rows`` from a unit start through ``_finalize_power``, each
    rescaled to mass ``stored_mass ** n``.  PrecisionExhausted propagates."""
    total = mu.stored_mass()
    for n, row in convolution_rows(mu.weights, np.ones(1), n_values, modulus):
        yield n, *_finalize_power(row, total**n)
        del row   # free the raw row before the engine's next inverse


def cut(values: np.ndarray, first: int, lo: int, width: int) -> np.ndarray:
    """``values`` (from lattice index ``first``) kept on lo .. lo + width - 1."""
    shift = lo - first
    a, b = (min(max(i, 0), values.size) for i in (shift, shift + width))
    kept = np.zeros(width)
    kept[a - shift : b - shift] = values[a:b]
    return kept


def cut_powers(base: np.ndarray, lo: int, n_values):
    """Yield (n, L_n) for ascending n: a lower bound of base^{*n} on the window
    lo .. lo + base.size - 1, for ``base`` >= 0 already cut to that window.  A
    product is an rfft/irfft pair of ``fft_size(2 * base.size - 1)`` points cut back
    to the window, which drops only mass >= 0.  L_j is L_h * L_(j-h), h the top bit
    of j, and a square L_h is kept while a later row needs it.
    """
    width = base.size
    size, squares = fft_size(2 * width - 1), {1: base}   # L_h for h a power of two

    def product(a, b):
        left = np.fft.rfft(a, size)
        right = left if b is a else np.fft.rfft(b, size)
        return cut(np.fft.irfft(left * right, size)[: 2 * width - 1], 2 * lo, lo, width)

    def power(j):
        h = 1 << (j.bit_length() - 1)
        if j != h:
            return product(power(h), power(j - h))
        if j not in squares:
            squares[j] = product(power(h // 2), power(h // 2))
        return squares[j]

    for n in n_values:
        yield n, power(n)
        for h in [h for h in squares if h < max(squares)]:
            if not any(h & m for m in n_values if m > n):
                del squares[h]   # no later row needs it


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
    _, out, _ = next(power_rows(mu, [n]))
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

"""Maximal function of the convolution powers on summable sequences.

The system is the integer shift with counting measure: for a summable phi,
M phi(k) = sup over 1 <= n <= n_max of |(mu^n * phi)(k)|.  Level sets of
M phi above lambda ||phi||_1 give empirical weak (1,1) constants
lambda * count, which do not change when phi is scaled.

The full pass computes every row on all the points it reaches.  A windowed
pass keeps row n only within a half-width W of its bulk and bounds what it
drops (``WindowBound``), and ``count_bounds`` turns that bound into an
interval around each level-set count.  Both passes run every step on real
FFTs: the full pass on ``convolution_rows``, a windowed pass on one spectrum
of the part of mu near its centre.  Lattice positions are Python ints,
and M phi is kept as one array per run of overlapping rows (or windows), so a
law translated far along the lattice costs what it costs at the origin.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticRefused
from .measure import LatticeMeasure, convolution_rows, fft_size, lattice_index

# the first half-width the report tries; it doubles until the counts are certified
FIRST_HALF_WIDTH = 256
# a window pays while its transform is below 1/16 of the full pass's padded size
WINDOW_FFT_DIVISOR = 16
# floating-point allowance of one step, per unit of the previous row's l1 norm
# plus the mass dropped so far, and per bit of the full pass's padded size:
# 8 eps for the windowed step and 8 eps for the full pass's
ROUNDOFF_PER_STEP = 16 * float(np.finfo(float).eps)


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
class WindowBound:
    """What a pass cut to half-width ``half_width`` may miss, relative to
    ||phi||_1: at every lattice point k, with M_W phi the cut pass (0 outside its
    windows), M_W phi(k) - inner ||phi||_1 <= M phi(k) and
    M phi(k) <= max(M_W phi(k) + inner ||phi||_1, outer ||phi||_1)."""

    half_width: int
    inner: float
    outer: float


@dataclass(frozen=True)
class MaximalFunction:
    offset: int            # lattice index of values[0]
    values: np.ndarray     # M phi, nonnegative: its runs one after another
    n_max: int             # truncation depth of the sup
    phi_norm: float
    fft_size: int          # transform size of the pass: its window's, or the full padded size
    prefix: "MaximalFunction | None" = None   # the same sup at the checkpoint depth
    breaks: tuple = ()     # (index into values, lattice index) where each later run starts
    bound: WindowBound | None = None          # None for the full pass

    def runs(self) -> list:
        """(lattice index of the first value, values) of each run of consecutive points."""
        starts = [(0, self.offset), *self.breaks]
        ends = [i for i, _ in self.breaks] + [self.values.size]
        return [(k, self.values[i:j]) for (i, k), j in zip(starts, ends)]


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


def _merged(spans) -> list:
    """The union of lattice intervals (lo, hi) as ascending runs [lo, hi] that
    neither overlap nor touch."""
    runs = []
    for lo, hi in sorted(spans):
        if runs and lo <= runs[-1][1] + 1:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    return runs


class _Sup:
    """Running max of |row| over rows placed on lattice spans: one buffer holds
    the runs of the spans' union one after another."""

    def __init__(self, spans):
        self.runs = _merged(spans)
        self.firsts = [lo for lo, _ in self.runs]
        self.starts = list(itertools.accumulate((hi - lo + 1 for lo, hi in self.runs),
                                                initial=0))
        self.best = np.zeros(self.starts[-1])

    def _index(self, k: int) -> int:
        r = bisect.bisect_right(self.firsts, k) - 1
        return self.starts[r] + (k - self.firsts[r])

    def add(self, first: int, row: np.ndarray) -> None:
        i = self._index(first)
        seg = self.best[i : i + row.size]
        np.maximum(seg, np.abs(row), out=seg)

    def result(self, scale: int, spans=None, **fields) -> MaximalFunction:
        """M phi times 2^scale: the buffer itself, scaled in place, or a scaled
        copy of the union of ``spans``, which lies inside the buffer's."""
        if spans is None:
            runs, values = self.runs, self.best
        else:
            runs = _merged(spans)
            values = np.concatenate([self.best[self._index(lo) : self._index(hi) + 1]
                                     for lo, hi in runs])
        np.ldexp(values, scale, out=values)
        values.setflags(write=False)
        starts = itertools.accumulate(hi - lo + 1 for lo, hi in runs)
        breaks = tuple((i, lo) for i, (lo, _) in zip(starts, runs[1:]))
        return MaximalFunction(offset=runs[0][0], values=values, breaks=breaks, **fields)


def _full_rows(mu: LatticeMeasure, start: np.ndarray, n_max: int):
    """Rows 1..n_max of mu^n * start from ``convolution_rows``, restarted at
    the last row of each padded size: row n's transforms are ``fft_size`` of
    row n's length whatever n_max is, so the first c rows of a deeper pass are
    those of the pass to depth c, bit for bit."""
    length, grow = start.size, mu.width - 1
    done, row = 0, start
    while done < n_max:
        size = fft_size(length + (done + 1) * grow)
        last = n_max if grow == 0 else min(n_max, (size - length) // grow)
        rows = convolution_rows(mu.weights, row, range(1, last - done + 1))
        for _ in range(done, last):
            row = None   # free the old row before the engine's next inverse
            _, row = next(rows)
            yield row
        done = last


def _cut(values: np.ndarray, first: int, lo: int, width: int):
    """``values`` (from lattice index ``first``) kept on lo .. lo + width - 1:
    the kept window, its l1 norm, and the l1 norm and the sup of the rest."""
    shift = lo - first
    a, b = (min(max(i, 0), values.size) for i in (shift, shift + width))
    kept = np.zeros(width)
    kept[a - shift : b - shift] = values[a:b]
    mags = np.abs(values)
    rest = np.concatenate((mags[:a], mags[b:]))
    return kept, float(mags[a:b].sum()), float(rest.sum()), float(rest.max(initial=0.0))


class _Window:
    """Row n cut to [c_n - W, c_n + W]: c_n is phi's centre moved n times by mu's
    offset plus round(n * m), with m the mean of mu.weights from mu.offset.

    Each step convolves the cut row with the part of mu within 2W of mu's own
    centre c_1 - c_0: one rfft/irfft pair of ``size`` points against that
    part's spectrum, taken once a pass.  With S = max(1, ||mu||_1), F and f the
    mass and the sup of the rest of mu, v the previous cut row and D the l1
    norm of everything dropped so far, each row's error is at most
    max(mu) D + f ||v||_1 + A pointwise, where A adds
    ROUNDOFF_PER_STEP log2(N) (||v||_1 + D) a step (N the full pass's padded
    size); outside its window a row is also at most the largest value cut
    away.  D then becomes S D + F ||v||_1 + the l1 norm cut.
    """

    def __init__(self, mu: LatticeMeasure, phi: LatticeSequence, half_width: int,
                 centres: list, full: int):
        w = mu.weights
        self.half_width, self.centres, self.phi_offset = half_width, centres, phi.offset
        middle = centres[1] - centres[0] - mu.offset   # index of mu's own centre
        lo, hi = max(middle - 2 * half_width, 0), min(middle + 2 * half_width + 1, w.size)
        self.near, self.near_first = w[lo:hi], mu.offset + lo
        far = np.concatenate((w[:lo], w[hi:]))
        self.far_mass, self.far_sup = math.fsum(far), float(far.max(initial=0.0))
        self.mass, self.top = max(1.0, mu.stored_mass()), float(w.max())
        self.roundoff = ROUNDOFF_PER_STEP * math.log2(full)
        self.size = fft_size(self.near.size + 2 * half_width)
        self.pays = self.size * WINDOW_FFT_DIVISOR < full
        self.inner = self.outer = 0.0

    def spans(self) -> list:
        W = self.half_width
        return [(c - W, c + W) for c in self.centres[1:]]

    def rows(self, start: np.ndarray):
        """Rows 1..n_max cut to their windows; ``inner`` and ``outer`` bound the
        rows given so far."""
        W, centres, size = self.half_width, self.centres, self.size
        width = 2 * W + 1
        reach = self.near.size + width - 1   # the points of near * v
        spectrum = np.fft.rfft(self.near, size)
        v, l1, dropped, _ = _cut(start, self.phi_offset, centres[0] - W, width)
        allowance = 0.0
        for n in range(1, len(centres)):
            u = np.fft.irfft(np.fft.rfft(v, size) * spectrum, size)[:reach]
            allowance = self.mass * allowance + self.roundoff * (l1 + dropped)
            error = self.top * dropped + self.far_sup * l1 + allowance
            v, l1_next, cut, margin = _cut(u, centres[n - 1] - W + self.near_first,
                                           centres[n] - W, width)
            del u
            self.inner = max(self.inner, error)
            self.outer = max(self.outer, margin + error)
            dropped = self.mass * dropped + self.far_mass * l1 + cut
            l1 = l1_next
            yield v

    def bound(self, norm: float) -> WindowBound:
        """The bounds so far, relative to ``norm``, the l1 norm of the start."""
        return WindowBound(self.half_width, self.inner / norm, self.outer / norm)


def _window(mu: LatticeMeasure, phi: LatticeSequence, n_max: int, half_width: int,
            full: int) -> _Window | None:
    """The cut pass of this half-width, or None when every row fits its window
    or the window's transform would not be below 1/16 of ``full``, the full
    pass's padded size."""
    w = mu.weights
    mean = math.fsum(np.arange(w.size) * w) / mu.stored_mass()
    first, last = phi.offset, phi.offset + phi.values.size - 1
    centre = first + (phi.values.size - 1) // 2
    centres = [centre + n * mu.offset + round(n * mean) for n in range(n_max + 1)]
    if all(c - half_width <= first + n * mu.offset and last + n * mu.last <= c + half_width
           for n, c in enumerate(centres[1:], 1)):
        return None
    window = _Window(mu, phi, half_width, centres, full)
    return window if window.pays else None


def maximal_function(mu: LatticeMeasure, phi: LatticeSequence, n_max: int, *,
                     checkpoint: int | None = None,
                     half_width: int | None = None) -> MaximalFunction:
    """Pointwise max of |mu^n * phi| over 1 <= n <= n_max.

    Without ``half_width`` this is the full pass: every row comes from
    ``convolution_rows``, restarted whenever the padded size of the rows
    doubles (``_full_rows``).  With it, each row is cut to a window of that
    half-width around its bulk and ``bound`` holds the ``WindowBound``; a
    window that cuts nothing, or whose transform is not below 1/16 of the
    full pass's padded size, runs the full pass (``bound`` None).
    ``fft_size`` is the transform size of the pass that ran.  The sup is
    truncated at n_max, which is recorded.  ``checkpoint`` c keeps in ``prefix``
    the running max after step c on its own rows' points; on the full pass it
    is the same call at depth c, bit for bit.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if checkpoint is not None and not 1 <= checkpoint <= n_max:
        raise ValueError("checkpoint must lie in [1, n_max]")
    if half_width is not None and int(half_width) < 1:
        raise ValueError("half_width must be at least 1")
    norm = phi.l1_norm()
    # run on phi / 2^scale, of norm in [0.5, 1): no transform overflows, and 2^scale is exact
    unit, scale = math.frexp(norm)
    start = np.ldexp(phi.values, -scale)
    full = fft_size(phi.values.size + n_max * (mu.width - 1))
    window = None if half_width is None else _window(mu, phi, n_max, int(half_width), full)
    if window is None:
        first, last = phi.offset, phi.offset + phi.values.size - 1
        spans = [(first + n * mu.offset, last + n * mu.last) for n in range(1, n_max + 1)]
        rows = _full_rows(mu, start, n_max)
    else:
        spans = window.spans()
        rows = window.rows(start)
    sup = _Sup(spans)
    size = full if window is None else window.size
    prefix = None
    for step, (first, _) in enumerate(spans, 1):
        row = next(rows)
        sup.add(first, row)
        del row   # free the row before the next one is computed
        if step == checkpoint:
            prefix = sup.result(scale, spans[:step], n_max=step, phi_norm=norm, fft_size=size,
                                bound=None if window is None else window.bound(unit))
    return sup.result(scale, n_max=n_max, phi_norm=norm, prefix=prefix, fft_size=size,
                      bound=None if window is None else window.bound(unit))


def count_bounds(m_phi: MaximalFunction, lambda_values=None):
    """Lower and upper bounds on the level-set counts of the M phi that ``m_phi``
    approximates, at the levels of ``weak_type_curve`` in its order.  An upper
    bound is None where ``bound.outer`` exceeds the level.  Equal bounds
    certify the count, which is then ``weak_type_curve``'s; a full pass gives
    its own counts as both."""
    curve = weak_type_curve(m_phi, lambda_values)
    if m_phi.bound is None:
        return curve.counts, curve.counts
    inner, outer, norm = m_phi.bound.inner, m_phi.bound.outer, m_phi.phi_norm
    lo = tuple(int(np.count_nonzero(m_phi.values > (v + inner) * norm))
               for v in curve.lambda_values)
    hi = tuple(int(np.count_nonzero(m_phi.values > (v - inner) * norm)) if outer <= v else None
               for v in curve.lambda_values)
    return lo, hi


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

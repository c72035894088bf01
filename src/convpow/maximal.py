"""Maximal function of the convolution powers on summable sequences.

The system is the integer shift with counting measure: for a summable phi,
M phi(k) = sup over 1 <= n <= n_max of |(mu^n * phi)(k)|.  Level sets of
M phi above lambda ||phi||_1 give empirical weak (1,1) constants
lambda * count, which do not change when phi is scaled.

The full pass computes every row on all the points it reaches.  A windowed
pass brackets row n on a window of half-width W around its bulk, between a
cut pass below and a folded pass above (``WindowBound``), and
``count_bounds`` turns the bracket into an interval around each level-set
count; ``maximal_function`` doubles W until every count it is asked for is
certified, or runs the full pass.  Every pass runs on real FFTs.  Lattice
positions are Python ints, and M phi is kept as one array per run of
overlapping rows (or windows), so a law translated far along the lattice
costs what it costs at the origin.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticRefused
from .measure import (
    ROUNDOFF_PER_STEP,
    LatticeMeasure,
    convolution_rows,
    cut,
    exact_sum,
    fft_size,
    lattice_index,
)

# the first half-width of the ladder; it doubles until the counts are certified
FIRST_HALF_WIDTH = 256
# the folded pass's period in half-widths, and the share of the full pass's padded
# size that the period stays below while a window pays
MODULUS_PER_HALF_WIDTH, WINDOW_FFT_DIVISOR = 16, 4


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
        return exact_sum(np.abs(self.values))


@dataclass(frozen=True)
class WindowBound:
    """A windowed pass's bracket, relative to ||phi||_1: values - roundoff <= M phi <=
    max(upper + roundoff, outer) on the windows, M phi <= outer off them, so M phi <= top."""

    half_width: int
    modulus: int
    upper: np.ndarray      # laid out as the values
    outer: float
    roundoff: float
    top: float             # max(upper.max() / ||phi||_1 + roundoff, outer)


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
    passes: int = 0        # windowed passes the call ran

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
    """Running max of rows placed on lattice spans: one buffer holds the runs
    of the spans' union one after another."""

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
        np.maximum(seg, row, out=seg)

    def scaled(self, scale: int, spans=None):
        """(runs, values) of the running max times 2^scale: the buffer itself, scaled in
        place, or a scaled copy of the union of ``spans``, which lies inside the buffer's."""
        if spans is None:
            runs, values = self.runs, self.best
        else:
            runs = _merged(spans)
            values = np.concatenate([self.best[self._index(lo) : self._index(hi) + 1]
                                     for lo, hi in runs])
        np.ldexp(values, scale, out=values)
        values.setflags(write=False)
        return runs, values

    def result(self, scale: int, spans=None, **fields) -> MaximalFunction:
        runs, values = self.scaled(scale, spans)
        starts = itertools.accumulate(hi - lo + 1 for lo, hi in runs)
        breaks = tuple((i, lo) for i, (lo, _) in zip(starts, runs[1:]))
        return MaximalFunction(offset=runs[0][0], values=values, breaks=breaks, **fields)


def _full_rows(mu: LatticeMeasure, start: np.ndarray, n_max: int):
    """|mu^n * start| for n = 1..n_max from ``convolution_rows``, restarted at
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
            yield np.abs(row)
        done = last


class _Window:
    """Row n bracketed on [c_n - W, c_n + W]: c_n is phi's centre moved n times by
    mu's offset plus round(n * m), with m the mean of mu.weights from mu.offset.

    For phi >= 0 the cut pass convolves each cut row with mu within 2W of mu's
    own centre (an rfft/irfft pair of ``size`` points) and cuts the result to the
    next window, dropping nonnegative mass: L_n <= r_n = mu^n * phi.
    The folded pass, ``convolution_rows`` modulo M = 16 W with point k of row n
    in slot (k - phi.offset - n mu.offset) mod M, adds nonnegative aliases:
    U_n >= r_n.  A point k off the window shares its slot with at most one
    window point j, so r_n(k) <= U_n(j) - L_n(j) <= ``outer``, the largest
    U_n - L_n over the period (L_n = 0 off the window).  A signed phi brackets
    phi+ and phi- where not zero: r_n lies in [L+ - U-, U+ - L-] on the window,
    and |r_n| <= max(r+, r-) off it.

    Round-off: the start's transform and each step (a cut rfft/irfft pair, or a
    product of the running spectrum and its inverse) add at most
    8 eps log2(N) ||phi||_1 at every point, N the full pass's padded size and
    the largest here, and ||mu||_1 <= 1 carries errors without growth.  So
    row n of either pass, or of the full pass, is within
    (n + 1) 8 eps log2(N) ||phi||_1: ``bound`` allows ROUNDOFF_PER_STEP =
    16 eps a step for both, so a count certified here is the full pass's.
    """

    def __init__(self, call: "_Passes", half_width: int):
        mu, w, centres = call.mu, call.mu.weights, call.centres
        self.mu, self.phi, self.half_width, self.centres = mu, call.phi, half_width, centres
        middle = centres[1] - centres[0] - mu.offset   # index of mu's own centre
        lo, hi = max(middle - 2 * half_width, 0), min(middle + 2 * half_width + 1, w.size)
        self.near, self.near_first = w[lo:hi], mu.offset + lo
        self.size = fft_size(self.near.size + 2 * half_width)
        self.modulus = MODULUS_PER_HALF_WIDTH * half_width
        self.roundoff = ROUNDOFF_PER_STEP * math.log2(call.full)
        self.spans = [(c - half_width, c + half_width) for c in centres[1:]]
        self.upper, self.outer = _Sup(self.spans), 0.0

    def _bracket(self, start: np.ndarray):
        """(L_n, U_n) on row n's window from a ``start`` >= 0; ``outer`` takes U_n - L_n."""
        W, centres, M, size = self.half_width, self.centres, self.modulus, self.size
        width, near = 2 * W + 1, np.fft.rfft(self.near, size)
        folded = convolution_rows(self.mu.weights, start, range(1, len(centres)), modulus=M)
        low = cut(start, self.phi.offset, centres[0] - W, width)
        for n, row in folded:
            low = np.fft.irfft(np.fft.rfft(low, size) * near, size)[: width + self.near.size - 1]
            low = cut(low, centres[n - 1] - W + self.near_first, centres[n] - W, width)
            if row.size < M:   # the row has not wrapped yet: its other slots hold 0
                row = np.pad(row, (0, M - row.size))
            slot = (centres[n] - W - self.phi.offset - n * self.mu.offset) % M
            end = slot + width
            if end <= M:
                high, off = row[slot:end], (row[:slot], row[end:])
            else:   # the window wraps past slot M - 1
                high, off = np.concatenate((row[slot:], row[: end - M])), (row[end - M : slot],)
            self.outer = max(self.outer, float((high - low).max()),
                             *(float(part.max()) for part in off if part.size))
            yield low, high

    def rows(self, start: np.ndarray):
        """Lower bounds of |row n| on its window; ``upper`` keeps the max of the upper ones."""
        plus, minus = (self._bracket(p) if p.any() else itertools.repeat((0.0, 0.0))
                       for p in (np.maximum(start, 0.0), np.maximum(-start, 0.0)))
        for (first, _), (low_p, high_p), (low_m, high_m) in zip(self.spans, plus, minus):
            self.upper.add(first, np.maximum(high_p - low_m, high_m - low_p))
            yield np.maximum(low_p - high_m, low_m - high_p)

    def bound(self, scale: int, spans, depth: int, norm: float) -> WindowBound:
        """Rows 1..``depth``'s bracket and ``top`` on ``spans`` (all when None), times 2^scale."""
        roundoff, upper = (depth + 1) * self.roundoff, self.upper.scaled(scale, spans)[1]
        outer = math.ldexp(self.outer, scale) / norm + 2 * roundoff
        return WindowBound(self.half_width, self.modulus, upper, outer, roundoff,
                           max(float(upper.max()) / norm + roundoff, outer))


class _Passes:
    """The passes of one ``maximal_function`` call (``count`` windowed ones) and what
    they share: phi / 2^scale, of norm in [0.5, 1) (no transform overflows, and
    2^scale is exact), the full padded size, each row's reach, the windows' centres."""

    def __init__(self, mu: LatticeMeasure, phi: LatticeSequence, n_max: int,
                 checkpoint: int | None = None):
        self.mu, self.phi, self.n_max, self.checkpoint = mu, phi, n_max, checkpoint
        self.norm, self.count = phi.l1_norm(), 0
        _, self.scale = math.frexp(self.norm)
        self.start = np.ldexp(phi.values, -self.scale)
        self.full = fft_size(phi.values.size + n_max * (mu.width - 1))
        last = phi.offset + phi.values.size - 1
        self.reach = [(phi.offset + n * mu.offset, last + n * mu.last) for n in range(1, n_max + 1)]

    @functools.cached_property
    def centres(self) -> list:
        """c_n of ``_Window`` for n = 0..n_max."""
        mu, centre = self.mu, self.phi.offset + (self.phi.values.size - 1) // 2
        mean = exact_sum(np.arange(mu.width) * mu.weights) / mu.stored_mass()
        return [centre + n * mu.offset + round(n * mean) for n in range(self.n_max + 1)]

    def window_pays(self, half_width: int) -> bool:
        """Whether the period is below 1/4 of the full padded size.

        Some row then leaves its window: the deepest row has L points and
        ``full = fft_size(L) < 2 L``, so ``64 W < full`` gives ``L > 32 W >= 2 W + 1``."""
        return MODULUS_PER_HALF_WIDTH * half_width * WINDOW_FFT_DIVISOR < self.full

    def run(self, half_width: int | None = None) -> MaximalFunction:
        """The full pass, or the windowed pass of this half-width."""
        n_max, scale, norm, window = self.n_max, self.scale, self.norm, None
        if half_width is None:
            spans, rows, size = self.reach, _full_rows(self.mu, self.start, n_max), self.full
        else:
            self.count += 1
            window = _Window(self, half_width)
            spans, rows, size = window.spans, window.rows(self.start), window.size
        sup, prefix = _Sup(spans), None
        fields = dict(phi_norm=norm, fft_size=size, passes=self.count)
        for step, (first, _) in enumerate(spans, 1):
            row = next(rows)
            sup.add(first, row)
            del row   # free the row before the next one is computed
            if step == self.checkpoint:
                prefix = sup.result(scale, spans[:step], n_max=step, **fields,
                                    bound=window and window.bound(scale, spans[:step], step, norm))
        return sup.result(scale, n_max=n_max, prefix=prefix, **fields,
                          bound=window and window.bound(scale, None, n_max, norm))


def maximal_function(mu: LatticeMeasure, phi: LatticeSequence, n_max: int, *,
                     checkpoint: int | None = None, lambda_values=None) -> MaximalFunction:
    """Pointwise max of |mu^n * phi| over 1 <= n <= n_max (recorded).

    Without ``lambda_values`` this is the full pass (``_full_rows``).  With them,
    windowed passes (``_Window``) of half-width FIRST_HALF_WIDTH, doubling, run
    until ``count_bounds`` certifies every count at those levels, at n_max and the
    checkpoint: values are the lower bound, ``bound`` the ``WindowBound``.  The
    full pass runs instead for a zero phi, when no window pays (``window_pays``),
    or after a pass that leaves as many counts open as the one before with an
    ``outer`` no smaller.  ``passes`` counts the windowed passes; ``fft_size`` is
    the kept pass's transform size.  ``checkpoint`` c keeps in ``prefix`` the
    running max after step c on its own rows' points; on the full pass it is the
    same call at depth c, bit for bit.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if checkpoint is not None and not 1 <= checkpoint <= n_max:
        raise ValueError("checkpoint must lie in [1, n_max]")
    levels = None if lambda_values is None else _levels(lambda_values)
    passes, half_width, before = _Passes(mu, phi, n_max, checkpoint), FIRST_HALF_WIDTH, None
    while levels is not None and passes.norm and passes.window_pays(half_width):
        m = passes.run(half_width)
        open_counts = sum(lo != hi for part in (m, m.prefix) if part is not None
                          for lo, hi in zip(*count_bounds(part, levels)))
        if not open_counts:
            return m
        if before is not None and open_counts >= before[0] and m.bound.outer >= before[1]:
            break
        before, half_width = (open_counts, m.bound.outer), 2 * half_width
    return passes.run()


def count_bounds(m_phi: MaximalFunction, lambda_values=None):
    """Lower and upper bounds on the level-set counts of the M phi that ``m_phi``
    brackets, at the levels of ``weak_type_curve`` in its order, each widened by
    ``bound.roundoff``; an upper bound is None where ``bound.outer`` exceeds
    the level.  Equal bounds certify the count, which is then
    ``weak_type_curve``'s; a full pass gives its own counts as both."""
    curve = weak_type_curve(m_phi, lambda_values)
    bound = m_phi.bound
    if bound is None:
        return curve.counts, curve.counts
    norm, r = m_phi.phi_norm, bound.roundoff
    lo = tuple(int(np.count_nonzero(m_phi.values > (v + r) * norm)) for v in curve.lambda_values)
    hi = tuple(int(np.count_nonzero(bound.upper > (v - r) * norm))
               if bound.outer <= v else None for v in curve.lambda_values)
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
    lam = _levels(lambda_values)
    counts = [int(np.count_nonzero(m_phi.values > v * m_phi.phi_norm)) for v in lam]
    constants = [float(v * c) for v, c in zip(lam, counts)]
    return LevelSetCurve(
        lambda_values=tuple(float(v) for v in lam),
        counts=tuple(counts),
        constants=tuple(constants),
        phi_norm=m_phi.phi_norm,
    )


def _levels(lambda_values) -> np.ndarray:
    """The levels descending, the default grid for None; ValueError unless finite and > 0."""
    lam = np.asarray(default_lambda_grid() if lambda_values is None else lambda_values, float)
    if lam.size == 0 or not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ValueError("lambda grid must contain finite positive values")
    return np.sort(lam)[::-1]


LAMBDA_GRID_POINTS = 40


def default_lambda_grid(lambda_min: float = 1e-4) -> np.ndarray:
    if not 0.0 < lambda_min < 1.0:
        raise ValueError("lambda_min must lie in (0, 1)")
    return np.logspace(math.log10(lambda_min), 0.0, LAMBDA_GRID_POINTS)[::-1]

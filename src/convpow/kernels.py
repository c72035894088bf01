"""Kernel tables and empirical constant fits for the decay estimates.

A kernel table materializes the n-step weights mu^n(x) over rectangular
(n, x) ranges.  Each fit scores the tuples of a stated regime, records the
smallest constant that makes the inequality hold on everything scanned,
and keeps the worst tuple.  One scan, ``_worst``, turns a score array over
ascending axes into that constant, worst tuple and sample count for the
pointwise, small-n and oscillation fits.  The two difference fits score one
shift at a time and keep a running maximum and its tuple, the same first
maximum of each shift, so ties go to the lexicographically smallest tuple
everywhere.
Constants are empirical maxima; their stability when the n range is
extended is the working surrogate for "independent of n".  The x = 0
column is excluded from every fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .measure import ROUNDOFF_PER_STEP, LatticeMeasure, cut, cut_powers, fft_size, power_rows

# a folded table is kept when its folded rows U and cut rows L satisfy
# U - L <= ALIAS_ATOL * max|U| + ALIAS_RTOL * |U| in every cell
ALIAS_ATOL = 1e-12
ALIAS_RTOL = 1e-8


@dataclass(frozen=True)
class KernelTable:
    n_values: tuple
    x_values: tuple
    values: np.ndarray          # shape (len(n_values), len(x_values))
    modulus: int                # the rows were folded modulo this many points
    alias_error: float          # max(U - L) >= T - mu^n, FFT round-off aside; 0 when exact
    moduli: tuple               # every modulus tried, each once, ascending
    clamp_deficit: float        # largest mass the clamp removed from a kept row
    roundoff_bound: float       # a-priori FFT round-off allowance, outside alias_error


@dataclass(frozen=True)
class BoundFit:
    regime: str
    fitted_constant: float | None   # None when the regime is empty
    worst: tuple                    # layout described by the regime string
    sample_count: int

    @property
    def empty(self) -> bool:
        return self.sample_count == 0


def kernel_table(mu: LatticeMeasure, n_values, x_values) -> KernelTable:
    """mu^n(x) from the rows of ``power_rows`` folded modulo M, with an alias bound.

    A folded cell U is mu^n(x) plus its aliases mu^n(x + jM) >= 0; cells out of
    the reach n*mu.offset .. n*mu.last are 0.  The rows L of ``cut_powers``, mu
    and every product cut to one window of half-width W = (M - 1) // 4 centred on
    the x range, are at most mu^n(x), and each product pads to at most M points.
    M starts at four times the span of the x grid, rounded up to a power of
    two, and doubles until U - L <= ALIAS_ATOL * max|U| + ALIAS_RTOL * |U| in
    every cell (the first failing row ends a rung): that U is kept, and
    ``alias_error``, the largest U - L, bounds its aliasing but not its FFT
    round-off.  Past 1/16 of the padded size of the unfolded rows, M is that
    size, the table exact and ``alias_error`` 0.  ``moduli`` lists every M
    tried.  ``clamp_deficit`` is the largest clamp deficit ``power_rows``
    yields for the kept rung's rows; precision failures propagate.
    ``roundoff_bound``, n_max ROUNDOFF_PER_STEP log2(M) for the kept M, is the
    a-priori allowance for the FFT round-off that ``alias_error`` leaves out.
    """
    n_values = [int(n) for n in n_values]
    if not n_values or any(n < 1 for n in n_values):
        raise ValueError("n grid must contain positive integers")
    if sorted(set(n_values)) != n_values:
        raise ValueError("n grid must be strictly ascending")
    x_values = np.asarray(x_values, dtype=np.int64)
    if x_values.size == 0 or np.any(np.diff(x_values) <= 0):
        raise ValueError("x grid must be strictly ascending")

    exact = fft_size(n_values[-1] * (mu.width - 1) + 1)
    modulus, moduli = fft_size(4 * int(x_values[-1] - x_values[0] + 1)), []
    while True:
        # the folded and cut passes together then cost about a quarter of the exact one
        if modulus > exact // 16:
            modulus = exact
        moduli.append(modulus)
        rows, alias_error, clamp_deficit = np.zeros((len(n_values), x_values.size)), 0.0, 0.0
        for i, (n, row, deficit) in enumerate(power_rows(mu, n_values, modulus)):
            clamp_deficit = max(clamp_deficit, deficit)
            inside = (x_values >= n * mu.offset) & (x_values <= n * mu.last)
            if inside.any():   # n * mu.offset may not fit int64 when no cell is in reach
                rows[i, inside] = row[(x_values[inside] - n * mu.offset) % row.size]
        del row   # free the last folded row before the cut pass
        if modulus == exact:
            break   # the unfolded rows alias nothing
        width = 2 * ((modulus - 1) // 4) + 1   # W = (M - 1) // 4 either side of the centre
        lo = (int(x_values[0]) + int(x_values[-1]) - width + 1) // 2
        cut_pass = cut_powers(cut(mu.weights, mu.offset, lo, width), lo, n_values)
        tolerance = ALIAS_ATOL * np.abs(rows).max() + ALIAS_RTOL * np.abs(rows)
        for upper, tol, (_, row) in zip(rows, tolerance, cut_pass):
            gap = upper - row[x_values - lo]
            if not np.all(gap <= tol):
                break   # the rung fails: no later cut row is computed
            alias_error = max(alias_error, float(gap.max()))
        else:
            break
        modulus *= 2
    return KernelTable(
        n_values=tuple(n_values),
        x_values=tuple(int(x) for x in x_values),
        values=rows,
        modulus=modulus,
        alias_error=alias_error,
        moduli=tuple(moduli),
        clamp_deficit=clamp_deficit,
        roundoff_bound=n_values[-1] * ROUNDOFF_PER_STEP * math.log2(modulus),
    )


def _worst(regime: str, scores: np.ndarray, *axes) -> BoundFit:
    """The fit of a score array whose axes have the ascending ``axes``.

    Scores are -inf outside the regime.  The first maximum in C order is the
    lexicographically smallest worst tuple; an axis entry may itself be a
    tuple, which the worst tuple spells out.
    """
    samples = int(np.count_nonzero(scores > -np.inf))
    if samples == 0:
        return BoundFit(regime, None, (), 0)
    i = int(np.argmax(scores))
    at = np.unravel_index(i, scores.shape)
    worst = [v for axis, k in zip(axes, at) for v in np.atleast_1d(np.asarray(axis)[k]).tolist()]
    return BoundFit(regime, float(scores.flat[i]), tuple(worst), samples)


def _power(ax: np.ndarray, exponent: float) -> np.ndarray:
    """ax ** exponent, where a value past the float range is inf, the intended limit."""
    with np.errstate(over="ignore"):
        return ax**exponent


def _nonzero_columns(table: KernelTable):
    """x != 0, its table columns, and n and |x| as broadcasting floats."""
    x = np.asarray(table.x_values)
    keep = x != 0
    if not keep.any():
        raise ValueError("all x values are 0; nothing to fit")
    n = np.asarray(table.n_values, dtype=float)[:, None]
    return x[keep], table.values[:, keep], n, np.abs(x[keep])[None, :].astype(float)


def pointwise_bound_fit(table: KernelTable, delta: float) -> BoundFit:
    """Smallest c with mu^n(x) <= c (sqrt(n)/|x|^(1+delta) + n^2/x^2)."""
    x, vals, n, ax = _nonzero_columns(table)
    envelope = np.sqrt(n) / _power(ax, 1.0 + delta) + n**2 / ax**2
    return _worst(f"x != 0, envelope exponent delta={delta:g}; worst=(n, x)",
                  vals / envelope, table.n_values, x)


def small_n_regime_check(table: KernelTable, delta: float) -> BoundFit:
    """Smallest C with mu^n(x) <= C / |x|^(1+sigma) on n <= |x|^(delta/8).

    sigma = min(15 delta / 16, 3/4).  An empty regime (small table, large
    delta) is reported, not raised.
    """
    sigma = min(15.0 * delta / 16.0, 0.75)
    x, vals, n, ax = _nonzero_columns(table)
    weighted = np.where(n <= _power(ax, delta / 8.0), vals * ax ** (1.0 + sigma), -np.inf)
    return _worst(f"n <= |x|**({delta:g}/8), x != 0, sigma={sigma:g}; worst=(n, x)",
                  weighted, table.n_values, x)


@dataclass(frozen=True)
class SmoothnessFits:
    restricted: BoundFit    # n >= |x|^(delta/8), weight x^2/|y|
    global_holder: BoundFit # all n, weight |x|^(1+alpha)/|y|^alpha
    shifts: int             # nonzero shifts y the fits range over
    scanned: tuple          # shifts scored exactly: (restricted, global)
    cells: int              # (y, x) cells the bound sweep evaluates, in each regime


# cells per block of the bound sweep: a block holds about this many (y, x) floats
BOUND_BLOCK_CELLS = 2**14


def _difference_regimes(table: KernelTable, delta: float, alpha: float):
    """The shifts y, -1, 1, -2, 2, ..., and each regime of the difference fits
    as (regime, (n, x) mask or None for all n, x part of the weight, y part)."""
    x = np.asarray(table.x_values)
    ax = np.abs(x).astype(float)
    y_max = min(int(ax.max()) // 2, x.size - 1)   # past it no x + y is a column
    y = np.column_stack((-np.arange(1, y_max + 1), np.arange(1, y_max + 1))).ravel()
    ay = np.abs(y).astype(float)
    return y, (
        (f"n >= |x|**({delta:g}/8), 0 < 2|y| <= |x|; weight x^2/|y|; worst=(n, x, y)",
         np.asarray(table.n_values)[:, None] >= _power(ax, delta / 8.0), ax**2, ay),
        (f"all n, 0 < 2|y| <= |x|; weight |x|**(1+{alpha:g})/|y|**{alpha:g}; worst=(n, x, y)",
         None, ax ** (1.0 + alpha), ay**alpha),
    )


def _shift_spans(x0: int, size: int, y: np.ndarray) -> np.ndarray:
    """The columns of each shift, x in the table with x + y in the table and
    2|y| <= |x|, as rows lo, neg, pos, hi of column indices: the two spans
    [lo, neg) for x < 0 and [pos, hi) for x > 0."""
    lo, hi = np.maximum(0, -y), np.minimum(size, size - y)   # x + y in the table
    neg = np.clip(-2 * np.abs(y) - x0 + 1, lo, hi)   # end of x <= -2|y|
    pos = np.clip(2 * np.abs(y) - x0, lo, hi)        # start of x >= 2|y|
    return np.stack((lo, neg, pos, hi))


def _sweep_blocks(ax: np.ndarray, y_max: int):
    """The blocks of the bound sweep, as (window rows, columns) slice pairs.

    Window row t holds the shift y = t - y_max.  ``ax`` of a contiguous x
    range falls to its minimum and rises after it, so the columns before the
    minimum (x < 0) and from it on (x >= 0) are swept apart: in each half the
    columns with |x| >= 2m are one span, and a row with |y| >= m has no cell
    2|y| <= |x| outside it.  A block is the rows |y| = m, m + 1, ... of one
    sign of y with the span of its smallest |y|, as many rows as keep the
    block within BOUND_BLOCK_CELLS cells.  The row y = 0 is in no block.
    """
    turn = int(np.argmin(ax))
    for half in (0, 1):
        for sign in (-1, 1):
            m = 1
            while m <= y_max:
                if half == 0:   # ax falls: a prefix has ax >= 2m
                    cols = slice(0, int(np.searchsorted(-ax[:turn], -2.0 * m, side="right")))
                else:           # ax rises: a suffix has ax >= 2m
                    cols = slice(turn + int(np.searchsorted(ax[turn:], 2.0 * m)), ax.size)
                width = cols.stop - cols.start
                if width <= 0:
                    break   # no larger |y| has a cell in this half either
                stop = min(y_max + 1, m + max(1, BOUND_BLOCK_CELLS // width))
                rows = (slice(y_max + m, y_max + stop) if sign > 0
                        else slice(y_max - stop + 1, y_max - m + 1))
                yield rows, cols
                m = stop


def _sweep_cells(ax: np.ndarray, y_max: int) -> int:
    """The (y, x) cells the bound sweep evaluates."""
    return sum((rows.stop - rows.start) * (cols.stop - cols.start)
               for rows, cols in _sweep_blocks(ax, y_max))


def _shift_bounds(values: np.ndarray, in_regime, ax: np.ndarray, x_weight: np.ndarray,
                  y: np.ndarray, y_weight: np.ndarray) -> np.ndarray:
    """A float at least every score of each shift in ``y``, bit for bit.

    A score is |T(x+y) - T(x)| * (x_weight[x] / y_weight[y]) over the
    in-regime n.  With HI, LO the column max and min of the table over all n
    and hi, lo the same over the regime's n at column x,
    |T(x+y) - T(x)| <= max(HI[x+y] - lo[x], hi[x] - LO[x+y]) for any signs,
    and rounded subtraction is monotone in each operand, so the rounded
    spread bounds the rounded difference.  The spread is multiplied by the
    score's own rounded quotient x_weight[x] / y_weight[y]; rounded
    multiplication by the same nonnegative factor is monotone too, so the
    bound is >= every score.  Taking the largest spread * x_weight first and
    dividing by y_weight after is not safe: that rounds differently and can
    land one ulp below a tying score, and the shift would be skipped.

    Column x + y is read from a sliding window over NaN-padded HI and LO,
    a view, and the cells go in the blocks of ``_sweep_blocks``: each one
    column span of one half of the x range, holding only the columns with
    |x| >= 2|y| for its smallest |y|, and at most BOUND_BLOCK_CELLS cells,
    so temporaries stay O(|x|) whatever the number of shifts.  A shift with
    no cell in its regime gets -inf.
    """
    hi_all, lo_all = values.max(axis=0), values.min(axis=0)
    if in_regime is None:
        hi, lo = hi_all, lo_all
    else:
        hi = np.max(values, axis=0, where=in_regime, initial=-np.inf)
        lo = np.min(values, axis=0, where=in_regime, initial=np.inf)
    y_max = int(np.abs(y).max(initial=0))
    pad = np.full(y_max, np.nan)
    # row t of a window holds column x + t - y_max, NaN off the table
    hi_at = sliding_window_view(np.concatenate((pad, hi_all, pad)), ax.size)
    lo_at = sliding_window_view(np.concatenate((pad, lo_all, pad)), ax.size)
    reach = 2.0 * np.abs(np.arange(-y_max, y_max + 1))   # 2|y| by row
    weight = np.full(reach.size, np.nan)   # the y part of the weight, by row
    weight[y + y_max] = y_weight
    bounds = np.full(reach.size, -np.inf)
    for rows, cols in _sweep_blocks(ax, y_max):
        cells = hi_at[rows, cols] - lo[cols]
        np.maximum(cells, hi[cols] - lo_at[rows, cols], out=cells)
        cells *= x_weight[cols] / weight[rows, None]
        # NaN cells (off the table) drop out of fmax; each row meets two halves
        top = np.fmax.reduce(cells, axis=1, where=reach[rows, None] <= ax[cols],
                             initial=-np.inf)
        np.maximum(bounds[rows], top, out=bounds[rows])
    return bounds[y + y_max]


def smoothness_difference_fit(table: KernelTable, delta: float, alpha: float) -> SmoothnessFits:
    """Difference bounds in the two stated regimes.

    (a) restricted: |mu^n(x+y) - mu^n(x)| <= C |y| / x^2 for
        n >= |x|^(delta/8) and 2|y| <= |x|;
    (b) global: |mu^n(x+y) - mu^n(x)| <= C |y|^alpha / |x|^(1+alpha) for
        all table n and 2|y| <= |x|.

    Each regime first bounds every shift's scores at once
    (``_shift_bounds``).  It then scores shifts exactly in descending order
    of their bounds, while the bound is not below the running maximum: every
    later shift is strictly below it, so it can neither win nor tie.  A
    shift's first maximum in (n, x) order is its smallest worst tuple; it
    replaces the running one when it is larger, or equal with a smaller
    (n, x, y).  Every shift holding the largest score is scanned, so ties go
    to the smallest (n, x, y) as if all were.  Sample counts come from
    prefix sums of the in-regime n per column over each shift's two column
    spans.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    x = np.asarray(table.x_values)
    if not np.array_equal(x, np.arange(x[0], x[0] + x.size)):
        raise ValueError("difference fits need a contiguous x range")
    ax = np.abs(x).astype(float)
    values = table.values
    y, regimes = _difference_regimes(table, delta, alpha)
    spans = _shift_spans(int(x[0]), x.size, y)
    cells = _sweep_cells(ax, int(np.abs(y).max(initial=0)))
    fits, scanned = [], []
    for regime, in_regime, x_weight, y_weight in regimes:
        per_column = (np.full(x.size, values.shape[0]) if in_regime is None
                      else np.count_nonzero(in_regime, axis=0))
        prefix = np.concatenate(([0], np.cumsum(per_column)))
        samples = int((prefix[spans[1]] - prefix[spans[0]]
                       + prefix[spans[3]] - prefix[spans[2]]).sum())
        bounds = _shift_bounds(values, in_regime, ax, x_weight, y, y_weight)
        outside = None if in_regime is None else ~in_regime
        best, worst, count = -np.inf, (), 0
        for k in np.argsort(-bounds, kind="stable").tolist():
            if bounds[k] == -np.inf or bounds[k] < best:
                break
            lo, neg, pos, hi = spans[:, k].tolist()
            shift = int(y[k])
            scores = values[:, lo + shift:hi + shift] - values[:, lo:hi]
            np.abs(scores, out=scores)
            scores *= x_weight[lo:hi] / y_weight[k]
            scores[:, neg - lo:pos - lo] = -np.inf   # 2|y| > |x|
            if outside is not None:
                np.copyto(scores, -np.inf, where=outside[:, lo:hi])
            i = int(np.argmax(scores))
            score = float(scores.flat[i])
            count += 1
            if score < best:
                continue
            row, col = divmod(i, hi - lo)
            at = (int(table.n_values[row]), int(x[lo + col]), shift)
            if score > best or at < worst:
                best, worst = score, at
        fits.append(BoundFit(regime, None if worst == () else best, worst, samples))
        scanned.append(count)
    return SmoothnessFits(restricted=fits[0], global_holder=fits[1], shifts=int(y.size),
                          scanned=tuple(scanned), cells=cells)


def oscillation_kernel_fit(t_values, xy_pairs) -> BoundFit:
    """Constant for the difference of normalized oscillation kernels.

    With e(u) = exp(2 pi i u) and kernel (e(xt) - 1)/x^2, bounds
    |kernel(x+y, t) - kernel(x, t)| by C |t| |y| / x^2 over the sampled
    (x, y, t) with 0 < 2|y| < |x|.  t = 0 contributes nothing.
    """
    ts = np.sort(np.asarray(t_values, dtype=float))
    pairs = np.asarray(xy_pairs, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    x, y = pairs[:, :1], pairs[:, 1:]
    bad = pairs[((y == 0) | (2 * np.abs(y) >= np.abs(x)))[:, 0]]
    if bad.size:
        raise ValueError(f"pair (x={bad[0, 0]}, y={bad[0, 1]}) violates 0 < 2|y| < |x|")
    num = np.abs(
        (np.exp(2j * math.pi * (x + y) * ts) - 1.0) / (x + y) ** 2
        - (np.exp(2j * math.pi * x * ts) - 1.0) / x**2
    )
    den = np.abs(ts) * np.abs(y) / x**2
    scores = np.divide(num, den, out=np.full(num.shape, -np.inf), where=den > 0.0)
    return _worst("0 < 2|y| < |x|, t != 0; worst=(x, y, t)", scores, pairs, ts)


def default_table_grids(n_max: int = 512, x_max: int = 512):
    """Powers of two up to n_max (n_max appended if absent) and the full
    contiguous x range [-x_max, x_max]."""
    n_values = []
    n = 1
    while n <= n_max:
        n_values.append(n)
        n *= 2
    if n_values[-1] != n_max:
        n_values.append(int(n_max))
    x_values = np.arange(-int(x_max), int(x_max) + 1)
    return n_values, x_values

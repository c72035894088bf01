"""Kernel tables and empirical constant fits for the decay estimates.

A kernel table materializes the n-step weights mu^n(x) over rectangular
(n, x) ranges.  Each fit scores the tuples of a stated regime, records the
smallest constant that makes the inequality hold on everything scanned,
and keeps the worst tuple.  One scan, ``_worst``, turns a score array over
ascending axes into that constant, worst tuple and sample count for all
five fits, so ties go to the lexicographically smallest tuple everywhere.
Constants are empirical maxima; their stability when the n range is
extended is the working surrogate for "independent of n".  The x = 0
column is excluded from every fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import LatticeMeasure, fft_size, power_rows

# windowed tables at moduli M and 2M agree when every cell satisfies
# |T_M - T_2M| <= ALIAS_ATOL * max|T_2M| + ALIAS_RTOL * |T_2M|
ALIAS_ATOL = 1e-12
ALIAS_RTOL = 1e-8


@dataclass(frozen=True)
class KernelTable:
    n_values: tuple
    x_values: tuple
    values: np.ndarray          # shape (len(n_values), len(x_values))
    modulus: int                # the rows were folded modulo this many points
    alias_error: float          # max |T_M - T_2M| at the last doubling; 0 when exact


@dataclass(frozen=True)
class BoundFit:
    regime: str
    fitted_constant: float | None   # None when the regime is empty
    worst: tuple                    # layout described by the regime string
    sample_count: int

    @property
    def empty(self) -> bool:
        return self.sample_count == 0


def _windowed_rows(mu: LatticeMeasure, n_values, x_values, modulus: int) -> np.ndarray:
    """mu^n(x) read from the rows of ``power_rows`` folded modulo ``modulus``.

    Cells outside the reach n*mu.offset .. n*mu.last are 0.
    """
    rows = np.zeros((len(n_values), x_values.size))
    for i, (n, row) in enumerate(power_rows(mu, n_values, modulus)):
        inside = (x_values >= n * mu.offset) & (x_values <= n * mu.last)
        if inside.any():   # n * mu.offset may not fit int64 when no cell is in reach
            rows[i, inside] = row[(x_values[inside] - n * mu.offset) % row.size]
    return rows


def _odd_modulus(size: int) -> int:
    """Smallest odd number at least ``size`` with no prime factor above 7."""
    m = size | 1
    while True:
        k = m
        for p in (3, 5, 7):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 2


def _gap(rows: np.ndarray, kept: np.ndarray):
    """max |rows - kept| and its largest multiple of the agreement tolerance."""
    diff = np.abs(rows - kept)
    allowed = ALIAS_ATOL * np.abs(kept).max() + ALIAS_RTOL * np.abs(kept)
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(diff > 0, diff / allowed, 0.0)
    return float(diff.max()), float(excess.max())


def kernel_table(mu: LatticeMeasure, n_values, x_values) -> KernelTable:
    """Materialize mu^n(x) from the rows of ``power_rows``.

    The rows are folded modulo M, so a cell holds mu^n(x) plus its aliases
    mu^n(x + jM).  M starts at four times the span of the x grid, rounded
    up to a power of two, and doubles until the tables at M and 2M agree to
    ALIAS_ATOL * max|T| + ALIAS_RTOL * |T| in every cell.  Their difference
    holds only the aliases at odd multiples of M, so the 2M table must then
    also agree with the table at an odd modulus, whose aliases are none of
    the 2M table's within the reach; the 2M table is kept.  Folded tables
    stop at 1/16 of the padded size of the unfolded rows; past that M jumps
    to the padded size, where the table is exact.  Each row is clamped and
    rescaled exactly as the fast convolution power, and precision failures
    propagate.
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
    # the folded tables together then cost at most about a quarter of the exact one
    limit = exact // 16
    modulus = fft_size(4 * int(x_values[-1] - x_values[0] + 1))
    if modulus > limit:
        modulus = exact
    rows = _windowed_rows(mu, n_values, x_values, modulus)
    alias_error = 0.0
    while modulus < exact:
        modulus = 2 * modulus if 2 * modulus <= limit else exact
        finer = _windowed_rows(mu, n_values, x_values, modulus)
        if modulus == exact:
            rows = finer    # the unfolded rows alias nothing
            break
        gap, excess = _gap(rows, finer)
        rows = finer
        if excess <= 1.0:
            odd_gap, odd_excess = _gap(
                _windowed_rows(mu, n_values, x_values, _odd_modulus(modulus)), rows)
            if odd_excess <= 1.0:
                alias_error = max(gap, odd_gap)
                break
    return KernelTable(
        n_values=tuple(n_values),
        x_values=tuple(int(x) for x in x_values),
        values=rows,
        modulus=modulus,
        alias_error=alias_error,
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


def smoothness_difference_fit(table: KernelTable, delta: float, alpha: float) -> SmoothnessFits:
    """Difference bounds in the two stated regimes.

    (a) restricted: |mu^n(x+y) - mu^n(x)| <= C |y| / x^2 for
        n >= |x|^(delta/8) and 2|y| <= |x|;
    (b) global: |mu^n(x+y) - mu^n(x)| <= C |y|^alpha / |x|^(1+alpha) for
        all table n and 2|y| <= |x|.

    One pass over the shifts y scores both regimes on the column pairs x, x+y
    of the table: temporaries stay O(|n| |x|), ties go to the smallest (n, x, y).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    x = np.asarray(table.x_values)
    if not np.array_equal(x, np.arange(x[0], x[0] + x.size)):
        raise ValueError("difference fits need a contiguous x range")
    ax = np.abs(x).astype(float)
    y_max = min(int(ax.max()) // 2, x.size - 1)   # past it no x + y is a column
    y = np.setdiff1d(np.arange(-y_max, y_max + 1), 0)
    ay = np.abs(y).astype(float)
    # regime, its (n, x) mask, and the x and y parts of its weight
    regimes = (
        (f"n >= |x|**({delta:g}/8), 0 < 2|y| <= |x|; weight x^2/|y|; worst=(n, x, y)",
         np.asarray(table.n_values)[:, None] >= _power(ax, delta / 8.0), ax**2, ay),
        (f"all n, 0 < 2|y| <= |x|; weight |x|**(1+{alpha:g})/|y|**{alpha:g}; worst=(n, x, y)",
         np.ones(table.values.shape, dtype=bool), ax ** (1.0 + alpha), ay**alpha),
    )
    fits = [BoundFit(regime, None, (), 0) for regime, *_ in regimes]
    for k, shift in enumerate(y.tolist()):
        lo, hi = max(0, -shift), min(x.size, x.size - shift)   # the x with x + y in the table
        diff = np.abs(table.values[:, lo + shift : hi + shift] - table.values[:, lo:hi])
        for i, (regime, in_regime, x_weight, y_weight) in enumerate(regimes):
            scores = np.where(in_regime[:, lo:hi] & (2 * abs(shift) <= ax[lo:hi]),
                              diff * (x_weight[lo:hi] / y_weight[k]), -np.inf)
            fits[i] = _union(fits[i], _worst(regime, scores[..., None],
                                             table.n_values, x[lo:hi], [shift]))
    return SmoothnessFits(restricted=fits[0], global_holder=fits[1])


def _union(a: BoundFit, b: BoundFit) -> BoundFit:
    """The fit over the tuples of ``a`` and ``b``; a tie goes to the smaller worst tuple."""
    top = min((f for f in (a, b) if not f.empty), default=a,
              key=lambda f: (-f.fitted_constant, f.worst))
    return BoundFit(top.regime, top.fitted_constant, top.worst, a.sample_count + b.sample_count)


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

"""Kernel tables and empirical constant fits for the decay estimates.

A kernel table materializes the n-step weights mu^n(x) over rectangular
(n, x) ranges.  Each fit scans a stated regime of tuples, records the
smallest constant that makes the inequality hold on everything scanned,
and keeps the worst tuple.  Constants are empirical maxima; their
stability when the n range is extended is the working surrogate for
"independent of n".  The x = 0 column is excluded from every fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import LatticeMeasure, power_rows


@dataclass(frozen=True)
class KernelTable:
    n_values: tuple
    x_values: tuple
    values: np.ndarray          # shape (len(n_values), len(x_values))
    row_sums: tuple             # full-support mass of each power


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
    """Materialize mu^n(x) from the rows of ``power_rows``.

    Each row is clamped and rescaled exactly as the fast convolution power,
    and precision failures propagate.
    """
    n_values = [int(n) for n in n_values]
    if not n_values or any(n < 1 for n in n_values):
        raise ValueError("n grid must contain positive integers")
    if sorted(set(n_values)) != n_values:
        raise ValueError("n grid must be strictly ascending")
    x_values = np.asarray(x_values, dtype=np.int64)
    if x_values.size == 0 or np.any(np.diff(x_values) <= 0):
        raise ValueError("x grid must be strictly ascending")

    rows = np.zeros((len(n_values), x_values.size))
    row_sums = []
    for i, (n, full) in enumerate(power_rows(mu, n_values)):
        row_sums.append(math.fsum(full))
        idx = x_values - n * mu.offset
        inside = (idx >= 0) & (idx < full.size)
        rows[i, inside] = full[idx[inside]]
    return KernelTable(
        n_values=tuple(n_values),
        x_values=tuple(int(x) for x in x_values),
        values=rows,
        row_sums=tuple(row_sums),
    )


def _nonzero_columns(table: KernelTable):
    x = np.asarray(table.x_values)
    keep = x != 0
    if not keep.any():
        raise ValueError("all x values are 0; nothing to fit")
    return x[keep], table.values[:, keep]


def pointwise_bound_fit(table: KernelTable, delta: float) -> BoundFit:
    """Smallest c with mu^n(x) <= c (sqrt(n)/|x|^(1+delta) + n^2/x^2)."""
    x, vals = _nonzero_columns(table)
    n = np.asarray(table.n_values, dtype=float)[:, None]
    ax = np.abs(x)[None, :].astype(float)
    envelope = np.sqrt(n) / ax ** (1.0 + delta) + n**2 / ax**2
    ratios = vals / envelope
    i = int(np.argmax(ratios))
    ni, xi = divmod(i, x.size)
    return BoundFit(
        regime=f"x != 0, envelope exponent delta={delta:g}; worst=(n, x)",
        fitted_constant=float(ratios.flat[i]),
        worst=(int(table.n_values[ni]), int(x[xi])),
        sample_count=int(ratios.size),
    )


def small_n_regime_check(table: KernelTable, delta: float) -> BoundFit:
    """Smallest C with mu^n(x) <= C / |x|^(1+sigma) on n <= |x|^(delta/8).

    sigma = min(15 delta / 16, 3/4).  An empty regime (small table, large
    delta) is reported, not raised.
    """
    sigma = min(15.0 * delta / 16.0, 0.75)
    x, vals = _nonzero_columns(table)
    n = np.asarray(table.n_values, dtype=float)[:, None]
    ax = np.abs(x)[None, :].astype(float)
    regime = n <= ax ** (delta / 8.0)
    label = f"n <= |x|**({delta:g}/8), x != 0, sigma={sigma:g}; worst=(n, x)"
    if not regime.any():
        return BoundFit(regime=label, fitted_constant=None, worst=(), sample_count=0)
    weighted = np.where(regime, vals * ax ** (1.0 + sigma), -np.inf)
    i = int(np.argmax(weighted))
    ni, xi = divmod(i, x.size)
    return BoundFit(
        regime=label,
        fitted_constant=float(weighted.flat[i]),
        worst=(int(table.n_values[ni]), int(x[xi])),
        sample_count=int(regime.sum()),
    )


def _difference_scan(table: KernelTable, in_regime, weight):
    """Scan |mu^n(x+y) - mu^n(x)| * weight(n, x, y) over 0 < 2|y| <= |x|.

    ``in_regime`` filters (n, |x|) pairs.  Both x and x+y must be table
    columns.  Returns (constant, worst tuple, samples); ties go to the
    lexicographically smallest (n, x, y).

    Each row is scanned as one (x, y) array: argmax takes the first maximum
    in C order, the smallest (x, y), and a later n must be strictly larger.
    """
    x = np.asarray(table.x_values)
    if not np.array_equal(x, np.arange(x[0], x[0] + x.size)):
        raise ValueError("difference fits need a contiguous x range")
    ax = np.abs(x)
    y_max = int(ax.max()) // 2
    y = np.setdiff1d(np.arange(-y_max, y_max + 1), 0)
    cols = np.arange(x.size)[:, None] + y   # column of x + y
    geometry = ((2 * np.abs(y) <= ax[:, None]) & (x != 0)[:, None]
                & (cols >= 0) & (cols < x.size))
    np.clip(cols, 0, x.size - 1, out=cols)
    ax_col, ay_row = ax[:, None].astype(float), np.abs(y).astype(float)
    best = None
    samples = 0
    for i, n in enumerate(table.n_values):
        ok = geometry & in_regime(n, ax)[:, None]
        if not ok.any():
            continue
        samples += int(ok.sum())
        row = table.values[i]
        vals = np.abs(row[cols] - row[:, None]) * weight(float(n), ax_col, ay_row)
        vals[~ok] = -np.inf
        j = int(np.argmax(vals))
        if best is None or vals.flat[j] > best[0]:
            xi, yi = divmod(j, y.size)
            best = (float(vals.flat[j]), int(n), int(x[xi]), int(y[yi]))
    if best is None:
        return None, (), 0
    return best[0], best[1:], samples


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
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    c_a, worst_a, count_a = _difference_scan(
        table,
        in_regime=lambda n, ax: n >= ax ** (delta / 8.0),
        weight=lambda n, ax, ay: ax**2 / ay,
    )
    fit_a = BoundFit(
        regime=f"n >= |x|**({delta:g}/8), 0 < 2|y| <= |x|; weight x^2/|y|; worst=(n, x, y)",
        fitted_constant=c_a,
        worst=worst_a,
        sample_count=count_a,
    )
    c_b, worst_b, count_b = _difference_scan(
        table,
        in_regime=lambda n, ax: np.ones_like(ax, dtype=bool),
        weight=lambda n, ax, ay: ax ** (1.0 + alpha) / ay**alpha,
    )
    fit_b = BoundFit(
        regime=f"all n, 0 < 2|y| <= |x|; weight |x|**(1+{alpha:g})/|y|**{alpha:g}; worst=(n, x, y)",
        fitted_constant=c_b,
        worst=worst_b,
        sample_count=count_b,
    )
    return SmoothnessFits(restricted=fit_a, global_holder=fit_b)


def oscillation_kernel_fit(t_values, xy_pairs) -> BoundFit:
    """Constant for the difference of normalized oscillation kernels.

    With e(u) = exp(2 pi i u) and kernel (e(xt) - 1)/x^2, bounds
    |kernel(x+y, t) - kernel(x, t)| by C |t| |y| / x^2 over the sampled
    (x, y, t) with 0 < 2|y| < |x|.  t = 0 contributes nothing.
    """
    ts = np.asarray(t_values, dtype=float)
    best = None
    samples = 0
    for x, y in xy_pairs:
        x = int(x)
        y = int(y)
        if not (0 < 2 * abs(y) < abs(x)):
            raise ValueError(f"pair (x={x}, y={y}) violates 0 < 2|y| < |x|")
        num = np.abs(
            (np.exp(2j * math.pi * (x + y) * ts) - 1.0) / (x + y) ** 2
            - (np.exp(2j * math.pi * x * ts) - 1.0) / x**2
        )
        den = np.abs(ts) * abs(y) / x**2
        ok = den > 0.0
        if not ok.any():
            continue
        vals = num[ok] / den[ok]
        samples += int(ok.sum())
        j = int(np.argmax(vals))
        cand = (float(vals[j]), x, y, float(ts[ok][j]))
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1:] < best[1:]):
            best = cand
    if best is None:
        return BoundFit("0 < 2|y| < |x|, t != 0; worst=(x, y, t)", None, (), 0)
    return BoundFit(
        regime="0 < 2|y| < |x|, t != 0; worst=(x, y, t)",
        fitted_constant=best[0],
        worst=best[1:],
        sample_count=samples,
    )


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

"""Moment-growth and derivative-smoothness exponents.

The weight-side statistic is the partial second moment
S(n) = sum_{|k| <= n} k^2 mu(k); its growth rate n^(1-alpha) is dual to the
Hölder exponent alpha of theta'.  Both exponents are fitted with the same
least-squares model log Y = a log X + b log log X + c, which resolves pure
power growth (b near 0) and logarithmic growth (a near 0) without
special-casing either regime.

The duality is exact only under sign conditions our nonnegative weights do
not satisfy in general, so the pair of estimators is a consistency
diagnostic, not a proof of membership in any smoothness class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measure import LatticeMeasure
from .spectral import SpectralProfile


@dataclass(frozen=True)
class GrowthCurve:
    n_values: tuple
    s_values: tuple
    radius: int
    proxy: bool                       # truncated stand-in for an infinite law
    fitted_exponent: float | None = None
    fit_window: tuple | None = None   # (n_lo, n_hi) actually used
    residual: float | None = None     # max |log S - fit| over the window
    log_correction: float | None = None


GROWTH_GRID_POINTS = 61


def default_growth_grid(mu: LatticeMeasure) -> np.ndarray:
    """GROWTH_GRID_POINTS geometric n values from 10 up to the support radius.

    Exact finite-support measures are probed to at least 10^4 so the fit
    window spans two decades; their curve legitimately saturates there.
    """
    top = mu.radius if mu.is_truncated_proxy else max(mu.radius, 10_000)
    top = max(top, 100)
    # clipped as Python ints: near 2**63 float(top) rounds up past int64
    return np.unique([min(int(n), top) for n in np.geomspace(10, top, GROWTH_GRID_POINTS)])


def partial_second_moment_curve(mu: LatticeMeasure, n_values=None) -> GrowthCurve:
    """S(n) by prefix sums over |k| shells, exact for the stored weights.

    For a truncated proxy, n beyond the truncation radius is refused: the
    curve would saturate as an artifact.  Exact finite-support measures may
    be probed past their radius, where saturation is the true behavior.
    """
    if n_values is None:
        n_values = default_growth_grid(mu)
    n_values = np.asarray(n_values, dtype=np.int64)
    if n_values.size == 0 or np.any(n_values < 1):
        raise ValueError("n grid must contain positive integers")
    if np.any(np.diff(n_values) <= 0):
        raise ValueError("n grid must be strictly ascending")
    radius = mu.radius
    if mu.is_truncated_proxy and n_values[-1] > radius:
        raise ValueError(
            f"n={int(n_values[-1])} exceeds the truncation radius {radius}; "
            "the growth curve would be artificially flat"
        )
    ks = mu.indices()
    # the stored window is contiguous, so its |k| are consecutive integers from
    # low, no more of them than the window: memory follows its width, not position
    distance = np.abs(ks)
    low = int(distance.min())
    shell = np.bincount(distance - low, weights=ks.astype(float) ** 2 * mu.weights)
    prefix = np.concatenate(([0.0], np.cumsum(shell)))
    s = prefix[np.clip(n_values - low + 1, 0, shell.size)]
    return GrowthCurve(
        n_values=tuple(int(n) for n in n_values),
        s_values=tuple(float(v) for v in s),
        radius=int(radius),
        proxy=bool(mu.is_truncated_proxy),
    )


def _log_corrected_fit(x_raw: np.ndarray, y: np.ndarray):
    """LS fit of y = a*log x + b*log log x + c; returns (a, b, max residual)."""
    lx = np.log(x_raw)
    llx = np.log(np.log(x_raw))
    design = np.column_stack([lx, llx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.max(np.abs(y - design @ coef)))
    return float(coef[0]), float(coef[1]), resid


def fit_growth_curve(curve: GrowthCurve) -> GrowthCurve:
    """Fill in the fitted exponent over the boundary-trimmed window.

    The window drops the smallest decade of n, and for truncated proxies
    also everything within a factor 10 of the truncation radius; both ends
    otherwise corrupt the slope.
    """
    n = np.asarray(curve.n_values, dtype=float)
    s = np.asarray(curve.s_values, dtype=float)
    n_lo = 10.0 * n[0]
    n_hi = curve.radius / 10.0 if curve.proxy else n[-1]
    mask = (n >= n_lo) & (n <= n_hi) & (s > 0.0) & (n >= 2)
    if mask.sum() < 8 or (n[mask].max() / n[mask].min()) < 100.0:
        raise ValueError(
            "fit window must keep at least 8 points spanning two decades; "
            f"kept {int(mask.sum())} points in [{n_lo:g}, {n_hi:g}]"
        )
    a, b, resid = _log_corrected_fit(n[mask], np.log(s[mask]))
    return replace(
        curve,
        fitted_exponent=a,
        fit_window=(int(n[mask].min()), int(n[mask].max())),
        residual=resid,
        log_correction=b,
    )


@dataclass(frozen=True)
class LipschitzFit:
    exponent: float            # math.inf when theta' is constant
    h_values: tuple
    m_values: tuple            # M(h) = max_t |theta'(t+h) - theta'(t)|
    residual: float | None
    log_correction: float | None


LIPSCHITZ_MAX_H = 1.0 / 64.0   # largest dyadic step h of the Lipschitz fit


def lipschitz_exponent_estimate(profile: SpectralProfile) -> LipschitzFit:
    """Hölder exponent of theta' from dyadic difference maxima, h <= LIPSCHITZ_MAX_H.

    M(h) is exact on the uniform grid (shifts are index rolls; theta' is
    1-periodic), and log M is fitted against log h with the same
    log-corrected model as the growth fit.  A flat derivative yields an
    infinite-exponent sentinel.
    """
    d1 = profile.d1_full
    N = profile.grid_size
    steps = []
    j = 0
    while 2**j / N <= LIPSCHITZ_MAX_H:
        steps.append(2**j)
        j += 1
    if len(steps) < 4:
        raise ValueError("need at least 4 dyadic steps; enlarge the grid")
    hs = []
    ms = []
    for s in steps:
        diff = np.abs(np.roll(d1, -s) - d1)
        hs.append(s / N)
        ms.append(float(diff.max()))
    scale = max(1.0, float(np.abs(d1).max()))
    if max(ms) <= 1e-12 * scale:
        return LipschitzFit(math.inf, tuple(hs), tuple(ms), None, None)
    # with x = 1/h: log M = -exponent * log x + correction * log log x + c
    x = 1.0 / np.asarray(hs)
    a, b, resid = _log_corrected_fit(x, np.log(np.asarray(ms)))
    return LipschitzFit(-a, tuple(hs), tuple(ms), resid, b)

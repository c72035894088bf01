"""Transform-side diagnostics.

The transform of a measure is theta(t) = sum_k mu(k) exp(2 pi i k t) on
[-1/2, 1/2), with real part f and imaginary part g.  Everything this module
computes lives on that interval: sampled theta and its first two termwise
derivatives, the angular ratio |theta - 1| / (1 - |theta|), the Gaussian
decay rate (largest C with |theta| <= exp(-C t^2) on the grid), the
majorant function phi(t) = |f'(t) / t| together with its structural
properties, the modulus majorant |theta| <= 1 - k t^2 phi(t), and the
envelope integrals that certify n-uniform bounds downstream.  The envelope
integrals treat phi as the piecewise-linear function through its samples
and sum a Gauss-Legendre rule over the segments between grid nodes, halving
the segments that carry the most of the estimated error until the relative
estimate is at most 1e-10.

Grid values are computed by folding the weights modulo the grid length and
taking a single real FFT; the negative-t half is mirrored analytically from
the positive half, which reproduces the exact conjugate symmetry a termwise
summation would have.  Off-grid points use correctly rounded termwise sums.

The angular ratio's refinement probe reads theta at m / (N 4^l), m = 1..64,
l = 0, 1, 2: 192 points off the grid, on a law of up to 200,001 weights.
``transform_on_ladders`` evaluates them all as one two-level sum: the
weights laid out as a (Q, P) block, P a power of two near sqrt(width), one
real ``np.einsum`` product of that block with the cos and sin of the block
rows' phases, and one elementwise multiply-and-sum over the columns.  The
product is einsum's own loop, not BLAS, whose first call alone costs 1 to 2
MB of peak RSS.  Every phase is reduced in integers modulo its period, so
the error stays at round-off for offsets of 1e17; a recurrence z^m loses
digits as |k| grows.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticRefused, HypothesisFailure
from .measure import LatticeMeasure, fold

DEFAULT_GRID_SIZE = 2**16 + 1
MIN_GRID_SIZE = 17
DEFAULT_PUNCTURE = 1e-6
TWO_PI = 2.0 * math.pi

# modulus guard for the headline angular-ratio supremum
ANGULAR_MODULUS_GUARD = 1e-10
# validity floor for the near-zero refinement levels: 1 - |theta| below this
# is dominated by double-precision round-off and cannot be trusted
REFINEMENT_DENOMINATOR_FLOOR = 1e-13


def transform_at(mu: LatticeMeasure, t: float) -> complex:
    """theta(t) by termwise summation, correctly rounded.

    Canonical domain is [-1/2, 1/2); values are 1-periodic in t.
    """
    phase = TWO_PI * t * mu.indices()
    re = math.fsum(mu.weights * np.cos(phase))
    im = math.fsum(mu.weights * np.sin(phase))
    return complex(re, im)


def derivative_at(mu: LatticeMeasure, t: float, order: int = 1) -> complex:
    """Termwise derivative of theta at t, order 1 or 2.

    For a truncated proxy this is the derivative of the truncated
    transform; callers should flag it via ``mu.is_truncated_proxy``.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    ks = mu.indices()
    phase = TWO_PI * t * ks
    c = np.cos(phase)
    s = np.sin(phase)
    if order == 1:
        factor = TWO_PI * ks * mu.weights
        # i * factor * e^{i phase}
        return complex(math.fsum(-factor * s), math.fsum(factor * c))
    factor = -(TWO_PI * ks) ** 2 * mu.weights
    return complex(math.fsum(factor * c), math.fsum(factor * s))


def ladder_block(width: int) -> tuple:
    """(Q, P) of ``transform_on_ladders``: P the power of two nearest
    sqrt(width) in the log, and Q = ceil(width / P)."""
    P = 1 << round(math.log2(width) / 2)
    return -(-width // P), P


def _unit_angles(first, m: np.ndarray, period: int) -> np.ndarray:
    """2 pi j / period with j = first m, reduced in integers modulo period
    into [-period / 2, period / 2).

    ``first`` is a Python int or an int64 array that broadcasts against
    ``m``.  The phase is exact however large first is, and an index near
    the origin keeps a small angle with all its digits."""
    half = period // 2
    return TWO_PI * (((first % period) * m + half) % period - half) / period


def transform_on_ladders(mu: LatticeMeasure, periods, count: int) -> np.ndarray:
    """theta(m / M) for m = 1..count and each period M; shape (len(periods), count).

    With k = offset + qP + r, 0 <= r < P and (Q, P) = ``ladder_block``,
    theta(t) = sum_r e((offset + r) t) sum_q w[qP + r] e(qPt), e(x) = exp(2 pi i x).
    The inner sums for every point are one real product of the zero-padded
    (Q, P) weights with the cos and sin columns of the q-phases; the outer
    sum is one elementwise multiply-and-sum.  Every phase is reduced modulo
    its period in integers, so far offsets lose no digits.  The product runs
    in ``np.einsum``'s own loop, not BLAS (``@``, ``np.dot``): the first
    BLAS call raises a command's peak RSS by 1 to 2 MB.
    """
    Q, P = ladder_block(mu.width)
    blocks = np.zeros(Q * P)
    blocks[: mu.width] = mu.weights
    m = np.arange(1, count + 1)
    q_angles = np.hstack([_unit_angles(np.arange(0, Q * P, P)[:, None], m, M)
                          for M in periods])
    r_angles = np.vstack([_unit_angles(mu.offset % M + np.arange(P), m[:, None], M)
                          for M in periods])
    # one row per point, so the sums over r run along rows: pairwise
    inner = np.einsum("qp,qc->cp", blocks.reshape(Q, P),
                      np.hstack((np.cos(q_angles), np.sin(q_angles))))
    c, s = np.split(inner, 2)
    cos_r, sin_r = np.cos(r_angles), np.sin(r_angles)
    re = np.add.reduce(cos_r * c - sin_r * s, axis=1)
    im = np.add.reduce(sin_r * c + cos_r * s, axis=1)
    return (re + 1j * im).reshape(len(periods), count)


def grid_nodes(N: int) -> np.ndarray:
    """The N uniform transform grid points -1/2 + j/N, j = 0..N-1."""
    return -0.5 + np.arange(N) / N


def grid_has_node_in(N: int, puncture: float, delta: float) -> bool:
    """Whether a node t of ``grid_nodes(N)`` has puncture < |t| <= delta, for
    0 < puncture: the nodes ascend with j, so a bisection on each side finds
    the node nearest the puncture, evaluated as ``grid_nodes`` evaluates it."""
    def node(j):
        return -0.5 + j / N

    above = bisect.bisect_right(range(N), puncture, key=node)   # the first node above puncture
    below = bisect.bisect_left(range(N), -puncture, key=node)   # the number of nodes below -puncture
    return (above < N and node(above) <= delta) or (below > 0 and -node(below - 1) <= delta)


class SpectralProfile:
    """Sampled transform data on a uniform grid over [-1/2, 1/2).

    Attributes
    ----------
    grid : ndarray
        Punctured t values (|t| above the puncture radius), ascending.
    theta, d1, d2 : complex ndarrays
        theta, theta', theta'' at the grid points.
    d1_full : complex ndarray
        theta' at all N nodes of ``grid_nodes``, the puncture included.
    phi : ndarray
        |Re(d1) / t| at the grid points.
    """

    def __init__(self, measure: LatticeMeasure, grid_size: int = DEFAULT_GRID_SIZE,
                 puncture_radius: float = DEFAULT_PUNCTURE):
        grid_size = int(grid_size)
        if grid_size < MIN_GRID_SIZE:
            raise ValueError(f"grid_size must be at least {MIN_GRID_SIZE}")
        if not puncture_radius > 0:
            raise ValueError("puncture_radius must be positive")
        self.measure = measure
        self.grid_size = grid_size
        self.puncture_radius = float(puncture_radius)

        N = grid_size
        d1_full = grid_derivative(measure, N)
        ks = measure.indices()
        w = measure.weights
        sign = _node_signs(measure)

        t_full = grid_nodes(N)
        theta_full = _grid_series(w * sign, measure.offset, N)
        d2_full = _grid_series(-((TWO_PI * ks) ** 2) * w * sign, measure.offset, N)

        self.d1_full = d1_full

        keep = np.abs(t_full) > self.puncture_radius
        self.grid = t_full[keep]
        self.theta = theta_full[keep]
        self.d1 = d1_full[keep]
        self.d2 = d2_full[keep]
        self.phi = np.abs(self.d1.real / self.grid)
        for arr in (self.grid, self.theta, self.d1, self.d2, self.phi, d1_full):
            arr.setflags(write=False)

    def __repr__(self) -> str:
        return f"SpectralProfile(points={self.grid.size}, grid_size={self.grid_size})"


def grid_derivative(measure: LatticeMeasure, N: int) -> np.ndarray:
    """theta' at the N nodes of ``grid_nodes(N)``: one fold and one real FFT.

    ``SpectralProfile.d1_full`` is this array; a caller that needs theta'
    alone skips the profile's transforms of theta and theta''.
    """
    return 1j * _grid_series(TWO_PI * measure.indices() * measure.weights
                             * _node_signs(measure), measure.offset, N)


def _node_signs(measure: LatticeMeasure) -> np.ndarray:
    """(-1)^k over the measure's window, the factor exp(2 pi i k t) takes
    from the nodes' -1/2."""
    sign = np.ones(measure.width)
    sign[(measure.offset + 1) % 2::2] = -1.0   # the odd k
    return sign


def _grid_series(coeff: np.ndarray, first: int, N: int) -> np.ndarray:
    """sum_i coeff_i exp(2 pi i k j / N), k = first + i, for j = 0..N-1, coeff real.

    Folds coefficients modulo N (the exponential only depends on k mod N),
    evaluates the half spectrum with a real FFT, and mirrors the conjugate
    half analytically so the output is exactly Hermitian in j.
    """
    half = np.fft.rfft(fold(coeff, first, N))
    out = np.empty(N, dtype=complex)
    out[: N // 2 + 1] = np.conj(half)
    out[N // 2 + 1 :] = half[1 : (N + 1) // 2][::-1]
    return out


# --------------------------------------------------------------------------
# angular ratio
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularRatioReport:
    value: float                 # sup over guarded grid points
    unbounded: bool              # geometric growth under near-zero refinement
    refinement_sups: tuple       # sup per refinement level


def angular_ratio_sup(profile: SpectralProfile) -> AngularRatioReport:
    """Supremum of |theta - 1| / (1 - |theta|) with an unboundedness probe.

    The headline value scans grid points whose modulus is below
    1 - 1e-10.  The probe evaluates the ratio at m / (N 4^l), m = 1..64, on
    three windows next to the origin, each four times finer than the last
    (``transform_on_ladders``); the flag is set when the windowed supremum
    at least doubles at every refinement.
    """
    modulus = np.abs(profile.theta)
    valid = modulus < 1.0 - ANGULAR_MODULUS_GUARD
    if not valid.any():
        raise DiagnosticRefused(
            "transform modulus is 1 to within 1e-10 at every grid point; "
            "the measure is not strictly aperiodic"
        )
    ratios = np.abs(profile.theta[valid] - 1.0) / (1.0 - modulus[valid])
    value = float(ratios.max())

    # real weights: theta(-t) = conj theta(t), so positive t suffices
    sups = []
    periods = [profile.grid_size * 4**level for level in range(3)]
    for theta in transform_on_ladders(profile.measure, periods, 64):
        den = 1.0 - np.abs(theta)
        ok = den > REFINEMENT_DENOMINATOR_FLOOR
        sups.append(float((np.abs(theta[ok] - 1.0) / den[ok]).max()) if ok.any() else 0.0)
    unbounded = sups[0] > 0 and sups[1] >= 2.0 * sups[0] and sups[2] >= 2.0 * sups[1]
    return AngularRatioReport(value, unbounded, tuple(sups))


# --------------------------------------------------------------------------
# Gaussian decay rate
# --------------------------------------------------------------------------

def gaussian_decay_rate(profile: SpectralProfile) -> float:
    """Largest C with |theta(t)| <= exp(-C t^2) at every grid point.

    Positive for strictly aperiodic measures; a nonpositive value
    contradicts strict aperiodicity and raises.
    """
    modulus = np.abs(profile.theta)
    t2 = profile.grid**2
    with np.errstate(divide="ignore"):
        rates = np.where(modulus > 0.0, -np.log(np.where(modulus > 0, modulus, 1.0)) / t2, np.inf)
    c = float(rates.min())
    if not c > 0.0:
        worst = profile.grid[int(np.argmin(rates))]
        raise HypothesisFailure(
            f"no positive Gaussian decay rate: modulus reaches 1 near t={worst:.6g}"
        )
    return c


# --------------------------------------------------------------------------
# phi properties
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiPropertyReport:
    window: float
    even_max_violation: float    # max |phi(t) - phi(-t)| over the grid
    c1: float                    # sup |f''| / phi on the window
    c2: float                    # sup |theta''| / phi
    c3: float                    # sup |theta'/t| / phi
    tphi_derivative_ratio: float # sup |t phi'(t)| / phi(t) on the window
    tphi_window_maxima: tuple    # max |t phi| over 4 nested half windows
    tphi_monotone: bool
    notes: tuple


# half width of the window near the origin where phi's constants are scanned
PHI_PROPERTY_WINDOW = 0.125


def phi_property_report(profile: SpectralProfile) -> PhiPropertyReport:
    """Structural checks for phi(t) = |f'(t)/t| near the origin.

    Evenness is scanned over the whole grid; the derivative-domination
    constants and the |t phi'| <= phi check are scanned on
    |t| <= PHI_PROPERTY_WINDOW, where the majorant behavior is meaningful.
    The decomposition of f'' into a monotone part plus a bounded remainder
    is not identifiable from samples, so only these computable consequences
    are verified.
    """
    N = profile.grid_size
    t_full = grid_nodes(N)
    phi_full = np.full(N, np.nan)
    nz = t_full != 0.0
    phi_full[nz] = np.abs(profile.d1_full.real[nz] / t_full[nz])

    # evenness via the exact index pairing j <-> N - j
    j = np.arange(1, N)
    paired = np.abs(phi_full[j] - phi_full[N - j])
    paired = paired[np.isfinite(paired)]
    even_violation = float(paired.max()) if paired.size else 0.0

    mask = np.abs(profile.grid) <= PHI_PROPERTY_WINDOW
    if not mask.any():
        raise ValueError("window contains no grid points")
    t = profile.grid[mask]
    phi_w = profile.phi[mask]
    d1 = profile.d1[mask]
    d2 = profile.d2[mask]
    pos = phi_w > 0.0
    if not pos.any():
        raise DiagnosticRefused("phi vanishes on the whole window")
    c1 = float((np.abs(d2.real[pos]) / phi_w[pos]).max())
    c2 = float((np.abs(d2[pos]) / phi_w[pos]).max())
    c3 = float((np.abs(d1[pos] / t[pos]) / phi_w[pos]).max())

    # centered finite differences for phi' on the uniform full grid
    dphi = (phi_full[2:] - phi_full[:-2]) / (2.0 / N)
    tc = t_full[1:-1]
    phic = phi_full[1:-1]
    ok = (np.isfinite(dphi) & np.isfinite(phic) & (np.abs(tc) <= PHI_PROPERTY_WINDOW)
          & (phic > 0.0))
    ratio = float((np.abs(tc[ok] * dphi[ok]) / phic[ok]).max()) if ok.any() else 0.0

    maxima = []
    for i in range(4):
        wnd = PHI_PROPERTY_WINDOW / 2.0**i
        sel = np.abs(profile.grid) <= wnd
        maxima.append(float(np.abs(profile.grid[sel] * profile.phi[sel]).max()) if sel.any() else 0.0)
    monotone = all(maxima[i + 1] <= maxima[i] * (1.0 + 1e-12) for i in range(3))

    notes = (
        "second-derivative split into monotone plus bounded parts is not "
        "recoverable from samples; evenness, domination constants and the "
        "t*phi' bound are the computable surrogates",
    )
    return PhiPropertyReport(
        window=PHI_PROPERTY_WINDOW,
        even_max_violation=even_violation,
        c1=c1,
        c2=c2,
        c3=c3,
        tphi_derivative_ratio=ratio,
        tphi_window_maxima=tuple(maxima),
        tphi_monotone=monotone,
        notes=notes,
    )


# --------------------------------------------------------------------------
# component ratios
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentRatioReport:
    sup_first: float     # sup |g'(t)| / |f'(t)|
    sup_second: float    # sup |g''(t)| / |f''(t)|
    denominator_floor: float


COMPONENT_RATIO_FLOOR = 1e-12


def component_ratio_report(profile: SpectralProfile) -> ComponentRatioReport:
    """Empirical suprema of |g'/f'| and |g''/f''| where denominators exceed
    COMPONENT_RATIO_FLOOR.  Finite, stable values corroborate a bounded
    angular ratio."""
    f1 = profile.d1.real
    g1 = profile.d1.imag
    f2 = profile.d2.real
    g2 = profile.d2.imag
    m1 = np.abs(f1) > COMPONENT_RATIO_FLOOR
    m2 = np.abs(f2) > COMPONENT_RATIO_FLOOR
    sup1 = float((np.abs(g1[m1]) / np.abs(f1[m1])).max()) if m1.any() else 0.0
    sup2 = float((np.abs(g2[m2]) / np.abs(f2[m2])).max()) if m2.any() else 0.0
    return ComponentRatioReport(sup1, sup2, COMPONENT_RATIO_FLOOR)


# --------------------------------------------------------------------------
# modulus majorant
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MajorantFit:
    k_star: float
    delta: float
    worst_t: float
    side_condition_ok: bool


def majorant_fit(profile: SpectralProfile, delta: float) -> MajorantFit:
    """Largest k with |theta(t)| <= 1 - k t^2 phi(t) on the grid in [-delta, delta].

    Raises HypothesisFailure when no positive k exists.
    """
    mask = np.abs(profile.grid) <= delta
    if not mask.any():
        raise ValueError("delta window contains no grid points")
    t = profile.grid[mask]
    phi_w = profile.phi[mask]
    if np.any(phi_w <= 0.0):
        raise DiagnosticRefused("phi must be positive on the fit window")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = (1.0 - np.abs(profile.theta[mask])) / (t**2 * phi_w)
    i = int(np.argmin(ratios))
    k_star = float(ratios[i])
    if not k_star > 0.0:
        raise HypothesisFailure(
            f"majorant coefficient is not positive (min {k_star:.3e} at t={t[i]:.6g})"
        )
    envelope = k_star * t**2 * phi_w
    side_ok = bool(np.all(envelope >= -1e-12) and np.all(envelope <= 1.0 + 1e-12))
    return MajorantFit(k_star=k_star, delta=float(delta), worst_t=float(t[i]),
                       side_condition_ok=side_ok)


# --------------------------------------------------------------------------
# envelope integrals
# --------------------------------------------------------------------------

# Gauss-Legendre nodes per panel; the rule with half as many nodes on the
# same panels gives the error estimate
ENVELOPE_NODES = 8
ENVELOPE_REL_TOL = 1e-10
# refinement is refused beyond this many panels, which bounds the work and
# memory of a refinement that does not converge
ENVELOPE_MAX_PANELS = 2**18
# panels per block in which the nodes, phi and the envelope are formed: only the
# rules' inputs span all panels, which keeps them off the command's peak memory
ENVELOPE_BLOCK_PANELS = 1024


def _gauss_pair():
    """Nodes on [-1, 1] of both rules, and their weights as two columns.

    Built on call, so that importing this module does not load
    ``numpy.polynomial``."""
    x_hi, w_hi = np.polynomial.legendre.leggauss(ENVELOPE_NODES)
    x_lo, w_lo = np.polynomial.legendre.leggauss(ENVELOPE_NODES // 2)
    weights = np.zeros((x_hi.size + x_lo.size, 2))
    weights[: x_hi.size, 0] = w_hi
    weights[x_hi.size :, 1] = w_lo
    return np.concatenate((x_hi, x_lo)), weights


@dataclass(frozen=True)
class EnvelopeIntegrals:
    n_values: tuple
    j1: tuple
    j2: tuple          # entries are None for n < 2
    j1_max: float
    j2_max: float
    k: float
    delta: float
    quadrature_error: float  # largest relative gap between the two Gauss rules
    passes: int            # quadrature passes over the panels, the first included
    panels: int            # panels of the last pass


def envelope_integrals(grid, phi, k: float, delta: float, n_values) -> EnvelopeIntegrals:
    """The two envelope integrals certifying n-uniform kernel bounds.

    J1(n) = n * integral of (1 - k t^2 phi)^(n-1) |t| phi over (-delta, delta)
    J2(n) = n^2 * integral of (1 - k t^2 phi)^(n-2) |t|^3 phi^2

    ``phi`` is the piecewise-linear function through the points
    ``(grid, phi)``, constant beyond the ends (``np.interp``).  The panels
    are the segments between the grid nodes inside (-delta, delta) and the
    breakpoints -delta, 0, delta, so the integrands are smooth on each.
    Every panel gets an 8-point Gauss-Legendre sum for all n at once; the
    4-point sum on the same panels estimates its error.  Until the largest
    relative gap is at most 1e-10, the panels whose own part of it (the
    largest over all n and both integrals) exceeds 1e-10 / panels are
    halved; the parts sum to at least the gap, so each pass halves one or
    more.  DiagnosticRefused is raised when that would take more than
    ``ENVELOPE_MAX_PANELS`` panels.

    Requires 0 <= 1 - k t^2 phi(t) <= 1 at every quadrature node; the base
    is clamped to [0, 1] against round-off once that holds.
    """
    n_values = tuple(int(n) for n in n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("powers must be positive")
    if list(n_values) != sorted(n_values):
        raise ValueError("powers must be ascending")
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    grid = np.asarray(grid, dtype=float)
    phi = np.asarray(phi, dtype=float)
    inside = grid[(grid > -delta) & (grid < delta)]
    edges = np.unique(np.concatenate((inside, [-delta, 0.0, delta])))
    passes = 0
    while True:
        j1, j2, gap, panel_gap = _gauss_envelope(grid, phi, k, edges, n_values)
        passes += 1
        if gap <= ENVELOPE_REL_TOL:
            break
        split = panel_gap > ENVELOPE_REL_TOL / panel_gap.size
        if panel_gap.size + np.count_nonzero(split) > ENVELOPE_MAX_PANELS:
            raise DiagnosticRefused(
                f"envelope quadrature did not reach relative error {ENVELOPE_REL_TOL:g} "
                f"within {ENVELOPE_MAX_PANELS} panels (estimate {gap:.1e})"
            )
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = np.insert(edges, np.flatnonzero(split) + 1, mids[split])
    j2_finite = [v for v in j2 if v is not None]
    return EnvelopeIntegrals(
        n_values=n_values,
        j1=tuple(j1),
        j2=tuple(j2),
        j1_max=max(j1),
        j2_max=max(j2_finite) if j2_finite else 0.0,
        k=float(k),
        delta=float(delta),
        quadrature_error=gap,
        passes=passes,
        panels=panel_gap.size,
    )


def _power(base: np.ndarray, power: int) -> np.ndarray:
    """``base**power`` for a nonnegative float array, bit for bit.

    Below 2**(-1100 / power) the power is at most 2**-1100, which rounds to
    +0.0; those entries are left at zero instead of taking ``pow``'s slow
    underflow path.  Power 0 is all ones, ``0**0`` included.
    """
    if power == 0:
        return np.ones_like(base)
    out = np.zeros_like(base)
    return np.power(base, power, out=out, where=base > 2.0 ** (-1100.0 / power))


def _gauss_envelope(grid, phi, k, edges, n_values):
    """J1, J2, the largest relative rule gap on the panels between edges, and
    each panel's largest part of a relative gap over all n and both integrals."""
    nodes, weights = _gauss_pair()
    half = 0.5 * np.diff(edges)[:, None]
    base = np.empty((half.shape[0], nodes.size))
    g1, g2 = np.empty_like(base), np.empty_like(base)
    for lo in range(0, half.shape[0], ENVELOPE_BLOCK_PANELS):
        rows = slice(lo, lo + ENVELOPE_BLOCK_PANELS)
        h = half[rows]
        t = (edges[:-1][rows, None] + h) + h * nodes
        phi_t = np.interp(t, grid, phi)
        envelope = k * t * t * phi_t
        if np.any(envelope < -1e-12) or np.any(envelope > 1.0 + 1e-12):
            raise DiagnosticRefused(
                "side condition 0 <= 1 - k t^2 phi <= 1 fails on the interval"
            )
        np.clip(1.0 - envelope, 0.0, 1.0, out=base[rows])
        np.multiply(h * np.abs(t), phi_t, out=g1[rows])
        np.multiply(g1[rows] * t * t, phi_t, out=g2[rows])

    panel_gap = np.zeros(half.shape[0])

    def rule(g, power):
        """8-point value and its relative gap to the 4-point value; each
        panel's part of that gap raises its entry of panel_gap."""
        values = _power(base, power)
        values *= g
        sums = values @ weights
        value = float(sums[:, 0].sum())
        spread = np.abs(sums[:, 0] - sums[:, 1])
        if value > 0:
            np.maximum(panel_gap, spread / value, out=panel_gap)
            return value, float(spread.sum()) / value
        np.maximum(panel_gap, np.where(spread > 0, math.inf, 0.0), out=panel_gap)
        return value, math.inf if spread.any() else 0.0

    j1, j2, gap = [], [], 0.0
    for n in n_values:
        value, rel = rule(g1, n - 1)
        j1.append(n * value)
        gap = max(gap, rel)
        if n >= 2:
            value, rel = rule(g2, n - 2)
            j2.append(n * n * value)
            gap = max(gap, rel)
        else:
            j2.append(None)
    return j1, j2, gap, panel_gap


# --------------------------------------------------------------------------
# transform-side aperiodicity check
# --------------------------------------------------------------------------

APERIODICITY_T_MIN = 0.01
APERIODICITY_MARGIN = 1e-6
# odd, so that 0 is not a grid point, and 3^8 * 5, so that numpy's rfft takes
# its mixed-radix path, not the Bluestein one of a size with a large prime factor
APERIODICITY_GRID_POINTS = 32805
APERIODICITY_MAX_DENOMINATOR = 128


def _median_spread(weights: np.ndarray, mass: float) -> float:
    """sum |i - c| w_i over i = 0 .. weights.size - 1 at its least, c the median of ``mass``."""
    median = np.searchsorted(np.cumsum(weights), mass / 2)
    return float(np.add.reduce(np.abs(np.arange(weights.size) - median) * weights))


def transform_aperiodicity_check(mu: LatticeMeasure) -> bool:
    """Grid surrogate for the transform criterion of strict aperiodicity.

    True when max |theta(t)| over |t| in [APERIODICITY_T_MIN, 1/2] stays
    below 1 - APERIODICITY_MARGIN.  The scan combines a uniform grid
    (evaluated by the folded FFT, so wide supports cost nothing extra) with
    the rational points p/q for q up to APERIODICITY_MAX_DENOMINATOR, where
    a periodic support pins the modulus at exactly 1; |theta(p/q)| is the
    modulus of entry p of the real FFT of the weights folded to length q.
    The rational points are skipped when the grid alone proves they all stay
    below the threshold, so the verdict is the one the full scan gives.
    """
    N = APERIODICITY_GRID_POINTS
    ks = mu.indices()
    sign = np.where(ks % 2 == 0, 1.0, -1.0)
    modulus_full = np.abs(_grid_series(mu.weights * sign, mu.offset, N))
    t_abs = np.abs(grid_nodes(N))
    # every p/q with |p/q| >= T_MIN lies within 1/(2N) of a node with |t| >= T_MIN - 1/N,
    # and |theta'| <= 2 pi sum |k - c| w_k for every c (a translation keeps |theta|); so
    # the largest modulus there plus that Lipschitz step, c the median, plus 1e-12 of
    # round-off, bounds every |theta(p/q)| the scan below would compute
    near = float(modulus_full[t_abs >= APERIODICITY_T_MIN - 1.0 / N].max())
    step = math.pi * _median_spread(mu.weights, mu.stored_mass()) * (1.0 + 1e-9) / N
    if near + step + 1e-12 < 1.0 - APERIODICITY_MARGIN:
        return True
    modulus = float(modulus_full[t_abs >= APERIODICITY_T_MIN].max())
    for q in range(2, min(APERIODICITY_MAX_DENOMINATOR, mu.width) + 1):
        ps = np.arange(math.ceil(q * APERIODICITY_T_MIN), q // 2 + 1)
        # |theta(-p/q)| = |theta(p/q)|, so the half spectrum needs no mirror
        folded = np.abs(np.fft.rfft(fold(mu.weights, mu.offset, q)))
        modulus = max(modulus, float(folded[ps].max()))
    return bool(modulus < 1.0 - APERIODICITY_MARGIN)

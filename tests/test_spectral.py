"""Transform diagnostics: values against termwise and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpow import (
    DiagnosticRefused,
    HypothesisFailure,
    LatticeMeasure,
    SpectralProfile,
    angular_ratio_sup,
    atoms_measure,
    component_ratio_report,
    derivative_at,
    envelope_integrals,
    gaussian_decay_rate,
    lazy_walk,
    log_squared_measure,
    majorant_fit,
    mixture,
    phi_property_report,
    power_law,
    transform_aperiodicity_check,
    transform_at,
)
from convpow import spectral

GRID = 2**12 + 1  # fast grid for unit tests; default size is exercised too


@pytest.fixture(scope="module")
def lazy_profile():
    return SpectralProfile(lazy_walk(), GRID)


@pytest.fixture(scope="module")
def power3_profile():
    return SpectralProfile(power_law(3.0, 10**4), GRID)


# -- pointwise transform -----------------------------------------------------

def test_transform_at_zero_is_one():
    for mu in (lazy_walk(), power_law(2.5, 100), atoms_measure({0: 0.5, 1: 0.5})):
        assert transform_at(mu, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_transform_two_atoms_quarter():
    assert abs(transform_at(atoms_measure({-1: 0.5, 1: 0.5}), 0.25)) <= 1e-15


def test_transform_lazy_closed_form():
    # theta(t) = (1 + cos(2 pi t)) / 2 = cos^2(pi t)
    val = transform_at(lazy_walk(), 0.125)
    assert val.real == pytest.approx(math.cos(math.pi / 8.0) ** 2, abs=1e-15)
    assert abs(val.imag) <= 1e-16


def test_derivative_zero_mean():
    for mu in (lazy_walk(), power_law(3.0, 100)):
        assert abs(derivative_at(mu, 0.0, 1)) <= 1e-12


def test_second_derivative_two_atoms():
    val = derivative_at(atoms_measure({-1: 0.5, 1: 0.5}), 0.0, 2)
    assert val.real == pytest.approx(-4.0 * math.pi**2, rel=1e-14)


def test_derivative_point_mass():
    val = derivative_at(atoms_measure({1: 1.0}), 0.0, 1)
    assert val == pytest.approx(2j * math.pi, abs=1e-15)


def test_derivative_order_validated():
    with pytest.raises(ValueError):
        derivative_at(lazy_walk(), 0.1, 3)


# -- profile construction ----------------------------------------------------

def test_grid_series_matches_direct_dft():
    from convpow.spectral import _grid_series

    rng = np.random.default_rng(5)
    for N in (7, 8, 33, 101):
        ks = rng.choice(np.arange(-50, 51), size=12, replace=False)
        coeff = rng.uniform(-1, 1, 12)
        window = np.zeros(101)          # the 12 coefficients in a zero window over -50..50
        window[ks + 50] = coeff
        got = _grid_series(window, -50, N)
        oracle = np.array(
            [np.sum(coeff * np.exp(2j * np.pi * ks * j / N)) for j in range(N)]
        )
        assert np.abs(got - oracle).max() < 1e-12


def test_profile_matches_termwise_evaluation(power3_profile):
    prof = power3_profile
    mu = prof.measure
    idx = np.linspace(5, prof.grid.size - 5, 9).astype(int)
    for i in idx:
        t = prof.grid[i]
        assert abs(prof.theta[i] - transform_at(mu, t)) <= 1e-10
        assert abs(prof.d1[i] - derivative_at(mu, t, 1)) <= 1e-8
        assert abs(prof.d2[i] - derivative_at(mu, t, 2)) <= 1e-6


def test_profile_modulus_bounded(lazy_profile, power3_profile):
    for prof in (lazy_profile, power3_profile):
        assert np.abs(prof.theta).max() <= 1.0 + 1e-12


def test_profile_conjugate_symmetry(power3_profile):
    prof = power3_profile
    t = prof.grid
    # pair each positive t with its mirror
    pos = t > 0
    mirrored = {round(-x, 15): i for i, x in enumerate(t)}
    checked = 0
    for i in np.flatnonzero(pos)[:: max(1, pos.sum() // 200)]:
        j = mirrored.get(round(t[i], 15))
        if j is None:
            continue
        assert abs(prof.theta[j] - np.conj(prof.theta[i])) <= 1e-12
        checked += 1
    assert checked > 50


def test_profile_symmetric_measure_real(power3_profile):
    assert np.abs(power3_profile.theta.imag).max() <= 1e-12


def test_profile_grid_excludes_origin(lazy_profile):
    assert np.abs(lazy_profile.grid).min() > 0.0


def test_profile_validates_arguments():
    with pytest.raises(ValueError):
        SpectralProfile(lazy_walk(), 5)
    with pytest.raises(ValueError):
        SpectralProfile(lazy_walk(), GRID, puncture_radius=0.0)


# -- angular ratio -----------------------------------------------------------

def test_angular_ratio_lazy_is_one(lazy_profile):
    rep = angular_ratio_sup(lazy_profile)
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert not rep.unbounded


def test_angular_ratio_uniform_three_atoms():
    prof = SpectralProfile(atoms_measure({-1: 1.0, 0: 1.0, 1: 1.0}), GRID)
    rep = angular_ratio_sup(prof)
    assert rep.value == pytest.approx(2.0, abs=1e-6)
    assert not rep.unbounded


def test_angular_ratio_unbounded_for_shifted_coin():
    prof = SpectralProfile(atoms_measure({0: 0.5, 1: 0.5}), GRID)
    rep = angular_ratio_sup(prof)
    assert rep.unbounded
    sups = rep.refinement_sups
    assert sups[1] >= 2.0 * sups[0] and sups[2] >= 2.0 * sups[1]


def test_angular_ratio_refused_for_point_mass():
    prof = SpectralProfile(atoms_measure({0: 1.0}), GRID)
    with pytest.raises(DiagnosticRefused):
        angular_ratio_sup(prof)


def test_angular_ratio_reflection_invariant():
    mu = atoms_measure({-1: 0.2, 0: 0.3, 2: 0.5})
    a = angular_ratio_sup(SpectralProfile(mu, GRID)).value
    b = angular_ratio_sup(SpectralProfile(mu.reflected(), GRID)).value
    assert abs(a - b) <= 1e-10 * max(1.0, a)


def ladder_oracle(mu, periods, count):
    """theta(m / M), m = 1..count, by termwise fsums; each index is reduced
    modulo M as a Python int, so the phase k m mod M is exact at any offset."""
    out = np.empty((len(periods), count), dtype=complex)
    for i, M in enumerate(periods):
        residues = np.array([k % M for k in range(mu.offset, mu.offset + mu.width)])
        for m in range(1, count + 1):
            angle = 2.0 * math.pi * (residues * m % M / M)
            out[i, m - 1] = complex(math.fsum(mu.weights * np.cos(angle)),
                                    math.fsum(mu.weights * np.sin(angle)))
    return out


SKEWED = mixture(0.5, power_law(2.5, 10**4), atoms_measure({-1: 0.5, 2: 0.5}))


def shifted(mu, shift):
    return LatticeMeasure(mu.offset + shift, mu.weights, mu.tail_mass)


def bench_periods(grid_size):
    """The angular probe's periods: N, 4N and 16N."""
    return [grid_size * 4**level for level in range(3)]


@pytest.mark.parametrize("make_mu, grid_size", [
    (lazy_walk, 65537),
    (lambda: power_law(2.5, 10**4), 65537),
    (lambda: SKEWED, 65537),
    (lambda: shifted(SKEWED, 10**9 + 7), 65537),
    (lambda: shifted(SKEWED, 10**17), 65537),
    (lambda: atoms_measure({3: 1.0}), 65537),
    (lambda: SKEWED, 17),   # P * 64 is far beyond the period 17
], ids=["lazy", "power-law-1e4", "skewed", "skewed-at-1e9", "skewed-at-1e17", "width-1",
        "grid-17"])
def test_ladders_match_the_termwise_oracle(make_mu, grid_size):
    mu = make_mu()
    periods = bench_periods(grid_size)
    got = spectral.transform_on_ladders(mu, periods, 64)
    assert got.shape == (3, 64)
    assert np.abs(got - ladder_oracle(mu, periods, 64)).max() <= 1e-14


README_MIXTURE = mixture(0.5, power_law(3.0, 10**5), lazy_walk())


@pytest.mark.parametrize("make_mu", [
    lazy_walk,
    lambda: power_law(2.5, 10**5),
    lambda: README_MIXTURE,
    lambda: shifted(README_MIXTURE, 10**9 + 7),
], ids=["lazy", "power-law-2.5", "readme-mixture", "mixture-at-1e9"])
@pytest.mark.parametrize("N", [2**14 + 1, 2**12])
def test_grid_derivative_is_the_profile_d1_bit_for_bit(make_mu, N):
    mu = make_mu()
    got = spectral.grid_derivative(mu, N)
    # the profile's own formula before theta' had a function of its own
    ks = mu.indices()
    sign = np.where(ks % 2 == 0, 1.0, -1.0)
    oracle = 1j * spectral._grid_series(spectral.TWO_PI * ks * mu.weights * sign, mu.offset, N)
    assert np.array_equal(got, oracle)
    assert np.array_equal(SpectralProfile(mu, N).d1_full, got)


def test_ladder_block_is_a_power_of_two_near_the_square_root():
    assert spectral.ladder_block(1) == (1, 1)
    assert spectral.ladder_block(3) == (2, 2)
    assert spectral.ladder_block(200_001) == (391, 512)
    Q, P = spectral.ladder_block(SKEWED.width)
    assert SKEWED.width % P != 0 and Q == -(-SKEWED.width // P)


def test_ladders_with_a_block_wider_than_the_law(monkeypatch):
    mu = shifted(atoms_measure({0: 0.2, 1: 0.1, 4: 0.7}), 10**12)
    monkeypatch.setattr(spectral, "ladder_block", lambda width: (1, 64))
    periods = bench_periods(4097)
    got = spectral.transform_on_ladders(mu, periods, 64)
    assert np.abs(got - ladder_oracle(mu, periods, 64)).max() <= 1e-14


def test_skewed_refinement_sups_match_the_oracle():
    # theta is not real, so the probe's ratios are not all about 1
    profile = SpectralProfile(SKEWED, GRID)
    theta = ladder_oracle(SKEWED, bench_periods(GRID), 64)
    den = 1.0 - np.abs(theta)
    assert np.all(den > spectral.REFINEMENT_DENOMINATOR_FLOOR)
    sups = (np.abs(theta - 1.0) / den).max(axis=1)
    assert sups.min() > 2.0
    # an error e in theta moves a ratio by about 2 e / (1 - |theta|) of itself
    got = np.array(angular_ratio_sup(profile).refinement_sups)
    assert np.all(np.abs(got - sups) <= sups * 2e-14 / den.min(axis=1))


# -- Gaussian decay rate -----------------------------------------------------

def test_decay_rate_lazy_is_pi_squared(lazy_profile):
    assert gaussian_decay_rate(lazy_profile) == pytest.approx(math.pi**2, abs=1e-3)


def test_decay_rate_certifies_envelope(lazy_profile):
    c = gaussian_decay_rate(lazy_profile)
    t = lazy_profile.grid
    assert np.all(np.abs(lazy_profile.theta) <= np.exp(-c * t * t) + 1e-15)


def test_decay_rate_mixture_against_dense_oracle():
    mu = atoms_measure({0: 0.75, 1: 0.25})
    prof = SpectralProfile(mu, GRID)
    c = gaussian_decay_rate(prof)
    assert c > 0
    # dense-grid oracle from the closed form |theta|^2 = (10 + 6 cos)/16
    ts = np.linspace(-0.5, 0.4999999, 4 * GRID)
    ts = ts[np.abs(ts) > 1e-9]
    mod = np.sqrt((10.0 + 6.0 * np.cos(2.0 * np.pi * ts)) / 16.0)
    oracle = float(np.min(-np.log(mod) / ts**2))
    assert oracle <= c
    assert c == pytest.approx(oracle, rel=1e-3)


def test_decay_rate_nonincreasing_under_grid_refinement():
    mu = atoms_measure({0: 0.75, 1: 0.25})
    base = 2**11
    coarse = gaussian_decay_rate(SpectralProfile(mu, base))
    fine = gaussian_decay_rate(SpectralProfile(mu, 2 * base))  # superset grid
    assert fine <= coarse + 1e-15


def test_decay_rate_raises_for_periodic_support():
    prof = SpectralProfile(atoms_measure({-1: 0.5, 1: 0.5}), GRID)
    with pytest.raises(HypothesisFailure):
        gaussian_decay_rate(prof)


# -- phi properties ----------------------------------------------------------

def test_phi_properties_lazy(lazy_profile):
    rep = phi_property_report(lazy_profile)
    assert rep.even_max_violation <= 1e-10
    assert rep.tphi_derivative_ratio <= 1.0 + 1e-6
    assert rep.tphi_monotone
    assert rep.c3 == pytest.approx(1.0, abs=1e-9)  # symmetric: |theta'/t| == phi
    assert rep.c1 <= 2.0


def test_phi_properties_power3(power3_profile):
    rep = phi_property_report(power3_profile)
    assert rep.even_max_violation <= 1e-10
    # the domination constant must leave room inside (1, 2): sup < 2, and
    # phi itself grows, so the sup sits below but near 1 at this resolution
    assert 0.5 < rep.c1 < 2.0
    assert rep.c2 < 2.0 * rep.c1
    assert rep.tphi_derivative_ratio <= 1.0 + 1e-6
    assert rep.tphi_monotone


# -- component ratios --------------------------------------------------------

def test_component_ratios_vanish_for_symmetric(power3_profile):
    rep = component_ratio_report(power3_profile)
    assert rep.sup_first <= 1e-8
    assert rep.sup_second <= 1e-8


def test_component_ratios_vanish_for_symmetric_mixture():
    mu = mixture(0.4, power_law(3.0, 500), lazy_walk())
    rep = component_ratio_report(SpectralProfile(mu, GRID))
    assert rep.sup_first <= 1e-8
    assert rep.sup_second <= 1e-8


def test_component_ratio_diverges_for_shifted_coin():
    mu = atoms_measure({0: 0.5, 1: 0.5})
    coarse = component_ratio_report(SpectralProfile(mu, 2**10 + 1)).sup_first
    fine = component_ratio_report(SpectralProfile(mu, 2**13 + 1)).sup_first
    assert fine >= 2.0 * coarse  # grows with resolution near 0


# -- majorant ----------------------------------------------------------------

def test_majorant_power3_positive(power3_profile):
    fit = majorant_fit(power3_profile, 0.25)
    assert fit.k_star > 0.0
    assert fit.side_condition_ok


def test_majorant_fails_for_periodic_support():
    # modulus pinned at 1 at |t| = 1/2; the window must reach it
    prof = SpectralProfile(atoms_measure({-2: 0.25, 0: 0.5, 2: 0.25}), GRID)
    with pytest.raises((HypothesisFailure, DiagnosticRefused)):
        majorant_fit(prof, 0.5)


# -- envelope integrals ------------------------------------------------------

# phi == 1 as the piecewise-linear function through two nodes
FLAT_GRID = np.array([-0.5, 0.5])
FLAT_PHI = np.ones(2)


def test_envelope_closed_form():
    env = envelope_integrals(FLAT_GRID, FLAT_PHI, 1.0, 0.5, [1, 4, 16, 256])
    assert env.j1[1] == pytest.approx(1.0 - 0.75**4, abs=1e-8)
    for v, n in zip(env.j1, env.n_values):
        assert v == pytest.approx(1.0 - 0.75**n, abs=1e-8)
        assert v <= 1.0 + 1e-12
    # J2(4) closed form: 16 * (int_0^{1/4} (1-u)^2 u du) = 67/192
    assert env.j2[1] == pytest.approx(67.0 / 192.0, abs=1e-8)


def test_envelope_power_closed_form():
    # J1(n) = n * int of (1 - t^2)^(n-1) |t| over (-1/2, 1/2) = 1 - (3/4)^n
    env = envelope_integrals(FLAT_GRID, FLAT_PHI, 1.0, 0.5, [1, 4, 20, 500, 10000])
    for v, n in zip(env.j1, env.n_values):
        assert v == pytest.approx(1.0 - 0.75**n, abs=1e-9)
        assert v <= 1.0 + 1e-12


def test_envelope_sharp_peak_closed_form():
    # k delta^2 = 1: J1(n) = 1 - (1 - k delta^2)^n = 1 and J2(n) = n / (n - 1),
    # with the mass within about 1/sqrt(n) of the origin
    env = envelope_integrals(np.array([-1.0, 1.0]), np.ones(2), 1.0, 1.0, [10**4, 10**6])
    for j1, j2, n in zip(env.j1, env.j2, env.n_values):
        assert j1 == pytest.approx(1.0, rel=1e-9)
        assert j2 == pytest.approx(n / (n - 1.0), rel=1e-9)
    assert env.quadrature_error <= 1e-10


def test_envelope_n1_matches_trapezoid_oracle():
    # phi sampled densely enough that its piecewise-linear error is below rel
    grid = np.linspace(-0.5, 0.5, 2**16 + 1)
    phi = lambda t: 1.0 + np.cos(3.0 * np.asarray(t, dtype=float)) ** 2
    env = envelope_integrals(grid, phi(grid), 0.5, 0.4, [1])
    ts = np.linspace(-0.4, 0.4, 1_000_001)
    oracle = np.trapezoid(np.abs(ts) * phi(ts), ts)
    assert env.j1[0] == pytest.approx(float(oracle), rel=1e-6)
    assert env.j2[0] is None


def test_envelope_kinked_integrand_matches_trapezoid_oracle():
    # |t| phi has its kink at the breakpoint 0 and phi oscillates
    grid = np.linspace(-0.5, 0.5, 2**16 + 1)
    phi = lambda t: 1.0 + 0.5 * np.cos(7.0 * np.asarray(t, dtype=float))
    env = envelope_integrals(grid, phi(grid), 0.5, 0.4, [1])
    ts = np.linspace(-0.4, 0.4, 2_000_001)
    oracle = np.trapezoid(np.abs(ts) * phi(ts), ts)
    assert env.j1[0] == pytest.approx(float(oracle), rel=1e-7)


def test_envelope_side_condition_refused():
    with pytest.raises(DiagnosticRefused):
        envelope_integrals(FLAT_GRID, FLAT_PHI, 100.0, 0.5, [4])


def test_envelope_bounded_for_power3(power3_profile):
    fit = majorant_fit(power3_profile, 0.25)
    env = envelope_integrals(power3_profile.grid, power3_profile.phi, fit.k_star, 0.25,
                             [10, 100, 1000, 10000])
    ref1 = env.j1[1]
    ref2 = env.j2[1]
    assert env.j1_max <= 2.0 * ref1
    assert env.j2_max <= 2.0 * ref2


def test_envelope_blocks_change_no_float(power3_profile, monkeypatch):
    """The panels formed in blocks of any size give the integrals of one block."""
    fit = majorant_fit(power3_profile, 0.25)
    args = (power3_profile.grid, power3_profile.phi, fit.k_star, 0.25, [10, 100, 1000, 10000])
    monkeypatch.setattr(spectral, "ENVELOPE_BLOCK_PANELS", 2**30)
    whole = envelope_integrals(*args)
    for block in (1, 7, 1000):
        monkeypatch.setattr(spectral, "ENVELOPE_BLOCK_PANELS", block)
        assert envelope_integrals(*args) == whole


def test_envelope_bounded_for_mixture():
    mu = mixture(0.5, power_law(3.0, 10**4), lazy_walk())
    prof = SpectralProfile(mu, GRID)
    fit = majorant_fit(prof, 0.25)
    env = envelope_integrals(prof.grid, prof.phi, fit.k_star, 0.25,
                             [10, 100, 1000, 10000])
    assert env.j1_max <= 2.0 * env.j1[1]
    assert env.j2_max <= 2.0 * env.j2[1]


def _simpson_envelope(grid, phi, k, delta, n, subintervals=64):
    """J1(n), J2(n) by composite Simpson on each segment between the grid
    nodes inside (-delta, delta) and the breakpoints -delta, 0, delta,
    256 segments at a time so that fine rules stay small in memory."""
    block = 256
    edges = np.unique(np.concatenate((grid[np.abs(grid) < delta], [-delta, 0.0, delta])))
    simpson = np.ones(2 * subintervals + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    j1 = j2 = 0.0
    for lo in range(0, edges.size - 1, block):
        panel_edges = edges[lo : lo + block + 1]
        width = np.diff(panel_edges)[:, None]
        t = panel_edges[:-1, None] + width * np.linspace(0.0, 1.0, 2 * subintervals + 1)
        weights = simpson * width / (6.0 * subintervals)
        phi_t = np.interp(t, grid, phi)
        base = np.clip(1.0 - k * t**2 * phi_t, 0.0, 1.0)
        j1 += n * np.sum(weights * base ** (n - 1) * np.abs(t) * phi_t)
        j2 += n * n * np.sum(weights * base ** max(n - 2, 0) * np.abs(t) ** 3 * phi_t**2)
    return j1, j2


@pytest.mark.parametrize("make_mu", [
    lambda: power_law(2.5, 10**4),
    lambda: mixture(0.5, power_law(3.0, 10**5), lazy_walk()),
], ids=["power2.5", "readme-mixture"])
def test_envelope_matches_per_panel_simpson_oracle(make_mu):
    prof = SpectralProfile(make_mu(), GRID)
    fit = majorant_fit(prof, 0.25)
    n_values = [1, 10, 100, 1000, 10000]
    env = envelope_integrals(prof.grid, prof.phi, fit.k_star, 0.25, n_values)
    assert env.quadrature_error <= 1e-10
    for j1, j2, n in zip(env.j1, env.j2, n_values):
        oracle1, oracle2 = _simpson_envelope(prof.grid, prof.phi, fit.k_star, 0.25, n)
        assert j1 == pytest.approx(oracle1, rel=1e-9)
        if n >= 2:
            assert j2 == pytest.approx(oracle2, rel=1e-9)


def test_envelope_refines_only_the_panels_that_need_it():
    # halving every panel reaches the panel cap with estimate 2.1e-08 here,
    # while only a few hundred of the 8194 panels need halving
    prof = SpectralProfile(log_squared_measure(10**4), 16385)
    fit = majorant_fit(prof, 0.25)
    n_values = [1, 10, 100, 1000, 10000]
    env = envelope_integrals(prof.grid, prof.phi, fit.k_star, 0.25, n_values)
    assert env.quadrature_error <= 1e-10
    for j1, j2, n in zip(env.j1, env.j2, n_values):
        oracle1, oracle2 = _simpson_envelope(prof.grid, prof.phi, fit.k_star, 0.25, n,
                                             subintervals=512)
        assert j1 == pytest.approx(oracle1, rel=1e-9)
        if n >= 2:
            assert j2 == pytest.approx(oracle2, rel=1e-9)


POWERS = (0, 1, 2, 3, 9, 99, 999, 9999, 10**5)


def nudged(x: float, ulps: int) -> float:
    """Nonnegative x moved by ``ulps`` units in the last place, not below 0."""
    bits = max(int(np.array([x]).view(np.int64)[0]) + ulps, 0)
    return float(np.array([bits]).view(np.float64)[0])


@st.composite
def bases_and_power(draw):
    """A power and bases in [0, 1]: 0, 1, uniform draws, bases whose power is
    subnormal, and bases within a few ulps of the underflow floor."""
    power = draw(st.sampled_from(POWERS))
    kinds = [st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)]
    if power > 0:
        floor = 2.0 ** (-1100.0 / power)
        kinds += [
            st.floats(2.0 ** (-1074.0 / power), 2.0 ** (-1022.0 / power)),
            st.integers(-3, 3).map(lambda ulps: nudged(floor, ulps)),
        ]
    bases = draw(st.lists(st.one_of(kinds), min_size=1, max_size=64))
    return np.array(bases), power


@settings(max_examples=200, deadline=None)
@given(bases_and_power())
def test_masked_power_is_bitwise_pow(case):
    base, power = case
    got = spectral._power(base, power)
    assert np.array_equal(got.view(np.uint64), (base**power).view(np.uint64))


@pytest.mark.parametrize("make_mu", [lazy_walk, lambda: power_law(2.5, 10**4)],
                         ids=["lazy", "power2.5"])
def test_envelope_with_masked_power_equals_plain_power(make_mu, monkeypatch):
    prof = SpectralProfile(make_mu(), GRID)
    fit = majorant_fit(prof, 0.25)
    args = (prof.grid, prof.phi, fit.k_star, 0.25, [1, 2, 10, 100, 1000, 10000])
    env = envelope_integrals(*args)
    monkeypatch.setattr(spectral, "_power", lambda base, power: base**power)
    assert repr(env) == repr(envelope_integrals(*args))


def test_envelope_counts_passes_and_panels():
    # the 2048 nodes inside (-1/4, 1/4) of the 4097-point grid, with -1/4, 0
    # and 1/4, bound 2050 panels, and one pass meets the tolerance
    prof = SpectralProfile(lazy_walk(), GRID)
    env = envelope_integrals(prof.grid, prof.phi, majorant_fit(prof, 0.25).k_star, 0.25, [10])
    assert (env.passes, env.panels) == (1, 2050)
    # a peak of width about 1/sqrt(n) at the origin: refinement adds panels
    env = envelope_integrals(FLAT_GRID, FLAT_PHI, 1.0, 0.5, [10**4])
    assert env.passes > 1 and env.panels > 2


# -- transform-side aperiodicity check ----------------------------------------

def test_aperiodicity_grid_is_odd_and_five_smooth():
    # odd keeps 0 off the grid and 1/(2N) the farthest any p/q is from a node;
    # no prime factor above 7 keeps numpy's rfft off its Bluestein path
    N = spectral.APERIODICITY_GRID_POINTS
    assert N % 2 == 1 and N >= 32769
    for prime in (3, 5, 7):
        while N % prime == 0:
            N //= prime
    assert N == 1


@pytest.fixture
def fold_calls(monkeypatch):
    """The modulus of every call of measure.fold made through the spectral module."""
    calls = []
    fold = spectral.fold
    monkeypatch.setattr(spectral, "fold",
                        lambda values, first, modulus: calls.append(modulus)
                        or fold(values, first, modulus))
    return calls


def uniform_on_multiples_of_3():
    ks = np.arange(-30000, 30001)
    weights = np.where(ks % 3 == 0, 1.0, 0.0)
    return LatticeMeasure(-30000, weights / weights.sum())


GAPPED = atoms_measure({-2000: 0.25, 0: 0.5, 2000: 0.25})


@pytest.mark.parametrize("make_mu", [
    lazy_walk,
    lambda: power_law(2.5, 10**5),
    lambda: mixture(0.5, power_law(3.0, 3000), lazy_walk()),
    lambda: mixture(0.5, power_law(3.0, 1000), lazy_walk()),
], ids=["lazy", "bench-power-law", "bench-mixture-3000", "bench-mixture-1000"])
def test_aperiodicity_grid_certificate_skips_the_rational_scan(make_mu, fold_calls):
    assert transform_aperiodicity_check(make_mu()) is True
    assert fold_calls == [spectral.APERIODICITY_GRID_POINTS]


@pytest.mark.parametrize("shift", [10**4, 10**6, 10**17])
def test_aperiodicity_certificate_holds_for_translated_laws(shift, fold_calls):
    # the Lipschitz step is taken about the median: a translation keeps it
    mu = power_law(2.5, 10**5)
    assert transform_aperiodicity_check(LatticeMeasure(mu.offset + shift, mu.weights,
                                                       mu.tail_mass)) is True
    assert fold_calls == [spectral.APERIODICITY_GRID_POINTS]


@pytest.mark.parametrize("make_mu", [lambda: GAPPED, uniform_on_multiples_of_3],
                         ids=["atoms-2000-apart", "multiples-of-3"])
def test_aperiodicity_scan_runs_when_the_grid_cannot_certify(make_mu, fold_calls):
    assert transform_aperiodicity_check(make_mu()) is False
    assert fold_calls == [spectral.APERIODICITY_GRID_POINTS,
                          *range(2, spectral.APERIODICITY_MAX_DENOMINATOR + 1)]


def test_multiples_of_3_hide_between_grid_nodes():
    # the grid alone reads |theta| <= 0.091 away from the origin; only the
    # rational point 1/3, which the Lipschitz step keeps in reach, shows 1
    mu = uniform_on_multiples_of_3()
    N = spectral.APERIODICITY_GRID_POINTS
    t = spectral.grid_nodes(N)
    sign = np.where(mu.indices() % 2 == 0, 1.0, -1.0)
    modulus = np.abs(spectral._grid_series(mu.weights * sign, mu.offset, N))
    assert modulus[np.abs(t) >= spectral.APERIODICITY_T_MIN - 1.0 / N].max() < 0.1
    assert abs(transform_at(mu, 1.0 / 3.0)) == pytest.approx(1.0, abs=1e-12)


def full_aperiodicity_scan(mu):
    """The transform criterion by termwise sums: every grid node with
    |t| >= T_MIN and every p/q, q <= 128, with p/q in [T_MIN, 1/2].  The sums
    run over the indices relative to the offset, as a translation keeps
    |theta| and far offsets are not exact as floats."""
    N = spectral.APERIODICITY_GRID_POINTS
    t = spectral.grid_nodes(N)
    points = [t[np.abs(t) >= spectral.APERIODICITY_T_MIN]]
    for q in range(2, spectral.APERIODICITY_MAX_DENOMINATOR + 1):
        p = np.arange(math.ceil(q * spectral.APERIODICITY_T_MIN), q // 2 + 1)
        points.append(p / q)
    t = np.concatenate(points)
    theta = np.exp(2j * np.pi * np.outer(t, np.arange(mu.width))) @ mu.weights
    return bool(np.abs(theta).max() < 1.0 - spectral.APERIODICITY_MARGIN)


@st.composite
def small_laws(draw):
    """Up to 6 atoms on an arithmetic progression of step 1, 2 or 3, some of
    them off by one (aperiodic again), near the origin or far from it."""
    offset = draw(st.one_of(st.integers(-20, 20), st.integers(-5000, 5000),
                            st.integers(-10**17, 10**17)))
    step = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(1, 6))
    positions = [step * i + draw(st.sampled_from([0, 0, 0, 1])) for i in range(count)]
    weights = np.zeros(max(positions) + 1)
    for position in positions:
        weights[position] += draw(st.floats(0.05, 1.0))
    return LatticeMeasure(offset, weights / weights.sum())


@settings(max_examples=60, deadline=None)
@given(small_laws())
def test_aperiodicity_verdict_equals_the_full_scan(mu):
    assert transform_aperiodicity_check(mu) == full_aperiodicity_scan(mu)


@settings(max_examples=60, deadline=None)
@given(small_laws())
def test_median_lipschitz_step_is_at_most_the_origin_one(mu):
    spread = spectral._median_spread(mu.weights, mu.stored_mass())
    assert spread <= math.fsum(np.abs(mu.indices()) * mu.weights) * (1.0 + 1e-12)


def test_transform_check_agrees_with_gcd_on_zoo():
    cases = [
        lazy_walk(),
        power_law(3.0, 2000),
        power_law(2.5, 2000),
        atoms_measure({0: 0.5, 1: 0.5}),
        atoms_measure({-1: 0.5, 1: 0.5}),
        atoms_measure({-2: 0.25, 0: 0.5, 2: 0.25}),
        atoms_measure({0: 1.0}),
        atoms_measure({-3: 0.4, 3: 0.6}),
    ]
    from convpow import is_strictly_aperiodic

    for mu in cases:
        assert transform_aperiodicity_check(mu) == is_strictly_aperiodic(mu)

"""Growth and smoothness exponent estimation."""

import math
import tracemalloc

import numpy as np
import pytest

from convpow import (
    SpectralProfile,
    atoms_measure,
    fit_growth_curve,
    lazy_walk,
    lipschitz_exponent_estimate,
    partial_second_moment_curve,
    power_law,
)


# -- partial second moment curve ----------------------------------------------

def test_curve_saturates_for_two_atoms():
    mu = atoms_measure({-1: 0.5, 1: 0.5})
    curve = partial_second_moment_curve(mu, [1, 2, 5, 10, 100])
    assert all(s == 1.0 for s in curve.s_values)


def test_curve_harmonic_values_beta3():
    mu = power_law(3.0, 10**6)
    s = mu.weight_at(1)
    curve = partial_second_moment_curve(mu, [10])
    # oracle: S(10)/s = 2 * H_10 exactly
    h10 = math.fsum(1.0 / k for k in range(1, 11))
    assert curve.s_values[0] / s == pytest.approx(2.0 * h10, rel=1e-12)
    assert curve.s_values[0] / s == pytest.approx(5.857936507936507, abs=1e-12)


def test_curve_sqrt_values_beta25():
    mu = power_law(2.5, 10**6)
    s = mu.weight_at(1)
    curve = partial_second_moment_curve(mu, [100])
    oracle = 2.0 * math.fsum(k**-0.5 for k in range(1, 101))
    assert curve.s_values[0] / s == pytest.approx(oracle, rel=1e-12)


def test_curve_nondecreasing():
    mu = power_law(2.5, 10**4)
    curve = partial_second_moment_curve(mu)
    assert np.all(np.diff(curve.s_values) >= 0.0)


def test_curve_refuses_beyond_truncation_for_proxy():
    mu = power_law(3.0, 1000)
    with pytest.raises(ValueError, match="truncation radius"):
        partial_second_moment_curve(mu, [10, 100, 5000])


def test_curve_allows_saturation_for_exact_measure():
    curve = partial_second_moment_curve(lazy_walk(), [1, 10, 100, 1000])
    assert curve.s_values[-1] == 0.5


def test_curve_memory_follows_the_window_not_its_position():
    near = atoms_measure({-1: 0.25, 0: 0.5, 1: 0.25})
    far = atoms_measure({10**7 - 1: 0.25, 10**7: 0.5, 10**7 + 1: 0.25})
    grid = [10, 10**6, 10**7 - 1, 10**7, 10**8]
    tracemalloc.start()
    try:
        curve = partial_second_moment_curve(far, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one shell per lattice point would be 80 MB
    assert peak < 4 * 2**20
    k = 10**7
    assert curve.s_values == (0.0, 0.0, 0.25 * (k - 1) ** 2,
                              0.25 * (k - 1) ** 2 + 0.5 * k**2,
                              0.25 * (k - 1) ** 2 + 0.5 * k**2 + 0.25 * (k + 1) ** 2)
    assert partial_second_moment_curve(near, [1, 2]).s_values == (0.5, 0.5)


def test_curve_validates_grid():
    with pytest.raises(ValueError):
        partial_second_moment_curve(lazy_walk(), [5, 5, 6])
    with pytest.raises(ValueError):
        partial_second_moment_curve(lazy_walk(), [0, 2])


# -- growth exponent -----------------------------------------------------------

def fitted_exponent(mu):
    return fit_growth_curve(partial_second_moment_curve(mu)).fitted_exponent


def test_growth_exponent_beta25():
    assert fitted_exponent(power_law(2.5, 10**5)) == pytest.approx(0.5, abs=0.05)


def test_growth_exponent_beta3_logarithmic():
    assert fitted_exponent(power_law(3.0, 10**5)) <= 0.05


def test_growth_exponent_saturated_is_zero():
    assert abs(fitted_exponent(lazy_walk())) <= 1e-6


def test_growth_fit_reports_window_and_residual():
    fit = fit_growth_curve(partial_second_moment_curve(power_law(2.5, 10**5)))
    lo, hi = fit.fit_window
    assert lo >= 100 and hi <= 10**4
    assert fit.residual >= 0.0


def test_growth_fit_refuses_narrow_window():
    mu = power_law(2.5, 1000)  # window would be [100, 100]
    with pytest.raises(ValueError, match="two decades"):
        fit_growth_curve(partial_second_moment_curve(mu))


# -- Lipschitz exponent --------------------------------------------------------

def test_lipschitz_bounded_second_derivative():
    fit = lipschitz_exponent_estimate(SpectralProfile(lazy_walk(), 2**12 + 1))
    assert fit.exponent >= 1.0 - 0.05


def test_lipschitz_beta25():
    fit = lipschitz_exponent_estimate(SpectralProfile(power_law(2.5, 10**5), 2**14 + 1))
    assert fit.exponent == pytest.approx(0.5, abs=0.1)


def test_lipschitz_point_mass_sentinel():
    fit = lipschitz_exponent_estimate(SpectralProfile(atoms_measure({0: 1.0}), 2**10 + 1))
    assert math.isinf(fit.exponent)


def test_lipschitz_refuses_too_few_steps():
    prof = SpectralProfile(lazy_walk(), 257)   # h = 1/257, 2/257, 4/257: 3 dyadic steps
    with pytest.raises(ValueError, match="dyadic"):
        lipschitz_exponent_estimate(prof)


def test_lipschitz_difference_maxima_match_roll_oracle():
    prof = SpectralProfile(lazy_walk(), 2**10 + 1)
    fit = lipschitz_exponent_estimate(prof)
    d1 = prof.d1_full
    assert not d1.flags.writeable and d1.size == prof.grid_size
    for h, m in zip(fit.h_values, fit.m_values):
        shift = round(h * prof.grid_size)
        oracle = float(np.abs(np.roll(d1, -shift) - d1).max())
        assert m == oracle


def test_exponent_duality_power_laws():
    # growth plus smoothness exponents sit near 1 for the power family
    for beta in (2.5, 3.0):
        mu = power_law(beta, 10**5)
        g = fitted_exponent(mu)
        l = lipschitz_exponent_estimate(SpectralProfile(mu, 2**14 + 1)).exponent
        assert 0.9 <= g + l <= 1.1, (beta, g, l)

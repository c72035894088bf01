"""Kernel tables and bound fits."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from convpow import (
    atoms_measure,
    convolution_power,
    kernel_table,
    lazy_walk,
    mixture,
    oscillation_kernel_fit,
    pointwise_bound_fit,
    power_law,
    small_n_regime_check,
    smoothness_difference_fit,
)
from convpow import kernels
from convpow.errors import PrecisionExhausted
from convpow.kernels import ALIAS_ATOL, ALIAS_RTOL, default_table_grids
from convpow.measure import fft_size, power_rows


@pytest.fixture(scope="module")
def lazy_table():
    n_values, x_values = default_table_grids(256, 512)
    return kernel_table(lazy_walk(), n_values, x_values)


def lazy_exact(n, x):
    # n-step weights of the lazy walk are scaled central binomials
    if abs(x) > n:
        return 0.0
    return float(Fraction(math.comb(2 * n, n + x), 4**n))


# -- table construction --------------------------------------------------------

def test_table_values_against_direct_convolution(lazy_table):
    for i, n in enumerate(lazy_table.n_values[:5]):
        direct = convolution_power(lazy_walk(), n, "direct")
        for j, x in enumerate(lazy_table.x_values[500:530]):
            assert lazy_table.values[i, 500 + j] == pytest.approx(
                direct.weight_at(x), abs=1e-12
            )


def test_table_small_cases(lazy_table):
    n_index = lazy_table.n_values.index(2)
    x_index = lazy_table.x_values.index(0)
    assert lazy_table.values[n_index, x_index] == pytest.approx(6.0 / 16.0, abs=1e-14)


def test_table_asymmetric_measure_against_direct_convolution():
    mu = atoms_measure({-3: 0.2, -1: 0.5, 2: 0.3})
    table = kernel_table(mu, [1, 2, 3, 7], np.arange(-25, 20))
    for i, n in enumerate(table.n_values):
        direct = convolution_power(mu, n, "direct")
        for j, x in enumerate(table.x_values):
            assert table.values[i, j] == pytest.approx(direct.weight_at(x), abs=1e-15)


def test_table_zero_outside_reach(lazy_table):
    n_index = lazy_table.n_values.index(16)
    x_index = lazy_table.x_values.index(40)
    assert lazy_table.values[n_index, x_index] == 0.0


def test_table_point_mass_translation():
    table = kernel_table(atoms_measure({1: 1.0}), [7], np.arange(-8, 9))
    row = table.values[0]
    assert row[table.x_values.index(7)] == pytest.approx(1.0, abs=1e-15)
    assert np.abs(row).sum() == pytest.approx(1.0, abs=1e-12)


def test_table_within_the_first_modulus_is_exact(lazy_table):
    # 256 * 2 + 1 points fit in fft_size(4 * 1025): the unfolded path, no alias
    assert lazy_table.modulus == fft_size(256 * 2 + 1)
    assert lazy_table.alias_error == 0.0


def test_windowed_table_matches_exact_table_on_heavy_tailed_proxy():
    mu = mixture(0.5, power_law(3.0, 2000), lazy_walk())
    n_values, x_values = default_table_grids(64, 64)
    table = kernel_table(mu, n_values, x_values)
    exact_size = fft_size(64 * (mu.width - 1) + 1)
    assert table.modulus < exact_size
    assert 0.0 < table.alias_error <= 1e-12
    exact = np.array([[power.weight_at(x) for x in x_values]
                      for power in (convolution_power(mu, n) for n in n_values)])
    gap = np.abs(table.values - exact)
    assert np.all(gap <= ALIAS_ATOL * np.abs(exact).max() + ALIAS_RTOL * np.abs(exact))


# at the default x grid the first modulus is 8192: an atom 16384 away, or
# any multiple of it, folds onto the same cell modulo 8192 and 16384
FAR_ATOM_LAWS = {
    "two atoms": atoms_measure({0: 0.5, 16384: 0.5}),
    "lazy walk and far atom": mixture(0.5, atoms_measure({16384: 1.0}), lazy_walk()),
}


@pytest.mark.parametrize("name", FAR_ATOM_LAWS)
def test_aliases_at_even_multiples_do_not_pass_for_convergence(name, monkeypatch):
    mu = FAR_ATOM_LAWS[name]
    n_values, x_values = default_table_grids(8, 512)
    exact_size = fft_size(8 * (mu.width - 1) + 1)
    moduli = []
    windowed_rows = kernels._windowed_rows
    def recording(mu, n_values, x_values, modulus):
        moduli.append(modulus)
        return windowed_rows(mu, n_values, x_values, modulus)
    monkeypatch.setattr(kernels, "_windowed_rows", recording)
    table = kernel_table(mu, n_values, x_values)
    # 8192 and 16384 agree; the odd modulus does not, and 32768 is past the
    # 1/16 limit, so the table is the unfolded one
    assert moduli[:2] == [8192, 16384] and moduli[2] % 2 == 1
    assert moduli[-1] == table.modulus == exact_size
    assert all(m <= exact_size // 16 for m in moduli[:-1] if m % 2 == 0)
    assert table.alias_error == 0.0
    exact = np.array([[power.weight_at(x) for x in x_values]
                      for power in (convolution_power(mu, n) for n in n_values)])
    gap = np.abs(table.values - exact)
    assert np.all(gap <= ALIAS_ATOL * np.abs(exact).max() + ALIAS_RTOL * np.abs(exact))
    assert table.values[-1, 512] == pytest.approx(exact[-1, 512], rel=1e-9)


def test_windowed_table_refusal_propagates(monkeypatch):
    mu = mixture(0.5, power_law(3.0, 2000), lazy_walk())
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) - 1e-6)
    with pytest.raises(PrecisionExhausted):
        kernel_table(mu, *default_table_grids(64, 64))


def test_table_row_sums_are_masses():
    n_values, _ = default_table_grids(256, 512)
    for _, row in power_rows(lazy_walk(), n_values):
        assert abs(math.fsum(row) - 1.0) <= 1e-9


def test_table_validates_grids():
    with pytest.raises(ValueError):
        kernel_table(lazy_walk(), [4, 2], np.arange(-4, 5))
    with pytest.raises(ValueError):
        kernel_table(lazy_walk(), [1], np.array([3, 1]))


# -- pointwise decay fit ---------------------------------------------------------

def test_pointwise_fit_finite(lazy_table):
    fit = pointwise_bound_fit(lazy_table, 1.0)
    assert math.isfinite(fit.fitted_constant)
    assert fit.sample_count > 0


def test_pointwise_fit_bound_holds_on_random_tuples(lazy_table):
    fit = pointwise_bound_fit(lazy_table, 1.0)
    rng = np.random.default_rng(11)
    x = np.asarray(lazy_table.x_values)
    for _ in range(1000):
        i = int(rng.integers(0, len(lazy_table.n_values)))
        j = int(rng.integers(0, len(x)))
        if x[j] == 0:
            continue
        n = lazy_table.n_values[i]
        envelope = math.sqrt(n) / abs(x[j]) ** 2 + n**2 / x[j] ** 2
        assert lazy_table.values[i, j] <= fit.fitted_constant * envelope * (1 + 1e-12)


def test_pointwise_fit_finite_for_power_law_table():
    from convpow import power_law

    table = kernel_table(power_law(2.5, 1000), [1, 4, 16, 64], np.arange(-128, 129))
    fit = pointwise_bound_fit(table, 0.5)
    assert fit.fitted_constant is not None and math.isfinite(fit.fitted_constant)
    assert fit.sample_count > 0


def test_pointwise_fit_stable_under_extension(lazy_table):
    base = pointwise_bound_fit(lazy_table, 1.0).fitted_constant
    n_values, x_values = default_table_grids(512, 512)
    extended = pointwise_bound_fit(kernel_table(lazy_walk(), n_values, x_values), 1.0)
    assert abs(extended.fitted_constant - base) <= 0.10 * base


# -- small-n regime ---------------------------------------------------------------

def test_small_n_sigma_values(lazy_table):
    fit = small_n_regime_check(lazy_table, 1.0)
    assert "sigma=0.75" in fit.regime  # min(15/16, 3/4)
    fit2 = small_n_regime_check(lazy_table, 0.4)
    assert "sigma=0.375" in fit2.regime


def test_small_n_stable_under_extension(lazy_table):
    base = small_n_regime_check(lazy_table, 1.0).fitted_constant
    n_values, x_values = default_table_grids(512, 512)
    extended = small_n_regime_check(kernel_table(lazy_walk(), n_values, x_values), 1.0)
    assert abs(extended.fitted_constant - base) <= 0.10 * base


def test_small_n_empty_regime_reported():
    table = kernel_table(lazy_walk(), [4, 8], np.arange(-2, 3))
    fit = small_n_regime_check(table, 1.0)  # needs n <= |x|^(1/8) <= 2^(1/8)
    assert fit.empty
    assert fit.fitted_constant is None


# -- smoothness difference fits ----------------------------------------------------

def test_smoothness_specific_tuple_against_binomials(lazy_table):
    # n=64, x=16, y=1 inside the restricted regime
    expected = abs(lazy_exact(64, 17) - lazy_exact(64, 16)) * 16**2 / 1
    i = lazy_table.n_values.index(64)
    cols = list(lazy_table.x_values)
    got = abs(
        lazy_table.values[i, cols.index(17)] - lazy_table.values[i, cols.index(16)]
    ) * 256.0
    assert got == pytest.approx(expected, rel=1e-10)
    fits = smoothness_difference_fit(lazy_table, 1.0, 1.0)
    assert fits.restricted.fitted_constant >= got - 1e-12


def test_smoothness_zero_shift_excluded(lazy_table):
    fits = smoothness_difference_fit(lazy_table, 1.0, 1.0)
    assert fits.restricted.worst[2] != 0
    assert fits.global_holder.worst[2] != 0


def test_smoothness_reflection_symmetry(lazy_table):
    # lazy walk is symmetric: the reflected table gives the same constants
    n_values, x_values = default_table_grids(256, 512)
    reflected = kernel_table(lazy_walk().reflected(), n_values, x_values)
    a = smoothness_difference_fit(lazy_table, 1.0, 1.0)
    b = smoothness_difference_fit(reflected, 1.0, 1.0)
    assert a.restricted.fitted_constant == pytest.approx(
        b.restricted.fitted_constant, rel=1e-12
    )


def test_smoothness_constants_hold_on_random_tuples(lazy_table):
    fits = smoothness_difference_fit(lazy_table, 1.0, 1.0)
    c = fits.global_holder.fitted_constant
    rng = np.random.default_rng(13)
    cols = list(lazy_table.x_values)
    checked = 0
    while checked < 1000:
        i = int(rng.integers(0, len(lazy_table.n_values)))
        x = int(rng.integers(-512, 513))
        if x == 0:
            continue
        y_max = abs(x) // 2
        if y_max == 0:
            continue
        y = int(rng.integers(1, y_max + 1)) * (1 if rng.random() < 0.5 else -1)
        if not (-512 <= x + y <= 512):
            continue
        diff = abs(
            lazy_table.values[i, cols.index(x + y)] - lazy_table.values[i, cols.index(x)]
        )
        assert diff <= c * abs(y) / abs(x) ** 2 * (1 + 1e-12)
        checked += 1


def brute_force_difference_fit(table, delta, alpha):
    """Both regimes of ``smoothness_difference_fit``, one (n, x, y) at a time.

    Tuples are visited in lexicographic order and a later one wins only when
    strictly larger.  The powers of |x| and |y| are taken as float arrays, as
    the fit takes them, so equal inputs give equal floats.
    """
    xs = list(table.x_values)
    ax = np.abs(np.asarray(xs)).astype(float)
    threshold = ax ** (delta / 8.0)
    regimes = {
        "restricted": (lambda n, j: n >= threshold[j], ax**2, lambda ay: ay),
        "global": (lambda n, j: True, ax ** (1.0 + alpha), lambda ay: ay**alpha),
    }
    y_max = int(ax.max()) // 2
    ys = [y for y in range(-y_max, y_max + 1) if y != 0]
    out = {}
    for name, (in_regime, x_weight, y_power) in regimes.items():
        y_weight_of = dict(zip(ys, y_power(np.abs(np.asarray(ys)).astype(float))))
        best, samples = None, 0
        for i, n in enumerate(table.n_values):
            row = table.values[i]
            for j, x in enumerate(xs):
                for y in ys:
                    if x == 0 or 2 * abs(y) > abs(x) or not in_regime(n, j):
                        continue
                    if not xs[0] <= x + y <= xs[-1]:
                        continue
                    samples += 1
                    value = abs(row[j + y] - row[j]) * (x_weight[j] / y_weight_of[y])
                    if best is None or value > best[0]:
                        best = (float(value), n, x, y)
        out[name] = (best[0], best[1:], samples) if best else (None, (), 0)
    return out


@pytest.mark.parametrize("delta, alpha", [(1.0, 1.0), (0.6, 0.45)])
@pytest.mark.parametrize("case", ["lazy", "asymmetric"])
def test_difference_scan_matches_brute_force(case, delta, alpha):
    # the lazy walk is symmetric, so (x, y) and (-x, -y) can tie and the tie rule decides
    if case == "lazy":
        table = kernel_table(lazy_walk(), *default_table_grids(32, 48))
    else:
        mu = atoms_measure({-3: 0.2, -1: 0.35, 0: 0.1, 2: 0.35})
        table = kernel_table(mu, [1, 2, 3, 5, 8, 13, 21], np.arange(-40, 41))
    fits = smoothness_difference_fit(table, delta, alpha)
    oracle = brute_force_difference_fit(table, delta, alpha)
    for name, fit in (("restricted", fits.restricted), ("global", fits.global_holder)):
        assert (fit.fitted_constant, fit.worst, fit.sample_count) == oracle[name]
        assert fit.sample_count > 0


def test_difference_fit_memory_follows_the_table_not_the_shifts():
    table = kernel_table(lazy_walk(), *default_table_grids(16, 2048))
    tracemalloc.start()
    try:
        smoothness_difference_fit(table, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (x, y) score array per row would hold 4097 * 2048 floats, 67 MB
    assert peak < 8 * 2**20


def brute_force_pointwise_fits(table, delta):
    """Pointwise and small-n fits, one (n, x) at a time in lexicographic order.

    A later tuple wins only when strictly larger.  Powers are taken as float
    arrays, as the fits take them, so equal inputs give equal floats.
    """
    sigma = min(15.0 * delta / 16.0, 0.75)
    xs = [x for x in table.x_values if x != 0]
    cols = [table.x_values.index(x) for x in xs]
    ax = np.abs(np.asarray(xs)).astype(float)
    n = np.asarray(table.n_values, dtype=float)
    sqrt_n, n_sq = np.sqrt(n), n**2
    ax_delta, ax_sq = ax ** (1.0 + delta), ax**2
    threshold, ax_sigma = ax ** (delta / 8.0), ax ** (1.0 + sigma)
    out = {}
    for name in ("pointwise", "small_n"):
        best, samples = None, 0
        for i, n_i in enumerate(table.n_values):
            for j, x in enumerate(xs):
                value = table.values[i, cols[j]]
                if name == "pointwise":
                    value = value / (sqrt_n[i] / ax_delta[j] + n_sq[i] / ax_sq[j])
                elif n[i] <= threshold[j]:
                    value = value * ax_sigma[j]
                else:
                    continue
                samples += 1
                if best is None or value > best[0]:
                    best = (float(value), n_i, x)
        out[name] = (best[0], best[1:], samples) if best else (None, (), 0)
    return out


def brute_force_oscillation_fit(ts, pairs):
    """The oscillation fit, one (x, y, t) at a time in lexicographic order."""
    ts_sorted = np.sort(np.asarray(ts, dtype=float))
    best, samples = None, 0
    for x, y in sorted(pairs):
        num = np.abs(
            (np.exp(2j * math.pi * (x + y) * ts_sorted) - 1.0) / (x + y) ** 2
            - (np.exp(2j * math.pi * x * ts_sorted) - 1.0) / x**2
        )
        den = np.abs(ts_sorted) * abs(y) / x**2
        for k, t in enumerate(ts_sorted):
            if den[k] > 0.0:
                samples += 1
                value = num[k] / den[k]
                if best is None or value > best[0]:
                    best = (float(value), x, y, float(t))
    return (best[0], best[1:], samples) if best else (None, (), 0)


def test_fit_scans_match_brute_force(lazy_table):
    # the lazy walk is symmetric, so x and -x tie and the tie rule decides
    mu = atoms_measure({-3: 0.2, -1: 0.35, 0: 0.1, 2: 0.35})
    asymmetric = kernel_table(mu, [1, 2, 3, 5, 8, 13, 21], np.arange(-40, 41))
    for table in (lazy_table, asymmetric):
        for delta in (1.0, 0.6):
            oracle = brute_force_pointwise_fits(table, delta)
            for name, fit in (("pointwise", pointwise_bound_fit(table, delta)),
                              ("small_n", small_n_regime_check(table, delta))):
                assert (fit.fitted_constant, fit.worst, fit.sample_count) == oracle[name]
                assert fit.sample_count > 0
    # t and -t give equal values exactly, so the smaller t must be the worst
    ts = np.arange(-40, 41) / 2000.0
    pairs = [(100, 1), (32, 8), (100, -1), (-40, 3), (8, 1), (-40, -3)]
    fit = oscillation_kernel_fit(ts, pairs)
    assert (fit.fitted_constant, fit.worst, fit.sample_count) == brute_force_oscillation_fit(ts, pairs)
    assert fit.sample_count == 80 * len(pairs)
    assert fit.worst[2] < 0.0


def test_smoothness_validates_alpha(lazy_table):
    with pytest.raises(ValueError):
        smoothness_difference_fit(lazy_table, 1.0, 0.0)


# -- oscillation kernel -------------------------------------------------------------

def test_oscillation_kernel_zero_at_t_zero():
    fit = oscillation_kernel_fit([0.0], [(10, 2)])
    assert fit.empty  # only t = 0 supplied, nothing to scan


def test_oscillation_kernel_finite_and_stable():
    # resolve the oscillation period 1/(x+y) before comparing refinements
    coarse = oscillation_kernel_fit(np.linspace(-0.5, 0.5, 2001), [(100, 1)])
    fine = oscillation_kernel_fit(np.linspace(-0.5, 0.5, 20001), [(100, 1)])
    assert coarse.fitted_constant <= fine.fitted_constant * (1 + 1e-12)
    assert fine.fitted_constant <= 1.05 * coarse.fitted_constant


def test_oscillation_kernel_point_below_dense_constant():
    dense = oscillation_kernel_fit(np.linspace(-0.5, 0.5, 20001), [(100, 1)])
    single = oscillation_kernel_fit([0.01], [(100, 1)])
    assert single.fitted_constant <= dense.fitted_constant * (1 + 1e-12)


def test_oscillation_kernel_sign_of_y():
    a = oscillation_kernel_fit([0.01], [(100, 1)])
    b = oscillation_kernel_fit([0.01], [(100, -1)])
    assert a.fitted_constant == pytest.approx(b.fitted_constant, rel=0.5)


def test_oscillation_kernel_validates_regime():
    with pytest.raises(ValueError):
        oscillation_kernel_fit([0.1], [(4, 2)])
    with pytest.raises(ValueError):
        oscillation_kernel_fit([0.1], [(4, 0)])

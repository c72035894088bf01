"""Measure arithmetic against brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpow import (
    LatticeMeasure,
    atoms_measure,
    convolution_power,
    convolve,
    expectation,
    is_strictly_aperiodic,
    lazy_walk,
    log_squared_measure,
    moment,
    power_law,
)
from convpow.measure import (
    EXACT_SUM_CHUNK,
    _finalize_power,
    convolution_rows,
    cut,
    cut_powers,
    exact_sum,
    fft_size,
    fold,
    power_rows,
)
from convpow.errors import PrecisionExhausted
from convpow.kernels import default_table_grids


# -- oracles -----------------------------------------------------------------

def dict_of(mu):
    return {int(k): float(v) for k, v in zip(mu.indices(), mu.weights) if v != 0.0}


def dict_convolve(a, b):
    out = {}
    for i, wa in a.items():
        for j, wb in b.items():
            out[i + j] = out.get(i + j, 0.0) + wa * wb
    return out


def dict_power(a, n):
    out = dict(a)
    for _ in range(n - 1):
        out = dict_convolve(out, a)
    return out


def assert_measure_close(mu, ref_dict, tol):
    keys = set(ref_dict) | set(dict_of(mu))
    for k in keys:
        assert abs(mu.weight_at(k) - ref_dict.get(k, 0.0)) <= tol, k


small_measures = st.builds(
    lambda offset, ws: LatticeMeasure(offset, np.array(ws) / math.fsum(ws)),
    st.integers(-5, 5),
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=9),
)


# -- construction ------------------------------------------------------------

def test_trimming_and_offset():
    mu = LatticeMeasure(-3, [0.0, 0.0, 0.5, 0.5, 0.0])
    assert mu.offset == -1
    assert mu.width == 2


def test_interior_zeros_kept():
    mu = LatticeMeasure(-1, [0.5, 0.0, 0.5])
    assert mu.width == 3
    assert list(mu.support()) == [-1, 1]


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError, match="negative"):
        LatticeMeasure(0, [0.5, -0.1, 0.6])
    with pytest.raises(ValueError, match="mass"):
        LatticeMeasure(0, [0.5, 0.4])
    with pytest.raises(ValueError, match="positive weight"):
        LatticeMeasure(0, [0.0], tail_mass=1.0)
    with pytest.raises(ValueError):
        LatticeMeasure(0, [0.9], tail_mass=-0.1)
    with pytest.raises(ValueError, match="tail_mass"):
        LatticeMeasure(0, [0.3, 0.2], tail_mass=float("nan"))
    with pytest.raises(ValueError, match="stored mass overflows a float"):
        LatticeMeasure(0, [1e308, 1e308])


def test_tail_mass_accepted():
    mu = LatticeMeasure(0, [0.9], tail_mass=0.1)
    assert mu.is_truncated_proxy
    assert mu.stored_mass() == pytest.approx(0.9, abs=0)


def test_convolve_tracks_missing_mass():
    mu = LatticeMeasure(0, [0.5, 0.4], tail_mass=0.1)
    out = convolve(mu, mu)
    assert out.stored_mass() == pytest.approx(0.81, abs=1e-15)
    assert out.tail_mass == pytest.approx(0.19, abs=1e-15)


def test_fast_power_tracks_missing_mass():
    mu = LatticeMeasure(0, [0.5, 0.4], tail_mass=0.1)
    out = convolution_power(mu, 4, "fast")
    assert out.stored_mass() == pytest.approx(0.9**4, rel=1e-12)
    assert out.tail_mass == pytest.approx(1.0 - 0.9**4, rel=1e-12)
    oracle = convolution_power(mu, 4, "direct")
    assert np.max(np.abs(out.weights - oracle.weights)) <= 1e-12


def test_immutability():
    mu = lazy_walk()
    with pytest.raises(AttributeError):
        mu.offset = 3
    with pytest.raises(ValueError):
        mu.weights[0] = 1.0


def test_window_keeps_every_index_within_int64():
    # the bound holds after zero-trimming, and is symmetric so reflection keeps it
    top = 2**63 - 2
    assert LatticeMeasure(top, [1.0, 0.0]).last == top
    edge = LatticeMeasure(-(2**63), [0.0, 0.0, 0.5, 0.5])
    assert edge.offset == -top
    assert edge.reflected().last == top
    assert moment(edge, 1) == pytest.approx(top - 0.5, rel=1e-15)
    for offset in (top, -(2**63), 10**19, -(10**19)):
        with pytest.raises(ValueError, match=f"offset {offset} puts"):
            LatticeMeasure(offset, [0.5, 0.5])


def test_offset_must_be_a_lattice_index():
    with pytest.raises(ValueError, match="offset"):
        LatticeMeasure(0.5, [1.0])
    with pytest.raises(ValueError, match="offset"):
        LatticeMeasure(-0.7, [1.0])
    with pytest.raises(ValueError, match="offset"):
        LatticeMeasure(True, [1.0])
    assert LatticeMeasure(3.0, [1.0]).offset == 3
    assert LatticeMeasure(np.int64(-2), [0.0, 1.0]).offset == -1


# -- expectation and moments -------------------------------------------------

def test_expectation_point_mass_at_origin():
    assert expectation(atoms_measure({0: 1.0})) == 0.0


def test_expectation_symmetric_two_atoms():
    assert expectation(atoms_measure({-1: 0.5, 1: 0.5})) == 0.0


def test_expectation_half_shift():
    assert expectation(atoms_measure({0: 0.5, 1: 0.5})) == 0.5


def test_moment_two_atoms():
    assert moment(atoms_measure({-1: 0.5, 1: 0.5}), 2.0) == 1.0


def test_moment_point_mass():
    assert moment(atoms_measure({3: 1.0}), 1.0) == 3.0


def test_moment_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        moment(lazy_walk(), 0.0)
    with pytest.raises(ValueError):
        moment(lazy_walk(), -1.5)


def test_fractional_moment_against_direct_summation():
    mu = power_law(3.0, 1000)
    # oracle: plain termwise sum of |k|^1.5 * s / |k|^3 = s |k|^-1.5
    s = mu.weight_at(1)
    oracle = math.fsum(
        s * abs(k) ** -1.5 for k in range(-1000, 1001) if k != 0
    )
    value = moment(mu, 1.5)
    assert abs(value - oracle) <= 1e-12 * oracle


# -- convolution -------------------------------------------------------------

def test_convolve_two_atom_square():
    mu = atoms_measure({-1: 0.5, 1: 0.5})
    out = convolve(mu, mu)
    assert_measure_close(out, {-2: 0.25, 0: 0.5, 2: 0.25}, 0.0)


def test_convolve_translates_atoms():
    out = convolve(atoms_measure({4: 1.0}), atoms_measure({-7: 1.0}))
    assert dict_of(out) == {-3: 1.0}


def test_lazy_square_at_origin():
    out = convolve(lazy_walk(), lazy_walk())
    assert out.weight_at(0) == pytest.approx(6.0 / 16.0, abs=1e-16)


@settings(max_examples=40, deadline=None)
@given(small_measures, small_measures)
def test_convolve_matches_dict_oracle(mu, nu):
    assert_measure_close(convolve(mu, nu), dict_convolve(dict_of(mu), dict_of(nu)), 1e-14)


@settings(max_examples=40, deadline=None)
@given(small_measures, small_measures)
def test_convolve_commutative(mu, nu):
    ab = convolve(mu, nu)
    ba = convolve(nu, mu)
    assert ab.offset == ba.offset
    assert np.max(np.abs(ab.weights - ba.weights)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(small_measures, small_measures, small_measures)
def test_convolve_associative(a, b, c):
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    assert left.offset == right.offset
    assert np.max(np.abs(left.weights - right.weights)) <= 1e-12


# -- convolution powers ------------------------------------------------------

def test_power_of_point_mass_translates():
    out = convolution_power(atoms_measure({1: 1.0}), 5)
    assert dict_of(out) == {5: 1.0}


def test_lazy_powers_are_binomial():
    mu = lazy_walk()
    for n in range(1, 13):
        direct = convolution_power(mu, n, "direct")
        for x in range(-n, n + 1):
            exact = Fraction(math.comb(2 * n, n + x), 4**n)
            assert abs(direct.weight_at(x) - float(exact)) <= 1e-15


def test_binomial_power_value():
    out = convolution_power(atoms_measure({0: 0.5, 1: 0.5}), 3, "direct")
    assert out.weight_at(1) == pytest.approx(3.0 / 8.0, abs=0)


def test_fast_power_matches_direct_on_seeded_measures():
    rng = np.random.default_rng(20260809)
    for _ in range(15):
        width = int(rng.integers(2, 26))
        w = rng.uniform(0.1, 1.0, width)
        mu = LatticeMeasure(int(rng.integers(-12, 13)), w / math.fsum(w))
        n = int(rng.integers(2, 11))
        fast = convolution_power(mu, n, "fast")
        direct = convolution_power(mu, n, "direct")
        assert fast.offset == direct.offset
        assert np.max(np.abs(fast.weights - direct.weights)) <= 1e-10


def sup_distance(mu, nu):
    lo = min(mu.offset, nu.offset)
    hi = max(mu.last, nu.last)
    return max(abs(mu.weight_at(k) - nu.weight_at(k)) for k in range(lo, hi + 1))


def test_fast_power_matches_direct_on_narrow_zoo():
    cases = [
        lazy_walk(),
        atoms_measure({-1: 1.0, 0: 1.0, 1: 1.0}),
        atoms_measure({0: 0.5, 1: 0.5}),
        power_law(3.0, 20),      # width 41 <= 50
        power_law(2.5, 20),
    ]
    for mu in cases:
        for n in (2, 5, 10):
            fast = convolution_power(mu, n, "fast")
            direct = convolution_power(mu, n, "direct")
            # tail cells below round-off are clamped and trimmed on the
            # fast path, so compare as functions on the lattice
            assert sup_distance(fast, direct) <= 1e-10


def test_power_validates_arguments():
    with pytest.raises(ValueError):
        convolution_power(lazy_walk(), 0)
    with pytest.raises(ValueError):
        convolution_power(lazy_walk(), 2, method="magic")


def test_power_n1_returns_same_measure():
    mu = lazy_walk()
    assert convolution_power(mu, 1, "fast") is mu


def test_power_rows_match_direct_on_asymmetric_measure():
    mu = atoms_measure({-3: 0.2, -1: 0.5, 2: 0.3})
    rows = list(power_rows(mu, [1, 2, 3, 7]))
    assert [n for n, _, _ in rows] == [1, 2, 3, 7]
    for n, row, _ in rows:
        direct = convolution_power(mu, n, method="direct")
        assert direct.offset == n * mu.offset
        np.testing.assert_allclose(row, direct.weights, rtol=0, atol=1e-15)


# a gapped law: n-fold rows are 20n + 1 points wide, so modulo 16 every
# power past the first wraps several times
GAPPED = atoms_measure({-7: 0.3, 0: 0.2, 5: 0.1, 13: 0.4})


def test_folded_power_rows_equal_poisson_summed_direct_powers():
    modulus = 16
    n_values = [1, 2, 3, 5, 8, 13]
    for n, row, _ in power_rows(GAPPED, n_values, modulus=modulus):
        direct = convolution_power(GAPPED, n, method="direct")
        assert direct.offset == n * GAPPED.offset
        wrapped = np.bincount(np.arange(direct.width) % modulus, weights=direct.weights,
                              minlength=modulus)
        assert row.size == modulus
        np.testing.assert_allclose(row, wrapped, rtol=0, atol=1e-14 * direct.stored_mass())


def test_folded_rows_shorter_than_the_modulus_are_exact():
    rows = {n: row for n, row, _ in power_rows(GAPPED, [1, 2, 8], modulus=64)}
    assert [rows[n].size for n in (1, 2, 8)] == [21, 41, 64]
    for n in (1, 2):
        np.testing.assert_allclose(rows[n], convolution_power(GAPPED, n, "direct").weights,
                                   rtol=0, atol=1e-15)


def test_power_rows_modulus_at_or_above_the_exact_size_is_bit_identical():
    n_values = [1, 2, 3, 7, 16]
    exact = fft_size(n_values[-1] * (GAPPED.width - 1) + 1)
    plain = list(power_rows(GAPPED, n_values))
    for modulus in (exact, exact + 3, 2 * exact):
        rows = list(power_rows(GAPPED, n_values, modulus=modulus))
        assert [n for n, _, _ in rows] == n_values
        for (_, want, want_deficit), (_, got, deficit) in zip(plain, rows):
            assert np.array_equal(got, want) and deficit == want_deficit


@pytest.mark.parametrize("modulus", [None, 64])
def test_power_rows_yield_the_clamp_deficit_of_each_raw_row(modulus):
    n_values = [1, 2, 3, 5, 8, 13]
    raw = convolution_rows(GAPPED.weights, np.ones(1), n_values, modulus)
    deficits = []
    for (n, _, deficit), (m, row) in zip(power_rows(GAPPED, n_values, modulus), raw):
        assert n == m and deficit == float(-row[row < 0.0].sum())
        deficits.append(deficit)
    assert len(deficits) == len(n_values) and max(deficits) > 0.0


SIGNED_START = np.array([0.7, -1.3, 0.0, 2.1, -0.4])


def test_convolution_rows_match_a_convolve_loop_from_a_signed_start():
    weights = GAPPED.weights
    n_values = [1, 2, 3, 7, 12]
    rows = list(convolution_rows(weights, SIGNED_START, n_values))
    assert [n for n, _ in rows] == n_values
    direct, done = SIGNED_START, 0
    for n, row in rows:
        for _ in range(n - done):
            direct = np.convolve(weights, direct)
        done = n
        assert row.size == direct.size == SIGNED_START.size + n * (weights.size - 1)
        np.testing.assert_allclose(row, direct, rtol=0, atol=1e-14)


@pytest.mark.parametrize("modulus", [4, 16])   # at 4 the signed start folds too
@pytest.mark.parametrize("start", [np.ones(1), SIGNED_START], ids=["unit", "signed"])
def test_folded_convolution_rows_equal_poisson_summed_direct_rows(start, modulus):
    n_values = [1, 2, 5, 9]
    for n, row in convolution_rows(GAPPED.weights, start, n_values, modulus):
        direct = start
        for _ in range(n):
            direct = np.convolve(GAPPED.weights, direct)
        wrapped = np.bincount(np.arange(direct.size) % modulus, weights=direct,
                              minlength=modulus)
        assert row.size == modulus
        np.testing.assert_allclose(row, wrapped, rtol=0, atol=1e-14)


def bincount_fold(values, first, modulus):
    """The fold as ``np.bincount`` of the indices reduced modulo ``modulus``."""
    ks = np.arange(first, first + values.size)
    return np.bincount(np.mod(ks, modulus), weights=values, minlength=modulus)


def assert_folds_like_bincount(values, first, modulus):
    got = fold(values, first, modulus)
    assert got.tobytes() == bincount_fold(values, first, modulus).tobytes()


def test_fold_is_bincount_bit_for_bit_on_a_wide_law():
    mu = power_law(2.5, 1e5)
    # the rational-point folds and the aperiodicity grid, old and new
    for modulus in [*range(2, 129), 32769, 32805]:
        assert_folds_like_bincount(mu.weights, mu.offset, modulus)


def test_fold_is_bincount_bit_for_bit_on_a_window_narrower_than_the_modulus():
    mu = lazy_walk()
    ks = mu.indices()
    for values in (mu.weights, -((2 * np.pi * ks) ** 2) * mu.weights):   # -0.0 at k = 0
        assert_folds_like_bincount(values, mu.offset, 65537)


def test_fold_is_bincount_bit_for_bit_at_the_edges():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(23)
    for first in (-1, -30, -10**17 - 3):                     # negative starts
        assert_folds_like_bincount(values, first, 7)
    # first = 0 (mod 5): slot 0 holds only -0.0s, slot 2 a lone -0.0 beside padding
    signed_zeros = np.array([-0.0, 1.0, -0.0, 2.0, 3.0, -0.0, 4.0])
    for first in (0, 10, -5):
        assert_folds_like_bincount(signed_zeros, first, 5)
    assert_folds_like_bincount(np.array([-0.0]), 0, 5)       # one period: the padded copy
    assert_folds_like_bincount(values[:4], 2, 9)             # shorter than one period
    assert_folds_like_bincount(values[:4], 7, 9)             # ... and wrapping once


def test_unit_start_adds_no_transform(monkeypatch):
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, n: calls.append(n) or rfft(a, n))
    list(convolution_rows(GAPPED.weights, np.ones(1), [1, 2, 4]))
    assert len(calls) == 1
    list(convolution_rows(GAPPED.weights, SIGNED_START, [1, 2, 4]))
    assert len(calls) == 3


# mean 0.25 a step, on both sides of the origin like the laws of a kernel table
TWO_SIDED = LatticeMeasure(-3, [0.1, 0.05, 0.2, 0.15, 0.1, 0.25, 0.15])
CUT_STEPS = [1, 2, 3, 5, 8, 13]   # powers of the base composed from its squares


@pytest.mark.parametrize("n_values", [CUT_STEPS, default_table_grids(96, 1)[0]],
                         ids=["steps", "table"])
@pytest.mark.parametrize("half_width", [6, 128])
def test_cut_powers_are_at_most_the_direct_powers_and_exact_on_the_reach(n_values, half_width):
    lo, width = -half_width, 2 * half_width + 1   # the window centred on the origin
    rows = dict(cut_powers(cut(TWO_SIDED.weights, -3, lo, width), lo, n_values))
    assert list(rows) == n_values
    direct, row = {}, np.ones(1)
    for n in range(1, n_values[-1] + 1):
        row = np.convolve(row, TWO_SIDED.weights)
        direct[n] = cut(row, -3 * n, lo, width)
    for n, row in rows.items():
        if 3 * n <= half_width:   # the window holds the row's whole reach
            assert row == pytest.approx(direct[n], abs=1e-15)
        else:
            assert np.all(row <= direct[n] + 1e-15)
    if half_width == 6:   # the cuts drop mass that the direct rows keep
        assert math.fsum(rows[n_values[-1]]) < 0.9 * math.fsum(direct[n_values[-1]])


def test_folded_row_refusal_propagates(monkeypatch):
    irfft = np.fft.irfft
    # every inverse transform comes back 1e-6 below the truth: a clamping
    # deficit far above the budget in the first folded row
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) - 1e-6)
    with pytest.raises(PrecisionExhausted):
        next(power_rows(GAPPED, [4, 8], modulus=16))


def test_finalize_power_clamps_small_negatives():
    out, deficit = _finalize_power(np.array([0.5, -1e-12, 0.5]), 1.0)
    assert out[1] == 0.0 and deficit == 1e-12
    assert math.fsum(out) == pytest.approx(1.0, abs=1e-15)


def test_finalize_power_keeps_the_target_mass_on_a_long_row():
    rng = np.random.default_rng(5)
    raw = rng.random(2**14) ** 8
    negative = rng.choice(raw.size, 6, replace=False)
    raw[negative] = -1e-13
    target = 0.7
    out, deficit = _finalize_power(raw, target)
    assert np.all(out[negative] == 0.0) and np.all(out >= 0.0)
    assert abs(math.fsum(out) - target) <= 1e-14 * target
    assert deficit == pytest.approx(6e-13, rel=1e-12)


# -- exact summation ---------------------------------------------------------

def fsum_outcome(sum_of, values):
    """The float (by repr, so the sign of zero and NaN count) or the exception type."""
    try:
        return repr(sum_of(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_sums_as_fsum(values):
    values = np.asarray(values, dtype=float)
    assert fsum_outcome(exact_sum, values) == fsum_outcome(math.fsum, values)


# any finite float, subnormals included; and a magnitude drawn by its exponent
FINITE = st.floats(allow_nan=False, allow_infinity=False)
BY_EXPONENT = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000))
SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e308, -1e308])


@st.composite
def summands(draw):
    """Up to 300 finite values of any exponent and sign, now and then with a
    special value (an infinity, NaN, a signed zero, an overflowing pair) among them."""
    values = draw(st.lists(st.one_of(FINITE, BY_EXPONENT), max_size=300))
    for _ in range(draw(st.integers(0, 2))):
        values.insert(draw(st.integers(0, len(values))), draw(SPECIAL))
    if draw(st.booleans()):   # cancellation: the values, then most of them negated
        values += [-v for v in values if draw(st.booleans())]
    return values


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=summands())
def test_exact_sum_is_fsum(values):
    assert_sums_as_fsum(values)


@pytest.mark.parametrize("values", [
    [], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [5e-324], [-5e-324, 5e-324, 5e-324],
    [math.nan], [math.inf], [-math.inf, 1.0], [math.inf, -math.inf], [math.inf, math.nan],
    [1e308, 1e308], [math.nan, 1e308, 1e308], [1e308, -1e308, 1e308], [2.0**1023, -2.0**970],
    [1e16, 1.0, -1e16], [0.1] * 10,
    # fsum overflows on its way through: a huge value, then a chunk later a large one
    np.concatenate([[1.7e308], np.zeros(EXACT_SUM_CHUNK - 1), [1e307, -1e307]]),
], ids=lambda values: repr(values)[:40])
def test_exact_sum_edge_cases_are_fsum(values):
    assert_sums_as_fsum(values)


def wide_values(size, rng):
    """Mixed signs, exponents from the subnormals to 1e300, and cancelling pairs."""
    exponents = rng.integers(-1074, 997, size)
    values = np.ldexp(rng.uniform(-1.0, 1.0, size), exponents)
    half = size // 2
    values[half:] = -values[:size - half] if rng.random() < 0.5 else values[half:]
    return values


def chunk_scaled_values(size, rng):
    """Each chunk 2^40 times the size of the one before, its values 12 decades wide,
    and every other value the negated one before it: the total is 0, or 0.5 at an odd
    size, so a round sum that is not exact shows."""
    chunk = np.arange(size) // EXACT_SUM_CHUNK
    values = rng.random(size) * np.ldexp(1.0, 40 * chunk) * 10.0 ** rng.integers(-12, 1, size)
    values[1::2] = -values[:-1:2]
    if size % 2:
        values[-1] = 0.5
    return values


@pytest.mark.parametrize("size", [0, 1, 2, EXACT_SUM_CHUNK - 1, EXACT_SUM_CHUNK,
                                  EXACT_SUM_CHUNK + 1, 3 * EXACT_SUM_CHUNK + 1])
def test_exact_sum_is_fsum_across_chunks(size):
    rng = np.random.default_rng(size)
    for values in (wide_values(size, rng), chunk_scaled_values(size, rng),
                   chunk_scaled_values(size, rng)[::-1], rng.random(size),
                   np.concatenate([[1e300], rng.random(size)])[: max(size, 1)]):
        assert_sums_as_fsum(values)


def test_exact_sum_is_fsum_on_the_heavy_tails():
    """The weights and moment terms of the benchmark's analyze law and of log_squared."""
    for mu in (power_law(2.5, 100_000), power_law(2.4, 100_000), log_squared_measure(100_000)):
        ks = mu.indices().astype(float)
        for values in (mu.weights, ks * mu.weights, np.abs(ks) * mu.weights,
                       np.abs(ks) ** 2 * mu.weights, np.arange(mu.width) * mu.weights):
            assert_sums_as_fsum(values)
        assert (expectation(mu), moment(mu, 1.0), moment(mu, 2.0)) == (
            math.fsum(ks * mu.weights), math.fsum(np.abs(ks) * mu.weights),
            math.fsum(np.abs(ks) ** 2 * mu.weights))


def test_stored_mass_is_the_correctly_rounded_sum_of_the_weights():
    for mu in (power_law(2.5, 1000), atoms_measure({-1: 0.25, 0: 0.25, 2: 0.5}).reflected(),
               LatticeMeasure(3, [0.1] * 9, 0.1)):
        assert mu.stored_mass() == math.fsum(mu.weights)
        with pytest.raises(AttributeError):
            mu._stored_mass = 1.0


def test_finalize_power_rejects_large_deficit():
    with pytest.raises(PrecisionExhausted):
        _finalize_power(np.array([0.6, -1e-6, 0.4]), 1.0)


def test_expectation_additivity_to_n64():
    for mu in (lazy_walk(), atoms_measure({-1: 0.25, 0: 0.25, 2: 0.5})):
        e1 = expectation(mu)
        for n in (2, 8, 64):
            assert abs(expectation(convolution_power(mu, n, "fast")) - n * e1) <= 1e-8


def test_second_moment_additivity():
    for mu in (lazy_walk(), atoms_measure({0: 0.5, 1: 0.5}), atoms_measure({-2: 0.3, 1: 0.7})):
        m2 = moment(mu, 2.0)
        e = expectation(mu)
        for n in (2, 5, 16):
            expected = n * m2 + n * (n - 1) * e * e
            got = moment(convolution_power(mu, n, "fast"), 2.0)
            assert abs(got - expected) <= 1e-6 * max(1.0, abs(expected))


# -- strict aperiodicity -----------------------------------------------------

def test_aperiodicity_consecutive_atoms():
    assert is_strictly_aperiodic(atoms_measure({0: 0.5, 1: 0.5}))


def test_aperiodicity_even_support_is_periodic():
    # support {-1, 1} lies in the coset 1 + 2Z
    assert not is_strictly_aperiodic(atoms_measure({-1: 0.5, 1: 0.5}))
    assert not is_strictly_aperiodic(atoms_measure({-2: 0.25, 0: 0.5, 2: 0.25}))


def test_aperiodicity_single_atom_false_by_convention():
    assert not is_strictly_aperiodic(atoms_measure({7: 1.0}))


def test_aperiodicity_matches_pairwise_gcd_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        size = int(rng.integers(1, 7))
        pts = rng.choice(np.arange(-20, 21), size=size, replace=False)
        mu = atoms_measure({int(k): 1.0 for k in pts})
        support = sorted(int(k) for k in pts)
        gcds = [abs(a - b) for i, a in enumerate(support) for b in support[i + 1:]]
        oracle = bool(gcds) and math.gcd(*gcds) == 1 if len(gcds) > 1 else (
            len(gcds) == 1 and gcds[0] == 1
        )
        assert is_strictly_aperiodic(mu) == oracle

"""Maximal function and weak-type level sets."""

import numpy as np
import pytest

from convpow import (
    DiagnosticRefused,
    LatticeSequence,
    atoms_measure,
    convolution_power,
    lazy_walk,
    maximal_function,
    mixture,
    power_law,
    weak_type_curve,
)

DELTA0 = LatticeSequence.from_values(0, [1.0])


def brute_maximal(mu, phi, n_max):
    """Enumerate mu^n * phi directly."""
    out = {}
    current = {k: v for k, v in zip(range(phi.offset, phi.offset + phi.values.size),
                                    phi.values)}
    for _ in range(n_max):
        nxt = {}
        for j, wj in zip(mu.indices(), mu.weights):
            for k, v in current.items():
                nxt[j + k] = nxt.get(j + k, 0.0) + wj * v
        current = nxt
        for k, v in current.items():
            out[k] = max(out.get(k, 0.0), abs(v))
    return out


def test_point_mass_translations():
    mu = atoms_measure({1: 1.0})
    m = maximal_function(mu, DELTA0, 3)
    values = {k: v for k, v in zip(range(m.offset, m.offset + m.values.size), m.values)}
    assert {k: v for k, v in values.items() if v > 0} == {1: 1.0, 2: 1.0, 3: 1.0}


def test_lazy_at_origin_attained_at_n1():
    m = maximal_function(lazy_walk(), DELTA0, 64)
    assert m.values[0 - m.offset] == 0.5
    assert m.values[1 - m.offset] == 0.25
    assert m.values[-1 - m.offset] == 0.25


def test_matches_brute_enumeration():
    mu = atoms_measure({-1: 0.3, 0: 0.2, 2: 0.5})
    phi = LatticeSequence.from_values(-1, [0.5, -1.0, 0.25])
    m = maximal_function(mu, phi, 12)
    oracle = brute_maximal(mu, phi, 12)
    for k, v in oracle.items():
        assert m.values[k - m.offset] == pytest.approx(v, abs=1e-13)


def test_positive_homogeneity():
    phi2 = LatticeSequence.from_values(0, [2.0])
    a = maximal_function(lazy_walk(), DELTA0, 32)
    b = maximal_function(lazy_walk(), phi2, 32)
    assert np.allclose(b.values, 2.0 * a.values, rtol=0, atol=1e-15)


def test_sup_dominates_every_power():
    mu = lazy_walk()
    m = maximal_function(mu, DELTA0, 40)
    for n in (1, 7, 23, 40):
        p = convolution_power(mu, n, "direct")
        for x in range(-n, n + 1):
            assert m.values[x - m.offset] >= p.weight_at(x) - 1e-15


def test_weak_type_exact_level_sets():
    m = maximal_function(lazy_walk(), DELTA0, 64)
    curve = weak_type_curve(m, [0.6, 0.4])
    assert curve.counts == (0, 1)        # only k = 0 exceeds 0.4
    assert curve.constants[0] == 0.0
    assert curve.constants[1] == pytest.approx(0.4, abs=1e-15)


def test_weak_type_counts_monotone():
    m = maximal_function(lazy_walk(), DELTA0, 128)
    curve = weak_type_curve(m)
    assert all(b >= a for a, b in zip(curve.counts, curve.counts[1:]))
    assert np.all(np.diff(curve.lambda_values) < 0)


def test_weak_type_empty_above_max():
    m = maximal_function(lazy_walk(), DELTA0, 16)
    curve = weak_type_curve(m, [2.0, 1.0, 0.75])
    assert curve.counts == (0, 0, 0)


def test_weak_type_headline_stable_under_doubling():
    a = weak_type_curve(maximal_function(lazy_walk(), DELTA0, 64)).headline_constant
    b = weak_type_curve(maximal_function(lazy_walk(), DELTA0, 128)).headline_constant
    assert b <= 1.25 * a


def test_doubling_contrast_reported_for_unbounded_ratio_measure():
    # diagnostic contrast only: the drifting coin gets no pass threshold,
    # its doubling ratio is simply reported
    mu = atoms_measure({0: 0.5, 1: 0.5})
    a = weak_type_curve(maximal_function(mu, DELTA0, 64)).headline_constant
    b = weak_type_curve(maximal_function(mu, DELTA0, 128)).headline_constant
    assert a > 0 and b > 0 and np.isfinite(b / a)


def test_weak_type_rejects_zero_norm():
    m = maximal_function(lazy_walk(), DELTA0, 4)
    bad = object.__new__(type(m))
    object.__setattr__(bad, "offset", m.offset)
    object.__setattr__(bad, "values", m.values)
    object.__setattr__(bad, "n_max", m.n_max)
    object.__setattr__(bad, "phi_norm", 0.0)
    with pytest.raises(DiagnosticRefused):
        weak_type_curve(bad)


def test_sequence_validation():
    with pytest.raises(ValueError):
        LatticeSequence.from_values(0, [])
    with pytest.raises(ValueError):
        LatticeSequence.from_values(0, [np.nan])
    with pytest.raises(ValueError):
        maximal_function(lazy_walk(), DELTA0, 0)


def test_signed_sequence_uses_absolute_values():
    phi = LatticeSequence.from_values(0, [-1.0])
    m = maximal_function(lazy_walk(), phi, 8)
    assert m.values[0 - m.offset] == 0.5
    assert m.phi_norm == 1.0


ASYMMETRIC = atoms_measure({-3: 0.2, -1: 0.5, 2: 0.3})


@pytest.mark.parametrize("depth", [1, 7, 32])
@pytest.mark.parametrize("mu", [lazy_walk(), ASYMMETRIC], ids=["lazy", "asymmetric"])
def test_checkpoint_prefix_equals_separate_pass(mu, depth):
    phi = LatticeSequence.from_values(-2, [0.5, -1.0, 0.25, 2.0])
    one_pass = maximal_function(mu, phi, 2 * depth, checkpoint=depth)
    separate = maximal_function(mu, phi, depth)
    prefix = one_pass.prefix
    assert (prefix.offset, prefix.n_max, prefix.phi_norm) == (
        separate.offset, separate.n_max, separate.phi_norm)
    assert prefix.values.shape == separate.values.shape
    assert prefix.values.tobytes() == separate.values.tobytes()
    assert separate.prefix is None
    # the checkpoint leaves the full-depth result unchanged
    assert one_pass.values.tobytes() == maximal_function(mu, phi, 2 * depth).values.tobytes()


def test_checkpoint_validation():
    with pytest.raises(ValueError, match="checkpoint"):
        maximal_function(lazy_walk(), DELTA0, 8, checkpoint=0)
    with pytest.raises(ValueError, match="checkpoint"):
        maximal_function(lazy_walk(), DELTA0, 8, checkpoint=9)


WIDE = mixture(0.5, power_law(2.5, 2000), lazy_walk())
# as wide, with mass out to the ends of every row, where a spectrum padded
# too short would wrap or cut the row
GAPPED = atoms_measure({-2000: 0.25, 0: 0.5, 2000: 0.25})
SIGNED5 = LatticeSequence.from_values(-2, [0.5, -1.0, 0.25, 2.0, -0.75])


# every row of the full pass, the lazy walk's short ones too, comes from the
# running spectrum, restarted at the last row of each padded size
@pytest.mark.parametrize("mu", [WIDE, GAPPED, lazy_walk()], ids=["mixture", "gapped", "lazy"])
def test_running_spectrum_matches_convolution_loop(mu):
    depth = 12
    m = maximal_function(mu, SIGNED5, depth)
    best = np.zeros_like(m.values)
    row = SIGNED5.values
    for n in range(1, depth + 1):
        row = np.convolve(mu.weights, row)
        start = SIGNED5.offset + n * mu.offset - m.offset
        best[start : start + row.size] = np.maximum(best[start : start + row.size], np.abs(row))
    assert m.values.shape == best.shape
    assert np.max(np.abs(m.values - best)) <= 1e-14


def test_checkpoint_prefix_matches_separate_pass_on_the_spectrum():
    # the separate pass pads its spectrum for depth 12, the long one for 24,
    # so the two agree to round-off rather than bit for bit
    depth = 12
    prefix = maximal_function(WIDE, SIGNED5, 2 * depth, checkpoint=depth).prefix
    separate = maximal_function(WIDE, SIGNED5, depth)
    assert (prefix.offset, prefix.n_max) == (separate.offset, separate.n_max)
    assert prefix.values.shape == separate.values.shape
    scale = float(separate.values.max())
    assert np.max(np.abs(prefix.values - separate.values)) <= 1e-14 * scale

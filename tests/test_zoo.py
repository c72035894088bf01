"""Measure family constructors and the MeasureSpec JSON round trip."""

import json
import math

import numpy as np
import pytest

from convpow import (
    MeasureSpec,
    SpecError,
    atoms_measure,
    expectation,
    is_strictly_aperiodic,
    lazy_walk,
    log_squared_measure,
    mixture,
    moment,
    power_law,
    transform_at,
)


def test_lazy_walk_values():
    mu = lazy_walk()
    assert list(mu.indices()) == [-1, 0, 1]
    assert list(mu.weights) == [0.25, 0.5, 0.25]
    assert moment(mu, 2.0) == 0.5
    assert is_strictly_aperiodic(mu)
    assert transform_at(mu, 0.25).real == pytest.approx(0.5, abs=1e-15)


def test_power_law_normalizer_approaches_zeta():
    mu = power_law(3.0, 10**5)
    # s_K -> 1 / (2 zeta(3)); partial sums plus integral tail bound the error
    zeta3 = 1.2020569031595942   # zeta(3), Apéry's constant
    assert mu.weight_at(1) == pytest.approx(1.0 / (2.0 * zeta3), rel=1e-9)


def test_power_law_centered_and_symmetric():
    mu = power_law(2.5, 1000)
    assert expectation(mu) == 0.0
    w = mu.weights
    assert np.array_equal(w, w[::-1])  # bit-equal mirror
    assert mu.weight_at(0) == 0.0


def test_power_law_m2_grows_like_sqrt_K():
    m2a = moment(power_law(2.5, 10**3), 2.0)
    m2b = moment(power_law(2.5, 10**4), 2.0)
    # divergence proxy: fourfold K multiplies m2 by about sqrt(10)
    assert 2.8 <= m2b / m2a <= 3.5


def test_power_law_validation():
    with pytest.raises(ValueError):
        power_law(1.0, 100)
    with pytest.raises(ValueError):
        power_law(3.0, 5)


def test_power_law_records_truncation_deficit():
    mu = power_law(3.0, 100)
    assert mu.tail_mass == 0.0
    assert 0.0 < mu.pre_truncation_deficit < 1e-3
    assert mu.is_truncated_proxy


def test_log_squared_measure_shape():
    mu = log_squared_measure(10**4)
    assert expectation(mu) == 0.0
    ks = np.arange(2, 10**4)
    vals = np.array([mu.weight_at(int(k)) for k in ks])
    assert np.all(np.diff(vals) <= 0.0)  # decreasing for k >= 2
    assert mu.weight_at(1) == 0.0


def test_log_squared_bit_equal_symmetry():
    w = log_squared_measure(5000).weights
    assert np.array_equal(w, w[::-1])


def test_log_squared_moment_divergence_proxy():
    m_a = moment(log_squared_measure(10**3), 0.5)
    m_b = moment(log_squared_measure(10**4), 0.5)
    assert m_b > 1.2 * m_a


def test_mixture_degenerate_returns_eta():
    eta = power_law(3.0, 100)
    assert mixture(1.0, eta, lazy_walk()) is eta


def test_mixture_centered():
    mu = mixture(0.5, power_law(3.0, 100), lazy_walk())
    assert abs(expectation(mu)) <= 1e-15


def test_mixture_transform_linearity():
    eta = power_law(3.0, 200)
    nu = lazy_walk()
    a1 = 0.3
    mu = mixture(a1, eta, nu)
    t = 0.1
    lhs = transform_at(mu, t)
    rhs = a1 * transform_at(eta, t) + (1 - a1) * transform_at(nu, t)
    assert abs(lhs - rhs) <= 1e-12


def test_mixture_validates_weight():
    with pytest.raises(ValueError):
        mixture(0.0, lazy_walk(), lazy_walk())
    with pytest.raises(ValueError):
        mixture(1.2, lazy_walk(), lazy_walk())


def test_atoms_measure_renormalizes():
    mu = atoms_measure({-1: 1.0, 0: 1.0, 1: 1.0})
    assert math.fsum(mu.weights) == pytest.approx(1.0, abs=1e-12)


# -- MeasureSpec -------------------------------------------------------------

def test_spec_round_trip_each_kind():
    specs = [
        MeasureSpec("lazy_walk"),
        MeasureSpec("power_law", {"beta": 2.5}, truncation=100),
        MeasureSpec("log_squared", truncation=50),
        MeasureSpec("atoms", {"offset": -1, "weights": [0.25, 0.5, 0.25]}),
        MeasureSpec(
            "mixture",
            {
                "a1": 0.5,
                "eta": {"kind": "power_law", "params": {"beta": 3.0}, "K": 100},
                "nu": {"kind": "lazy_walk", "params": {}},
            },
        ),
    ]
    for spec in specs:
        again = MeasureSpec.from_json(json.dumps(spec.to_dict()))
        assert again.to_dict() == spec.to_dict()
        mu = again.build()
        assert math.fsum(mu.weights) + mu.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_spec_rejects_unknown_kind():
    with pytest.raises(SpecError, match="kind"):
        MeasureSpec.from_json('{"kind": "cauchy"}')


def test_spec_names_missing_field():
    with pytest.raises(SpecError, match="params.beta"):
        MeasureSpec.from_json('{"kind": "power_law", "K": 100}').build()
    with pytest.raises(SpecError, match="truncation"):
        MeasureSpec.from_json('{"kind": "power_law", "params": {"beta": 3.0}}').build()


@pytest.mark.parametrize("text, path", [
    ('{"kind": "power_law", "params": {"beta": 1.0}, "K": 100}', "params.beta"),
    ('{"kind": "power_law", "params": {"beta": "x"}, "K": 100}', "params.beta"),
    ('{"kind": "power_law", "params": {"beta": NaN}, "K": 100}', "params.beta"),
    ('{"kind": "power_law", "params": {"beta": 3.0}, "K": 5}', "K"),
    ('{"kind": "power_law", "K": 100}', "params.beta"),
    ('{"kind": "power_law", "params": {"beta": 3.0}}', "truncation"),
    ('{"kind": "log_squared", "K": 2}', "K"),
    ('{"kind": "atoms", "params": {"offset": 0, "weights": [0.5, "x"]}}', "params.weights"),
    ('{"kind": "atoms", "params": {"offset": 0, "weights": [0.5, 0.4]}}', "params.weights"),
    ('{"kind": "atoms", "params": {"offset": "a", "weights": [1.0]}}', "params.offset"),
    ('{"kind": "atoms", "params": {"offset": 0.5, "weights": [1.0]}}', "params.offset"),
    ('{"kind": "atoms", "params": {"offset": 1e999, "weights": [1.0]}}', "params.offset"),
    ('{"kind": "atoms", "params": {"offset": "3", "weights": [1.0]}}', "params.offset"),
    ('{"kind": "atoms", "params": {"offset": true, "weights": [1.0]}}', "params.offset"),
    ('{"kind": "power_law", "params": {"beta": 3.0}, "K": 100.9}', "spec.K"),
    ('{"kind": "power_law", "params": {"beta": 3.0}, "K": "20"}', "spec.K"),
    ('{"kind": "log_squared", "K": true}', "spec.K"),
    ('{"kind": "mixture", "params": {"a1": 0.5, "nu": {"kind": "lazy_walk"},'
     ' "eta": {"kind": "power_law", "params": {"beta": 3.0}, "K": "20"}}}', "params.eta.K"),
    ('{"kind": "mixture", "params": {"a1": 0.5, "nu": {"kind": "lazy_walk"},'
     ' "eta": {"kind": "power_law", "params": {"beta": 3.0}, "K": 1e999}}}', "params.eta.K"),
    ('{"kind": "mixture", "params": {"a1": 2.0, "eta": {"kind": "lazy_walk"},'
     ' "nu": {"kind": "lazy_walk"}}}', "params.a1"),
    ('{"kind": "mixture", "params": {"a1": 0.5, "nu": {"kind": "lazy_walk"},'
     ' "eta": {"kind": "power_law", "params": {"beta": 0.5}, "K": 100}}}',
     "params.eta.params.beta"),
    ('{"kind": "mixture", "params": {"a1": 0.5, "nu": {"kind": "lazy_walk"},'
     ' "eta": {"kind": "log_squared"}}}', "params.eta.truncation"),
], ids=["beta-low", "beta-text", "beta-nan", "power-law-K", "beta-missing", "K-missing",
        "log-squared-K", "weight-text", "unnormalized", "offset-text", "offset-fraction",
        "offset-infinite", "offset-numeral-text", "offset-boolean", "K-fraction",
        "K-numeral-text", "K-boolean", "nested-K-numeral-text", "nested-K-infinite", "a1",
        "nested-beta", "nested-K-missing"])
def test_spec_build_names_rejected_field(text, path):
    with pytest.raises(SpecError) as info:
        MeasureSpec.from_json(text).build()
    assert info.value.field_name == path


def test_spec_accepts_integral_float_positions():
    atoms = '{"kind": "atoms", "params": {"offset": 3.0, "weights": [1.0]}}'
    assert MeasureSpec.from_json(atoms).build().offset == 3
    assert MeasureSpec.from_json('{"kind": "log_squared", "K": 100.0}').truncation == 100


def test_spec_rejects_invalid_json():
    with pytest.raises(SpecError, match="document"):
        MeasureSpec.from_json("{not json")

"""Acceptance suite: one test per criterion, each printing a verdict line.

Random inputs are generated from fixed seeds so every run exercises the
same cases.  Stated tolerances are pinned in the assertions.
"""

import copy
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from convpow import (
    LatticeSequence,
    SpectralProfile,
    angular_ratio_sup,
    atoms_measure,
    convolution_power,
    envelope_integrals,
    fit_growth_curve,
    gaussian_decay_rate,
    is_strictly_aperiodic,
    kernel_table,
    lazy_walk,
    lipschitz_exponent_estimate,
    log_squared_measure,
    majorant_fit,
    maximal_function,
    mixture,
    partial_second_moment_curve,
    power_law,
    smoothness_difference_fit,
    transform_aperiodicity_check,
    weak_type_curve,
)
from convpow.cli import main as cli_main
from convpow.kernels import default_table_grids


def verdict(num, description, ok, detail=""):
    line = f"C{num:02d} {description}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def random_measure(rng, max_width=25, periodic=False):
    size = int(rng.integers(2, 9))
    pts = rng.choice(np.arange(max_width), size=size, replace=False)
    pts = np.sort(pts) - pts.min()
    if periodic:
        pts = pts * int(rng.integers(2, 5))
    else:
        while math.gcd(*np.diff(np.sort(pts)).tolist() or [1]) != 1 or size < 2:
            pts = np.sort(rng.choice(np.arange(max_width), size=size, replace=False))
            pts = pts - pts.min()
    pts = pts + int(rng.integers(-12, 13))
    w = rng.uniform(0.5, 1.5, size)
    return atoms_measure({int(k): float(v) for k, v in zip(pts, w)})


def zoo_measures():
    return {
        "lazy_walk": lazy_walk(),
        "uniform3": atoms_measure({-1: 1.0, 0: 1.0, 1: 1.0}),
        "shifted_coin": atoms_measure({0: 0.5, 1: 0.5}),
        "power_law_3": power_law(3.0, 10**4),
        "power_law_2.5": power_law(2.5, 10**4),
        "log_squared": log_squared_measure(10**4),
        "mixture_2.2": mixture(0.5, power_law(3.0, 10**4), lazy_walk()),
        "point_mass": atoms_measure({0: 1.0}),
        "two_sided_even": atoms_measure({-1: 0.5, 1: 0.5}),
        "even_lattice": atoms_measure({-2: 0.25, 0: 0.5, 2: 0.25}),
    }


def test_c01_fast_power_matches_direct_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        mu = random_measure(rng)
        n = int(rng.integers(2, 11))
        fast = convolution_power(mu, n, "fast")
        direct = convolution_power(mu, n, "direct")
        lo = min(fast.offset, direct.offset)
        hi = max(fast.last, direct.last)
        worst = max(
            worst,
            max(abs(fast.weight_at(k) - direct.weight_at(k)) for k in range(lo, hi + 1)),
        )
    elapsed = time.time() - start
    verdict(1, "transform power equals iterated convolution (20 random, n<=10)",
            worst <= 1e-10 and elapsed < 10.0,
            f"sup={worst:.2e} time={elapsed:.1f}s")


def test_c02_lazy_walk_binomial_closed_form():
    mu = lazy_walk()
    worst = 0.0
    for n in range(1, 13):
        for method in ("direct", "fast"):
            power = convolution_power(mu, n, method)
            for x in range(-n, n + 1):
                exact = float(Fraction(math.comb(2 * n, n + x), 4**n))
                worst = max(worst, abs(power.weight_at(x) - exact))
    verdict(2, "lazy walk powers equal scaled central binomials (n<=12)",
            worst <= 1e-12, f"worst={worst:.2e}")


def test_c03_aperiodicity_tests_agree():
    rng = np.random.default_rng(103)
    cases = list(zoo_measures().values())
    for i in range(50):
        cases.append(random_measure(rng, periodic=bool(i % 2)))
    mismatches = sum(
        1 for mu in cases
        if is_strictly_aperiodic(mu) != transform_aperiodicity_check(mu)
    )
    verdict(3, "support gcd test agrees with transform modulus test",
            mismatches == 0, f"{len(cases)} measures, {mismatches} mismatches")


def test_c04_gaussian_decay_positive_and_lazy_value():
    rates = {}
    for name, mu in zoo_measures().items():
        if not is_strictly_aperiodic(mu):
            continue
        rates[name] = gaussian_decay_rate(SpectralProfile(mu, 2**14 + 1))
    lazy_err = abs(rates["lazy_walk"] - math.pi**2)
    verdict(4, "decay rate positive on aperiodic zoo; lazy equals pi^2",
            all(r > 0 for r in rates.values()) and lazy_err <= 1e-3,
            f"lazy err={lazy_err:.1e}, {len(rates)} measures")


def test_c05_exponent_duality_at_full_truncation():
    start = time.time()
    mu = power_law(2.5, 10**6)
    g25 = fit_growth_curve(partial_second_moment_curve(mu)).fitted_exponent
    l25 = lipschitz_exponent_estimate(SpectralProfile(mu).d1_full).exponent
    g3 = fit_growth_curve(partial_second_moment_curve(power_law(3.0, 10**6))).fitted_exponent
    elapsed = time.time() - start
    verdict(5, "growth and smoothness exponents (K=1e6)",
            abs(g25 - 0.5) <= 0.05 and abs(l25 - 0.5) <= 0.1 and g3 <= 0.05
            and elapsed < 60.0,
            f"g2.5={g25:.3f} lip2.5={l25:.3f} g3={g3:.3f} time={elapsed:.1f}s")


def test_c06_envelope_integrals_bounded():
    env_unit = envelope_integrals(np.array([-0.5, 0.5]), np.ones(2), 1.0, 0.5, [4])
    j14_err = abs(env_unit.j1[0] - 0.68359375)

    mu = power_law(3.0, 10**5)
    profile = SpectralProfile(mu)
    fit = majorant_fit(profile, 0.25)
    env = envelope_integrals(profile.grid, profile.phi, fit.k_star, 0.25,
                             [10, 100, 1000, 10000])
    ref1, ref2 = env.j1[1], env.j2[1]
    bounded = env.j1_max <= 2.0 * ref1 and env.j2_max <= 2.0 * ref2
    verdict(6, "envelope integrals: closed form and n-uniform boundedness",
            j14_err <= 1e-8 and bounded,
            f"J1(4) err={j14_err:.1e} maxJ1/J1(100)={env.j1_max/ref1:.2f} "
            f"maxJ2/J2(100)={env.j2_max/ref2:.2f}")


def test_c07_difference_bound_stable_under_extension():
    start = time.time()
    base_n, x_values = default_table_grids(256, 512)
    ext_n, _ = default_table_grids(512, 512)
    mu = lazy_walk()
    fit_base = smoothness_difference_fit(kernel_table(mu, base_n, x_values), 1.0, 1.0)
    fit_ext = smoothness_difference_fit(kernel_table(mu, ext_n, x_values), 1.0, 1.0)
    c0 = fit_base.restricted.fitted_constant
    c1 = fit_ext.restricted.fitted_constant
    change = abs(c1 - c0) / c0
    elapsed = time.time() - start
    verdict(7, "difference-bound constant stable when n doubles 256->512",
            change < 0.10 and elapsed < 300.0,
            f"c256={c0:.5f} c512={c1:.5f} change={change:.2%} time={elapsed:.1f}s")


def test_c08_weak_type_surrogate():
    mu = lazy_walk()
    phi = LatticeSequence.from_values(0, [1.0])
    m256 = maximal_function(mu, phi, 256)
    curve256 = weak_type_curve(m256)
    m512 = maximal_function(mu, phi, 512)
    curve512 = weak_type_curve(m512)

    exact_m0 = m256.values[0 - m256.offset]
    c_04 = weak_type_curve(m256, [0.4]).constants[0]
    h0, h1 = curve256.headline_constant, curve512.headline_constant
    growth = h1 / h0
    verdict(8, "weak-type headline <= 1, stable under depth doubling",
            exact_m0 == 0.5 and c_04 == pytest.approx(0.4, abs=1e-12)
            and h0 <= 1.0 and growth < 1.25,
            f"M(0)={exact_m0} C(0.4)={c_04} headline={h0:.3f} growth={growth:.3f}")


def test_c09_angular_ratio_contrast():
    uniform = SpectralProfile(atoms_measure({-1: 1.0, 0: 1.0, 1: 1.0}))
    rep_u = angular_ratio_sup(uniform)
    coin = SpectralProfile(atoms_measure({0: 0.5, 1: 0.5}))
    rep_c = angular_ratio_sup(coin)
    verdict(9, "angular ratio: uniform sup 2, shifted coin unbounded",
            abs(rep_u.value - 2.0) <= 1e-6 and not rep_u.unbounded and rep_c.unbounded,
            f"uniform={rep_u.value:.9f} coin sups={tuple(f'{s:.3g}' for s in rep_c.refinement_sups)}")


def test_c10_reports_deterministic_across_threads(tmp_path):
    specs = {
        "lazy": '{"kind": "lazy_walk"}',
        "power3": '{"kind": "power_law", "params": {"beta": 3.0}, "K": 10000}',
        "coin": '{"kind": "atoms", "params": {"offset": 0, "weights": [0.5, 0.5]}}',
        # several sections emit findings here
        "point": '{"kind": "atoms", "params": {"offset": 0, "weights": [1.0]}}',
    }
    phi_path = tmp_path / "phi.json"
    phi_path.write_text('{"offset": 0, "weights": [1.0]}')
    spec_paths = {}
    for name, text in specs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        spec_paths[name] = str(p)

    def run_all(threads, tag):
        snapshots = {}
        for name, spec in spec_paths.items():
            out = tmp_path / f"{name}_{tag}_an.json"
            code = cli_main(["analyze", "--spec", spec, "--out", str(out),
                             "--grid-size", "4097", "--threads", str(threads)])
            assert code in (0, 1)
            snapshots[name + "/analyze"] = _stripped(out)
        out = tmp_path / f"lazy_{tag}_kb.json"
        assert cli_main(["verify-bounds", "--spec", spec_paths["lazy"], "--out", str(out),
                         "--n-max", "64", "--x-max", "64", "--delta", "1.0",
                         "--threads", str(threads)]) == 0
        snapshots["lazy/bounds"] = _stripped(out)
        out = tmp_path / f"lazy_{tag}_mx.json"
        assert cli_main(["maximal", "--spec", spec_paths["lazy"], "--phi", str(phi_path),
                         "--out", str(out), "--n-max", "64",
                         "--threads", str(threads)]) == 0
        snapshots["lazy/maximal"] = _stripped(out)
        return snapshots

    runs = {t: run_all(t, f"t{t}") for t in (1, 4, 8)}
    same = runs[1] == runs[4] == runs[8]
    verdict(10, "reports identical across 1, 4, 8 threads",
            same, f"{len(runs[1])} reports compared")


def _stripped(path):
    with open(path) as handle:
        report = json.load(handle)
    report = copy.deepcopy(report)
    report.pop("meta", None)
    return report

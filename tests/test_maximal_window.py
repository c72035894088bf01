"""Windowed maximal function: the certificate against the full pass."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from convpow import atoms_measure, lazy_walk, mixture, power_law
from convpow import report as report_module
from convpow.cli import main
from convpow.maximal import (
    ROUNDOFF_PER_STEP,
    LatticeSequence,
    _Passes,
    count_bounds,
    default_lambda_grid,
    maximal_function,
    weak_type_curve,
)
from convpow.measure import convolution_rows, convolve
from convpow.zoo import MeasureSpec

ROOT = Path(__file__).resolve().parent.parent

WIDE = mixture(0.5, power_law(2.5, 2000), lazy_walk())
GAPPED = atoms_measure({-2000: 0.25, 0: 0.5, 2000: 0.25})
ASYMMETRIC = atoms_measure({-3: 0.2, -1: 0.5, 2: 0.3})
SIGNED5 = LatticeSequence.from_values(-2, [0.5, -1.0, 0.25, 2.0, -0.75])


def points(m):
    """M phi as {lattice index: value} over every run."""
    return {k + i: float(v) for k, run in m.runs() for i, v in enumerate(run)}


def upper_points(m):
    """The bracket's upper end, laid out as the values, as {lattice index: value}."""
    return dict(zip(points(m), map(float, m.bound.upper)))


def direct_maximal(mu, phi, depth):
    """{lattice index: max over n <= depth of |mu^n * phi|}, each power one more
    ``convolve`` of the last: the oracle of ``convolution_power(method="direct")``."""
    best, power = {}, None
    for _ in range(depth):
        power = mu if power is None else convolve(power, mu)
        row = np.abs(np.convolve(power.weights, phi.values))
        for i, v in enumerate(row):
            k = power.offset + phi.offset + i
            best[k] = max(best.get(k, 0.0), float(v))
    return best


def assert_bound_holds(windowed, exact):
    """values - roundoff <= M <= max(upper + roundoff, outer) on the windows and
    M <= outer off them, with ``exact`` M phi as {lattice index: value}."""
    bound, norm = windowed.bound, windowed.phi_norm
    roundoff, outer = bound.roundoff * norm, bound.outer * norm
    lower, upper = points(windowed), upper_points(windowed)
    assert all(lower[k] <= roundoff for k in set(lower) - set(exact))
    for k, value in exact.items():
        if k in lower:
            assert lower[k] - roundoff <= value <= max(upper[k] + roundoff, outer), k
        else:
            assert value <= outer, k


# drifts 5.9 a step, so 32 steps cross the period 16 W = 32 about six times
DRIFT = atoms_measure({2: 0.3, 5: 0.4, 11: 0.3})
FAR = atoms_measure({10**17 - 3: 0.2, 10**17 - 1: 0.5, 10**17 + 2: 0.3})
NONNEGATIVE5 = LatticeSequence.from_values(-2, np.abs(SIGNED5.values))


@pytest.mark.parametrize("mu, phi, depth, half_width", [
    (WIDE, SIGNED5, 24, 256), (WIDE, SIGNED5, 24, 512), (GAPPED, SIGNED5, 24, 256),
    (ASYMMETRIC, SIGNED5, 64, 2), (ASYMMETRIC, SIGNED5, 64, 4), (WIDE, NONNEGATIVE5, 24, 256),
    (ASYMMETRIC, NONNEGATIVE5, 32, 2), (DRIFT, SIGNED5, 32, 2), (DRIFT, NONNEGATIVE5, 32, 2),
    (FAR, SIGNED5, 32, 2)],
    ids=["wide-256", "wide-512", "gapped-256", "asymmetric-2", "asymmetric-4",
         "nonnegative-wide-256", "nonnegative-asymmetric-2", "drift-2", "nonnegative-drift-2",
         "far-2"])
def test_window_bound_holds_pointwise_against_the_full_pass(mu, phi, depth, half_width):
    windowed = _Passes(mu, phi, depth, depth // 2).run(half_width)
    full = maximal_function(mu, phi, depth, checkpoint=depth // 2)
    bound = windowed.bound
    assert bound is not None and (bound.half_width, bound.modulus) == (half_width,
                                                                       16 * half_width)
    assert windowed.prefix.bound.outer <= bound.outer
    assert np.all(windowed.values <= bound.upper + bound.roundoff * windowed.phi_norm)
    assert_bound_holds(windowed, points(full))
    assert_bound_holds(windowed.prefix, points(full.prefix))
    if depth // 2 <= 16:
        assert_bound_holds(windowed.prefix, direct_maximal(mu, phi, depth // 2))


def test_window_bound_is_the_sandwich_by_hand():
    # W = 2 keeps {-3, 0, 3} of mu in the cut pass and the window is [-2, 2] for
    # every row, so the cut rows are 0.5^n at 0.  Modulo M = 32 the atoms at
    # -+200 fold onto -+8, and U_n(k) is the mass of r_n on k's residue:
    #   U_1(0) = 0.5
    #   U_2(0) = 0.25 + 2 (0.05^2) + 2 (0.2^2)             = 0.335
    #   U_3(0) = 0.125 + 6 (0.5 0.05^2) + 6 (0.5 0.2^2)    = 0.2525
    #   U_3(2) = 3 (0.05^2 0.2), as -3 - 3 + 200 = 2 mod 32 = 0.0015
    # and the largest U_n - L_n over the period is 0.2, at the residues -+8 of
    # row 1.  Each bound adds its round-off allowance: (n + 1) steps of
    # ROUNDOFF_PER_STEP log2(2048) at depth n, twice in outer.
    mu = atoms_measure({-200: 0.2, -3: 0.05, 0: 0.5, 3: 0.05, 200: 0.2})
    delta = LatticeSequence.from_values(0, [1.0])
    folded = [row for _, row in convolution_rows(mu.weights, delta.values, range(1, 4),
                                                 modulus=32)]
    # point k of row n sits in slot (k + 200 n) mod 32
    assert [folded[n - 1][(200 * n) % 32] for n in (1, 2, 3)] == pytest.approx(
        [0.5, 0.335, 0.2525], rel=1e-13)
    assert folded[2][(2 + 600) % 32] == pytest.approx(0.0015, rel=1e-12)
    m = _Passes(mu, delta, 3, 1).run(2)
    step = ROUNDOFF_PER_STEP * 11
    assert (m.bound.half_width, m.bound.modulus) == (2, 32)
    assert (m.prefix.bound.roundoff, m.bound.roundoff) == (2 * step, 4 * step)
    assert m.prefix.bound.outer == pytest.approx(0.2 + 4 * step, rel=1e-13, abs=0)
    assert m.bound.outer == pytest.approx(0.2 + 8 * step, rel=1e-13, abs=0)
    window = {k: 0.0 for k in range(-2, 3)}
    assert points(m) == pytest.approx({**window, 0: 0.5}, abs=1e-15)
    assert upper_points(m) == pytest.approx(
        {**window, 0: 0.5, -2: 0.0015, 2: 0.0015}, abs=1e-15)
    assert upper_points(m.prefix) == pytest.approx({**window, 0: 0.5}, abs=1e-15)
    # 0.5 at 0 is in every level set below it; below outer = 0.2 the count is
    # open, and the full pass's 3 (0 and -+200) lies in [1, oo)
    for part in (m, m.prefix):
        assert count_bounds(part, [0.3, 1.0, 0.1]) == ((0, 1, 1), (0, 1, None))
    full = maximal_function(mu, delta, 3)
    counts = weak_type_curve(full, [0.3, 1.0, 0.1]).counts
    assert counts == (0, 1, 3)
    assert count_bounds(full, [0.3, 1.0, 0.1]) == (counts, counts)


def test_window_bound_shrinks_as_the_window_doubles():
    outer = [_Passes(WIDE, SIGNED5, 48).run(w).bound.outer
             for w in (256, 512, 1024)]
    assert outer[0] > outer[1] > outer[2]
    assert outer[2] < 1e-4


def test_heavy_tail_certifies_in_one_pass():
    # the cut pass drops much of a heavy tail's mass, and the folded pass bounds
    # it where it lands, so the first half-width certifies
    mu, phi = power_law(2.5, 3000), LatticeSequence.from_values(-8, [1.0] * 16)
    grid = default_lambda_grid(1e-4)
    certified = maximal_function(mu, phi, 48, checkpoint=24, lambda_values=grid)
    assert certified.passes == 1 and certified.bound.half_width == 256
    full = maximal_function(mu, phi, 48, checkpoint=24)
    for cut, exact in ((certified, full), (certified.prefix, full.prefix)):
        lo, hi = count_bounds(cut, grid)
        assert lo == hi == weak_type_curve(exact, grid).counts


def bench_inputs(seed):
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    spec_doc, phi_doc = workloads.WORKLOADS["maximal"].inputs(seed)
    flags = workloads.WORKLOADS["maximal"].flags
    n_max = int(flags[flags.index("--n-max") + 1])
    return MeasureSpec.from_dict(spec_doc).build(), LatticeSequence.from_dict(phi_doc), n_max


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_certified_counts_equal_the_full_pass_on_the_bench_inputs(seed):
    mu, phi, n_max = bench_inputs(seed)
    grid = default_lambda_grid(1e-4)
    certified = maximal_function(mu, phi, 2 * n_max, checkpoint=n_max, lambda_values=grid)
    assert certified.passes == 1
    assert (certified.bound.half_width, certified.bound.modulus) == (256, 4096)
    full = maximal_function(mu, phi, 2 * n_max, checkpoint=n_max)
    for cut, exact in ((certified, full), (certified.prefix, full.prefix)):
        lo, hi = count_bounds(cut, grid)
        assert lo == hi == weak_type_curve(cut, grid).counts == weak_type_curve(exact, grid).counts
        assert cut.values.max() == pytest.approx(exact.values.max(), rel=1e-12)


def test_gapped_law_falls_back_to_the_full_pass():
    # mass at +-2000 is never inside a window that pays, so the full pass runs
    grid = default_lambda_grid(1e-4)
    m = maximal_function(GAPPED, SIGNED5, 16, checkpoint=8, lambda_values=grid)
    full = maximal_function(GAPPED, SIGNED5, 16, checkpoint=8)
    assert m.bound is None and m.passes >= 1
    for got, want in ((m, full), (m.prefix, full.prefix)):
        assert (got.offset, got.breaks, got.n_max) == (want.offset, want.breaks, want.n_max)
        assert got.values.tobytes() == want.values.tobytes()


def test_a_pass_that_cannot_help_stops_the_doubling():
    # at W = 256 and 512 the atoms at +-2000 stay outside the cut pass: the same
    # counts stay open and outer does not shrink, so the full pass runs after two
    # cut passes instead of four
    grid = default_lambda_grid(1e-4)
    m = maximal_function(GAPPED, SIGNED5, 48, checkpoint=24, lambda_values=grid)
    full = maximal_function(GAPPED, SIGNED5, 48, checkpoint=24)
    assert m.bound is None and m.passes == 2
    for got, want in ((m, full), (m.prefix, full.prefix)):
        assert got.values.tobytes() == want.values.tobytes()


def test_every_pass_runs_on_transforms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", refuse)
    # near holds the 1025 points of WIDE within 2W of its centre: 1025 + 2W fit in 2048
    windowed = _Passes(WIDE, SIGNED5, 24).run(256)
    assert windowed.bound is not None and windowed.fft_size == 2048
    # the full pass's deepest row holds 5 + 24 * 4000 points
    full = maximal_function(WIDE, SIGNED5, 24)
    assert full.bound is None and full.fft_size == 131072


def test_lazy_walk_report_is_the_full_pass_report(tmp_path, monkeypatch):
    (tmp_path / "lazy.json").write_text('{"kind": "lazy_walk"}')
    (tmp_path / "phi.json").write_text('{"offset": 0, "weights": [1.0]}')

    def run(name):
        out = tmp_path / f"{name}.json"
        assert main(["maximal", "--spec", str(tmp_path / "lazy.json"), "--phi",
                     str(tmp_path / "phi.json"), "--out", str(out), "--n-max", "64"]) == 0
        report = json.loads(out.read_text())
        return report, (tmp_path / f"{name}.levelsets.csv").read_bytes()

    windowed, windowed_levels = run("windowed")
    # the full pass alone, as before the window existed
    full_pass = report_module.maximal_function
    monkeypatch.setattr(report_module, "maximal_function",
                        lambda mu, phi, n_max, checkpoint, lambda_values:
                        full_pass(mu, phi, n_max, checkpoint=checkpoint))
    full, full_levels = run("full")
    assert windowed.pop("meta")["resources"]["maximal"] == {
        "half_width": None, "modulus": None, "count_bound": None, "passes": 0,
        "fft_size": 512, "max_value_upper": None}
    full.pop("meta")
    assert windowed_levels == full_levels
    assert json.dumps(windowed, sort_keys=True) == json.dumps(full, sort_keys=True)


def test_far_translation_costs_what_the_origin_costs():
    # one run per row: the rows of a law at 1e17 never meet
    far = atoms_measure({10**17 - 1: 0.25, 10**17: 0.5, 10**17 + 1: 0.25})
    phi = LatticeSequence.from_values(0, [1.0])
    m = maximal_function(far, phi, 16)
    assert len(m.runs()) == 16 and m.values.size == sum(2 * n + 1 for n in range(1, 17))
    assert [k for k, _ in m.runs()] == [n * (10**17 - 1) for n in range(1, 17)]
    near = maximal_function(lazy_walk(), phi, 1)
    assert m.runs()[0][1].tobytes() == near.values.tobytes()


@pytest.mark.parametrize("levels", [[0.5, -1.0], [0.5, float("nan")], [float("inf")], []])
def test_lambda_values_validation(levels):
    # refused up front, also where no window pays and the full pass runs alone
    for mu in (lazy_walk(), WIDE):
        with pytest.raises(ValueError, match="lambda grid"):
            maximal_function(mu, SIGNED5, 8, lambda_values=levels)
    with pytest.raises(ValueError, match="lambda grid"):
        weak_type_curve(maximal_function(lazy_walk(), SIGNED5, 8), levels)


def test_zero_phi_takes_the_full_pass():
    # nothing to bracket relative to ||phi||_1 = 0: the values are the full pass's zeros
    mu, zero = power_law(2.5, 10000), LatticeSequence.from_values(0, [0.0, 0.0])
    windowed = maximal_function(mu, zero, 8, checkpoint=4, lambda_values=default_lambda_grid())
    full = maximal_function(mu, zero, 8, checkpoint=4)
    assert windowed.bound is None and windowed.phi_norm == 0.0
    assert not windowed.values.any() and windowed.values.size == full.values.size
    assert windowed.prefix.values.tobytes() == full.prefix.values.tobytes()


def test_without_levels_the_call_is_one_full_pass():
    m = maximal_function(WIDE, SIGNED5, 8)
    assert m.bound is None and m.passes == 0 and len(m.runs()) == 1
    assert m.values.size == 5 + 8 * 4000


def test_maximal_command_calls_maximal_function_once(tmp_path, monkeypatch):
    # the gapped law runs windowed passes, then the full pass: all in one call
    weights = [0.0] * 4001
    weights[0], weights[2000], weights[4000] = 0.25, 0.5, 0.25
    spec = {"kind": "atoms", "params": {"offset": -2000, "weights": weights}}
    (tmp_path / "gapped.json").write_text(json.dumps(spec))
    (tmp_path / "phi.json").write_text('{"offset": -2, "weights": [0.5, -1.0, 0.25, 2.0, -0.75]}')
    calls, inner = [], report_module.maximal_function

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(report_module, "maximal_function", counted)
    out = tmp_path / "gapped.out.json"
    assert main(["maximal", "--spec", str(tmp_path / "gapped.json"), "--phi",
                 str(tmp_path / "phi.json"), "--out", str(out), "--n-max", "8"]) == 0
    resources = json.loads(out.read_text())["meta"]["resources"]["maximal"]
    assert len(calls) == 1 and calls[0]["checkpoint"] == 8
    assert resources["passes"] >= 1 and resources["half_width"] is None


def test_max_value_bracket_holds_the_full_pass_max():
    # the report's max_value is the windowed lower bound; max_value_upper tops it
    phi = LatticeSequence.from_values(-8, [1.0] * 16)
    report, _ = report_module.maximal_report(MeasureSpec("power_law", {"beta": 2.5}, 3000),
                                             phi, n_max=24)
    resources, section = report["meta"]["resources"]["maximal"], report["maximal"]
    assert resources["passes"] == 1 and resources["half_width"] == 256
    exact = maximal_function(power_law(2.5, 3000), phi, 24).values.max() / phi.l1_norm()
    low = section["max_value"] / section["phi_norm"]
    assert low <= exact <= resources["max_value_upper"] <= low + 1e-9
    windowed = maximal_function(power_law(2.5, 3000), phi, 48, checkpoint=24,
                                lambda_values=default_lambda_grid(1e-4))
    assert resources["max_value_upper"] == windowed.prefix.bound.top
    for bound in (windowed.prefix.bound, windowed.bound):   # the documented top, bit for bit
        assert bound.top == max(float(bound.upper.max()) / windowed.phi_norm + bound.roundoff,
                                bound.outer)

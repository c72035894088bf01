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
    count_bounds,
    default_lambda_grid,
    maximal_function,
    weak_type_curve,
)
from convpow.zoo import MeasureSpec

ROOT = Path(__file__).resolve().parent.parent

WIDE = mixture(0.5, power_law(2.5, 2000), lazy_walk())
GAPPED = atoms_measure({-2000: 0.25, 0: 0.5, 2000: 0.25})
ASYMMETRIC = atoms_measure({-3: 0.2, -1: 0.5, 2: 0.3})
SIGNED5 = LatticeSequence.from_values(-2, [0.5, -1.0, 0.25, 2.0, -0.75])


def points(m):
    """M phi as {lattice index: value} over every run."""
    return {k + i: float(v) for k, run in m.runs() for i, v in enumerate(run)}


def assert_bound_holds(windowed, full):
    """M_W - inner <= M <= max(M_W + inner, outer) inside the windows, M <= outer outside."""
    inner, outer = (b * windowed.phi_norm for b in (windowed.bound.inner, windowed.bound.outer))
    cut, exact = points(windowed), points(full)
    assert set(cut) - set(exact) <= {k for k, v in cut.items() if v <= inner}
    for k, value in exact.items():
        if k in cut:
            assert cut[k] - inner <= value <= max(cut[k] + inner, outer), k
        else:
            assert value <= outer, k


@pytest.mark.parametrize("mu, depth, half_width", [
    (WIDE, 24, 256), (WIDE, 24, 512), (GAPPED, 24, 256), (ASYMMETRIC, 64, 2),
    (ASYMMETRIC, 64, 4)], ids=["wide-256", "wide-512", "gapped-256", "asymmetric-2",
                               "asymmetric-4"])
def test_window_bound_holds_pointwise_against_the_full_pass(mu, depth, half_width):
    windowed = maximal_function(mu, SIGNED5, depth, checkpoint=depth // 2,
                                half_width=half_width)
    full = maximal_function(mu, SIGNED5, depth, checkpoint=depth // 2)
    assert windowed.bound is not None and windowed.bound.half_width == half_width
    assert windowed.prefix.bound.inner <= windowed.bound.inner
    assert_bound_holds(windowed, full)
    assert_bound_holds(windowed.prefix, full.prefix)


def test_window_bound_follows_its_recursion_by_hand():
    # W = 2 keeps {-3, 0, 3} of mu (F = 0.4 and f = 0.2 beyond, max(mu) = 0.5) and
    # row n's window is [-2, 2].  From the unit mass at 0, row n's cut row is
    # 0.5^n at 0 and u_n puts 0.05 * 0.5^(n-1) at +-3, so with D the mass dropped:
    #   n = 1: error 0.2 * 1                       = 0.2,   margin 0.05,   D = 0.5
    #   n = 2: error 0.5 * 0.5 + 0.2 * 0.5         = 0.35,  margin 0.025,  D = 0.75
    #   n = 3: error 0.5 * 0.75 + 0.2 * 0.25       = 0.425, margin 0.0125
    # and each step adds ROUNDOFF_PER_STEP * log2(2048) to the allowance.
    mu = atoms_measure({-200: 0.2, -3: 0.05, 0: 0.5, 3: 0.05, 200: 0.2})
    m = maximal_function(mu, LatticeSequence.from_values(0, [1.0]), 3, checkpoint=1,
                         half_width=2)
    step = ROUNDOFF_PER_STEP * 11
    assert m.prefix.bound.inner == pytest.approx(0.2 + step, rel=1e-13, abs=0)
    assert m.prefix.bound.outer == pytest.approx(0.25 + step, rel=1e-13, abs=0)
    assert m.bound.inner == pytest.approx(0.425 + 3 * step, rel=1e-13, abs=0)
    assert m.bound.outer == pytest.approx(0.4375 + 3 * step, rel=1e-13, abs=0)
    assert m.bound.inner - 0.425 == pytest.approx(3 * step, rel=1e-2, abs=0)
    assert points(m) == pytest.approx({k: 0.5 if k == 0 else 0.0 for k in range(-2, 3)})
    # M_W is 0.5 at 0 alone: level 1 is certified empty, at 0.6 the count lies in
    # [0, 1], and at 0.4 the bound outside the window (0.4375) reaches the level
    assert count_bounds(m, [0.4, 1.0, 0.6]) == ((0, 0, 0), (0, 1, None))
    full = maximal_function(mu, LatticeSequence.from_values(0, [1.0]), 3)
    counts = weak_type_curve(full, [0.4, 1.0, 0.6]).counts
    assert count_bounds(full, [0.4, 1.0, 0.6]) == (counts, counts)


def test_window_bound_shrinks_as_the_window_doubles():
    outer = [maximal_function(WIDE, SIGNED5, 48, half_width=w).bound.outer
             for w in (256, 512, 1024)]
    assert outer[0] > outer[1] > outer[2]
    assert outer[2] < 1e-4


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
    certified, passes = report_module._certified_maximal(mu, phi, n_max, grid)
    assert certified.bound is not None and passes >= 1
    full = maximal_function(mu, phi, 2 * n_max, checkpoint=n_max)
    for cut, exact in ((certified, full), (certified.prefix, full.prefix)):
        lo, hi = count_bounds(cut, grid)
        assert lo == hi == weak_type_curve(cut, grid).counts == weak_type_curve(exact, grid).counts
        assert cut.values.max() == pytest.approx(exact.values.max(), rel=1e-12)


def test_gapped_law_falls_back_to_the_full_pass():
    # mass at +-2000 is never inside a window that pays, so the full pass runs
    grid = default_lambda_grid(1e-4)
    m, passes = report_module._certified_maximal(GAPPED, SIGNED5, 8, grid)
    full = maximal_function(GAPPED, SIGNED5, 16, checkpoint=8)
    assert m.bound is None and passes >= 1
    for got, want in ((m, full), (m.prefix, full.prefix)):
        assert (got.offset, got.breaks, got.n_max) == (want.offset, want.breaks, want.n_max)
        assert got.values.tobytes() == want.values.tobytes()


def test_a_pass_that_cannot_help_stops_the_doubling():
    # at W = 256 and 512 the atoms at +-2000 stay outside the window: the same
    # counts stay open and inner stays about 0.5, so the full pass runs after two
    # cut passes instead of four
    grid = default_lambda_grid(1e-4)
    m, passes = report_module._certified_maximal(GAPPED, SIGNED5, 24, grid)
    full = maximal_function(GAPPED, SIGNED5, 48, checkpoint=24)
    assert m.bound is None and passes == 2
    for got, want in ((m, full), (m.prefix, full.prefix)):
        assert got.values.tobytes() == want.values.tobytes()


def test_every_pass_runs_on_transforms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", refuse)
    # near holds the 1025 points of WIDE within 2W of its centre: 1025 + 2W fit in 2048
    windowed = maximal_function(WIDE, SIGNED5, 24, half_width=256)
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
                        lambda mu, phi, n_max, checkpoint, half_width:
                        full_pass(mu, phi, n_max, checkpoint=checkpoint))
    full, full_levels = run("full")
    assert windowed.pop("meta")["resources"]["maximal"] == {
        "half_width": None, "count_bound": None, "passes": 0, "fft_size": 512}
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


def test_half_width_validation():
    with pytest.raises(ValueError, match="half_width"):
        maximal_function(lazy_walk(), SIGNED5, 8, half_width=0)

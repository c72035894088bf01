"""CLI commands, report schema, exit codes, and determinism."""

import copy
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import convpow
from convpow import convolution_power, lazy_walk
from convpow import cli as cli_module
from convpow import report as report_module
from convpow.cli import SIDECAR_BLOCK_ROWS, _write_sidecar, main
from convpow.errors import PrecisionExhausted
from convpow.kernels import default_table_grids, kernel_table, smoothness_difference_fit
from convpow.maximal import (
    LatticeSequence,
    default_lambda_grid,
    maximal_function,
    weak_type_curve,
)
from convpow.measure import ROUNDOFF_PER_STEP
from convpow.report import validate_report
from convpow.spectral import SpectralProfile, grid_has_node_in, grid_nodes
from convpow.tails import partial_second_moment_curve
from convpow.zoo import MAX_MIXTURE_DEPTH, MAX_PARAMS_NESTING, MeasureSpec

LAZY = '{"kind": "lazy_walk"}'
BETA_LOW = '{"kind": "power_law", "params": {"beta": 0.5}, "K": 100}'
DELTA0 = '{"kind": "atoms", "params": {"offset": 0, "weights": [1.0]}}'
PHI0 = '{"offset": 0, "weights": [1.0]}'
NAN_TAIL = '{"kind": "atoms", "params": {"offset": 0, "weights": [0.3, 0.2], "tail_mass": NaN}}'


def atoms(offset, weights):
    return json.dumps({"kind": "atoms", "params": {"offset": offset, "weights": weights}})


def mixture_of(eta, nu):
    """The half-and-half mixture of two spec texts."""
    return json.dumps({"kind": "mixture",
                       "params": {"a1": 0.5, "eta": json.loads(eta), "nu": json.loads(nu)}})


def nested_mixture(depth):
    spec = LAZY
    for _ in range(depth):
        spec = mixture_of(spec, LAZY)
    return spec


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load(path):
    with open(path) as handle:
        return json.load(handle)


def strip_volatile(report):
    out = copy.deepcopy(report)
    out.pop("meta", None)
    return out


# -- analyze -------------------------------------------------------------------

def test_analyze_lazy(tmp_path):
    spec = write(tmp_path, "lazy.json", LAZY)
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--spec", spec, "--out", out, "--grid-size", "4097"]) == 0
    report = load(out)
    validate_report(report)
    assert report["measure"]["strict_aperiodicity"] is True
    assert report["measure"]["transform_aperiodicity_check"] is True
    assert report["spectral"]["gaussian_decay_rate"]["value"] == pytest.approx(
        9.8696, abs=1e-3
    )
    assert report["tails"]["growth"]["exponent"] == pytest.approx(0.0, abs=1e-6)
    assert report["findings"] == []
    # the quadrature's cost is in meta, not in the envelope section
    assert report["meta"]["resources"] == {
        "envelope": {"passes": 1, "panels": 2050},
        "spectral": {"profile_fft_points": 4097, "aperiodicity_fft_points": 32805,
                     "ladder_block": [2, 2]},   # the lazy walk: width 3
    }
    assert report["spectral"]["envelope_integrals"].keys().isdisjoint({"passes", "panels"})
    assert (tmp_path / "report.profile.csv").exists()
    assert (tmp_path / "report.growth.csv").exists()
    header = (tmp_path / "report.profile.csv").read_text().splitlines()[0]
    assert header == "t,re_theta,im_theta,abs_theta,re_d1,im_d1,re_d2,im_d2,phi"


def test_analyze_power_law_report_fields(tmp_path):
    spec = write(tmp_path, "pl.json",
                 '{"kind": "power_law", "params": {"beta": 3.0}, "K": 100000}')
    out = str(tmp_path / "pl_report.json")
    assert main(["analyze", "--spec", spec, "--out", out, "--grid-size", "8193"]) == 0
    report = load(out)
    validate_report(report)
    assert report["measure"]["transform_is_proxy"] is True
    assert report["spectral"]["majorant"]["k_star"] > 0
    assert report["spectral"]["envelope_integrals"] is not None
    assert report["tails"]["growth"]["exponent"] <= 0.05


def test_analyze_small_truncation_growth_refused_without_finding(tmp_path):
    spec = write(tmp_path, "pl.json",
                 '{"kind": "power_law", "params": {"beta": 3.0}, "K": 1000}')
    out = str(tmp_path / "pl_report.json")
    assert main(["analyze", "--spec", spec, "--out", out, "--grid-size", "4097"]) == 0
    report = load(out)
    assert report["tails"]["growth"] is None
    assert any("growth fit skipped" in n for n in report["notes"])


def test_analyze_point_mass_sentinels(tmp_path):
    spec = write(tmp_path, "d0.json", DELTA0)
    out = str(tmp_path / "d0.json.out")
    code = main(["analyze", "--spec", spec, "--out", out, "--grid-size", "4097"])
    assert code == 1  # diagnostics refused count as findings
    report = load(out)
    validate_report(report)
    assert report["spectral"]["angular_ratio"]["refused"] is True
    assert report["spectral"]["angular_ratio"]["value"] is None
    assert report["spectral"]["angular_ratio"]["detail"]
    codes = {f["code"] for f in report["findings"]}
    assert "angular_ratio_refused" in codes
    # no envelope integrals, and the refused probe used no ladder block
    assert report["meta"]["resources"] == {
        "spectral": {"profile_fft_points": 4097, "aperiodicity_fft_points": 32805,
                     "ladder_block": None}}


def test_analyze_malformed_spec_exit_2(tmp_path, capsys):
    spec = write(tmp_path, "bad.json", '{"kind": "power_law", "K": 100}')
    out = str(tmp_path / "never.json")
    assert main(["analyze", "--spec", spec, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "params.beta" in err


def test_analyze_invalid_json_exit_2(tmp_path, capsys):
    spec = write(tmp_path, "broken.json", "{oops")
    assert main(["analyze", "--spec", spec, "--out", str(tmp_path / "x.json")]) == 2
    assert "input error" in capsys.readouterr().err


# -- verify-bounds ---------------------------------------------------------------

def test_verify_bounds_lazy(tmp_path):
    spec = write(tmp_path, "lazy.json", LAZY)
    out = str(tmp_path / "bounds.json")
    code = main(["verify-bounds", "--spec", spec, "--out", out,
                 "--n-max", "64", "--x-max", "64", "--delta", "1.0"])
    assert code == 0
    report = load(out)
    validate_report(report)
    kb = report["kernel_bounds"]
    for key in ("pointwise", "small_n", "smoothness_restricted",
                "smoothness_global", "oscillation_kernel"):
        assert kb[key] is not None
        assert kb[key]["fitted_constant"] is not None
    assert (tmp_path / "bounds.kernel.csv").exists()
    # the first modulus, 1024, is past 1/16 of the 256-point padded rows: one unfolded pass
    table = report["meta"]["resources"]["kernel_table"]
    assert table["moduli"] == [kb["modulus"]] == [256] and kb["alias_error"] == 0.0
    assert 0.0 <= table["clamp_deficit"] <= 1e-9
    # n_max 64 steps of the a-priori round-off allowance at the 256-point modulus
    assert table["roundoff_bound"] == 64 * ROUNDOFF_PER_STEP * 8
    # shifts -32 .. 32 without 0; the exact scans are those of the in-process fit
    fits = smoothness_difference_fit(kernel_table(lazy_walk(), *default_table_grids(64, 64)),
                                     1.0, 1.0)
    assert report["meta"]["resources"]["smoothness_fit"] == {
        "shifts": 64, "scanned": {"restricted": fits.scanned[0], "global": fits.scanned[1]},
        "cells": fits.cells}
    assert all(1 <= count < 64 for count in fits.scanned)
    # of the 65 by 129 (y, x) cells, the sweep keeps those of the columns |x| >= 2|y|
    # of each block; 4,096 have 2|y| <= |x|, y != 0
    assert fits.cells == 8064


def test_verify_bounds_n_max_one_empty_regime_not_fatal(tmp_path):
    spec = write(tmp_path, "lazy.json", LAZY)
    out = str(tmp_path / "tiny.json")
    code = main(["verify-bounds", "--spec", spec, "--out", out,
                 "--n-max", "1", "--x-max", "8", "--delta", "1.0"])
    assert code == 0  # empty regimes are notes, not findings
    report = load(out)
    # with a single power the restricted difference regime has no tuples
    assert report["kernel_bounds"]["smoothness_restricted"]["empty"] is True
    assert report["kernel_bounds"]["smoothness_restricted"]["fitted_constant"] is None
    assert any("empty" in n for n in report["notes"])


def test_verify_bounds_estimates_delta(tmp_path):
    spec = write(tmp_path, "lazy.json", LAZY)
    out = str(tmp_path / "est.json")
    assert main(["verify-bounds", "--spec", spec, "--out", out,
                 "--n-max", "16", "--x-max", "16"]) == 0
    report = load(out)
    assert report["kernel_bounds"]["delta"] == pytest.approx(1.0, abs=0.05)
    assert any("delta estimated" in n for n in report["notes"])


def precision_exhausted_report(monkeypatch):
    """verify_bounds_report on the lazy walk with a kernel table that runs out of precision."""
    def exhausted(*args, **kwargs):
        raise PrecisionExhausted("clamping deficit 1.000e-03 exceeds 1e-09")

    monkeypatch.setattr(report_module, "kernel_table", exhausted)
    return report_module.verify_bounds_report(
        MeasureSpec("lazy_walk"), n_max=16, x_max=8, delta=1, alpha=1)


def test_verify_bounds_precision_exhausted_keeps_shared_keys(monkeypatch):
    report, sidecars = precision_exhausted_report(monkeypatch)
    validate_report(report)
    assert sidecars == {}
    assert [f["code"] for f in report["findings"]] == ["precision_exhausted"]
    assert report["kernel_bounds"] == {
        "delta": 1.0, "alpha": 1.0, "n_max": 16, "x_max": 8,
        "pointwise": None, "small_n": None, "smoothness_restricted": None,
        "smoothness_global": None, "oscillation_kernel": None}
    assert type(report["kernel_bounds"]["delta"]) is float
    assert "resources" not in report["meta"]


README_MIXTURE = json.dumps({"kind": "mixture", "params": {
    "a1": 0.5, "eta": {"kind": "power_law", "params": {"beta": 3.0}, "K": 100000},
    "nu": {"kind": "lazy_walk", "params": {}}}})


def test_verify_bounds_readme_mixture_folds_the_table(tmp_path):
    # the unfolded rows would be padded to 2^27 points for this 200,003-point law
    spec = write(tmp_path, "mixture.json", README_MIXTURE)
    out = str(tmp_path / "mixture_bounds.json")
    assert main(["verify-bounds", "--spec", spec, "--out", out]) == 0
    report = load(out)
    bounds = report["kernel_bounds"]
    assert bounds["n_max"] == 512 and bounds["x_max"] == 512
    assert bounds["modulus"] <= 2**19
    assert bounds["alias_error"] <= 1e-12
    # doubling from 8192, each rung once, up to the kept modulus
    table = report["meta"]["resources"]["kernel_table"]
    moduli = table["moduli"]
    assert moduli == [8192 << k for k in range(len(moduli))] and moduli[-1] == bounds["modulus"]
    # every cell of the rows folded at 2^17 holds aliased mass: no raw value is negative
    assert moduli[-1] == 2**17 and table["clamp_deficit"] == 0.0
    # rows n <= 16 against the unfolded rows (n = 32 would pad to 2^23 points), each
    # cell within alias_error plus a round-off scale of n eps log2(N) at N = 2^22
    mu = MeasureSpec.from_dict(json.loads(README_MIXTURE)).build()
    cells = np.loadtxt(tmp_path / "mixture_bounds.kernel.csv", delimiter=",", skiprows=1)
    for n in (1, 2, 4, 8, 16):
        row = cells[cells[:, 0] == n]
        power = convolution_power(mu, n)
        exact = np.array([power.weight_at(x) for x in row[:, 1].astype(int)])
        roundoff = n * np.finfo(float).eps * 22
        assert np.all(np.abs(row[:, 2] - exact) <= bounds["alias_error"] + roundoff)


def test_overflowing_powers_leave_stderr_empty(tmp_path):
    # |x|**(1 + delta) and |x|**(delta/8) overflow to inf, the intended limit
    spec = write(tmp_path, "lazy.json", LAZY)
    for delta in ("1e300", "200"):
        proc = run_module("verify-bounds", "--spec", spec, "--out", str(tmp_path / "b.json"),
                          "--n-max", "64", "--x-max", "64", "--delta", delta)
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""


def test_phi_near_the_float_maximum_gives_the_curve_of_a_unit_phi(tmp_path):
    # the running spectrum runs every step; its unnormalized inverse overflowed
    # at ||phi||_1 = 1.6e308 although every value of M phi is finite
    spec = write(tmp_path, "spec.json", '{"kind": "power_law", "params": {"beta": 3}, "K": 3000}')
    runs = {}
    for name, weights in (("huge", "[8e307, 8e307]"), ("unit", "[1, 1]")):
        phi = write(tmp_path, f"{name}.phi.json", f'{{"offset": 0, "weights": {weights}}}')
        out = tmp_path / f"{name}.json"
        proc = run_module("maximal", "--spec", spec, "--phi", phi, "--out", str(out),
                          "--n-max", "8")
        assert proc.returncode == 0
        assert proc.stderr == ""
        runs[name] = load(out)["maximal"], (tmp_path / f"{name}.levelsets.csv").read_text()
    (huge, huge_levels), (unit, unit_levels) = runs["huge"], runs["unit"]
    assert huge_levels == unit_levels
    assert huge.pop("max_value") == pytest.approx(8e307 * unit.pop("max_value"), rel=1e-12)
    assert huge.pop("phi_norm") == 1.6e308 and unit.pop("phi_norm") == 2.0
    assert huge == unit


# lattice positions whose n-fold reach leaves int64; maximal keeps one array per
# run of rows that meet, so its rows here cost what they cost at the origin
FAR_ATOMS = [json.dumps({"kind": "atoms", "params": {"offset": offset, "weights": weights}})
             for offset in (10**17, -4 * 10**18) for weights in ([0.25, 0.5, 0.25], [0.5, 0.5])]


@pytest.mark.parametrize("spec_text", FAR_ATOMS, ids=["1e17-3", "1e17-2", "-4e18-3", "-4e18-2"])
@pytest.mark.parametrize("command, flags", [("analyze", ["--grid-size", "4097"]),
                                            ("verify-bounds", []),
                                            ("maximal", ["--phi", "phi.json", "--n-max", "16"])],
                         ids=["analyze", "verify-bounds", "maximal"])
def test_far_lattice_positions_report_without_traceback(tmp_path, capsys, monkeypatch,
                                                        spec_text, command, flags):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "phi.json", PHI0)
    out = str(tmp_path / "report.json")
    code = main([command, "--spec", write(tmp_path, "spec.json", spec_text), "--out", out,
                 *flags])
    assert code in (0, 1)
    validate_report(load(out))
    assert "Traceback" not in capsys.readouterr().err


# -- maximal ----------------------------------------------------------------------

def test_maximal_lazy(tmp_path):
    spec = write(tmp_path, "lazy.json", LAZY)
    phi = write(tmp_path, "phi.json", PHI0)
    out = str(tmp_path / "max.json")
    code = main(["maximal", "--spec", spec, "--phi", phi, "--out", out,
                 "--n-max", "64"])
    assert code == 0
    report = load(out)
    validate_report(report)
    section = report["maximal"]
    assert section["max_value"] == 0.5
    assert section["headline_constant"] <= 1.0
    assert section["doubling"]["n_max"] == 128
    assert section["doubling"]["within_25pct"] is True
    assert (tmp_path / "max.levelsets.csv").exists()
    # no window cuts the lazy walk: the full pass to depth 128 pads 1 + 128 * 2 points
    assert report["meta"]["resources"]["maximal"] == {
        "half_width": None, "modulus": None, "count_bound": None, "passes": 0,
        "fft_size": 512, "max_value_upper": None}


def test_maximal_levels_are_relative_to_the_phi_norm():
    phi = LatticeSequence.from_values(-1, [0.5, 1.0, 0.25])
    scaled = LatticeSequence.from_values(-1, 1024 * phi.values)
    (small, small_cars), (big, big_cars) = (
        report_module.maximal_report(MeasureSpec("lazy_walk"), p, n_max=16)
        for p in (phi, scaled))
    header, small_levels = small_cars["levelsets"]
    assert header == ["lambda", "count", "constant"]
    assert np.array_equal(small_levels, big_cars["levelsets"][1])
    assert small_levels[:, 1].max() > 0
    for key in ("headline_constant", "doubling"):
        assert small["maximal"][key] == big["maximal"][key]


def test_maximal_zero_phi_exit_2(tmp_path, capsys):
    spec = write(tmp_path, "lazy.json", LAZY)
    phi = write(tmp_path, "zero.json", '{"offset": 0, "weights": [0.0]}')
    code = main(["maximal", "--spec", spec, "--phi", phi,
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "zero l1 norm" in capsys.readouterr().err


# -- input errors ---------------------------------------------------------------

@pytest.mark.parametrize("command, spec_text, flags, field", [
    ("analyze", BETA_LOW, [], "params.beta"),
    ("analyze", LAZY, ["--grid-size", "5"], "--grid-size"),
    ("verify-bounds", LAZY, ["--n-max", "0"], "--n-max"),
    ("verify-bounds", LAZY, ["--alpha", "2"], "--alpha"),
    ("maximal", LAZY, ["--n-max", "0"], "--n-max"),
    ("maximal", LAZY, ["--lambda-min", "2"], "--lambda-min"),
    ("analyze", LAZY, ["--delta", "nan"], "--delta"),
    ("analyze", LAZY, ["--delta", "inf"], "--delta"),
    ("analyze", LAZY, ["--delta", "0"], "--delta"),
    ("analyze", LAZY, ["--delta", "-1"], "--delta"),
    ("analyze", LAZY, ["--puncture", "0.6"], "--puncture"),
    ("analyze", LAZY, ["--puncture", "2"], "--puncture"),
    ("analyze", LAZY, ["--puncture", "inf"], "--puncture"),
    ("verify-bounds", LAZY, ["--delta", "0"], "--delta"),
    ("verify-bounds", LAZY, ["--delta", "-1"], "--delta"),
    ("verify-bounds", LAZY, ["--delta", "nan"], "--delta"),
    ("verify-bounds", LAZY, ["--delta", "inf"], "--delta"),
    ("analyze", LAZY, ["--puncture", "0.3", "--delta", "0.3"], "--delta"),
    ("analyze", LAZY, ["--grid-size", "4097", "--delta", "0.0001"], "--delta"),
    ("analyze", NAN_TAIL, [], "params.tail_mass"),
    # the weight printed as a Python float, not as numpy's repr np.float64(-0.25)
    ("analyze", '{"kind": "atoms", "params": {"offset": 0, "weights": [0.5, -0.25, 0.75]}}',
     [], "params.weights: negative weight -0.25 at lattice index 1"),
    # 8 TB of grid nodes: numpy refuses the allocation at once
    ("analyze", LAZY, ["--grid-size", str(10**12)], "more memory than can be allocated"),
    # finite weights whose sum is not
    ("analyze", atoms(0, [1e308, 1e308]), [], "params.weights: stored mass overflows a float"),
    # windows past |k| = 2**63 - 2: int64 cannot hold their indices, or their |k|
    ("analyze", atoms(10**19, [0.5, 0.5]), [], f"params.weights: offset {10**19} "),
    ("verify-bounds", atoms(-10**19, [0.5, 0.5]), [], f"params.weights: offset {-10**19} "),
    ("analyze", atoms(2**63 - 2, [0.5, 0.5]), [], f"params.weights: offset {2**63 - 2} "),
    ("analyze", atoms(-2**63, [0.5, 0.5]), [], f"params.weights: offset {-2**63} "),
    # nesting too deep for the decoder, and for the spec's own recursion
    ("analyze", "[" * 100_000 + "]" * 100_000, [], "document: invalid JSON"),
    ("analyze", nested_mixture(300), [],
     ".".join(["params.eta"] * MAX_MIXTURE_DEPTH) + f": mixtures nest at most {MAX_MIXTURE_DEPTH}"),
    # params nested past the limit: refused before to_dict's recursion meets them
    ("maximal", '{"kind": "lazy_walk", "params": {"note": ' + "[" * 600 + "]" * 600 + "}}", [],
     "spec.params.note" + "[0]" * MAX_PARAMS_NESTING + ": lists and objects nest more than"),
    # components whose union window no array can hold, or no host can allocate
    ("analyze", mixture_of(atoms(-(2**63 - 2), [1.0]), atoms(2**63 - 2, [1.0])), [],
     f"params: the windows [{-(2**63 - 2)}, {-(2**63 - 2)}] and [{2**63 - 2}, {2**63 - 2}] "),
    ("analyze", mixture_of(atoms(-10**12, [1.0]), atoms(10**12, [1.0])), [],
     "more memory than can be allocated"),
], ids=["beta", "grid-size", "bounds-n-max", "alpha", "maximal-n-max", "lambda-min",
        "analyze-delta-nan", "analyze-delta-inf", "analyze-delta-0", "analyze-delta-neg",
        "puncture-0.6", "puncture-2", "puncture-inf",
        "bounds-delta-0", "bounds-delta-neg", "bounds-delta-nan", "bounds-delta-inf",
        "majorant-window-inside-puncture", "majorant-window-between-nodes", "tail-mass-nan",
        "negative-weight", "grid-size-unallocatable", "weights-overflow", "offset-1e19",
        "offset-minus-1e19", "offset-int64-stop", "offset-int64-min", "spec-nested-1e5",
        "mixture-nested-300", "params-nested-600", "mixture-windows-past-int64",
        "mixture-windows-1e12"])
def test_input_error_exit_2_one_line(tmp_path, capsys, command, spec_text, flags, field):
    assert_input_error(tmp_path, capsys, command, spec_text, PHI0, flags, field)


@pytest.mark.parametrize("offset", [2**63 - 3, -(2**63 - 2)])
def test_last_int64_windows_read_as_the_origin(tmp_path, capsys, offset):
    """The fair coin on the last windows inside |k| <= 2**63 - 2 gets the exit
    codes and findings it gets at the origin, on every command."""
    flags = {"analyze": ["--grid-size", "4097"],
             "verify-bounds": ["--n-max", "32", "--x-max", "32"],
             "maximal": ["--n-max", "8", "--phi", write(tmp_path, "phi.json", PHI0)]}

    def run(command, at):
        out = tmp_path / f"{command}-{at}.json"
        spec = write(tmp_path, "spec.json", atoms(at, [0.5, 0.5]))
        code = main([command, "--spec", spec, "--out", str(out), *flags[command]])
        return code, [f["code"] for f in load(out)["findings"]]

    origin = {command: run(command, 0) for command in flags}
    assert origin["analyze"] == (1, ["angular_ratio_unbounded"])
    assert {command: run(command, offset) for command in flags} == origin
    assert "Traceback" not in capsys.readouterr().err


@st.composite
def grid_windows(draw):
    """A grid size and a (puncture, delta] window, its ends often on a node or
    one ulp from one, and the window itself often one ulp wide."""
    N = draw(st.integers(17, 5000))

    def end(closed_at_half):
        node = st.integers(0, N - 1).map(lambda j: abs(-0.5 + j / N))
        near_node = node.flatmap(lambda t: st.sampled_from(
            [t, float(np.nextafter(t, 0.0)), float(np.nextafter(t, 1.0))]))
        free = st.floats(0.0, 0.5, exclude_min=True, exclude_max=not closed_at_half)
        top = 0.5 if closed_at_half else float(np.nextafter(0.5, 0.0))
        return draw(st.one_of(near_node, free).filter(lambda v: 0.0 < v <= top))

    puncture, delta = end(False), end(True)
    if draw(st.booleans()) and np.nextafter(delta, 0.0) > 0.0:
        # the nodes of |t| differ in their last bit from side to side: only a
        # node at delta itself can lie in this window
        puncture = float(np.nextafter(delta, 0.0))
    return N, puncture, delta


@settings(max_examples=300, deadline=None)
@given(window=grid_windows())
def test_majorant_window_check_agrees_with_the_grid_array(window):
    N, puncture, delta = window
    t = np.abs(grid_nodes(N))
    assert grid_has_node_in(N, puncture, delta) == bool(np.any((t > puncture) & (t <= delta)))


def test_overflowing_phi_exit_2_one_line(tmp_path, capsys):
    # an l1 norm past the float range, offsets that are not integers (a fraction,
    # text, a boolean), a subnormal l1 norm, a missing offset, a phi that is not an object
    for phi_text, field in [('{"offset": 0, "weights": [1e308, 1e308]}', "phi.weights"),
                            ('{"offset": -0.7, "weights": [1.0]}', "phi: offset"),
                            ('{"offset": "2", "weights": [1.0]}', "phi: offset"),
                            ('{"offset": true, "weights": [1.0]}', "phi: offset"),
                            ('{"offset": 0, "weights": [5e-324]}', "phi.weights"),
                            # an object with no offset, and a phi that is no object
                            ('{"weights": [1.0]}', "phi.offset: missing"),
                            ('[1, 2]', "phi: expected a JSON object"),
                            # nesting too deep for the decoder
                            ("[" * 100_000 + "]" * 100_000, "phi: invalid JSON")]:
        assert_input_error(tmp_path, capsys, "maximal", LAZY, phi_text, [], field)


def assert_input_error(tmp_path, capsys, command, spec_text, phi_text, flags, field):
    """Exit 2 with one stderr line naming ``field``, and no report written."""
    out = tmp_path / "never.json"
    argv = [command, "--spec", write(tmp_path, "spec.json", spec_text), "--out", str(out),
            *flags]
    if command == "maximal":
        argv += ["--phi", write(tmp_path, "phi.json", phi_text)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("convpow: input error: ") and err.count("\n") == 1
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "1e999"])
def test_non_finite_unread_spec_value_becomes_null(tmp_path, capsys, value):
    spec = write(tmp_path, "spec.json",
                 '{"kind": "lazy_walk", "params": {"note": %s}}' % value)
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--spec", spec, "--out", out, "--grid-size", "4097"]) == 0
    report = load(out)
    validate_report(report)
    assert report["measure"]["spec"]["params"] == {"note": None}
    assert "Traceback" not in capsys.readouterr().err


# property: every input maps to exit 0, 1 or 2 and never to a traceback
FLOAT_FLAG = st.sampled_from(["nan", "inf", "-1", "0", "0.3", "0.7", "2"])
SPECS = st.one_of(
    st.just(LAZY),
    st.builds(lambda beta, k: json.dumps({"kind": "power_law", "params": {"beta": beta}, "K": k}),
              st.sampled_from([1.5, 2.5, 3.0]), st.integers(1, 500)),
    st.builds(lambda gap: json.dumps({"kind": "atoms", "params": {
        "offset": -gap, "weights": [0.25] + [0.0] * (gap - 1) + [0.5] + [0.0] * (gap - 1) + [0.25]}}),
        st.integers(2, 4)),
    st.just(DELTA0),
)


@st.composite
def cli_flags(draw):
    command = draw(st.sampled_from(["analyze", "verify-bounds", "maximal"]))
    if command == "analyze":
        flags = {"--grid-size": draw(st.integers(-1, 257)), "--puncture": draw(FLOAT_FLAG),
                 "--delta": draw(FLOAT_FLAG)}
    elif command == "verify-bounds":
        flags = {"--n-max": draw(st.integers(-1, 16)), "--x-max": draw(st.integers(-1, 16)),
                 "--delta": draw(FLOAT_FLAG), "--alpha": draw(FLOAT_FLAG)}
    else:
        flags = {"--n-max": draw(st.integers(-1, 16)), "--lambda-min": draw(FLOAT_FLAG)}
    return command, [str(part) for item in flags.items() for part in item]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec_text=SPECS, command_flags=cli_flags())
def test_exit_code_contract_holds_for_any_flags(tmp_path, spec_text, command_flags):
    command, flags = command_flags
    argv = [command, "--spec", write(tmp_path, "spec.json", spec_text),
            "--out", str(tmp_path / "report.json"), *flags]
    if command == "maximal":
        argv += ["--phi", write(tmp_path, "phi.json", PHI0)]
    assert main(argv) in (0, 1, 2)


# -- determinism --------------------------------------------------------------------

def test_reports_identical_across_reruns_and_threads(tmp_path):
    spec = write(tmp_path, "lazy.json", LAZY)
    phi = write(tmp_path, "phi.json", PHI0)
    snapshots = []
    for run, threads in enumerate(("1", "4", "1")):
        out = str(tmp_path / f"rep{run}.json")
        bounds = str(tmp_path / f"bnd{run}.json")
        mx = str(tmp_path / f"max{run}.json")
        assert main(["analyze", "--spec", spec, "--out", out,
                     "--grid-size", "4097", "--threads", threads]) == 0
        assert main(["verify-bounds", "--spec", spec, "--out", bounds,
                     "--n-max", "32", "--x-max", "32", "--delta", "1.0",
                     "--threads", threads]) == 0
        assert main(["maximal", "--spec", spec, "--phi", phi, "--out", mx,
                     "--n-max", "32", "--threads", threads]) == 0
        reports = tuple(strip_volatile(load(p)) for p in (out, bounds, mx))
        sidecars = {p.name.split(".", 1)[1]: p.read_bytes()
                    for p in tmp_path.glob(f"*{run}.*.csv")}
        snapshots.append((reports, sidecars))
    assert len(snapshots[0][1]) == 4
    assert snapshots[0] == snapshots[1] == snapshots[2]


# -- schema -------------------------------------------------------------------------

def test_report_schema_is_valid_draft7(tmp_path):
    jsonschema.Draft7Validator.check_schema(report_module.REPORT_SCHEMA)
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--spec", write(tmp_path, "spec.json", LAZY), "--out", out,
                 "--grid-size", "4097"]) == 0
    report = load(out)
    validate_report(report)
    del report["measure"]
    assert not jsonschema.Draft7Validator(report_module.REPORT_SCHEMA).is_valid(report)
    with pytest.raises(ValueError) as error:
        validate_report(report)
    assert str(error.value) == "report: 'measure' is a required property"


# keys some report path omits; every other key of a closed object is required
OPTIONAL_KEYS = {
    (): {"spectral", "tails", "kernel_bounds", "maximal"},   # one section per command
    ("kernel_bounds",): {"modulus", "alias_error"},          # absent after precision_exhausted
    ("meta",): {"resources"},
    ("meta", "resources"): {"spectral", "envelope", "maximal", "kernel_table",
                            "smoothness_fit"},
}


def schema_objects(schema, path=()):
    """(path, schema) of every object schema in ``schema``; list items add no key."""
    if "object" in schema.get("type", ()):
        yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from schema_objects(sub, (*path, key))
    if "items" in schema:
        yield from schema_objects(schema["items"], path)


def test_every_schema_object_is_closed_and_requires_what_reports_always_write():
    objects = dict(schema_objects(report_module.REPORT_SCHEMA))
    open_objects = {path for path, schema in objects.items() if "properties" not in schema}
    assert open_objects == {("measure", "spec"), ("meta", "timings")}
    for path, schema in objects.items():
        if path in open_objects:
            continue
        optional = OPTIONAL_KEYS.get(path, set())
        assert schema["additionalProperties"] is False, path
        assert set(schema["required"]) == schema["properties"].keys() - optional, path
    assert OPTIONAL_KEYS.keys() <= objects.keys()


def closed_objects(schema, value, path=()):
    """(path, object) of every closed object a report holds."""
    if isinstance(value, dict) and "properties" in schema:
        yield path, value
        for key, item in value.items():
            yield from closed_objects(schema["properties"][key], item, (*path, key))
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            yield from closed_objects(schema["items"], item, (*path, index))


def validates(report, path, edit) -> bool:
    """Whether ``report`` still validates after ``edit`` of the object at ``path``."""
    report = copy.deepcopy(report)
    node = report
    for key in path:
        node = node[key]
    edit(node)
    try:
        validate_report(report)
    except ValueError:
        return False
    return True


COMMAND_REPORTS = ("analyze", "analyze-findings", "verify_bounds", "verify_bounds-exhausted",
                   "maximal")


@functools.cache
def command_report(command):
    """A report of each command (and of its findings paths) on small inputs; not
    to be edited in place."""
    lazy = MeasureSpec("lazy_walk")
    if command == "verify_bounds-exhausted":
        with pytest.MonkeyPatch.context() as monkeypatch:
            return precision_exhausted_report(monkeypatch)[0]
    return {
        "analyze": lambda: report_module.analyze_report(lazy, grid_size=4097)[0],
        "analyze-findings": lambda: report_module.analyze_report(
            MeasureSpec.from_json(DELTA0), grid_size=4097)[0],
        "verify_bounds": lambda: report_module.verify_bounds_report(
            lazy, n_max=8, x_max=8, delta=1, alpha=1)[0],
        "maximal": lambda: report_module.maximal_report(
            lazy, LatticeSequence.from_dict(json.loads(PHI0)), n_max=8)[0],
    }[command]()


@pytest.mark.parametrize("command", COMMAND_REPORTS)
def test_a_missing_or_unknown_key_anywhere_fails_validation(command):
    report = command_report(command)
    validate_report(report)
    objects = list(closed_objects(report_module.REPORT_SCHEMA, report))
    deletable = [(*path, key) for path, value in objects
                 for key in sorted(value.keys() - OPTIONAL_KEYS.get(path, set()))
                 if validates(report, path, lambda node: node.pop(key))]
    assert deletable == []
    extensible = [path for path, _ in objects
                  if validates(report, path, lambda node: node.update(unexpected=0))]
    assert extensible == []


def schema_nodes(schema):
    """Every schema in ``schema``: itself, its properties and its items."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    if "items" in schema:
        yield from schema_nodes(schema["items"])


# These tests hold report._violation, the one validator of the reports, to
# jsonschema's Draft7Validator: report._violation(schema, value) is None
# exactly where Draft 7 accepts the value.

def test_violation_knows_every_keyword_and_type_of_the_schema():
    # an unknown keyword would make _violation reject every report
    for node in schema_nodes(report_module.REPORT_SCHEMA):
        assert node.keys() <= report_module._KEYWORDS, node
        kinds = node.get("type", ())
        kinds = {kinds} if isinstance(kinds, str) else set(kinds)
        assert kinds <= report_module._TYPES.keys(), node


DRAFT7 = jsonschema.Draft7Validator(report_module.REPORT_SCHEMA)


@pytest.mark.parametrize("command", COMMAND_REPORTS)
def test_violation_accepts_every_command_report(command):
    report = command_report(command)
    assert report_module._violation(report_module.REPORT_SCHEMA, report) is None
    assert DRAFT7.is_valid(report)


# Draft 7's edge cases: an integral float is an integer, a bool is no number,
# numpy's integers are numbers but not integers, NaN passes minimum, and
# const and enum tell True from 1 but not 1.0 from 1
EDGE_CASES = [
    ({"type": "integer"}, [1.0, 1.5, True, np.int64(3), np.float64(2.0), 2**60, float("nan")]),
    ({"type": "number"}, [True, False, np.int64(3), np.float64(0.5), "1", None, float("inf")]),
    ({"type": "boolean"}, [True, 0, np.bool_(True)]),
    ({"type": ["number", "null"], "minimum": 0},
     [float("nan"), -0.5, -1, None, np.float64(-0.5), np.int64(-3), 0]),
    ({"type": ["array", "null"], "minItems": 2, "maxItems": 2, "items": {"type": "integer"}},
     [None, [1, 2], [1], [1, 2, 3], [1, 2.0], [1, True], (1, 2), []]),
    ({"const": 1}, [1, 1.0, True, np.int64(1), "1", [1], None]),
    ({"enum": ["analyze", "maximal"]}, ["analyze", "x", None, ["analyze"]]),
    ({"type": "object", "properties": {"a": {"type": "integer"}}, "required": ["a"],
      "additionalProperties": False}, [{"a": 1}, {}, {"a": 1, "b": 2}, {"a": "x"}, []]),
    ({"type": "object"}, [{"any": object()}, [], None]),
]


@pytest.mark.parametrize("schema, values", EDGE_CASES)
def test_violation_follows_draft7_on_its_edge_cases(schema, values):
    draft7 = jsonschema.Draft7Validator(schema)
    for value in values:
        assert (report_module._violation(schema, value) is None) == draft7.is_valid(value), value


# Draft 7 accepts each value, but under a keyword, type or form _violation does not know
@pytest.mark.parametrize("schema, value", [
    ({"type": "integer", "maximum": 3}, 1),
    ({"anyOf": [{"type": "integer"}]}, 1),
    ({"type": "string", "format": "date-time"}, "x"),
    ({"items": [{"type": "integer"}]}, [1]),
    ({"additionalProperties": {"type": "integer"}}, {"a": 1}),
])
def test_violation_refuses_what_it_does_not_know(schema, value):
    assert jsonschema.Draft7Validator(schema).is_valid(value)
    assert report_module._violation(schema, value) is not None


MUTANT_VALUES = (None, -1, 0, 1.5, 1.0, "x", [], {}, True, -0.5, 2**60, float("nan"),
                 np.float64(0.5), np.int64(3))


def report_paths(value, path=()):
    """The path of every member of an object and every element of an array in ``value``."""
    members = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in members:
        yield (*path, key)
        yield from report_paths(item, (*path, key))


def node_at(report, path):
    for key in path:
        report = report[key]
    return report


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_violation_agrees_with_draft7_on_mutated_reports(data):
    report = copy.deepcopy(command_report(data.draw(st.sampled_from(COMMAND_REPORTS))))
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(report_paths(report))
        value = copy.deepcopy(data.draw(st.sampled_from(MUTANT_VALUES)))
        action = data.draw(st.sampled_from(["delete", "add", "set"]))
        if action == "add":
            objects = [path for path in [(), *paths] if isinstance(node_at(report, path), dict)]
            node_at(report, data.draw(st.sampled_from(objects)))["unexpected"] = value
        else:
            *parent, key = data.draw(st.sampled_from(paths))
            if action == "delete":
                del node_at(report, parent)[key]
            else:
                node_at(report, parent)[key] = value
    verdict = report_module._violation(report_module.REPORT_SCHEMA, report) is None
    assert verdict == DRAFT7.is_valid(report)


# a real report broken at a nested path, and the rejection that names the path
BROKEN_REPORTS = [
    ("analyze", ("spectral", "majorant"), lambda node: node.pop("k_star"),
     "report.spectral.majorant: 'k_star' is a required property"),
    ("maximal", ("maximal", "doubling"), lambda node: node.update(unexpected=0),
     "report.maximal.doubling: 'unexpected' is not an allowed property"),
    ("analyze", ("spectral", "majorant"), lambda node: node.update(k_star="x"),
     "report.spectral.majorant.k_star: 'x' is not of type 'number' or 'null'"),
    ("analyze-findings", ("findings", 0), lambda node: node.update(code=1),
     "report.findings[0].code: 1 is not of type 'string'"),
    ("verify_bounds", ("kernel_bounds",), lambda node: node.update(modulus=0),
     "report.kernel_bounds.modulus: 0 is less than the minimum of 1"),
    ("analyze", ("meta", "resources", "spectral"), lambda node: node.update(ladder_block=[1]),
     "report.meta.resources.spectral.ladder_block: [1] is too short"),
]


@pytest.mark.parametrize("command, path, edit, message", BROKEN_REPORTS,
                         ids=["missing", "unexpected", "type", "item-type", "minimum",
                              "item-count"])
def test_a_broken_report_is_rejected_at_its_path(command, path, edit, message):
    report = copy.deepcopy(command_report(command))
    edit(node_at(report, path))
    assert not DRAFT7.is_valid(report)
    with pytest.raises(ValueError) as error:
        validate_report(report)
    assert str(error.value) == message


def child_env():
    """The environment of a child that imports the package under test, installed
    or from a checkout."""
    src = str(Path(convpow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_clean_commands_never_import_jsonschema(tmp_path):
    spec, phi = write(tmp_path, "lazy.json", LAZY), write(tmp_path, "phi.json", PHI0)
    delta0 = write(tmp_path, "delta0.json", DELTA0)
    script = f"""
import sys
from convpow.cli import main
assert "jsonschema" not in sys.modules, "import"
runs = [
    (0, ["analyze", "--spec", {spec!r}, "--grid-size", "4097"]),
    (1, ["analyze", "--spec", {delta0!r}, "--grid-size", "4097"]),
    (0, ["verify-bounds", "--spec", {spec!r}, "--n-max", "8", "--x-max", "8"]),
    (0, ["maximal", "--spec", {spec!r}, "--phi", {phi!r}, "--n-max", "8"]),
]
for index, (code, argv) in enumerate(runs):
    assert main([*argv, "--out", {str(tmp_path)!r} + f"/{{index}}.json"]) == code, argv
    assert "jsonschema" not in sys.modules, argv
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr


# -- sidecar format -----------------------------------------------------------------

ASYMMETRIC = '{"kind": "atoms", "params": {"offset": -2, "weights": [0.25, 0.0, 0.25, 0.5]}}'


def csv_bytes(header, rows):
    """The sidecar format: %.17g floats, plain integers, ',' and CRLF."""
    def cell(v):
        return str(v) if isinstance(v, int) else format(float(v), ".17g")
    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "".join(line + "\r\n" for line in lines).encode()


def test_sidecar_bytes_match_the_format(tmp_path):
    spec_path = write(tmp_path, "spec.json", ASYMMETRIC)
    phi = write(tmp_path, "phi.json", '{"offset": -1, "weights": [0.5, 1.0, 0.25]}')
    assert main(["analyze", "--spec", spec_path, "--out", str(tmp_path / "an.json"),
                 "--grid-size", "257"]) == 0
    assert main(["verify-bounds", "--spec", spec_path, "--out", str(tmp_path / "vb.json"),
                 "--n-max", "8", "--x-max", "8", "--delta", "1.0"]) == 0
    assert main(["maximal", "--spec", spec_path, "--phi", phi,
                 "--out", str(tmp_path / "mx.json"), "--n-max", "16"]) == 0

    mu = MeasureSpec.from_json(ASYMMETRIC).build()
    profile = SpectralProfile(mu, 257)
    growth = partial_second_moment_curve(mu)
    table = kernel_table(mu, *default_table_grids(8, 8))
    m = maximal_function(mu, LatticeSequence.from_dict({"offset": -1, "weights": [0.5, 1.0, 0.25]}),
                         32, checkpoint=16).prefix
    levels = weak_type_curve(m, default_lambda_grid(1e-4))
    expected = {
        "an.profile.csv": csv_bytes(
            ["t", "re_theta", "im_theta", "abs_theta", "re_d1", "im_d1", "re_d2", "im_d2", "phi"],
            [[t, th.real, th.imag, abs(th), d1.real, d1.imag, d2.real, d2.imag, p]
             for t, th, d1, d2, p in zip(profile.grid, profile.theta, profile.d1,
                                         profile.d2, profile.phi)]),
        "an.growth.csv": csv_bytes(["n", "s"], [[int(n), s] for n, s in
                                                zip(growth.n_values, growth.s_values)]),
        "vb.kernel.csv": csv_bytes(["n", "x", "value"],
                                   [[n, x, table.values[i, j]]
                                    for i, n in enumerate(table.n_values)
                                    for j, x in enumerate(table.x_values)]),
        "mx.levelsets.csv": csv_bytes(["lambda", "count", "constant"],
                                      [[lam, int(c), k] for lam, c, k in zip(
                                          levels.lambda_values, levels.counts,
                                          levels.constants)]),
    }
    for name, want in expected.items():
        assert (tmp_path / name).read_bytes() == want, name


SIDECAR_CELLS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                 float(10**17 - 1), float(10**17), 1e17 + 16, 99999999999999984.0, 0.1, -1 / 3,
                 131073 / 131072, float(np.nextafter(1e-5, 0)), 1e16, 1e-4]


@pytest.mark.parametrize("rows", [0, 1, SIDECAR_BLOCK_ROWS - 1, SIDECAR_BLOCK_ROWS,
                                  SIDECAR_BLOCK_ROWS + 1, 3 * SIDECAR_BLOCK_ROWS + 7])
def test_sidecar_writer_matches_savetxt(tmp_path, rows):
    # np.savetxt, one %-format a row, is the reference the block writer must match
    # 17 cells cycled over 3 columns: from 17 rows on, every cell is in every column
    columns = np.resize(SIDECAR_CELLS, rows * 3).reshape(rows, 3)
    path = tmp_path / "block.csv"
    _write_sidecar(path, ["n", "x", "value"], columns)
    with (tmp_path / "oracle.csv").open("w", newline="") as handle:
        np.savetxt(handle, columns, fmt="%.17g", delimiter=",", newline="\r\n",
                   header="n,x,value", comments="")
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    if rows == 0:
        assert path.read_bytes() == b"n,x,value\r\n"


def encoder_cases():
    """Cells for the sidecar encoder, by name: the cases its fast path could get
    wrong, and random bit patterns."""
    rng = np.random.default_rng(20)
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    switch_points = [s * (1 + d * 2.0**-52) for s in (1e-5, 1e-4, 1e16, 1e17) for d in range(-8, 9)]
    cases = {
        # both signs; about 50 nans or infinities and 50 subnormals among them
        "bits": rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
        "specials": [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, float(np.nextafter(2.2250738585072014e-308, 0)),
                     1.7976931348623157e308, -1.7976931348623157e308],
        # 1 + (2j + 1) / 2**17 has 18 significant digits ending in 5: each is a tie,
        # rounded to even (131073 / 131072 prints 1.0000076293945312)
        "ties": 1 + (2 * np.arange(-3000, 3000) + 1) / 2**17,
        "powers": [v for x in powers for v in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))],
        "switch": [v for x in switch_points for v in (x, -x)],
        "integers": np.concatenate([np.arange(-2000, 2000), 2.0**53 + np.arange(-200, 200),
                                    1e17 + 16 * np.arange(-200, 200)]),
    }
    return {name: np.asarray(cells, dtype=np.float64) for name, cells in cases.items()}


ENCODER_CASES = encoder_cases()


@pytest.mark.parametrize("cols", [1, 3, 9])
@pytest.mark.parametrize("case", sorted(ENCODER_CASES))
def test_sidecar_encoder_matches_percent_format(tmp_path, case, cols):
    cells = ENCODER_CASES[case]
    rows = -(-len(cells) // cols)
    if rows % SIDECAR_BLOCK_ROWS == 0:   # the last block is never full
        rows += 1
    columns = np.resize(cells, rows * cols).reshape(rows, cols)
    path = tmp_path / "encoded.csv"
    _write_sidecar(path, [f"c{i}" for i in range(cols)], columns)
    got = path.read_bytes().decode().split("\r\n")
    assert got[-1] == "" and len(got) == rows + 2
    for row, line in zip(columns.tolist(), got[1:-1]):
        want = ",".join("%.17g" % v for v in row)
        assert line == want, (row, line, want)


def test_memory_error_while_writing_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(path, header, columns):
        raise MemoryError

    monkeypatch.setattr(cli_module, "_write_sidecar", refuse)
    out = tmp_path / "an.json"
    assert main(["analyze", "--spec", write(tmp_path, "lazy.json", LAZY), "--out", str(out),
                 "--grid-size", "257"]) == 2
    err = capsys.readouterr().err
    assert err == "convpow: input error: the input needs more memory than can be allocated\n"
    assert not out.exists()


def test_timings_cover_build_measure_validation_and_sidecars(tmp_path):
    spec = write(tmp_path, "lazy.json", LAZY)
    phi = write(tmp_path, "phi.json", PHI0)
    for command, flags in (("analyze", ["--grid-size", "4097"]),
                           ("verify-bounds", ["--n-max", "8", "--x-max", "8", "--delta", "1.0"]),
                           ("maximal", ["--phi", phi, "--n-max", "8"])):
        out = str(tmp_path / f"{command}.json")
        assert main([command, "--spec", spec, "--out", out, *flags]) == 0
        timings = load(out)["meta"]["timings"]
        for key in ("build", "measure", "validate", "sidecars"):
            assert isinstance(timings[key], float) and timings[key] >= 0.0, (command, key)
        # the sections run one after another inside the command
        assert timings["total"] >= sum(v for k, v in timings.items() if k != "total"), command


def run_module(*argv):
    """``python -m convpow *argv`` in a child process (see ``child_env``)."""
    return subprocess.run([sys.executable, "-m", "convpow", *argv], capture_output=True,
                          text=True, env=child_env())


def test_console_entry_point_help():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "analyze" in proc.stdout
    assert "verify-bounds" in proc.stdout

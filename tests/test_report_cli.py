"""CLI commands, report schema, exit codes, and determinism."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import convpow
from convpow import report as report_module
from convpow.cli import main
from convpow.errors import PrecisionExhausted
from convpow.kernels import default_table_grids, kernel_table
from convpow.maximal import (
    LatticeSequence,
    default_lambda_grid,
    maximal_function,
    weak_type_curve,
)
from convpow.report import validate_report
from convpow.spectral import SpectralProfile
from convpow.tails import partial_second_moment_curve
from convpow.zoo import MeasureSpec

LAZY = '{"kind": "lazy_walk"}'
BETA_LOW = '{"kind": "power_law", "params": {"beta": 0.5}, "K": 100}'
DELTA0 = '{"kind": "atoms", "params": {"offset": 0, "weights": [1.0]}}'
PHI0 = '{"offset": 0, "weights": [1.0]}'
NAN_TAIL = '{"kind": "atoms", "params": {"offset": 0, "weights": [0.3, 0.2], "tail_mass": NaN}}'


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


def test_verify_bounds_precision_exhausted_keeps_shared_keys(monkeypatch):
    def exhausted(*args, **kwargs):
        raise PrecisionExhausted("clamping deficit 1.000e-03 exceeds 1e-09")

    monkeypatch.setattr(report_module, "kernel_table", exhausted)
    report, sidecars = report_module.verify_bounds_report(
        MeasureSpec("lazy_walk"), n_max=16, x_max=8, delta=1, alpha=1)
    validate_report(report)
    assert sidecars == {}
    assert [f["code"] for f in report["findings"]] == ["precision_exhausted"]
    assert report["kernel_bounds"] == {
        "delta": 1.0, "alpha": 1.0, "n_max": 16, "x_max": 8,
        "pointwise": None, "small_n": None, "smoothness_restricted": None,
        "smoothness_global": None, "oscillation_kernel": None}
    assert type(report["kernel_bounds"]["delta"]) is float


README_MIXTURE = json.dumps({"kind": "mixture", "params": {
    "a1": 0.5, "eta": {"kind": "power_law", "params": {"beta": 3.0}, "K": 100000},
    "nu": {"kind": "lazy_walk", "params": {}}}})


def test_verify_bounds_readme_mixture_folds_the_table(tmp_path):
    # the unfolded rows would be padded to 2^27 points for this 200,003-point law
    spec = write(tmp_path, "mixture.json", README_MIXTURE)
    out = str(tmp_path / "mixture_bounds.json")
    assert main(["verify-bounds", "--spec", spec, "--out", out]) == 0
    bounds = load(out)["kernel_bounds"]
    assert bounds["n_max"] == 512 and bounds["x_max"] == 512
    assert bounds["modulus"] <= 2**19
    assert bounds["alias_error"] <= 1e-12


def test_overflowing_powers_leave_stderr_empty(tmp_path):
    # |x|**(1 + delta) and |x|**(delta/8) overflow to inf, the intended limit
    spec = write(tmp_path, "lazy.json", LAZY)
    for delta in ("1e300", "200"):
        proc = run_module("verify-bounds", "--spec", spec, "--out", str(tmp_path / "b.json"),
                          "--n-max", "64", "--x-max", "64", "--delta", delta)
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""


def test_phi_near_the_float_maximum_gives_the_curve_of_a_unit_phi(tmp_path):
    # the running spectrum runs from step 2; its unnormalized inverse overflowed
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


# lattice positions whose n-fold reach leaves int64; never given to maximal,
# whose window spans n_max * offset
FAR_ATOMS = [json.dumps({"kind": "atoms", "params": {"offset": offset, "weights": weights}})
             for offset in (10**17, -4 * 10**18) for weights in ([0.25, 0.5, 0.25], [0.5, 0.5])]


@pytest.mark.parametrize("spec_text", FAR_ATOMS, ids=["1e17-3", "1e17-2", "-4e18-3", "-4e18-2"])
@pytest.mark.parametrize("command, flags", [("analyze", ["--grid-size", "4097"]),
                                            ("verify-bounds", [])],
                         ids=["analyze", "verify-bounds"])
def test_far_lattice_positions_report_without_traceback(tmp_path, capsys, spec_text,
                                                        command, flags):
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
], ids=["beta", "grid-size", "bounds-n-max", "alpha", "maximal-n-max", "lambda-min",
        "analyze-delta-nan", "analyze-delta-inf", "analyze-delta-0", "analyze-delta-neg",
        "puncture-0.6", "puncture-2", "puncture-inf",
        "bounds-delta-0", "bounds-delta-neg", "bounds-delta-nan", "bounds-delta-inf",
        "majorant-window-inside-puncture", "majorant-window-between-nodes", "tail-mass-nan"])
def test_input_error_exit_2_one_line(tmp_path, capsys, command, spec_text, flags, field):
    assert_input_error(tmp_path, capsys, command, spec_text, PHI0, flags, field)


def test_overflowing_phi_exit_2_one_line(tmp_path, capsys):
    # an l1 norm past the float range, a non-integral offset, a subnormal l1 norm
    for phi_text, field in [('{"offset": 0, "weights": [1e308, 1e308]}', "phi.weights"),
                            ('{"offset": -0.7, "weights": [1.0]}', "phi: offset"),
                            ('{"offset": 0, "weights": [5e-324]}', "phi.weights")]:
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


def run_module(*argv):
    """``python -m convpow *argv`` in a child that imports the package under
    test, installed or from a checkout."""
    src = str(Path(convpow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "convpow", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point_help():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "analyze" in proc.stdout
    assert "verify-bounds" in proc.stdout

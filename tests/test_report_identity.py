"""tools/report_identity.py: exact and --rtol verdicts and the exit code."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from convpow.cli import main as convpow_main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT / "bench"), *sys.path])
    spec = importlib.util.spec_from_file_location("report_identity",
                                                  ROOT / "tools" / "report_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def outputs(tmp_path):
    """A small verify-bounds output under base/ and an identical copy under change/."""
    (tmp_path / "lazy.json").write_text('{"kind": "lazy_walk"}')
    base = tmp_path / "base"
    base.mkdir()
    assert convpow_main(["verify-bounds", "--spec", str(tmp_path / "lazy.json"),
                         "--out", str(base / "r.json"), "--n-max", "8", "--x-max", "8"]) == 0
    shutil.copytree(base, tmp_path / "change")
    return base / "r.json", tmp_path / "change" / "r.json"


def nudge_kernel_cell(out: Path, factor: float) -> None:
    """Scale the first nonzero value of the kernel sidecar by ``factor``."""
    path = out.with_suffix(".kernel.csv")
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], 1):
        n, x, value = line.split(",")
        if float(value) != 0.0:
            lines[i] = f"{n},{x},{float(value) * factor!r}"
            break
    path.write_text("\n".join(lines) + "\n")


def main_exit(tool, monkeypatch, base_out: Path, change_out: Path, *flags) -> int:
    """The tool's exit code with every workload case answered by these outputs."""
    monkeypatch.setattr(tool, "run", lambda src, workload, seed, workdir: (
        0, base_out if src == base_out.parent.resolve() else change_out))
    return tool.main([str(base_out.parent), str(change_out.parent), *flags])


def test_identical_outputs(tool, outputs, monkeypatch):
    assert tool.verdict(*outputs, None) == (False, "identical", [])
    differs, text, _ = tool.verdict(*outputs, 1e-12)
    assert not differs and text.startswith("within rtol 1e-12, largest difference 0")
    assert main_exit(tool, monkeypatch, *outputs) == 0


def test_round_off_passes_within_rtol_only(tool, outputs, monkeypatch):
    nudge_kernel_cell(outputs[1], 1.0 + 1e-14)
    assert tool.verdict(*outputs, None)[:2] == (True, "DIFFERENT")
    differs, text, lines = tool.verdict(*outputs, 1e-12)
    assert not differs and "at kernel.csv:value[" in text and lines == []
    assert tool.verdict(*outputs, 1e-16)[0]
    assert main_exit(tool, monkeypatch, *outputs) == 1
    assert main_exit(tool, monkeypatch, *outputs, "--rtol", "1e-12") == 0


def test_moved_worst_tuple_is_named(tool, outputs, monkeypatch):
    report = json.loads(outputs[1].read_text())
    fit = report["kernel_bounds"]["pointwise"]
    fit["worst"] = [fit["worst"][0], -fit["worst"][1]]
    outputs[1].write_text(json.dumps(report))
    differs, text, lines = tool.verdict(*outputs, 1e-12)
    assert differs and text.startswith("DIFFERENT")
    assert any(line.startswith("worst tuple kernel_bounds.pointwise.worst") for line in lines)
    assert main_exit(tool, monkeypatch, *outputs, "--rtol", "1e-12") == 1


def test_lazy_cases_keep_their_workload_flags(tool):
    from workloads import WORKLOADS

    cases = tool.cases(WORKLOADS)
    assert WORKLOADS.keys() < cases.keys()
    for name in ("analyze", "maximal", "bounds"):
        lazy = cases[f"{name}-lazy"]
        spec, phi = lazy.inputs(1)
        assert spec == {"kind": "lazy_walk", "params": {}}
        assert (lazy.command, lazy.flags) == (WORKLOADS[name].command, WORKLOADS[name].flags)
        assert (phi is None) == (WORKLOADS[name].phi is None)


def test_bounds_delta_case_adds_delta_and_alpha(tool):
    from workloads import WORKLOADS

    delta = tool.cases(WORKLOADS)["bounds-delta"]
    assert delta.inputs(1) == WORKLOADS["bounds"].inputs(1)
    assert delta.command == "verify-bounds"
    assert delta.flags == (*WORKLOADS["bounds"].flags, "--delta", "0.3", "--alpha", "0.3")


def test_bounds_heavy_case_changes_only_its_spec(tool):
    from workloads import WORKLOADS

    cases = tool.cases(WORKLOADS)
    heavy, log_squared = cases["bounds-heavy"], cases["bounds-log-squared"]
    assert heavy.inputs(1) == ({"kind": "power_law", "params": {"beta": 2.5}, "K": 10_000},
                               None)
    assert log_squared.inputs(1) == ({"kind": "log_squared", "params": {}, "K": 10_000}, None)
    for case in (heavy, log_squared):
        assert (case.command, case.flags) == ("verify-bounds", WORKLOADS["bounds"].flags)


def test_bounds_odd_depth_case_changes_only_its_depth(tool):
    from workloads import WORKLOADS

    odd = tool.cases(WORKLOADS)["bounds-odd-depth"]
    assert odd.inputs(1) == WORKLOADS["bounds"].inputs(1)
    assert odd.command == "verify-bounds"
    assert odd.flags == ("--n-max", "96", "--x-max", "512")
    assert WORKLOADS["bounds"].flags == ("--n-max", "512", "--x-max", "512")


def test_bounds_wide_case_is_the_lazy_walk_at_x_max_4096(tool):
    from workloads import WORKLOADS

    wide = tool.cases(WORKLOADS)["bounds-wide"]
    assert wide.inputs(1) == ({"kind": "lazy_walk", "params": {}}, None)
    assert wide.command == "verify-bounds"
    assert wide.flags == ("--n-max", "16", "--x-max", "4096")


def test_maximal_cases_change_only_their_spec_or_phi(tool):
    from workloads import WORKLOADS

    cases = tool.cases(WORKLOADS)
    heavy, signed = cases["maximal-heavy"], cases["maximal-signed"]
    gapped, drift = cases["maximal-gapped"], cases["maximal-drift"]
    log_squared = cases["maximal-log-squared"]
    assert heavy.inputs(1)[0] == {"kind": "power_law", "params": {"beta": 2.5}, "K": 10_000}
    assert heavy.flags == ("--n-max", "64", "--lambda-min", "0.0001")
    spec, phi = signed.inputs(1)
    assert spec == WORKLOADS["maximal"].inputs(1)[0]
    assert phi == {"offset": -2, "weights": [0.5, -1.0, 0.25, 2.0, -0.75]}
    assert (heavy.command == signed.command == gapped.command == drift.command
            == log_squared.command == "maximal")
    assert signed.flags == drift.flags == log_squared.flags == WORKLOADS["maximal"].flags
    assert log_squared.inputs(1) == ({"kind": "log_squared", "params": {}, "K": 10_000},
                                     heavy.inputs(1)[1])
    spec, phi = drift.inputs(1)
    assert phi == heavy.inputs(1)[1]   # the workload's phi draw, after a fixed spec
    assert spec == {"kind": "mixture", "params": {
        "a1": 0.5, "eta": {"kind": "power_law", "params": {"beta": 2.5}, "K": 10_000},
        "nu": {"kind": "atoms", "params": {"offset": 5, "weights": [1.0]}}}}
    spec, phi = gapped.inputs(1)
    assert phi == heavy.inputs(1)[1] and len(phi["weights"]) == 16   # the workload's phi draw
    assert gapped.flags == ("--n-max", "24", "--lambda-min", "0.0001")
    weights = spec["params"]["weights"]
    assert spec["kind"] == "atoms" and spec["params"]["offset"] == -2000
    assert {i - 2000: w for i, w in enumerate(weights) if w} == {-2000: 0.25, 0: 0.5, 2000: 0.25}


def test_analyze_cases_change_only_their_spec(tool):
    from workloads import WORKLOADS

    cases = tool.cases(WORKLOADS)
    heavy, gapped, skewed = (cases[f"analyze-{name}"] for name in ("heavy", "gapped", "skewed"))
    assert heavy.inputs(1) == ({"kind": "log_squared", "params": {}, "K": 100_000}, None)
    assert gapped.inputs(1) == (cases["maximal-gapped"].inputs(1)[0], None)
    assert skewed.inputs(1) == ({"kind": "mixture", "params": {
        "a1": 0.5, "eta": {"kind": "power_law", "params": {"beta": 2.5}, "K": 100_000},
        "nu": {"kind": "atoms", "params": {"offset": -1, "weights": [0.5, 0.0, 0.0, 0.5]}}}},
        None)
    for case in (heavy, gapped, skewed):
        assert (case.command, case.flags) == ("analyze", WORKLOADS["analyze"].flags)


def test_analyze_skewed_case_has_a_transform_that_is_not_real(tool):
    from workloads import WORKLOADS

    from convpow import MeasureSpec, transform_at

    spec, _ = tool.cases(WORKLOADS)["analyze-skewed"].inputs(1)
    assert abs(transform_at(MeasureSpec.from_dict(spec).build(), 0.25).imag) > 0.1


def test_analyze_wide_range_case_spans_300_decades(tool):
    from workloads import WORKLOADS

    from convpow import MeasureSpec

    case = tool.cases(WORKLOADS)["analyze-wide-range"]
    spec, phi = case.inputs(1)
    assert phi is None and (case.command, case.flags) == ("analyze", WORKLOADS["analyze"].flags)
    mu = MeasureSpec.from_dict(spec).build()
    assert (mu.offset, mu.width) == (-300, 601)
    w = mu.weights
    assert w[300] == max(w) and np.array_equal(w, w[::-1])
    assert np.allclose(w[300:] * 10.0 ** np.arange(301), w[300], rtol=1e-14, atol=0.0)

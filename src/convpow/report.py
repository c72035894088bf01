"""Report assembly, schema validation, and the curves for the CSV sidecars.

One JSON report per command.  Every numeric field is finite or null with a
flag explaining why: each command's report passes through ``_json``, the one
place a non-finite float becomes null.  Volatile data (timestamps, wall
clock) lives under ``meta`` so reports diff cleanly across runs.  Findings
are hypothesis failures (they drive exit code 1); notes are informational.
"""

from __future__ import annotations

import datetime as _dt
import math
import time
from dataclasses import asdict, fields, is_dataclass

import jsonschema
import numpy as np

from . import __version__
from .errors import DiagnosticRefused, HypothesisFailure, PrecisionExhausted
from .kernels import (
    default_table_grids,
    kernel_table,
    oscillation_kernel_fit,
    pointwise_bound_fit,
    small_n_regime_check,
    smoothness_difference_fit,
)
from .maximal import LatticeSequence, default_lambda_grid, maximal_function, weak_type_curve
from .measure import LatticeMeasure, expectation, is_strictly_aperiodic, moment
from .spectral import (
    DEFAULT_GRID_SIZE,
    DEFAULT_PUNCTURE,
    SpectralProfile,
    angular_ratio_sup,
    component_ratio_report,
    envelope_integrals,
    gaussian_decay_rate,
    majorant_fit,
    phi_property_report,
    transform_aperiodicity_check,
)
from .tails import (
    fit_growth_curve,
    lipschitz_exponent_estimate,
    partial_second_moment_curve,
)
from .zoo import MeasureSpec

DEFAULT_ENVELOPE_N = (10, 100, 1000, 10000)


def _json(value):
    """The report as JSON values: dataclasses and dicts become objects, tuples
    and lists become lists, and a non-finite float becomes None."""
    if is_dataclass(value):
        return {f.name: _json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class _Collector:
    def __init__(self):
        self.findings = []
        self.notes = []
        self.timings = {}

    def finding(self, section: str, code: str, message: str):
        self.findings.append({"section": section, "code": code, "message": message})

    def note(self, section: str, message: str):
        self.notes.append(f"{section}: {message}")

    def timed(self, name: str, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.timings[name] = time.perf_counter() - start


def _measure_section(spec: MeasureSpec, mu: LatticeMeasure) -> dict:
    return {
        "spec": spec.to_dict(),
        "offset": mu.offset,
        "width": mu.width,
        "radius": mu.radius,
        "tail_mass": mu.tail_mass,
        "pre_truncation_deficit": mu.pre_truncation_deficit,
        "transform_is_proxy": mu.is_truncated_proxy,
        "expectation": expectation(mu),
        "moment_1": moment(mu, 1.0),
        "moment_2": moment(mu, 2.0),
        "strict_aperiodicity": is_strictly_aperiodic(mu),
        "transform_aperiodicity_check": transform_aperiodicity_check(mu),
    }


def _bound_fit_json(fit) -> dict:
    return {**asdict(fit), "worst": [float(v) for v in fit.worst], "empty": fit.empty}


def _base_report(command: str, spec: MeasureSpec, mu: LatticeMeasure, col: _Collector) -> dict:
    # findings and notes are sorted by content, so reordering the sections
    # that record them leaves the report unchanged
    findings = sorted(col.findings, key=lambda f: (f["section"], f["code"], f["message"]))
    return {
        "schema_version": 1,
        "tool": {"name": "convpow", "version": __version__},
        "command": command,
        "measure": _measure_section(spec, mu),
        "findings": findings,
        "notes": sorted(col.notes),
        "meta": {
            "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "timings": col.timings,
        },
    }


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze_report(spec: MeasureSpec, *, grid_size: int = DEFAULT_GRID_SIZE,
                   puncture_radius: float = DEFAULT_PUNCTURE,
                   majorant_delta: float = 0.25):
    """Transform and tail diagnostics; returns (report, csv sidecars)."""
    col = _Collector()
    mu = spec.build()
    profile = col.timed("profile", lambda: SpectralProfile(mu, grid_size, puncture_radius))
    aperiodic = is_strictly_aperiodic(mu)

    def angular():
        try:
            rep = angular_ratio_sup(profile)
        except DiagnosticRefused as exc:
            col.finding("spectral", "angular_ratio_refused", str(exc))
            return {"value": None, "unbounded": None, "refinement_sups": [],
                    "refused": True, "detail": str(exc)}
        if rep.unbounded:
            col.finding("spectral", "angular_ratio_unbounded",
                        "near-zero refinement shows geometric growth of the angular ratio")
        return {**asdict(rep), "refused": False, "detail": None}

    def decay():
        if not aperiodic:
            msg = "measure is not strictly aperiodic; decay rate undefined"
            col.finding("spectral", "gaussian_decay_skipped", msg)
            return {"value": None, "failed": True, "detail": msg}
        try:
            return {"value": gaussian_decay_rate(profile), "failed": False, "detail": None}
        except HypothesisFailure as exc:
            col.finding("spectral", "gaussian_decay_nonpositive", str(exc))
            return {"value": None, "failed": True, "detail": str(exc)}

    def phi_props():
        try:
            return phi_property_report(profile)
        except (DiagnosticRefused, ValueError) as exc:
            col.note("spectral", f"phi properties skipped: {exc}")
            return None

    def majorant_and_envelope():
        try:
            fit = majorant_fit(profile, majorant_delta)
        except (DiagnosticRefused, HypothesisFailure, ValueError) as exc:
            col.finding("spectral", "majorant_failed", str(exc))
            return ({"k_star": None, "delta": majorant_delta, "worst_t": None,
                     "side_condition_ok": None, "failed": True, "detail": str(exc)}, None)
        maj = {**asdict(fit), "failed": False, "detail": None}
        try:
            env = envelope_integrals(profile.grid, profile.phi, fit.k_star,
                                     majorant_delta, DEFAULT_ENVELOPE_N)
        except DiagnosticRefused as exc:
            col.finding("spectral", "envelope_refused", str(exc))
            return (maj, None)
        env_json = asdict(env)
        env_json["quadrature_error"] = env_json.pop("error_estimate")
        env_json["reference_n"] = 100 if 100 in env.n_values else env.n_values[0]
        return (maj, env_json)

    def growth():
        try:
            curve = partial_second_moment_curve(mu)
        except ValueError as exc:
            col.note("tails", f"growth curve skipped: {exc}")
            return None, None
        try:
            fitted = fit_growth_curve(curve)
        except ValueError as exc:
            col.note("tails", f"growth fit skipped: {exc}")
            return curve, None
        return fitted, {
            "exponent": fitted.fitted_exponent,
            "log_correction": fitted.log_correction,
            "residual": fitted.residual,
            "window": fitted.fit_window,
            "points": len(fitted.n_values),
            "proxy": fitted.proxy,
        }

    def lipschitz():
        try:
            fit = lipschitz_exponent_estimate(profile)
        except ValueError as exc:
            col.note("tails", f"lipschitz fit skipped: {exc}")
            return None
        return {
            "exponent": fit.exponent,
            "infinite": math.isinf(fit.exponent),
            "residual": fit.residual,
            "steps": len(fit.h_values),
        }

    angular_json = col.timed("angular_ratio", angular)
    decay_json = col.timed("gaussian_decay", decay)
    phi_json = col.timed("phi_properties", phi_props)
    ratios = col.timed("component_ratios", lambda: component_ratio_report(profile))
    majorant_json, envelope_json = col.timed("majorant_envelope", majorant_and_envelope)
    growth_curve, growth_json = col.timed("growth", growth)
    lipschitz_json = col.timed("lipschitz", lipschitz)

    report = _base_report("analyze", spec, mu, col)
    report["spectral"] = {
        "grid_size": grid_size,
        "puncture_radius": float(puncture_radius),
        "angular_ratio": angular_json,
        "gaussian_decay_rate": decay_json,
        "phi_properties": phi_json,
        "component_ratios": ratios,
        "majorant": majorant_json,
        "envelope_integrals": envelope_json,
    }
    report["tails"] = {"growth": growth_json, "lipschitz": lipschitz_json}

    sidecars = {"profile": _profile_columns(profile)}
    if growth_curve is not None:
        sidecars["growth"] = _growth_columns(growth_curve)
    return _json(report), sidecars


# ---------------------------------------------------------------------------
# verify bounds
# ---------------------------------------------------------------------------

def verify_bounds_report(spec: MeasureSpec, *, n_max: int = 512, x_max: int = 512,
                         delta: float | None = None, alpha: float | None = None):
    col = _Collector()
    mu = spec.build()

    if delta is None:
        def estimate():
            profile = SpectralProfile(mu, 2**14 + 1)
            est = lipschitz_exponent_estimate(profile).exponent
            if math.isinf(est):
                return 1.0
            return min(1.0, max(0.05, est))
        delta = col.timed("delta_estimate", estimate)
        col.note("kernel_bounds", f"delta estimated from the transform: {delta:.4g}")
    if alpha is None:
        alpha = min(1.0, delta)

    n_values, x_values = default_table_grids(n_max, x_max)
    bounds = {"delta": float(delta), "alpha": float(alpha), "n_max": n_max, "x_max": x_max}
    try:
        table = col.timed("kernel_table",
                          lambda: kernel_table(mu, n_values, x_values))
    except PrecisionExhausted as exc:
        col.finding("kernel_bounds", "precision_exhausted", str(exc))
        bounds.update(dict.fromkeys(("pointwise", "small_n", "smoothness_restricted",
                                     "smoothness_global", "oscillation_kernel")))
        sidecars = {}
    else:
        ts = np.linspace(-0.5, 0.5, 201)
        pairs = sorted({(x, y) for x in (8, 32, 100, 256) if x <= x_max
                        for y in (1, 2, x // 4) if 0 < 2 * y < x})
        pointwise = col.timed("pointwise_fit", lambda: pointwise_bound_fit(table, delta))
        small_n = col.timed("small_n_fit", lambda: small_n_regime_check(table, delta))
        if small_n.empty:
            col.note("kernel_bounds", "small-n regime is empty at this table size")
        smooth = col.timed("smoothness_fit",
                           lambda: smoothness_difference_fit(table, delta, alpha))
        for name, fit in (("restricted", smooth.restricted), ("global", smooth.global_holder)):
            if fit.empty:
                col.note("kernel_bounds", f"{name} difference regime is empty at this table size")
        oscillation = col.timed("oscillation_fit", lambda: oscillation_kernel_fit(ts, pairs))
        bounds.update({
            "pointwise": _bound_fit_json(pointwise),
            "small_n": _bound_fit_json(small_n),
            "smoothness_restricted": _bound_fit_json(smooth.restricted),
            "smoothness_global": _bound_fit_json(smooth.global_holder),
            "oscillation_kernel": _bound_fit_json(oscillation),
        })
        sidecars = {"kernel": _kernel_columns(table)}

    report = _base_report("verify_bounds", spec, mu, col)
    report["kernel_bounds"] = bounds
    return _json(report), sidecars


# ---------------------------------------------------------------------------
# maximal
# ---------------------------------------------------------------------------

def maximal_report(spec: MeasureSpec, phi: LatticeSequence, *, n_max: int = 256,
                   lambda_min: float = 1e-4):
    col = _Collector()
    mu = spec.build()
    if phi.l1_norm() <= 0.0:
        raise DiagnosticRefused("test sequence has zero l1 norm")
    grid = default_lambda_grid(lambda_min)

    m_doubled = col.timed("maximal_function",
                          lambda: maximal_function(mu, phi, 2 * n_max, checkpoint=n_max))
    m_base = m_doubled.prefix
    curve_base, curve_doubled = (weak_type_curve(m, grid) for m in (m_base, m_doubled))
    h0 = curve_base.headline_constant
    h1 = curve_doubled.headline_constant
    growth_ratio = h1 / h0 if h0 > 0 else None

    report = _base_report("maximal", spec, mu, col)
    report["maximal"] = {
        "n_max": n_max,
        "phi_norm": curve_base.phi_norm,
        "lambda_min": float(lambda_min),
        "max_value": m_base.values.max(),
        "headline_constant": h0,
        "doubling": {
            "n_max": 2 * n_max,
            "headline_constant": h1,
            "growth_ratio": growth_ratio,
            "within_25pct": growth_ratio <= 1.25 if growth_ratio is not None else None,
        },
    }
    return _json(report), {"levelsets": _levelset_columns(curve_base)}


# ---------------------------------------------------------------------------
# CSV sidecars: (header, 2-D float array), written by cli._write_outputs
# ---------------------------------------------------------------------------

def _profile_columns(profile: SpectralProfile):
    header = ["t", "re_theta", "im_theta", "abs_theta",
              "re_d1", "im_d1", "re_d2", "im_d2", "phi"]
    th, d1, d2 = profile.theta, profile.d1, profile.d2
    # |theta| by hypot: numpy's complex abs can differ from it in the last bit
    return header, np.column_stack([profile.grid, th.real, th.imag, np.hypot(th.real, th.imag),
                                    d1.real, d1.imag, d2.real, d2.imag, profile.phi])


def _growth_columns(curve):
    return ["n", "s"], np.column_stack([curve.n_values, curve.s_values])


def _kernel_columns(table):
    """Long form: one line per (n, x), n-major."""
    n, x = table.n_values, table.x_values
    return ["n", "x", "value"], np.column_stack(
        [np.repeat(n, len(x)), np.tile(x, len(n)), table.values.ravel()])


def _levelset_columns(curve):
    return ["lambda", "count", "constant"], np.column_stack(
        [curve.lambda_values, curve.counts, curve.constants])


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

_NUM_OR_NULL = {"type": ["number", "null"]}
_BOOL_OR_NULL = {"type": ["boolean", "null"]}

_BOUND_FIT_SCHEMA = {
    "type": ["object", "null"],
    "properties": {
        "regime": {"type": "string"},
        "fitted_constant": _NUM_OR_NULL,
        "worst": {"type": "array", "items": {"type": "number"}},
        "sample_count": {"type": "integer", "minimum": 0},
        "empty": {"type": "boolean"},
    },
    "required": ["regime", "fitted_constant", "worst", "sample_count"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "schema_version": {"const": 1},
        "tool": {
            "type": "object",
            "properties": {"name": {"const": "convpow"}, "version": {"type": "string"}},
            "required": ["name", "version"],
            "additionalProperties": False,
        },
        "command": {"enum": ["analyze", "verify_bounds", "maximal"]},
        "measure": {
            "type": "object",
            "properties": {
                "spec": {"type": "object"},
                "offset": {"type": "integer"},
                "width": {"type": "integer", "minimum": 1},
                "radius": {"type": "integer", "minimum": 0},
                "tail_mass": {"type": "number", "minimum": 0},
                "pre_truncation_deficit": {"type": "number", "minimum": 0},
                "transform_is_proxy": {"type": "boolean"},
                "expectation": _NUM_OR_NULL,
                "moment_1": _NUM_OR_NULL,
                "moment_2": _NUM_OR_NULL,
                "strict_aperiodicity": {"type": "boolean"},
                "transform_aperiodicity_check": {"type": "boolean"},
            },
            "required": ["spec", "strict_aperiodicity", "expectation"],
            "additionalProperties": False,
        },
        "spectral": {
            "type": "object",
            "properties": {
                "grid_size": {"type": "integer"},
                "puncture_radius": {"type": "number"},
                "angular_ratio": {
                    "type": "object",
                    "properties": {
                        "value": _NUM_OR_NULL,
                        "unbounded": _BOOL_OR_NULL,
                        "refinement_sups": {"type": "array", "items": _NUM_OR_NULL},
                        "refused": {"type": "boolean"},
                        "detail": {"type": ["string", "null"]},
                    },
                    "required": ["value", "unbounded", "refused"],
                    "additionalProperties": False,
                },
                "gaussian_decay_rate": {
                    "type": "object",
                    "properties": {
                        "value": _NUM_OR_NULL,
                        "failed": {"type": "boolean"},
                        "detail": {"type": ["string", "null"]},
                    },
                    "required": ["value", "failed"],
                    "additionalProperties": False,
                },
                "phi_properties": {
                    "type": ["object", "null"],
                    "properties": {
                        "window": {"type": "number"},
                        "even_max_violation": _NUM_OR_NULL,
                        "c1": _NUM_OR_NULL,
                        "c2": _NUM_OR_NULL,
                        "c3": _NUM_OR_NULL,
                        "tphi_derivative_ratio": _NUM_OR_NULL,
                        "tphi_window_maxima": {"type": "array", "items": _NUM_OR_NULL},
                        "tphi_monotone": {"type": "boolean"},
                        "notes": {"type": "array", "items": {"type": "string"}},
                    },
                    "additionalProperties": False,
                },
                "component_ratios": {
                    "type": "object",
                    "properties": {
                        "sup_first": _NUM_OR_NULL,
                        "sup_second": _NUM_OR_NULL,
                        "denominator_floor": {"type": "number"},
                    },
                    "additionalProperties": False,
                },
                "majorant": {
                    "type": "object",
                    "properties": {
                        "k_star": _NUM_OR_NULL,
                        "delta": {"type": "number"},
                        "worst_t": _NUM_OR_NULL,
                        "side_condition_ok": _BOOL_OR_NULL,
                        "failed": {"type": "boolean"},
                        "detail": {"type": ["string", "null"]},
                    },
                    "required": ["k_star", "failed"],
                    "additionalProperties": False,
                },
                "envelope_integrals": {
                    "type": ["object", "null"],
                    "properties": {
                        "k": {"type": "number"},
                        "delta": {"type": "number"},
                        "n_values": {"type": "array", "items": {"type": "integer"}},
                        "j1": {"type": "array", "items": _NUM_OR_NULL},
                        "j2": {"type": "array", "items": _NUM_OR_NULL},
                        "j1_max": _NUM_OR_NULL,
                        "j2_max": _NUM_OR_NULL,
                        "reference_n": {"type": "integer"},
                        "quadrature_error": {"type": "number", "minimum": 0},
                    },
                    "additionalProperties": False,
                },
            },
            "required": ["angular_ratio", "gaussian_decay_rate", "majorant"],
            "additionalProperties": False,
        },
        "tails": {
            "type": "object",
            "properties": {
                "growth": {
                    "type": ["object", "null"],
                    "properties": {
                        "exponent": _NUM_OR_NULL,
                        "log_correction": _NUM_OR_NULL,
                        "residual": _NUM_OR_NULL,
                        "window": {"type": "array", "items": {"type": "integer"}},
                        "points": {"type": "integer"},
                        "proxy": {"type": "boolean"},
                    },
                    "additionalProperties": False,
                },
                "lipschitz": {
                    "type": ["object", "null"],
                    "properties": {
                        "exponent": _NUM_OR_NULL,
                        "infinite": {"type": "boolean"},
                        "residual": _NUM_OR_NULL,
                        "steps": {"type": "integer"},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "kernel_bounds": {
            "type": "object",
            "properties": {
                "delta": {"type": "number"},
                "alpha": {"type": "number"},
                "n_max": {"type": "integer"},
                "x_max": {"type": "integer"},
                "pointwise": _BOUND_FIT_SCHEMA,
                "small_n": _BOUND_FIT_SCHEMA,
                "smoothness_restricted": _BOUND_FIT_SCHEMA,
                "smoothness_global": _BOUND_FIT_SCHEMA,
                "oscillation_kernel": _BOUND_FIT_SCHEMA,
            },
            "required": ["delta", "alpha", "pointwise", "small_n",
                         "smoothness_restricted", "smoothness_global"],
            "additionalProperties": False,
        },
        "maximal": {
            "type": "object",
            "properties": {
                "n_max": {"type": "integer", "minimum": 1},
                "phi_norm": _NUM_OR_NULL,
                "lambda_min": {"type": "number"},
                "max_value": _NUM_OR_NULL,
                "headline_constant": _NUM_OR_NULL,
                "doubling": {
                    "type": "object",
                    "properties": {
                        "n_max": {"type": "integer"},
                        "headline_constant": _NUM_OR_NULL,
                        "growth_ratio": _NUM_OR_NULL,
                        "within_25pct": _BOOL_OR_NULL,
                    },
                    "additionalProperties": False,
                },
            },
            "required": ["n_max", "headline_constant", "doubling"],
            "additionalProperties": False,
        },
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "section": {"type": "string"},
                    "code": {"type": "string"},
                    "message": {"type": "string"},
                },
                "required": ["section", "code", "message"],
                "additionalProperties": False,
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
        "meta": {
            "type": "object",
            "properties": {
                "generated_at": {"type": "string"},
                "timings": {"type": "object"},
            },
            "required": ["generated_at"],
            "additionalProperties": False,
        },
    },
    "required": ["schema_version", "tool", "command", "measure", "findings", "meta"],
    "additionalProperties": False,
}


def validate_report(report: dict) -> None:
    jsonschema.validate(report, REPORT_SCHEMA)

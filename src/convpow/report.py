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
import numbers
import time
from dataclasses import asdict, fields, is_dataclass

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
    APERIODICITY_GRID_POINTS,
    DEFAULT_GRID_SIZE,
    DEFAULT_PUNCTURE,
    SpectralProfile,
    angular_ratio_sup,
    component_ratio_report,
    envelope_integrals,
    gaussian_decay_rate,
    grid_derivative,
    ladder_block,
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


def _measured(spec: MeasureSpec, col: _Collector):
    """The built measure and its report section, both timed."""
    mu = col.timed("build", spec.build)
    return mu, col.timed("measure", lambda: _measure_section(spec, mu))


def _base_report(command: str, measure: dict, col: _Collector) -> dict:
    # findings and notes are sorted by content, so reordering the sections
    # that record them leaves the report unchanged
    findings = sorted(col.findings, key=lambda f: (f["section"], f["code"], f["message"]))
    return {
        "schema_version": 1,
        "tool": {"name": "convpow", "version": __version__},
        "command": command,
        "measure": measure,
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
    mu, measure = _measured(spec, col)
    profile = col.timed("profile", lambda: SpectralProfile(mu, grid_size, puncture_radius))
    # meta.resources, filled by the sections that spend them; the angular
    # probe's block stays null when the probe is refused
    spectral = {"profile_fft_points": profile.grid_size,
                "aperiodicity_fft_points": APERIODICITY_GRID_POINTS, "ladder_block": None}
    resources = {"spectral": spectral}

    def angular():
        try:
            rep = angular_ratio_sup(profile)
        except DiagnosticRefused as exc:
            col.finding("spectral", "angular_ratio_refused", str(exc))
            return {"value": None, "unbounded": None, "refinement_sups": [],
                    "refused": True, "detail": str(exc)}
        spectral["ladder_block"] = ladder_block(mu.width)
        if rep.unbounded:
            col.finding("spectral", "angular_ratio_unbounded",
                        "near-zero refinement shows geometric growth of the angular ratio")
        return {**asdict(rep), "refused": False, "detail": None}

    def decay():
        if not measure["strict_aperiodicity"]:
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
        env_json["reference_n"] = 100 if 100 in env.n_values else env.n_values[0]
        # the cost of the quadrature belongs in meta, not in the section
        resources["envelope"] = {key: env_json.pop(key) for key in ("passes", "panels")}
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
            fit = lipschitz_exponent_estimate(profile.d1_full)
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

    report = _base_report("analyze", measure, col)
    report["meta"]["resources"] = resources
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
    mu, measure = _measured(spec, col)

    if delta is None:
        def estimate():
            est = lipschitz_exponent_estimate(grid_derivative(mu, 2**14 + 1)).exponent
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
        table = None
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
            "modulus": table.modulus,
            "alias_error": table.alias_error,
            "pointwise": _bound_fit_json(pointwise),
            "small_n": _bound_fit_json(small_n),
            "smoothness_restricted": _bound_fit_json(smooth.restricted),
            "smoothness_global": _bound_fit_json(smooth.global_holder),
            "oscillation_kernel": _bound_fit_json(oscillation),
        })
        sidecars = {"kernel": _kernel_columns(table)}

    report = _base_report("verify_bounds", measure, col)
    if table is not None:
        report["meta"]["resources"] = {
            "kernel_table": {"moduli": table.moduli, "clamp_deficit": table.clamp_deficit,
                             "roundoff_bound": table.roundoff_bound},
            "smoothness_fit": {"shifts": smooth.shifts,
                               "scanned": dict(zip(("restricted", "global"), smooth.scanned)),
                               "cells": smooth.cells},
        }
    report["kernel_bounds"] = bounds
    return _json(report), sidecars


# ---------------------------------------------------------------------------
# maximal
# ---------------------------------------------------------------------------

def maximal_report(spec: MeasureSpec, phi: LatticeSequence, *, n_max: int = 256,
                   lambda_min: float = 1e-4):
    col = _Collector()
    mu, measure = _measured(spec, col)
    if phi.l1_norm() <= 0.0:
        raise DiagnosticRefused("test sequence has zero l1 norm")
    grid = default_lambda_grid(lambda_min)

    m_doubled = col.timed("maximal_function", lambda: maximal_function(
        mu, phi, 2 * n_max, checkpoint=n_max, lambda_values=grid))
    m_base, bound, base = m_doubled.prefix, m_doubled.bound, m_doubled.prefix.bound
    resources = {"half_width": bound and bound.half_width, "modulus": bound and bound.modulus,
                 "count_bound": bound and bound.outer, "passes": m_doubled.passes,
                 "fft_size": m_doubled.fft_size, "max_value_upper": base and base.top}
    curve_base, curve_doubled = (weak_type_curve(m, grid) for m in (m_base, m_doubled))
    h0 = curve_base.headline_constant
    h1 = curve_doubled.headline_constant
    growth_ratio = h1 / h0 if h0 > 0 else None

    report = _base_report("maximal", measure, col)
    report["meta"]["resources"] = {"maximal": resources}
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


def _object(properties: dict, *optional: str, nullable: bool = False) -> dict:
    """A closed object schema: no key outside ``properties``, and every key
    but ``optional`` (those some report path omits) required."""
    return {
        "type": ["object", "null"] if nullable else "object",
        "properties": properties,
        "required": [key for key in properties if key not in optional],
        "additionalProperties": False,
    }


_BOUND_FIT_SCHEMA = _object({
    "regime": {"type": "string"},
    "fitted_constant": _NUM_OR_NULL,
    "worst": {"type": "array", "items": {"type": "number"}},
    "sample_count": {"type": "integer", "minimum": 0},
    "empty": {"type": "boolean"},
}, nullable=True)

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_object({
        "schema_version": {"const": 1},
        "tool": _object({"name": {"const": "convpow"}, "version": {"type": "string"}}),
        "command": {"enum": ["analyze", "verify_bounds", "maximal"]},
        "measure": _object({
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
        }),
        "spectral": _object({
            "grid_size": {"type": "integer"},
            "puncture_radius": {"type": "number"},
            "angular_ratio": _object({
                "value": _NUM_OR_NULL,
                "unbounded": _BOOL_OR_NULL,
                "refinement_sups": {"type": "array", "items": _NUM_OR_NULL},
                "refused": {"type": "boolean"},
                "detail": {"type": ["string", "null"]},
            }),
            "gaussian_decay_rate": _object({
                "value": _NUM_OR_NULL,
                "failed": {"type": "boolean"},
                "detail": {"type": ["string", "null"]},
            }),
            "phi_properties": _object({
                "window": {"type": "number"},
                "even_max_violation": _NUM_OR_NULL,
                "c1": _NUM_OR_NULL,
                "c2": _NUM_OR_NULL,
                "c3": _NUM_OR_NULL,
                "tphi_derivative_ratio": _NUM_OR_NULL,
                "tphi_window_maxima": {"type": "array", "items": _NUM_OR_NULL},
                "tphi_monotone": {"type": "boolean"},
                "notes": {"type": "array", "items": {"type": "string"}},
            }, nullable=True),
            "component_ratios": _object({
                "sup_first": _NUM_OR_NULL,
                "sup_second": _NUM_OR_NULL,
                "denominator_floor": {"type": "number"},
            }),
            "majorant": _object({
                "k_star": _NUM_OR_NULL,
                "delta": {"type": "number"},
                "worst_t": _NUM_OR_NULL,
                "side_condition_ok": _BOOL_OR_NULL,
                "failed": {"type": "boolean"},
                "detail": {"type": ["string", "null"]},
            }),
            "envelope_integrals": _object({
                "k": {"type": "number"},
                "delta": {"type": "number"},
                "n_values": {"type": "array", "items": {"type": "integer"}},
                "j1": {"type": "array", "items": _NUM_OR_NULL},
                "j2": {"type": "array", "items": _NUM_OR_NULL},
                "j1_max": _NUM_OR_NULL,
                "j2_max": _NUM_OR_NULL,
                "reference_n": {"type": "integer"},
                "quadrature_error": {"type": "number", "minimum": 0},
            }, nullable=True),
        }),
        "tails": _object({
            "growth": _object({
                "exponent": _NUM_OR_NULL,
                "log_correction": _NUM_OR_NULL,
                "residual": _NUM_OR_NULL,
                "window": {"type": "array", "items": {"type": "integer"}},
                "points": {"type": "integer"},
                "proxy": {"type": "boolean"},
            }, nullable=True),
            "lipschitz": _object({
                "exponent": _NUM_OR_NULL,
                "infinite": {"type": "boolean"},
                "residual": _NUM_OR_NULL,
                "steps": {"type": "integer"},
            }, nullable=True),
        }),
        "kernel_bounds": _object({
            "delta": {"type": "number"},
            "alpha": {"type": "number"},
            "n_max": {"type": "integer"},
            "x_max": {"type": "integer"},
            "modulus": {"type": "integer", "minimum": 1},
            "alias_error": {"type": "number", "minimum": 0},
            "pointwise": _BOUND_FIT_SCHEMA,
            "small_n": _BOUND_FIT_SCHEMA,
            "smoothness_restricted": _BOUND_FIT_SCHEMA,
            "smoothness_global": _BOUND_FIT_SCHEMA,
            "oscillation_kernel": _BOUND_FIT_SCHEMA,
        }, "modulus", "alias_error"),   # no kernel table after precision_exhausted
        "maximal": _object({
            "n_max": {"type": "integer", "minimum": 1},
            "phi_norm": _NUM_OR_NULL,
            "lambda_min": {"type": "number"},
            "max_value": _NUM_OR_NULL,
            "headline_constant": _NUM_OR_NULL,
            "doubling": _object({
                "n_max": {"type": "integer"},
                "headline_constant": _NUM_OR_NULL,
                "growth_ratio": _NUM_OR_NULL,
                "within_25pct": _BOOL_OR_NULL,
            }),
        }),
        "findings": {"type": "array", "items": _object({
            "section": {"type": "string"},
            "code": {"type": "string"},
            "message": {"type": "string"},
        })},
        "notes": {"type": "array", "items": {"type": "string"}},
        "meta": _object({
            "generated_at": {"type": "string"},
            "timings": {"type": "object"},
            # each command writes its own parts (analyze without envelope
            # integrals no envelope); a precision_exhausted run writes none
            "resources": _object({
                "spectral": _object({
                    "profile_fft_points": {"type": "integer", "minimum": 1},
                    "aperiodicity_fft_points": {"type": "integer", "minimum": 1},
                    "ladder_block": {"type": ["array", "null"], "minItems": 2, "maxItems": 2,
                                     "items": {"type": "integer", "minimum": 1}},
                }),
                "envelope": _object({
                    "passes": {"type": "integer", "minimum": 1},
                    "panels": {"type": "integer", "minimum": 1},
                }),
                "maximal": _object({
                    "half_width": {"type": ["integer", "null"], "minimum": 1},
                    "modulus": {"type": ["integer", "null"], "minimum": 1},
                    "count_bound": {"type": ["number", "null"], "minimum": 0},
                    "passes": {"type": "integer", "minimum": 0},
                    "fft_size": {"type": "integer", "minimum": 1},
                    "max_value_upper": {"type": ["number", "null"], "minimum": 0},
                }),
                "kernel_table": _object({
                    "moduli": {"type": "array", "minItems": 1,
                               "items": {"type": "integer", "minimum": 1}},
                    "clamp_deficit": {"type": "number", "minimum": 0},
                    "roundoff_bound": {"type": "number", "minimum": 0},
                }),
                "smoothness_fit": _object({
                    "shifts": {"type": "integer", "minimum": 0},
                    "scanned": _object({
                        "restricted": {"type": "integer", "minimum": 0},
                        "global": {"type": "integer", "minimum": 0},
                    }),
                    "cells": {"type": "integer", "minimum": 0},
                }),
            }, "spectral", "envelope", "maximal", "kernel_table", "smoothness_fit"),
        }, "resources"),
    }, "spectral", "tails", "kernel_bounds", "maximal"),   # one section per command
}


# Draft 7's types; integer takes an integral float, and no type takes a bool
# but boolean (numpy's integers are numbers, not integers)
_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}
_KEYWORDS = {"$schema", "type", "properties", "required", "additionalProperties", "items",
             "minimum", "minItems", "maxItems", "const", "enum"}


def _equal(value, constant) -> bool:
    """Draft 7 equality of a value and a scalar constant: True is not 1, 1.0 is.
    False for an array or object, which a constant here never is."""
    return (not isinstance(value, (list, dict))
            and (value is True or value is False) == (constant is True or constant is False)
            and bool(value == constant))


def _violation(schema: dict, value, path: str = "report") -> str | None:
    """Where and why Draft 7 rejects ``value`` under ``schema`` (``"<JSON path>: <reason>"``
    of the first violation), or None where it accepts.  Knows the keywords REPORT_SCHEMA
    uses; any other keyword, or a schema-valued ``additionalProperties``, is a violation."""
    unknown = sorted(schema.keys() - _KEYWORDS) if isinstance(schema, dict) else [schema]
    if unknown:
        return f"{path}: {unknown[0]!r} is outside the Draft 7 subset checked here"
    if "type" in schema:
        kinds = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not set(kinds) <= _TYPES.keys():
            return f"{path}: unsupported type in {schema['type']!r}"
        if not any(_TYPES[k](value) for k in kinds):
            return f"{path}: {value!r} is not of type {' or '.join(map(repr, kinds))}"
    if "const" in schema and not _equal(value, schema["const"]):
        return f"{path}: {schema['const']!r} was expected, not {value!r}"
    if "enum" in schema and not any(_equal(value, item) for item in schema["enum"]):
        return f"{path}: {value!r} is not one of {schema['enum']!r}"
    if "minimum" in schema and _TYPES["number"](value) and value < schema["minimum"]:
        return f"{path}: {value!r} is less than the minimum of {schema['minimum']!r}"
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return f"{path}: {key!r} is a required property"
        for key, item in value.items():
            if key not in properties:
                if schema.get("additionalProperties", True) is not True:
                    return f"{path}: {key!r} is not an allowed property"
            elif problem := _violation(properties[key], item, f"{path}.{key}"):
                return problem
    elif isinstance(value, list):
        size, low = len(value), schema.get("minItems", 0)
        if not low <= size <= schema.get("maxItems", size):
            return f"{path}: {value!r} is too {'short' if size < low else 'long'}"
        for index, item in enumerate(value):
            if problem := _violation(schema.get("items", {}), item, f"{path}[{index}]"):
                return problem
    return None


def validate_report(report: dict) -> None:
    """Raise ValueError naming the first place, as a JSON path from ``report``,
    where the report breaks REPORT_SCHEMA."""
    problem = _violation(REPORT_SCHEMA, report)
    if problem is not None:
        raise ValueError(problem)

"""Constructors for the measure families used throughout the diagnostics.

Infinite-support laws are truncated to [-K, K] and renormalized, so the
stored object is an exact probability measure (tail_mass 0); the mass the
truncation removed is estimated and attached as ``pre_truncation_deficit``
metadata so reports can quantify the model error.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .measure import LatticeMeasure, exact_sum, lattice_index


class SpecError(ValueError):
    """Malformed measure specification; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name
        self.detail = message


def lazy_walk() -> LatticeMeasure:
    """The walk staying put with probability 1/2, stepping +-1 with 1/4 each."""
    return LatticeMeasure(-1, [0.25, 0.5, 0.25])


def atoms_measure(weights_by_index: dict) -> LatticeMeasure:
    """Measure from an explicit {index: weight} mapping, renormalized."""
    if not weights_by_index:
        raise ValueError("at least one atom required")
    ks = sorted(int(k) for k in weights_by_index)
    lo, hi = ks[0], ks[-1]
    w = np.zeros(hi - lo + 1)
    for k in ks:
        w[k - lo] = float(weights_by_index[k])
    total = exact_sum(w)
    if total <= 0:
        raise ValueError("total mass must be positive")
    return LatticeMeasure(lo, w / total)


def _power_tail_estimate(beta: float, K: int) -> float:
    # Euler-Maclaurin estimate of sum_{k>K} k^-beta
    return K ** (1.0 - beta) / (beta - 1.0) + 0.5 * K ** (-beta)


def power_law(beta: float, K: int) -> LatticeMeasure:
    """Symmetric weights proportional to |k|^-beta on 0 < |k| <= K.

    Renormalized after truncation; the pre-truncation tail estimate lands in
    ``pre_truncation_deficit``.  beta must exceed 1 for the untruncated law
    to be normalizable.
    """
    if beta <= 1.0:
        raise ValueError("beta must exceed 1 for a normalizable law")
    K = int(K)
    if K < 10:
        raise ValueError("truncation K must be at least 10")
    half = np.arange(1, K + 1, dtype=float) ** (-beta)
    w = np.concatenate([half[::-1], [0.0], half])
    half_sum = exact_sum(half)
    w /= 2.0 * half_sum
    tail = _power_tail_estimate(beta, K)
    deficit = tail / (half_sum + tail)
    return LatticeMeasure(-K, w, pre_truncation_deficit=deficit)


def log_squared_measure(K: int) -> LatticeMeasure:
    """Symmetric weights proportional to 1/(|k| log^2 |k|) on 2 <= |k| <= K."""
    K = int(K)
    if K < 3:
        raise ValueError("truncation K must be at least 3")
    ks = np.arange(2, K + 1, dtype=float)
    half = 1.0 / (ks * np.log(ks) ** 2)
    w = np.concatenate([half[::-1], [0.0, 0.0, 0.0], half])
    half_sum = exact_sum(half)
    w /= 2.0 * half_sum
    tail = 1.0 / math.log(K)  # integral of the density beyond K
    deficit = tail / (half_sum + tail)
    return LatticeMeasure(-K, w, pre_truncation_deficit=deficit)


def mixture(a1: float, eta: LatticeMeasure, nu: LatticeMeasure) -> LatticeMeasure:
    """Convex combination a1*eta + (1-a1)*nu, pointwise on the union window."""
    if not 0.0 < a1 <= 1.0:
        raise ValueError(f"mixture weight must lie in (0, 1], got {a1!r}")
    if a1 == 1.0:
        return eta
    lo = min(eta.offset, nu.offset)
    hi = max(eta.last, nu.last)
    try:
        w = np.zeros(hi - lo + 1)
    except ValueError:   # numpy refuses a length that no array can have
        raise ValueError(f"the windows [{eta.offset}, {eta.last}] and [{nu.offset}, {nu.last}] "
                         f"span {hi - lo + 1} points, more than one array can hold") from None
    w[eta.offset - lo : eta.offset - lo + eta.width] += a1 * eta.weights
    w[nu.offset - lo : nu.offset - lo + nu.width] += (1.0 - a1) * nu.weights
    tail = a1 * eta.tail_mass + (1.0 - a1) * nu.tail_mass
    deficit = a1 * eta.pre_truncation_deficit + (1.0 - a1) * nu.pre_truncation_deficit
    return LatticeMeasure(lo, w, tail, pre_truncation_deficit=deficit)


KINDS = ("power_law", "mixture", "lazy_walk", "atoms", "log_squared")
MAX_MIXTURE_DEPTH = 32   # a spec recurses once a level: this stays far inside Python's limit
# JSON levels of lists and objects inside one spec's params, its components left
# out: with MAX_MIXTURE_DEPTH mixtures, to_dict's recursion stays far inside the limit
MAX_PARAMS_NESTING = 64


@dataclass(frozen=True)
class MeasureSpec:
    """Declarative description of a zoo measure; round-trips through JSON."""

    kind: str
    params: dict = field(default_factory=dict)
    truncation: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError("kind", f"unknown measure kind {self.kind!r}")

    def build(self) -> LatticeMeasure:
        """The measure; a value a constructor rejects raises SpecError at its path."""
        return self._build(1)

    def _build(self, depth: int) -> LatticeMeasure:
        """``build`` of a spec nested inside depth - 1 mixtures."""
        if self.kind == "lazy_walk":
            return lazy_walk()
        if self.kind in ("power_law", "log_squared") and self.truncation is None:
            raise SpecError("truncation", f"{self.kind} requires a truncation K")
        if self.kind == "power_law":
            with _field("params.beta"):
                beta = float(_require(self.params, "beta", "params.beta"))
            # power_law checks beta first, then K; a NaN beta fails later on
            with _field("K" if beta > 1.0 else "params.beta"):
                return power_law(beta, self.truncation)
        if self.kind == "log_squared":
            with _field("K"):
                return log_squared_measure(self.truncation)
        if self.kind == "atoms":
            offset = _require(self.params, "offset", "params.offset")
            weights = _require(self.params, "weights", "params.weights")
            with _field("params.offset"):
                offset = lattice_index(offset, "offset")
            with _field("params.tail_mass"):
                tail_mass = float(self.params.get("tail_mass", 0.0))
                if not 0.0 <= tail_mass <= 1.0:
                    raise ValueError(f"must lie in [0, 1], got {tail_mass!r}")
            with _field("params.weights"):
                return LatticeMeasure(offset, weights, tail_mass)
        # mixture
        with _field("params.a1"):
            a1 = float(_require(self.params, "a1", "params.a1"))
        eta = self._component("eta", depth)
        nu = self._component("nu", depth)
        # past a valid a1, mixture fails only on the union of the components' windows
        with _field("params" if 0.0 < a1 <= 1.0 else "params.a1"):
            return mixture(a1, eta, nu)

    def _component(self, key: str, depth: int) -> LatticeMeasure:
        path = f"params.{key}"
        spec = MeasureSpec.from_dict(_require(self.params, key, path), path)
        if spec.kind == "mixture" and depth == MAX_MIXTURE_DEPTH:
            raise SpecError(path, f"mixtures nest at most {MAX_MIXTURE_DEPTH} deep")
        try:
            return spec._build(depth + 1)
        except SpecError as exc:  # the nested spec's paths, under this one's
            raise SpecError(f"{path}.{exc.field_name}", exc.detail) from None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "params": _jsonable(self.params)}
        if self.truncation is not None:
            out["K"] = int(self.truncation)
        return out

    @classmethod
    def from_dict(cls, payload: Any, context: str = "spec") -> "MeasureSpec":
        if not isinstance(payload, dict):
            raise SpecError(context, "expected a JSON object")
        if "kind" not in payload:
            raise SpecError(f"{context}.kind", "missing")
        kind = payload["kind"]
        if kind not in KINDS:
            raise SpecError(f"{context}.kind", f"unknown measure kind {kind!r}")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise SpecError(f"{context}.params", "expected a JSON object")
        _check_nesting(params, f"{context}.params", ("eta", "nu") if kind == "mixture" else ())
        truncation = payload.get("K")
        if truncation is not None:
            with _field(f"{context}.K"):
                truncation = lattice_index(truncation, "K")
        return cls(kind=kind, params=params, truncation=truncation)

    @classmethod
    def from_json(cls, text: str) -> "MeasureSpec":
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:   # too deep to decode
            raise SpecError("document", f"invalid JSON: {exc}") from None
        return cls.from_dict(payload)


@contextmanager
def _field(path: str):
    """Re-raise a constructor's ValueError or TypeError as a SpecError at path."""
    try:
        yield
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(path, str(exc)) from None


def _check_nesting(params: dict, path: str, components) -> None:
    """SpecError at the first list or object nested more than MAX_PARAMS_NESTING levels
    inside ``params``, walked one level at a time, without recursion.  The ``components``
    keys are left out: they are specs, each checked where it is read."""
    level = [(value, f"{path}.{key}") for key, value in params.items()
             if key not in components and isinstance(value, (dict, list))]
    for _ in range(MAX_PARAMS_NESTING):
        level = [(item, f"{where}.{key}" if isinstance(value, dict) else f"{where}[{key}]")
                 for value, where in level
                 for key, item in (value.items() if isinstance(value, dict) else enumerate(value))
                 if isinstance(item, (dict, list))]
        if not level:
            return
    raise SpecError(level[0][1], f"lists and objects nest more than {MAX_PARAMS_NESTING} "
                                 "levels deep")


def _require(params: dict, key: str, context: str):
    if key not in params:
        raise SpecError(context, "missing")
    return params[key]


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value

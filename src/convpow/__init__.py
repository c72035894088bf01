"""Diagnostics for convolution powers of probability measures on the
integer lattice: exact and transform-accelerated convolution arithmetic,
characteristic-function diagnostics, moment-growth and smoothness
exponents, kernel decay fits, and weak (1,1) level-set analysis of the
associated maximal operator."""

__version__ = "0.1.0"

from .errors import DiagnosticRefused, HypothesisFailure, PrecisionExhausted
from .kernels import (
    BoundFit,
    KernelTable,
    kernel_table,
    oscillation_kernel_fit,
    pointwise_bound_fit,
    small_n_regime_check,
    smoothness_difference_fit,
)
from .maximal import (
    LatticeSequence,
    LevelSetCurve,
    MaximalFunction,
    maximal_function,
    weak_type_curve,
)
from .measure import (
    LatticeMeasure,
    convolution_power,
    convolve,
    expectation,
    is_strictly_aperiodic,
    moment,
)
from .spectral import (
    SpectralProfile,
    angular_ratio_sup,
    component_ratio_report,
    derivative_at,
    envelope_integrals,
    gaussian_decay_rate,
    majorant_fit,
    phi_property_report,
    transform_aperiodicity_check,
    transform_at,
)
from .tails import (
    GrowthCurve,
    fit_growth_curve,
    lipschitz_exponent_estimate,
    partial_second_moment_curve,
)
from .zoo import (
    MeasureSpec,
    SpecError,
    atoms_measure,
    lazy_walk,
    log_squared_measure,
    mixture,
    power_law,
)

__all__ = [
    "BoundFit",
    "DiagnosticRefused",
    "GrowthCurve",
    "HypothesisFailure",
    "KernelTable",
    "LatticeMeasure",
    "LatticeSequence",
    "LevelSetCurve",
    "MaximalFunction",
    "MeasureSpec",
    "PrecisionExhausted",
    "SpecError",
    "SpectralProfile",
    "angular_ratio_sup",
    "atoms_measure",
    "component_ratio_report",
    "convolution_power",
    "convolve",
    "derivative_at",
    "envelope_integrals",
    "expectation",
    "fit_growth_curve",
    "gaussian_decay_rate",
    "is_strictly_aperiodic",
    "kernel_table",
    "lazy_walk",
    "lipschitz_exponent_estimate",
    "log_squared_measure",
    "majorant_fit",
    "maximal_function",
    "mixture",
    "moment",
    "oscillation_kernel_fit",
    "partial_second_moment_curve",
    "phi_property_report",
    "pointwise_bound_fit",
    "power_law",
    "small_n_regime_check",
    "smoothness_difference_fit",
    "transform_aperiodicity_check",
    "transform_at",
    "weak_type_curve",
]

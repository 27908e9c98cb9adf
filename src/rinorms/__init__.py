"""Exact Lorentz quasi-norms, Hardy averages and K-functional interpolation checks.

The package computes, in closed form on piecewise-constant functions:
rearrangements and distribution functions, Lorentz quasi-norms with their
dilation/Boyd behaviour, Hardy-type averaging operators with certified norm
enclosures, Peetre K-functionals for Lorentz couples, and the
rearrangement-invariant-parameterised interpolation functor norm, together
with seeded verification harnesses for the equivalences tying them together.
"""

from .counterexamples import SequenceReport, sequence_report, step_function_report
from .enclosure import Enclosure
from .harness import (
    Corpus,
    RatioReport,
    default_check_reports,
    generate_corpus,
    generate_pairs,
    verify_hardy_equivalence,
    verify_hardy_pointwise,
    verify_interpolation_identity,
    verify_k_properties,
)
from .hardy import (
    GridSpec,
    MonotoneEnvelope,
    PowerLaw,
    add_envelopes,
    double_star,
    envelope_norm,
    hardy_lower,
    hardy_upper,
    power_scale,
    predicted_bounded,
)
from .interp import (
    FunctorParams,
    LorentzCouple,
    functor_admissible,
    functor_norm,
    holmstedt_k,
    intersection_norm,
    k_exact_l1_linf,
    k_upper_oracle,
    min_power_norm_finite,
    select_parameters,
)
from .lorentz import (
    LorentzParams,
    SpaceDescriptor,
    aoki_rolewicz_kappa,
    dilation_operator_norm,
    estimate_boyd_indices,
    estimate_dilation_norm,
    estimate_quasi_triangle_constant,
    is_nontrivial,
    lorentz_norm,
)
from .stepfn import INF, StepFunction, power_integral, weighted_power_integral

__version__ = "0.1.0"

__all__ = [
    "INF",
    "StepFunction",
    "power_integral",
    "weighted_power_integral",
    "LorentzParams",
    "SpaceDescriptor",
    "is_nontrivial",
    "lorentz_norm",
    "dilation_operator_norm",
    "estimate_dilation_norm",
    "estimate_boyd_indices",
    "aoki_rolewicz_kappa",
    "estimate_quasi_triangle_constant",
    "Enclosure",
    "PowerLaw",
    "GridSpec",
    "MonotoneEnvelope",
    "hardy_upper",
    "hardy_lower",
    "double_star",
    "add_envelopes",
    "power_scale",
    "envelope_norm",
    "predicted_bounded",
    "LorentzCouple",
    "FunctorParams",
    "k_exact_l1_linf",
    "k_upper_oracle",
    "holmstedt_k",
    "intersection_norm",
    "functor_admissible",
    "min_power_norm_finite",
    "functor_norm",
    "select_parameters",
    "SequenceReport",
    "sequence_report",
    "step_function_report",
    "Corpus",
    "RatioReport",
    "generate_corpus",
    "generate_pairs",
    "verify_hardy_pointwise",
    "verify_hardy_equivalence",
    "verify_interpolation_identity",
    "verify_k_properties",
    "default_check_reports",
]

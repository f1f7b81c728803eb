"""Singular-point taxonomy and fiber-connectivity checks for integrable
systems extending complexity-one torus actions."""

__version__ = "0.1.0"

from .classifier import (
    SingularityReport,
    SystemSpec,
    classify_point,
    classify_points,
    fiber_verdicts,
    is_critical_mod_phi,
    lagrange_multiplier,
    local_model_system,
    slice_data,
    slice_hessian_blocks,
    stabilizer_slice,
)
from .family import (
    PolarPoint,
    build_family,
    classify_family_point,
    eval_polar,
    singularity_conditions,
)
from .fiberlab import (
    connectivity_report,
    critical_scan,
    level_components,
    reduced_surface,
)
from .jets import (
    ChartJet,
    InvariantPolynomial,
    RationalComplex,
    chart_jet,
    check_invariance,
    ephemeral_zero_set_test,
    reduced_taylor,
    vanishes_below_order_mod_phi,
)
from .lattice import (
    DefiningVector,
    StabilizerData,
    WeightMatrix,
    connectivity_obstruction,
    defining_vector,
    degree_gt2_criterion,
    properness_check,
    smith_normal_form,
    tall_and_degree,
)
from .localmodel import (
    defining_poly_eval,
    reduced_chart_constant,
    sample_zero_level,
)

__all__ = [
    "__version__",
    "ChartJet",
    "DefiningVector",
    "InvariantPolynomial",
    "PolarPoint",
    "RationalComplex",
    "SingularityReport",
    "StabilizerData",
    "SystemSpec",
    "WeightMatrix",
    "build_family",
    "chart_jet",
    "check_invariance",
    "classify_family_point",
    "classify_point",
    "classify_points",
    "connectivity_obstruction",
    "connectivity_report",
    "critical_scan",
    "defining_poly_eval",
    "defining_vector",
    "degree_gt2_criterion",
    "ephemeral_zero_set_test",
    "eval_polar",
    "fiber_verdicts",
    "is_critical_mod_phi",
    "lagrange_multiplier",
    "level_components",
    "local_model_system",
    "properness_check",
    "reduced_chart_constant",
    "reduced_surface",
    "reduced_taylor",
    "sample_zero_level",
    "singularity_conditions",
    "slice_data",
    "slice_hessian_blocks",
    "smith_normal_form",
    "stabilizer_slice",
    "tall_and_degree",
    "vanishes_below_order_mod_phi",
]

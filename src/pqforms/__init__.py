"""Exact symbolic exterior calculus for complex (p,q)-forms.

Everything is computed over the Gaussian rationals: forms, metrics, the
Hodge star and its convention variants, the differential operators, the
pairing functionals used to separate paired-index classes, and the
real-coordinate oracle that cross-checks the star.
"""

from .scalars import GaussianRational, gaussian, parse_scalar
from .wpoly import WirtingerPolynomial
from .forms import Form
from .metric import (
    HermitianMetric,
    MetricValidation,
    associated_form,
    load_metric,
    validate_matrix,
    volume_coefficient_report,
    volume_form,
)
from .star import (
    DEFAULT_CONVENTION,
    LITERAL_CONVENTION,
    DefiningIdentityReport,
    StarConvention,
    defining_identity_check,
    hodge_star,
    pointwise_inner,
    raise_indices,
)
from .realoracle import (
    ORACLE_STAR_RATIOS,
    OracleReport,
    RealForm,
    complexify,
    oracle_compare,
    oracle_star,
    real_hodge_star,
    realify,
)
from .calculus import (
    HarmonicReport,
    codifferential,
    dolbeault_del,
    dolbeault_delbar,
    exterior_d,
    harmonic_check,
    laplacian,
)
from .obstruction import (
    Direction,
    FrameReport,
    RealOrthogonalMatrix,
    k3_product_form,
    lemma34_scenario,
    obstruction,
    obstruction_direction_coefficients,
    paired_class_form,
    pr_minus,
    pr_plus,
    transform_form,
)
from .dsl import ParseError, format_poly, parse_poly, pretty_print
from .scenarios import ScenarioReport, scenario_runner

__all__ = [
    "GaussianRational",
    "gaussian",
    "parse_scalar",
    "WirtingerPolynomial",
    "Form",
    "HermitianMetric",
    "MetricValidation",
    "associated_form",
    "load_metric",
    "validate_matrix",
    "volume_coefficient_report",
    "volume_form",
    "DEFAULT_CONVENTION",
    "LITERAL_CONVENTION",
    "DefiningIdentityReport",
    "StarConvention",
    "defining_identity_check",
    "hodge_star",
    "pointwise_inner",
    "raise_indices",
    "ORACLE_STAR_RATIOS",
    "OracleReport",
    "RealForm",
    "complexify",
    "oracle_compare",
    "oracle_star",
    "real_hodge_star",
    "realify",
    "HarmonicReport",
    "codifferential",
    "dolbeault_del",
    "dolbeault_delbar",
    "exterior_d",
    "harmonic_check",
    "laplacian",
    "Direction",
    "FrameReport",
    "RealOrthogonalMatrix",
    "k3_product_form",
    "lemma34_scenario",
    "obstruction",
    "obstruction_direction_coefficients",
    "paired_class_form",
    "pr_minus",
    "pr_plus",
    "transform_form",
    "ParseError",
    "format_poly",
    "parse_poly",
    "pretty_print",
    "ScenarioReport",
    "scenario_runner",
]

__version__ = "0.1.0"

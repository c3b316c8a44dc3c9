"""Exact symbolic exterior calculus for complex (p,q)-forms.

Everything is computed over the Gaussian rationals: forms, metrics, the
Hodge star and its convention variants, the differential operators, the
pairing functionals used to separate paired-index classes, and the
real-coordinate oracle that cross-checks the star.

Public names resolve lazily (PEP 562): ``pqforms.hodge_star`` imports
``pqforms.star`` on first access, so a caller loads only the modules it uses.
"""

import importlib
import sys
import types

# home module: the public names it defines, in the order of __all__
_NAMES = {
    "scalars": ("GaussianRational", "gaussian", "parse_scalar"),
    "wpoly": ("WirtingerPolynomial",),
    "forms": ("Form",),
    "metric": (
        "HermitianMetric", "MetricValidation", "associated_form", "load_metric", "validate_matrix",
        "volume_coefficient_report", "volume_form",
    ),
    "star": (
        "DEFAULT_CONVENTION", "LITERAL_CONVENTION", "DefiningIdentityReport", "StarConvention",
        "defining_identity_check", "hodge_star", "pointwise_inner", "raise_indices",
    ),
    "realoracle": (
        "ORACLE_STAR_RATIOS", "OracleReport", "RealForm", "complexify", "oracle_compare", "oracle_star",
        "real_hodge_star", "realify",
    ),
    "calculus": (
        "HarmonicReport", "codifferential", "dolbeault_del", "dolbeault_delbar", "exterior_d", "harmonic_check",
        "laplacian",
    ),
    "obstruction": (
        "Direction", "FrameReport", "RealOrthogonalMatrix", "k3_product_form", "lemma34_scenario", "obstruction",
        "obstruction_direction_coefficients", "paired_class_form", "pr_minus", "pr_plus", "transform_form",
    ),
    "dsl": ("ParseError", "format_poly", "parse_poly", "pretty_print"),
    "scenarios": ("ScenarioReport", "scenario_runner"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The import system binds each loaded submodule as a package attribute.
    The function ``obstruction`` shares its name with its module, so a public
    name keeps its value and is never replaced by a submodule."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

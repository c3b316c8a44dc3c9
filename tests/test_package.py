"""The package namespace: every public name, its order and its lazy resolution."""

import importlib
import os
import subprocess
import sys

import pytest

import pqforms

PUBLIC_NAMES = [
    "GaussianRational", "gaussian", "parse_scalar",
    "WirtingerPolynomial",
    "Form",
    "HermitianMetric", "MetricValidation", "associated_form", "load_metric", "validate_matrix",
    "volume_coefficient_report", "volume_form",
    "DEFAULT_CONVENTION", "LITERAL_CONVENTION", "DefiningIdentityReport", "StarConvention",
    "defining_identity_check", "hodge_star", "pointwise_inner", "raise_indices",
    "ORACLE_STAR_RATIOS", "OracleReport", "RealForm", "complexify", "oracle_compare", "oracle_star",
    "real_hodge_star", "realify",
    "HarmonicReport", "codifferential", "dolbeault_del", "dolbeault_delbar", "exterior_d", "harmonic_check",
    "laplacian",
    "Direction", "FrameReport", "RealOrthogonalMatrix", "k3_product_form", "lemma34_scenario", "obstruction",
    "obstruction_direction_coefficients", "paired_class_form", "pr_minus", "pr_plus", "transform_form",
    "ParseError", "format_poly", "parse_poly", "pretty_print",
    "ScenarioReport", "scenario_runner",
]


def test_public_names_keep_their_order():
    assert pqforms.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 52


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_home_module_value(name):
    home = importlib.import_module(f"pqforms.{pqforms._HOME[name]}")
    assert getattr(pqforms, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from pqforms import *", namespace)
    assert [name for name in PUBLIC_NAMES if name in namespace] == PUBLIC_NAMES


def test_dir_lists_every_name():
    listed = dir(pqforms)
    assert "__all__" in listed
    assert set(PUBLIC_NAMES) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        pqforms.frobnicate
    assert not hasattr(pqforms, "frobnicate")


_FRESH = (
    "import sys, pqforms\n"
    "before = sorted(name for name in sys.modules if name.startswith('pqforms.'))\n"
    "import pqforms.obstruction\n"
    "print(before, pqforms.hodge_star.__module__, pqforms.obstruction is sys.modules['pqforms.obstruction'].obstruction)"
)


def test_names_resolve_on_first_access():
    """A fresh ``import pqforms`` loads no submodule; the function ``obstruction``
    stays bound after its module of the same name is imported."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pqforms.__file__)))
    done = subprocess.run([sys.executable, "-c", _FRESH], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[] pqforms.star True\n"

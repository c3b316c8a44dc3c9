"""Exterior derivative, Dolbeault split, codifferential and Laplacian.

All operators live on the flat local model with a constant metric.
Harmonicity here is *defined* as d(psi) = 0 together with delta(psi) = 0;
the engine makes no compactness claim, and every harmonic report says so.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .choices import DEFAULT_CONVENTION, StarConvention
from .forms import Form, _key_product
from .wpoly import Z, ZBAR

if TYPE_CHECKING:
    from .metric import HermitianMetric

FLAT_MODEL_NOTE = (
    "flat local model: 'harmonic' means d and delta both vanish; "
    "no compactness assumption is made or used"
)


def _half_derivative(form: Form, kind: str) -> Form:
    """sum_j d/d(kind)_j (.) d(kind)^j ^ (.), differentiating each
    coefficient only by the variables of that kind that occur in it and
    whose differential is not in its key, where the wedge would vanish."""
    side = 0 if kind == Z else 1
    pairs = []
    for key, coeff in form.terms.items():
        for j in coeff.variables(kind):
            if j not in key[side]:
                derivative = coeff.derivative(kind, j)
                image, sign = _key_product(((j,), ()) if kind == Z else ((), (j,)), key)
                pairs.append((image, derivative if sign > 0 else -derivative))
    return Form._trusted(form.n, pairs)


def dolbeault_del(form: Form) -> Form:
    """The dz half of the exterior derivative: sum_j d/dz_j (.) dz^j ^ (.)."""
    return _half_derivative(form, Z)


def dolbeault_delbar(form: Form) -> Form:
    """The dzb half of the exterior derivative."""
    return _half_derivative(form, ZBAR)


def exterior_d(form: Form) -> Form:
    """Full exterior derivative, the sum of both Dolbeault halves."""
    return dolbeault_del(form) + dolbeault_delbar(form)


def _homogeneous_total_degree(form: Form, where: str) -> int:
    degrees = form.total_degrees()
    if len(degrees) > 1:
        raise ValueError(f"{where} needs a form of homogeneous total degree, got degrees {sorted(degrees)}")
    return next(iter(degrees)) if degrees else 0


def codifferential(
    form: Form,
    metric: HermitianMetric,
    convention: StarConvention = DEFAULT_CONVENTION,
) -> Form:
    """Codifferential delta = (-1)^(n(k+1)+1) * star d star on k-forms.

    The sign exponent uses n = complex dimension.  delta is linear: the
    two antilinear stars compose to a linear map.
    """
    from .star import hodge_star  # here, so that d and its halves load neither the star nor the metric

    k = _homogeneous_total_degree(form, "codifferential")
    n = metric.n
    starred = hodge_star(form, metric, convention)
    moved = exterior_d(starred)
    back = hodge_star(moved, metric, convention)
    return -back if (n * (k + 1) + 1) % 2 else back


def laplacian(
    form: Form,
    metric: HermitianMetric,
    convention: StarConvention = DEFAULT_CONVENTION,
) -> Form:
    """Hodge Laplacian d delta + delta d on homogeneous-degree forms."""
    _homogeneous_total_degree(form, "laplacian")
    return exterior_d(codifferential(form, metric, convention)) + codifferential(
        exterior_d(form), metric, convention
    )


class HarmonicReport(NamedTuple):
    """Independent evaluation of d(psi) = 0 and delta(psi) = 0."""

    d_vanishes: bool
    delta_vanishes: bool
    d_residual: Form
    delta_residual: Form
    convention: StarConvention
    note: str = FLAT_MODEL_NOTE

    @property
    def harmonic(self) -> bool:
        return self.d_vanishes and self.delta_vanishes


def harmonic_check(
    form: Form,
    metric: HermitianMetric,
    convention: StarConvention = DEFAULT_CONVENTION,
) -> HarmonicReport:
    d_residual = exterior_d(form)
    delta_residual = codifferential(form, metric, convention)
    return HarmonicReport(
        d_vanishes=d_residual.is_zero(),
        delta_vanishes=delta_residual.is_zero(),
        d_residual=d_residual,
        delta_residual=delta_residual,
        convention=convention,
    )

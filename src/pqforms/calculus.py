"""Exterior derivative, Dolbeault split, codifferential and Laplacian.

All operators live on the flat local model with a constant metric.
Harmonicity here is *defined* as d(psi) = 0 together with delta(psi) = 0;
the engine makes no compactness claim, and every harmonic report says so.

Under the default convention the codifferential, and with it the Laplacian
and the harmonic check, build no Hodge star: star d star is the closed form
``_star_d_star``, a contraction of first derivatives with the inverse
metric.  The literal convention composes the two stars around d.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .choices import DEFAULT_CONVENTION, StarConvention
from .forms import Form, _key_product
from .scalars import MINUS_ONE, ONE
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


def _star_d_star(form: Form, metric: HermitianMetric) -> Form:
    """star d star under the default convention, with no star:

        sum over a, b of ginv[b][a] * (i_(d/dz_a) d/dzb_b + i_(d/dzb_b) d/dz_a) psi

    where ginv[b][a] is ``metric.inverse[b-1][a-1]``, each derivative acts
    on a coefficient by a variable that occurs in it, and the contraction i
    removes a differential with the sign of its position in the flattened
    key, dz half first: dz_a at position pos of I gives (-1)^pos, dzb_b at
    position pos of J gives (-1)^(|I|+pos).  Zero inverse entries are
    skipped, a derivative is taken only when some entry pairs it with a
    differential of the key, and an entry of +-1 reuses the derivative,
    negated for -1, instead of scaling it.  On a flat Kaehler model this is the usual
    contraction formula (Huybrechts, Complex Geometry, 1.2 and 3.1).
    """
    if form.n != metric.n:
        raise ValueError(f"form ambient dimension {form.n} != metric dimension {metric.n}")
    ginv = metric.inverse
    rows = (ginv, tuple(zip(*ginv)))  # rows[0][b-1][a-1] and rows[1][a-1][b-1] are both ginv[b][a]
    pairs = []
    for key, coeff in form.terms.items():
        for side, kind in ((0, ZBAR), (1, Z)):
            half, first = key[side], side * len(key[0])
            for j in coeff.variables(kind) if half else ():
                row = rows[side][j - 1]
                entries = [(pos, row[k - 1]) for pos, k in enumerate(half) if row[k - 1]]
                if entries:
                    derivative = coeff.derivative(kind, j)
                    for pos, c in entries:
                        rest = half[:pos] + half[pos + 1 :]
                        c = -c if (first + pos) % 2 else c
                        image = derivative if c == ONE else -derivative if c == MINUS_ONE else derivative.scale(c)
                        pairs.append(((rest, key[1]) if side == 0 else (key[0], rest), image))
    return Form._trusted(form.n, pairs)


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
    two antilinear stars compose to a linear map.  Under the default
    convention star d star is ``_star_d_star``, which builds no star; the
    literal convention composes ``hodge_star``, d and ``hodge_star``.
    """
    k = _homogeneous_total_degree(form, "codifferential")
    n = metric.n
    if convention == DEFAULT_CONVENTION:
        back = _star_d_star(form, metric)
    else:
        from .star import hodge_star  # here, so that d, its halves and the default delta never load the star

        back = hodge_star(exterior_d(hodge_star(form, metric, convention)), metric, convention)
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

"""Hodge star, index raising and inner products for (p,q)-forms.

The star is pinned down by the defining identity

    phi ^ star(psi) = <phi, psi> * vol

which must hold exactly as a polynomial-form identity for homogeneous
forms of equal bidegree.  Two printed variants of the star formula found
in the literature disagree on where the complementary indices land and on
how many conjugations the coefficient receives; both are kept behind a
convention flag so the disagreement can be demonstrated instead of being
hidden.

Default convention ("single" conjugation, "same_type_complement" output):
a term on dz^A ^ dzb^B is sent to dz^(A complement) ^ dzb^(B complement)
with exactly one net conjugation of the coefficient.  This is the variant
that satisfies the defining identity; the "literal" variant fails it
already for star(dz1) at n=1, which the reports document.

For a (p,q)-term with coefficient c on (A, B) the default star emits

    i^n * (-1)^(n(n-1)/2 + (n-p)q) * sgn(A, A^c) * sgn(B, B^c)
        * det(g) * raised(c)  on  dz^(A^c) ^ dzb^(B^c)

where sgn sorts the concatenated index blocks into 1..n and raised(c)
contracts the conjugated coefficient with inverse-metric entries.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .choices import CONVENTIONS, DEFAULT_CONVENTION, LITERAL_CONVENTION, StarConvention  # noqa: F401  (re-exported)
from .forms import Form, MultiIndex, _Frame, _pulled_back, complement
from .metric import HermitianMetric, volume_form
from .scalars import GaussianRational, I_UNIT, MINUS_ONE, ONE
from .wpoly import WirtingerPolynomial


def raise_indices(psi: Form, metric: HermitianMetric) -> Dict[Tuple[MultiIndex, MultiIndex], WirtingerPolynomial]:
    """Raised coefficient table of a homogeneous (p,q)-form:

        raised[A, B] = sum over stored (L, M) of
            det(ginv[L, A]) * det(ginv[B, M]) * conj(coeff[L, M])

    over strictly increasing (A, B), where ginv[r][c] is the inverse-metric
    entry with barred row r and unbarred column c (1-based).  The minors
    are the exterior power of ginv (Cauchy-Binet), so the table is a
    pull-back through the change of generators ``forms._Frame`` of ginv and
    its transpose: dz^l goes to sum_a ginv[l][a] dz^a, dzb^m to
    sum_b ginv[b][m] dzb^b.  The frame's rows are constants, the minors
    themselves.  The metric's ``_raising`` slot keeps that frame from the
    first raise on; the pull-back reads each coefficient conjugated and
    sums the table in place.

    With the identity metric this collapses to coefficient-wise
    conjugation.  The table carries exactly one conjugation; callers pick
    how many more they want.
    """
    if psi.is_zero():
        return {}
    if not psi.is_homogeneous():
        raise ValueError(f"raise_indices needs a homogeneous form, got bidegrees {sorted(psi.bidegrees())}")
    return _raised(psi, metric)


def _raised(psi: Form, metric: HermitianMetric) -> Dict[Tuple[MultiIndex, MultiIndex], WirtingerPolynomial]:
    """The raised table of any form, all its bidegrees in one pull-back:
    the frame keeps each key's bidegree."""
    n = metric.n
    if psi.n != n:
        raise ValueError(f"form ambient dimension {psi.n} != metric dimension {n}")
    frame = metric._raising
    if frame is None:
        frame = metric._raising = _Frame(metric.inverse, list(zip(*metric.inverse)))
    return _pulled_back(n, psi.terms, frame.image, WirtingerPolynomial._conjugate_terms)


def _contracted(phi: Form, raised, n: int) -> WirtingerPolynomial:
    """sum over (A, B) of phi[A, B] * raised[A, B]."""
    return WirtingerPolynomial._sum(n, (coeff * raised[key] for key, coeff in phi.terms.items() if key in raised))


def pointwise_inner(phi: Form, psi: Form, metric: HermitianMetric) -> WirtingerPolynomial:
    """Pointwise inner product: sum over increasing (A, B) of
    phi[A, B] * raised(psi)[A, B].  Sesquilinear; with the identity metric
    it is the plain sum of phi coefficients times conjugated psi
    coefficients."""
    n = metric.n
    if phi.n != n or psi.n != n:
        raise ValueError("ambient dimension mismatch between forms and metric")
    if phi.is_zero() or psi.is_zero():
        return WirtingerPolynomial.zero(n)
    if phi.homogeneous_bidegree() != psi.homogeneous_bidegree():
        raise ValueError(
            f"bidegree mismatch: {phi.homogeneous_bidegree()} vs {psi.homogeneous_bidegree()}"
        )
    return _contracted(phi, raise_indices(psi, metric), n)


_I_POWERS = (ONE, I_UNIT, MINUS_ONE, -I_UNIT)


def _star_prefactor(n: int, p: int, q: int) -> GaussianRational:
    """i^n * (-1)^e with e = n(n-1)/2 + (n-p)q, read as i^(n + 2e)."""
    return _I_POWERS[(n + 2 * (n * (n - 1) // 2 + (n - p) * q)) % 4]


def _starred(raised, metric: HermitianMetric, convention: StarConvention):
    """The (key, coeff) pairs of the star of a form, from its raised table;
    each key's halves give its bidegree (p, q), and so its prefactor."""
    n = metric.n
    prefactors = {}
    for (A, B), coeff in raised.items():
        A_c, sign_A = complement(A, n)
        B_c, sign_B = complement(B, n)
        signed = prefactors.get((len(A), len(B)))
        if signed is None:
            prefactor = _star_prefactor(n, len(A), len(B)) * metric.determinant
            signed = prefactors[len(A), len(B)] = {1: prefactor, -1: -prefactor}
        # the literal variant's extra bar applies to the raised
        # coefficient only, never to the i^n prefactor
        if convention.conjugation_mode == "literal_eq_2_9":
            coeff = coeff.conjugate()
        key = (A_c, B_c) if convention.output_index_mode == "same_type_complement" else (B_c, A_c)
        yield key, coeff.scale(signed[sign_A * sign_B])


def hodge_star(psi: Form, metric: HermitianMetric, convention: StarConvention = DEFAULT_CONVENTION) -> Form:
    """Hodge star of a form: the whole form is raised in one pull-back,
    then its star is emitted term by term, each term with the prefactor of
    its own bidegree.

    Antilinear under the default convention: star(c * psi) equals
    conj(c) * star(psi) for constant c.
    """
    return Form._trusted(metric.n, _starred(_raised(psi, metric), metric, convention))


class DefiningIdentityReport(NamedTuple):
    """Outcome of checking phi ^ star(psi) == <phi, psi> * vol exactly."""

    holds: bool
    residual: Form
    convention: StarConvention


def defining_identity_check(
    phi: Form,
    psi: Form,
    metric: HermitianMetric,
    convention: StarConvention = DEFAULT_CONVENTION,
) -> DefiningIdentityReport:
    """Check the star-defining identity as an exact polynomial-form identity.

    Inputs must be homogeneous of equal bidegree (zero forms pass
    trivially).  The residual is phi ^ star(psi) - <phi, psi> * vol.  psi
    is raised once, for the star and for the inner product alike.
    """
    both = not phi.is_zero() and not psi.is_zero()
    if both and phi.homogeneous_bidegree() != psi.homogeneous_bidegree():
        raise ValueError("defining identity needs forms of equal bidegree")
    raised = _raised(psi, metric)
    star = Form._trusted(metric.n, _starred(raised, metric, convention))
    residual = phi.wedge(star) - volume_form(metric).scale(_contracted(phi, raised, metric.n))
    return DefiningIdentityReport(holds=residual.is_zero(), residual=residual, convention=convention)

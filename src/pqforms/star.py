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
contracts the conjugated coefficient with inverse-metric entries.  The
whole product is one linear map on keys, so the star is one pull-back
(``forms._pulled_back``) through rows of constants, ``_StarRows``: the
raising frame's rows with each image key complemented and its signs and
det(g) folded into the constant.  Each monomial is multiplied once.

The defining identity needs only the top coefficient of phi ^ star(psi),
and a key K of phi meets star(psi) only at its complement K^c.  So
``defining_identity_check`` reads the star rows only at the K^c of phi's
keys and the raising frame only at phi's keys, and forms one polynomial
product per key of phi; neither the whole star nor a wedge is built.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Callable, Collection, Dict, List, NamedTuple, Optional, Tuple

from .choices import CONVENTIONS, DEFAULT_CONVENTION, LITERAL_CONVENTION, StarConvention  # noqa: F401  (re-exported)
from .forms import Form, MultiIndex, TermKey, _Frame, _key_product, _merged, _pulled_back, complement
from .metric import HermitianMetric, volume_form
from .scalars import GaussianRational, _quarter_turned
from .wpoly import WirtingerPolynomial


def _frame(psi: Form, metric: HermitianMetric) -> _Frame:
    """The metric's raising frame, the ``forms._Frame`` of ginv and its
    transpose, built on the first raise and kept in its ``_raising`` slot;
    psi's dimension is checked against the metric's first."""
    if psi.n != metric.n:
        raise ValueError(f"form ambient dimension {psi.n} != metric dimension {metric.n}")
    frame = metric._raising
    if frame is None:
        frame = metric._raising = _Frame(metric.inverse, list(zip(*metric.inverse)))
    return frame


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
    sums the whole table in place.  The star and the inner product read
    the same frame without forming this table.

    With the identity metric this collapses to coefficient-wise
    conjugation.  The table carries exactly one conjugation; callers pick
    how many more they want.
    """
    if psi.is_zero():
        return {}
    if not psi.is_homogeneous():
        raise ValueError(f"raise_indices needs a homogeneous form, got bidegrees {sorted(psi.bidegrees())}")
    return _pulled_back(metric.n, psi.terms, _frame(psi, metric).image, WirtingerPolynomial._conjugate_terms)


def _raised_at(keys: Collection[TermKey], psi: Form, frame: _Frame, scale: Optional[GaussianRational] = None) -> Dict[TermKey, WirtingerPolynomial]:
    """psi raised only at the given keys: the row of a key of psi is the
    frame's half rows read at the halves of those keys, each constant times
    ``scale`` when one is given."""
    half = frame._half

    def image(key: TermKey) -> List[Tuple[TermKey, GaussianRational]]:
        left, right = half(0, key[0]), half(1, key[1])
        row = [(k, left[k[0]] * right[k[1]]) for k in keys if k[0] in left and k[1] in right]
        return row if scale is None else [(k, c * scale) for k, c in row]

    return _pulled_back(psi.n, psi.terms, image, WirtingerPolynomial._conjugate_terms)


def pointwise_inner(phi: Form, psi: Form, metric: HermitianMetric) -> WirtingerPolynomial:
    """Pointwise inner product: sum over increasing (A, B) of
    phi[A, B] * raised(psi)[A, B].  Sesquilinear; with the identity metric
    it is the plain sum of phi coefficients times conjugated psi
    coefficients.  psi is raised only at phi's keys (``_raised_at``), the
    read by which the defining-identity check also raises it."""
    n = metric.n
    if phi.n != n or psi.n != n:
        raise ValueError("ambient dimension mismatch between forms and metric")
    if phi.is_zero() or psi.is_zero():
        return WirtingerPolynomial.zero(n)
    if phi.homogeneous_bidegree() != psi.homogeneous_bidegree():
        raise ValueError(
            f"bidegree mismatch: {phi.homogeneous_bidegree()} vs {psi.homogeneous_bidegree()}"
        )
    raised = _raised_at(phi.terms.keys(), psi, _frame(psi, metric))
    return WirtingerPolynomial._sum(n, (coeff * raised[key] for key, coeff in phi.terms.items() if key in raised))


class _StarRows:
    """The rows of the star on one metric under one convention, kept in the
    metric's ``_stars`` slot by convention.

    The half row of indices L (side 0) is the raising frame's row of L with
    each image A replaced by A^c, a map from A^c to sgn(A, A^c) * det(g) *
    minor; that of M (side 1) the same with sgn(B, B^c) and no det(g).
    Like the frame, the memo keeps halves, never whole keys.  The row of a
    key (L, M) of bidegree (p, q) pairs its two half rows, its left
    constants turned by the unit i^n (-1)^(n(n-1)/2 + (n-p)q) with no gcd;
    ``at`` reads the half rows only at chosen image keys, as the frame is
    read for the inner product.

    The literal convention's two flags act on the same rows:
    ``literal_eq_2_9`` conjugation conjugates the half rows (det(g) and the
    signs are real, the unit is not conjugated) and reads each coefficient
    unconjugated; ``printed_eq_2_9`` output swaps the image key's halves.
    """

    __slots__ = ("frame", "n", "determinant", "conjugated", "swapped", "read", "halves")

    def __init__(self, frame: _Frame, metric: HermitianMetric, convention: StarConvention):
        self.frame, self.n, self.determinant = frame, metric.n, metric.determinant
        self.conjugated = convention.conjugation_mode == "literal_eq_2_9"
        self.swapped = convention.output_index_mode != "same_type_complement"
        self.read = attrgetter("terms") if self.conjugated else WirtingerPolynomial._conjugate_terms
        self.halves: Tuple[dict, dict] = ({}, {})  # dz-half L or dzb-half M -> its row

    def _half(self, side: int, indices: MultiIndex) -> Dict[MultiIndex, GaussianRational]:
        row = self.halves[side].get(indices)
        if row is None:
            row = {}
            for image, c in self.frame._half(side, indices).items():
                rest, sign = complement(image, self.n)
                if not side:
                    c = c * self.determinant
                if sign < 0:
                    c = -c
                row[rest] = c.conjugate() if self.conjugated else c
            self.halves[side][indices] = row
        return row

    def _turns(self, key: TermKey) -> int:
        """The quarter turns of the unit i^n (-1)^(n(n-1)/2 + (n-p)q) of the key's bidegree."""
        n = self.n
        return n + 2 * (n * (n - 1) // 2 + (n - len(key[0])) * len(key[1]))

    def image(self, key: TermKey) -> List[Tuple[TermKey, GaussianRational]]:
        """The row of a key: (image key, constant) pairs."""
        turns = self._turns(key)
        left = [(A, _quarter_turned(a, turns)) for A, a in self._half(0, key[0]).items()]
        right = self._half(1, key[1]).items()
        if self.swapped:
            return [((B, A), a * b) for A, a in left for B, b in right]
        return [((A, B), a * b) for A, a in left for B, b in right]

    def at(self, targets: Dict[TermKey, int]) -> Callable[[TermKey], List[Tuple[TermKey, GaussianRational]]]:
        """The rows read only at the image keys of ``targets``, each
        constant given that target's extra quarter turns: the half rows are
        read at the target's halves, swapped back under the swapped output."""
        half, turned = self._half, self._turns
        reads = [(target, target[::-1] if self.swapped else target, extra) for target, extra in targets.items()]

        def image(key: TermKey) -> List[Tuple[TermKey, GaussianRational]]:
            left, right, turns = half(0, key[0]), half(1, key[1]), turned(key)
            return [(target, _quarter_turned(left[A], turns + extra) * right[B]) for target, (A, B), extra in reads if A in left and B in right]

        return image


def _star_rows(frame: _Frame, metric: HermitianMetric, convention: StarConvention) -> _StarRows:
    """The metric's star rows under the convention, built on first use."""
    rows = metric._stars.get(convention)
    if rows is None:
        rows = metric._stars[convention] = _StarRows(frame, metric, convention)
    return rows


def hodge_star(psi: Form, metric: HermitianMetric, convention: StarConvention = DEFAULT_CONVENTION) -> Form:
    """Hodge star of a form: the whole form, any mix of bidegrees, is
    pulled back once through the metric's star rows, each key's row
    carrying the prefactor of its own bidegree.

    Antilinear under the default convention: star(c * psi) equals
    conj(c) * star(psi) for constant c.
    """
    rows = _star_rows(_frame(psi, metric), metric, convention)
    return Form._trusted(metric.n, _pulled_back(metric.n, psi.terms, rows.image, rows.read))


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
    trivially).  The residual is phi ^ star(psi) - <phi, psi> * vol.  A key
    K = (A, B) of phi meets star(psi) only at its complement
    K^c = (A^c, B^c), and its wedge and the volume both land on the top key,
    so the residual is

        sum over phi's keys K of phi[K] * (s_K * star(psi)[K^c] - v * raised(psi)[K])

    with s_K the sign of ``_key_product(K, K^c)`` and v the constant of
    ``volume_form``: one polynomial product per key of phi, built in one
    constructor call.  psi is pulled back once through the star rows read
    only at the K^c, s_K folded into the unit's quarter turns, and raised
    once more only at phi's keys, -v folded into the row constants.  Where
    the convention's star does not land on the K^c, as the swapped output
    does for p != q, only -<phi, psi> * vol remains.
    """
    both = not phi.is_zero() and not psi.is_zero()
    if both and phi.homogeneous_bidegree() != psi.homogeneous_bidegree():
        raise ValueError("defining identity needs forms of equal bidegree")
    n = metric.n
    frame = _frame(psi, metric)
    if phi.n != n:
        raise ValueError(f"ambient dimension mismatch: {phi.n} vs {n}")
    targets, partners = {}, {}  # K^c -> the quarter turns of s_K, and K^c -> K
    for key in phi.terms:
        partner = complement(key[0], n)[0], complement(key[1], n)[0]
        targets[partner] = 0 if _key_product(key, partner)[1] > 0 else 2
        partners[partner] = key
    rows = _star_rows(frame, metric, convention)
    starred = _pulled_back(n, psi.terms, rows.at(targets), rows.read)
    (top, volume), = volume_form(metric).terms.items()
    raised = _raised_at(phi.terms.keys(), psi, frame, -volume.constant_value())
    sums = _merged(chain(((partners[key], c) for key, c in starred.items()), raised.items()))
    residual = Form._trusted(n, ((top, phi.terms[key] * c) for key, c in sums.items()))
    return DefiningIdentityReport(holds=residual.is_zero(), residual=residual, convention=convention)

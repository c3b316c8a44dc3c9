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

The rows are the default star's only: each printed variant is a map of
its result.  The printed output swaps the halves of each image key.  The
literal conjugation conjugates the rows but not their unit u = +-i^n, so
it gives u / conj(u) = (-1)^n times the conjugate of each coefficient.
A metric keeps one set of rows, whatever the convention, in its ``_star``
slot (``_star_rows``).  The rows own the raising frame, so raising, the
inner product, the star and the identity check read one object.

The defining identity needs only the top coefficient of phi ^ star(psi),
and a key K of phi meets star(psi) only at its complement K^c.  So
``defining_identity_check`` reads the star rows only at the K^c of phi's
keys and the raising frame only at phi's keys, and pulls psi back once
through both under every convention.  The two sides' constants are summed
per target before any monomial is multiplied, so where they cancel, as
they do for the default star, no monomial of psi is multiplied at all; a
wrong star row leaves a nonzero sum and still fails the check.  K^c and
its sign s_K follow from the complements of K's halves, which the star
rows keep from their first use (``_StarRows.partner``).  The check forms
one polynomial product per surviving key of phi and builds no whole star
and no wedge.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Tuple

from .choices import CONVENTIONS, DEFAULT_CONVENTION, LITERAL_CONVENTION, StarConvention  # noqa: F401  (re-exported)
from .forms import Form, MultiIndex, TermKey, _Frame, _pulled_back, complement
from .metric import HermitianMetric, volume_form
from .scalars import GaussianRational
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
    themselves.  The frame is the ``frame`` of the metric's star rows
    (``_star_rows``), kept from the first raise, inner product, star or
    identity check on; the pull-back reads each coefficient conjugated and
    sums the whole table in place.  The star and the inner product read
    the same frame without forming this table.

    With the identity metric this collapses to coefficient-wise
    conjugation.  The table carries exactly one conjugation; callers pick
    how many more they want.
    """
    if not psi.is_homogeneous():
        raise ValueError(f"raise_indices needs a homogeneous form, got bidegrees {sorted(psi.bidegrees())}")
    if psi.is_zero() and psi.n == metric.n:  # a zero form builds no rows
        return {}
    return _pulled_back(metric.n, psi.terms, _star_rows(psi, metric).frame.image, WirtingerPolynomial._conjugate_terms)


def pointwise_inner(phi: Form, psi: Form, metric: HermitianMetric) -> WirtingerPolynomial:
    """Pointwise inner product: sum over increasing (A, B) of
    phi[A, B] * raised(psi)[A, B].  Sesquilinear; with the identity metric
    it is the plain sum of phi coefficients times conjugated psi
    coefficients.  psi is raised only at phi's keys, the raising frame read
    at them (``_Frame.at``), as the defining-identity check raises it."""
    n = metric.n
    if phi.n != n or psi.n != n:
        raise ValueError("ambient dimension mismatch between forms and metric")
    if phi.is_zero() or psi.is_zero():
        return WirtingerPolynomial.zero(n)
    if phi.homogeneous_bidegree() != psi.homogeneous_bidegree():
        raise ValueError(
            f"bidegree mismatch: {phi.homogeneous_bidegree()} vs {psi.homogeneous_bidegree()}"
        )
    raised = _pulled_back(n, psi.terms, _star_rows(psi, metric).frame.at([(K, K, 0) for K in phi.terms]), WirtingerPolynomial._conjugate_terms)
    return WirtingerPolynomial._sum(n, (coeff * raised[key] for key, coeff in phi.terms.items() if key in raised))


class _StarRows(_Frame):
    """The metric's one star-layer object, kept in its ``_star`` slot by
    ``_star_rows``.  It owns the raising frame, ``frame``, the
    ``forms._Frame`` of ginv and its transpose, and is itself the
    ``forms._Frame`` of the consistent star's rows: its half rows are the
    raising frame's, each mapped once by ``_build_half``, and its row of a
    key turns its left constants by the key's unit.  Both frames build
    their half rows on first read.

    The half row of indices L (side 0) is the raising frame's row of L with
    each image A replaced by A^c, a map from A^c to sgn(A, A^c) * det(g) *
    minor; that of M (side 1) the same with sgn(B, B^c) and no det(g).
    Like the frame, the memo keeps halves, never whole keys, and so does
    ``complements``, each half's ``complement`` for ``partner``.  The unit of a
    key (L, M) of bidegree (p, q) is i^n (-1)^(n(n-1)/2 + (n-p)q), quarter
    turns with no gcd.  ``image`` and ``at`` are the frame's readers.  The
    rows hold no convention: both printed variants are maps of the
    consistent star's result (``_literal`` and the swap in ``hodge_star``).
    """

    __slots__ = ("frame", "n", "determinant", "complements")

    def __init__(self, metric: HermitianMetric):
        self.frame = _Frame(metric.inverse, list(zip(*metric.inverse)))
        self.n, self.determinant = metric.n, metric.determinant
        self.halves: Tuple[dict, dict] = ({}, {})  # dz-half L or dzb-half M -> its row
        self.complements: Dict[MultiIndex, Tuple[MultiIndex, int]] = {}  # half A -> complement(A, n)

    def _build_half(self, side: int, indices: MultiIndex) -> Dict[MultiIndex, GaussianRational]:
        row = {}
        for image, c in self.frame._half(side, indices).items():
            rest, sign = complement(image, self.n)
            if not side:
                c = c * self.determinant
            row[rest] = -c if sign < 0 else c
        return row

    def _turns(self, key: TermKey) -> int:
        """The quarter turns of the unit i^n (-1)^(n(n-1)/2 + (n-p)q) of the key's bidegree."""
        n = self.n
        return n + 2 * (n * (n - 1) // 2 + (n - len(key[0])) * len(key[1]))

    def partner(self, key: TermKey) -> Tuple[TermKey, int]:
        """The complement K^c = (A^c, B^c) of a key K = (A, B) and the
        quarter turns of s_K, the sign of e_K ^ e_(K^c).  Each half's
        ``complement`` is kept in ``complements`` from its first use, and
        s_K is ``_key_product(K, K^c)``'s sign in closed form from their
        signs: sgn(A, A^c) * sgn(B, B^c) * (-1)^(|B| |A^c|), the dzb half of
        K passing the dz half of K^c."""
        (A, B), kept = key, self.complements
        rest, sign = kept.get(A) or kept.setdefault(A, complement(A, self.n))
        other, half = kept.get(B) or kept.setdefault(B, complement(B, self.n))
        return (rest, other), 0 if (sign == half) != (len(B) * len(rest) % 2 == 1) else 2


def _star_rows(psi: Form, metric: HermitianMetric) -> _StarRows:
    """The metric's star rows with its raising frame, built on first use and
    kept in its ``_star`` slot; psi's dimension is checked against the
    metric's first."""
    if psi.n != metric.n:
        raise ValueError(f"form ambient dimension {psi.n} != metric dimension {metric.n}")
    if metric._star is None:
        metric._star = _StarRows(metric)
    return metric._star


def _literal(coeff: WirtingerPolynomial, n: int) -> WirtingerPolynomial:
    """The literal conjugation's coefficient from the single one's: the
    literal star conjugates the rows but not their unit u = +-i^n, and
    u / conj(u) = (-1)^n, so it is (-1)^n conj(coeff)."""
    return -coeff.conjugate() if n % 2 else coeff.conjugate()


def hodge_star(psi: Form, metric: HermitianMetric, convention: StarConvention = DEFAULT_CONVENTION) -> Form:
    """Hodge star of a form: the whole form, any mix of bidegrees, is
    pulled back once through the metric's star rows, each key's row
    carrying the prefactor of its own bidegree, and each coefficient read
    conjugated.  The printed variants map that term map: the literal
    conjugation sends each coefficient to (-1)^n times its conjugate, and
    the printed output swaps each key's halves.

    Antilinear under the default convention: star(c * psi) equals
    conj(c) * star(psi) for constant c.
    """
    n = metric.n
    terms = _pulled_back(n, psi.terms, _star_rows(psi, metric).image, WirtingerPolynomial._conjugate_terms)
    if convention.conjugation_mode == "literal_eq_2_9":
        terms = {key: _literal(c, n) for key, c in terms.items()}
    if convention.output_index_mode == "printed_eq_2_9":
        terms = {(B, A): c for (A, B), c in terms.items()}
    return Form._trusted(n, terms)


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

    with s_K the sign of e_K ^ e_(K^c) and v the constant of
    ``volume_form``: one polynomial product per key of phi whose sum does
    not cancel, built in one constructor call.  K^c and the quarter turns
    of s_K come from the complements of K's halves kept on the star rows
    (``_StarRows.partner``), s_K in closed form from their signs.  Both
    sides are read by ``_Frame.at``: the star rows at K^c (its halves
    swapped back under the printed output), s_K folded into the quarter
    turns, and the raising frame at K times -v.  Both read psi conjugated,
    so psi is pulled back once through the two rows together, and each
    key's row sums the two sides' constants per target before any monomial
    is multiplied (c * a + c * b = c * (a + b)), dropping a zero sum.  Under single
    conjugation both sides are emitted at K, so a holding identity
    multiplies no monomial and, its rows all empty, conjugates no
    coefficient; a wrong star row leaves a nonzero sum that still fails
    the check.  Under the literal conjugation the star side is
    emitted at (K,), and each of those sums is mapped by ``_literal`` and
    added to the raise's at K before the product.  Where the convention's
    star misses the K^c, as the printed output does for p != q, only
    -<phi, psi> * vol remains.
    """
    if phi.terms and psi.terms and len({(len(I), len(J)) for terms in (phi.terms, psi.terms) for I, J in terms}) > 1:
        phi.homogeneous_bidegree(), psi.homogeneous_bidegree()  # a mixed form raises its own message, phi's first
        raise ValueError("defining identity needs forms of equal bidegree")
    n = metric.n
    rows = _star_rows(psi, metric)
    if phi.n != n:
        raise ValueError(f"ambient dimension mismatch: {phi.n} vs {n}")
    literal, printed = convention.conjugation_mode == "literal_eq_2_9", convention.output_index_mode == "printed_eq_2_9"
    stars = []  # (the star side's target, the half-row key of K^c, the quarter turns of s_K)
    for key in phi.terms:
        partner, turns = rows.partner(key)
        stars.append(((key,) if literal else key, partner[::-1] if printed else partner, turns))
    (top, volume), = volume_form(metric).terms.items()
    starred, raised = rows.at(stars), rows.frame.at([(K, K, 0) for K in phi.terms], -volume.constant_value())

    def summed(key: TermKey) -> List[Tuple[Any, GaussianRational]]:
        """Both sides' row of a key of psi, summed per target, zero sums dropped."""
        sums: Dict[Any, GaussianRational] = {}
        for target, c in starred(key) + raised(key):
            prev = sums.get(target)
            sums[target] = c if prev is None else prev + c
        return [(target, c) for target, c in sums.items() if c]

    sums = _pulled_back(n, psi.terms, summed, WirtingerPolynomial._conjugate_terms)
    if literal:  # the star side's sums at (K,) become the literal star's and join the raise's at K
        for K in phi.terms:
            if (K,) in sums:
                c = _literal(sums.pop((K,)), n)
                sums[K] = sums[K] + c if K in sums else c
    residual = Form._trusted(n, ((top, phi.terms[K] * c) for K, c in sums.items()))
    return DefiningIdentityReport(holds=residual.is_zero(), residual=residual, convention=convention)

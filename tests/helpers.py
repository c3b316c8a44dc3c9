"""Shared generators and independent brute-force oracles for the tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Tuple

from hypothesis import strategies as st

from pqforms import Form, HermitianMetric, RealForm, WirtingerPolynomial, gaussian, real_hodge_star
from pqforms.wpoly import Z, ZBAR


def brute_parity(values) -> int:
    """Permutation parity by counting out-of-order pairs with a double loop.

    Deliberately independent of the engine's insertion-sort bookkeeping.
    Returns 0 when a value repeats.
    """
    sign = 1
    values = list(values)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                return 0
            if values[i] > values[j]:
                sign = -sign
    return sign


def _factors(key):
    """The tagged differentials of a Form key, in canonical order: dz_k is
    (Z, k) and dzb_k is (ZBAR, k)."""
    I, J = key
    return [(Z, k) for k in I] + [(ZBAR, k) for k in J]


def brute_determinant(rows):
    """Leibniz determinant of a square list of scalars; 1 for the empty matrix.

    Independent of the engine's elimination: each permutation's sign comes
    from :func:`brute_parity`.
    """
    total = gaussian(0)
    for perm in permutations(range(len(rows))):
        product = gaussian(brute_parity(perm))
        for row, col in enumerate(perm):
            product = product * rows[row][col]
        total = total + product
    return total


def brute_raise(psi: Form, metric):
    """Raised coefficient table of a homogeneous form by the minors formula:

        raised[A, B] = sum over stored (L, M) of
            det(ginv[L, A]) * det(ginv[B, M]) * conj(coeff[L, M])

    looping over every increasing (A, B), with Leibniz minors.
    """
    if psi.is_zero():
        return {}
    n = metric.n
    ginv = metric.inverse
    (p, q), = psi.bidegrees()
    table = {}
    for A in combinations(range(1, n + 1), p):
        for B in combinations(range(1, n + 1), q):
            total = WirtingerPolynomial.zero(n)
            for (L, M), coeff in psi.terms.items():
                left = brute_determinant([[ginv[l - 1][a - 1] for a in A] for l in L])
                right = brute_determinant([[ginv[b - 1][m - 1] for m in M] for b in B])
                total = total + coeff.conjugate().scale(left * right)
            if not total.is_zero():
                table[(A, B)] = total
    return table


def brute_pull_back(terms, factors, unit, coefficient, images):
    """The image of a form under a change of frame, wedged out afresh for
    every term with no memo: a term c * e_f1 ^ e_f2 ^ ..., with f1, f2, ...
    the factors of its key, goes to coefficient(c) times
    unit ^ images[f1] ^ images[f2] ^ ...  Built by the public constructor
    of the unit's type."""
    pairs = []
    for key, coeff in terms.items():
        piece = unit
        for factor in factors(key):
            piece = piece.wedge(images[factor])
        pairs.extend((image_key, c * coefficient(coeff)) for image_key, c in piece.terms.items())
    return type(unit)(unit.n, pairs)


def matrix_images(n: int, dz, dzb):
    """The generator images of the change of generators with matrices dz
    and dzb, written out from their entries: dz_k goes to
    sum_a dz[k][a] dz_a and dzb_k to sum_b dzb[k][b] dzb_b.  Returns the
    unit form and the images keyed by (kind, k), for
    :func:`brute_pull_back` with ``_factors``."""
    images = {}
    for k in range(1, n + 1):
        images[(Z, k)] = Form(n, {((a,), ()): c for a, c in enumerate(dz[k - 1], 1)})
        images[(ZBAR, k)] = Form(n, {((), (b,)): c for b, c in enumerate(dzb[k - 1], 1)})
    return Form.from_scalar(n, 1), images


def real_images(n: int):
    """The change of frame of realify and of complexify, one image per
    differential: dz_k = dx_k + i dy_k and dzb_k = dx_k - i dy_k, and
    dx_k = (dz_k + dzb_k)/2 and dy_k = (i/2)(dzb_k - dz_k), written out by
    hand.  Returns ((unit, images, factors) of realify, the same of
    complexify), for :func:`brute_pull_back`."""
    i, half = gaussian(0, 1), Fraction(1, 2)
    to_real, to_complex = {}, {}  # (kind, k) -> RealForm; real index -> Form
    for k in range(1, n + 1):
        to_real[(Z, k)] = RealForm(n, {(2 * k - 1,): 1, (2 * k,): i})
        to_real[(ZBAR, k)] = RealForm(n, {(2 * k - 1,): 1, (2 * k,): -i})
        to_complex[2 * k - 1] = Form(n, {((k,), ()): half, ((), (k,)): half})
        to_complex[2 * k] = Form(n, {((k,), ()): gaussian(0, -half), ((), (k,)): gaussian(0, half)})
    return (RealForm.term(n, (), 1), to_real, _factors), (Form.from_scalar(n, 1), to_complex, tuple)


def brute_realify(form: Form) -> RealForm:
    """realify wedged out afresh per term from :func:`real_images`."""
    unit, images, factors = real_images(form.n)[0]
    return brute_pull_back(form.terms, factors, unit, lambda c: c, images)


def brute_complexify(real: RealForm) -> Form:
    """complexify wedged out afresh per term from :func:`real_images`."""
    unit, images, factors = real_images(real.n)[1]
    return brute_pull_back(real.terms, factors, unit, lambda c: c, images)


def brute_oracle_star(psi: Form) -> Form:
    """The oracle star by its three steps, one bidegree at a time: the
    conjugate of each part is realified, starred with the Euclidean star and
    complexified, and the parts are summed.  realify and complexify are
    wedged out afresh per term from their per-differential images
    (:func:`brute_realify`, :func:`brute_complexify`), so neither the
    oracle's codec nor its memo nor the engine's pull-back loop is used."""
    total = Form.zero(psi.n)
    for p, q in sorted(psi.bidegrees()):
        part = psi.component(p, q).conjugate()
        total = total + brute_complexify(real_hodge_star(brute_realify(part)))
    return total


class FractionPair:
    """Reference Gaussian rational: the two ``Fraction`` parts with schoolbook
    complex arithmetic, independent of the engine's integer triple."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def pair(self):
        return self.re, self.im

    def __add__(self, other):
        return FractionPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPair(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return FractionPair(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("model division by zero")
        return FractionPair(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __pow__(self, exponent):
        result = FractionPair(1)
        for _ in range(abs(exponent)):
            result = result * self
        return FractionPair(1) / result if exponent < 0 else result

    def conjugate(self):
        return FractionPair(self.re, -self.im)


def random_dense_metric(rng: random.Random, n: int):
    """P*P + I for a small Gaussian-rational P: Hermitian, positive definite
    and, for almost every draw, without zero entries off the diagonal."""
    P = [[random_scalar(rng, span=2) for _ in range(n)] for _ in range(n)]
    entries = [
        [
            sum((P[k][a].conjugate() * P[k][b] for k in range(n)), gaussian(1 if a == b else 0))
            for b in range(n)
        ]
        for a in range(n)
    ]
    return HermitianMetric(entries)


def random_scalar(rng: random.Random, span: int = 3):
    return gaussian(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def random_poly(rng: random.Random, n: int, max_terms: int = 3, max_degree: int = 2) -> WirtingerPolynomial:
    poly = WirtingerPolynomial.zero(n)
    for _ in range(rng.randint(0, max_terms)):
        exponents = [0] * (2 * n)
        for _ in range(rng.randint(0, max_degree)):
            exponents[rng.randrange(2 * n)] += 1
        poly = poly + WirtingerPolynomial(n, {tuple(exponents): random_scalar(rng)})
    return poly


def random_multi_index(rng: random.Random, n: int, size: int) -> Tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n + 1), size)))


def random_form(
    rng: random.Random,
    n: int,
    max_terms: int = 3,
    max_degree: int = 2,
    bidegree: Optional[Tuple[int, int]] = None,
    total_degree: Optional[int] = None,
) -> Form:
    form = Form.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        if bidegree is not None:
            p, q = bidegree
        elif total_degree is not None:
            p = rng.randint(max(0, total_degree - n), min(total_degree, n))
            q = total_degree - p
        else:
            p = rng.randint(0, n)
            q = rng.randint(0, n)
        coeff = WirtingerPolynomial.zero(n)
        while coeff.is_zero():  # redrawn, so that no term of the form is dropped
            coeff = random_poly(rng, n, max_terms=2, max_degree=max_degree)
        form = form + Form(
            n, {(random_multi_index(rng, n, p), random_multi_index(rng, n, q)): coeff}
        )
    return form


def random_nonzero_form(rng: random.Random, n: int, **kwargs) -> Form:
    for _ in range(50):
        candidate = random_form(rng, n, **kwargs)
        if not candidate.is_zero():
            return candidate
    raise AssertionError("failed to draw a nonzero form")


# -- hypothesis strategies ------------------------------------------------------


@st.composite
def scalars(draw):
    return gaussian(
        Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))),
        Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))),
    )


def fraction_pairs():
    """(re, im) pairs of Fractions whose denominators share factors, so
    sums and products need reducing."""
    part = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.tuples(part, part)


@st.composite
def nonzero_scalars(draw):
    value = draw(scalars().filter(lambda s: not s.is_zero()))
    return value


@st.composite
def exponent_vectors(draw, n: int, max_degree: int = 2):
    return tuple(draw(st.lists(st.integers(0, max_degree), min_size=2 * n, max_size=2 * n)))


@st.composite
def polys(draw, n: Optional[int] = None, max_degree: int = 2, max_terms: int = 3):
    if n is None:
        n = draw(st.integers(1, 3))
    entries = draw(
        st.lists(st.tuples(exponent_vectors(n, max_degree), scalars()), max_size=max_terms)
    )
    poly = WirtingerPolynomial.zero(n)
    for exponents, coeff in entries:
        poly = poly + WirtingerPolynomial(n, {exponents: coeff})
    return poly


@st.composite
def multi_indices(draw, n: int, size: Optional[int] = None):
    if size is None:
        size = draw(st.integers(0, n))
    subset = draw(st.permutations(list(range(1, n + 1))))[:size]
    return tuple(sorted(subset))


@st.composite
def forms(draw, n: Optional[int] = None, max_terms: int = 3, max_degree: int = 2,
          bidegree: Optional[Tuple[int, int]] = None):
    if n is None:
        n = draw(st.integers(1, 3))
    form = Form.zero(n)
    for _ in range(draw(st.integers(1, max_terms))):
        if bidegree is None:
            I = draw(multi_indices(n))
            J = draw(multi_indices(n))
        else:
            I = draw(multi_indices(n, bidegree[0]))
            J = draw(multi_indices(n, bidegree[1]))
        coeff = draw(polys(n=n, max_degree=max_degree, max_terms=2))
        form = form + Form(n, {(I, J): coeff})
    return form


@st.composite
def homogeneous_forms(draw, n: Optional[int] = None, max_terms: int = 2, max_degree: int = 2):
    if n is None:
        n = draw(st.integers(1, 3))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n))
    return draw(forms(n=n, max_terms=max_terms, max_degree=max_degree, bidegree=(p, q)))


def recording_trusted(monkeypatch, cls, check_key):
    """Patch ``cls._trusted`` so every internal build is also checked:
    each key passes ``check_key``, no coefficient is zero, and the result
    equals the public constructor applied to the same pairs.  Returns the
    list of checked results."""
    original = cls._trusted.__func__
    built = []

    def trusted(kind, n, pairs):
        if not isinstance(pairs, dict):  # a term map is stored as it is
            pairs = list(pairs)
        out = original(kind, n, pairs)
        for key, coeff in out.terms.items():
            assert check_key(key, n) == key
            assert isinstance(coeff, WirtingerPolynomial) and coeff.n == n and not coeff.is_zero()
        assert out == kind(n, pairs)
        built.append(out)
        return out

    monkeypatch.setattr(cls, "_trusted", classmethod(trusted))
    return built

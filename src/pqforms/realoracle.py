"""Independent real-coordinate validator for the complex Hodge star.

Complex forms are expanded over the 2n real coordinates x1, y1, ..., xn, yn
via dz^k = dx^k + i dy^k, the textbook Euclidean Hodge star is applied
monomial-wise with orientation dx1 ^ dy1 ^ ... ^ dxn ^ dyn, and the result
is mapped back.  None of the complex star machinery is reused, so an exact
proportionality between the two paths is strong evidence for both.

The Euclidean real metric dx^2 + dy^2 is used as-is; the resulting
normalization gap against the Hermitian identity metric is not hidden but
surfaces as the per-bidegree ratio recorded in ORACLE_STAR_RATIOS.

The Euclidean star is pointwise: it acts on the differentials and carries
each coefficient function unchanged.  So the oracle pulls back only the
differentials, and the coefficients of a :class:`RealForm` stay the same
Wirtinger polynomials in z and zb as those of the complex form.  The whole
oracle star is then a linear map on complex keys with constant images:
the key codec of dimension n builds the image of conj(e_K) once for each
key K, by realify, the Euclidean star and complexify alone, and keeps it.

realify and complexify act on each coordinate alone, so they factor into
one 2x2 map per coordinate (the Kronecker-factored transform).  Both are
one private transform, ``_transform``: a key codec kept per n reads each
key as its support and a mask, and on the masks of one support either map
is a factor per input key, one Walsh-Hadamard stage per coordinate that
carries one differential, and a factor per output key.  Every factor is a
power of i times a power of 2, kept as quarter turns and a shift, so the
stages run on integers: the scalars are brought over one common
denominator, each monomial of a support keeps one list of real and one of
imaginary numerators indexed by mask, and a stage forms the sum and the
difference of each pair of entries in place.  A key with s such
coordinates costs O(s 2^s) integer additions per monomial, not the 4^s
products of a change of frame per real key, and each output scalar is
built once, by one gcd.  Each (support, mask) pair has one image key, so
the transform returns a term map that the term store keeps as it is.

:class:`RealForm` is the second subclass of the term store of
:mod:`pqforms.forms`: its keys are strictly increasing tuples over 1..2n,
merged and wedged by the same helpers as the keys of
:class:`~pqforms.forms.Form`.  Only its key check, the degree and the names
of a key, its ``term`` constructor and its ``wedge`` are its own.  The
oracle is thus independent of the complex star but not of the container,
so the tests check realify(a ^ b) == realify(a) ^ realify(b) on random
forms.

``oracle_compare`` judges the engine star by these rows: where the engine
star's rows of psi's keys are one ratio times the oracle's, the two stars
of psi are too, and the verdict is read from the rows with no form built.
Where they are not, or under the literal conjugation, both stars of each
component are built and compared monomial by monomial.  One reader,
``_ratio``, reads the ratio on either path.  The oracle's rows never read
the engine's, so a wrong engine row still fails the check.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .forms import Form, TermKey, _TermStore, _pulled_back, _shuffled, _validate_multi_index, _wedge_terms, complement
from .metric import HermitianMetric
from .scalars import GaussianRational, _reduced, gaussian
from .star import DEFAULT_CONVENTION, StarConvention, _star_rows, hodge_star
from .wpoly import WirtingerPolynomial

RealIndex = Tuple[int, ...]
Support = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (S, D): coordinates with one and with two differentials

# Engine star versus oracle star: exact ratio per (n, p, q), derived by
# running the oracle over every unit monomial before the star tests were
# frozen (n = 3 and n = 4 were recorded the same way later, over all 64 and
# all 256 monomials).  The observed pattern is 2^(n-p-q); the table keeps
# the raw recorded values rather than the formula.
ORACLE_STAR_RATIOS: Dict[Tuple[int, int, int], GaussianRational] = {
    (1, 0, 0): gaussian(2),
    (1, 0, 1): gaussian(1),
    (1, 1, 0): gaussian(1),
    (1, 1, 1): gaussian(1) / 2,
    (2, 0, 0): gaussian(4),
    (2, 0, 1): gaussian(2),
    (2, 0, 2): gaussian(1),
    (2, 1, 0): gaussian(2),
    (2, 1, 1): gaussian(1),
    (2, 1, 2): gaussian(1) / 2,
    (2, 2, 0): gaussian(1),
    (2, 2, 1): gaussian(1) / 2,
    (2, 2, 2): gaussian(1) / 4,
    (3, 0, 0): gaussian(8),
    (3, 0, 1): gaussian(4),
    (3, 0, 2): gaussian(2),
    (3, 0, 3): gaussian(1),
    (3, 1, 0): gaussian(4),
    (3, 1, 1): gaussian(2),
    (3, 1, 2): gaussian(1),
    (3, 1, 3): gaussian(1) / 2,
    (3, 2, 0): gaussian(2),
    (3, 2, 1): gaussian(1),
    (3, 2, 2): gaussian(1) / 2,
    (3, 2, 3): gaussian(1) / 4,
    (3, 3, 0): gaussian(1),
    (3, 3, 1): gaussian(1) / 2,
    (3, 3, 2): gaussian(1) / 4,
    (3, 3, 3): gaussian(1) / 8,
    (4, 0, 0): gaussian(16),
    (4, 0, 1): gaussian(8),
    (4, 0, 2): gaussian(4),
    (4, 0, 3): gaussian(2),
    (4, 0, 4): gaussian(1),
    (4, 1, 0): gaussian(8),
    (4, 1, 1): gaussian(4),
    (4, 1, 2): gaussian(2),
    (4, 1, 3): gaussian(1),
    (4, 1, 4): gaussian(1) / 2,
    (4, 2, 0): gaussian(4),
    (4, 2, 1): gaussian(2),
    (4, 2, 2): gaussian(1),
    (4, 2, 3): gaussian(1) / 2,
    (4, 2, 4): gaussian(1) / 4,
    (4, 3, 0): gaussian(2),
    (4, 3, 1): gaussian(1),
    (4, 3, 2): gaussian(1) / 2,
    (4, 3, 3): gaussian(1) / 4,
    (4, 3, 4): gaussian(1) / 8,
    (4, 4, 0): gaussian(1),
    (4, 4, 1): gaussian(1) / 2,
    (4, 4, 2): gaussian(1) / 4,
    (4, 4, 3): gaussian(1) / 8,
    (4, 4, 4): gaussian(1) / 16,
}


def _validate_real_index(indices: RealIndex, n: int) -> RealIndex:
    return _validate_multi_index(indices, 2 * n, "real")


class RealForm(_TermStore):
    """A form over coordinates x1, y1, ..., xn, yn whose coefficients are
    Wirtinger polynomials in z and zb.  Basis covectors are numbered 1..2n
    with 2k-1 = dx^k and 2k = dy^k."""

    __slots__ = ()

    _check_key = staticmethod(_validate_real_index)
    _degree = staticmethod(len)
    _label = "realform"

    @staticmethod
    def _names(key: RealIndex):
        return [f"dx{(v + 1) // 2}" if v % 2 else f"dy{v // 2}" for v in key]

    @classmethod
    def term(cls, n: int, indices: RealIndex, coeff) -> "RealForm":
        return cls(n, {tuple(indices): coeff})

    def wedge(self, other: "RealForm") -> "RealForm":
        return self._trusted(self.n, _wedge_terms(self.terms, self._coerce(other).terms, _shuffled))


_COMPLEX, _REAL = 0, 1  # the two sides of the codec: realify reads _COMPLEX keys, complexify _REAL keys


class _Codec:
    """The per-coordinate key codec of realify and complexify in dimension n.

    A key of either side is written in slots 2k - 1 (dx_k, or dz_k) and 2k
    (dy_k, or dzb_k) and read as its support: the coordinates S that carry
    one differential and those D that carry two, with a bit mask over S of
    the coordinates in slot 2k.  One sign per complex key (``_sign``) takes
    the slot order to (I, J).  Every factor the transform applies is a
    quarter-turn count t and a shift k: i^t 2^k before the stages
    (``read``), i^t 2^-k after them (``image``).  The reading of a key, the
    key and factor of a (support, mask) pair and the oracle star's row of a
    complex key (``star``) depend only on the key, so each is built once
    and kept.
    """

    __slots__ = ("n", "readings", "images", "stars")

    def __init__(self, n: int):
        self.n = n
        # per side (_COMPLEX, _REAL): key -> (support, mask, (t, k)), (support, mask) -> (key, (t, k))
        self.readings: Tuple[dict, dict] = ({}, {})
        self.images: Tuple[dict, dict] = ({}, {})
        self.stars: Dict[TermKey, Tuple[Tuple[TermKey, GaussianRational], ...]] = {}

    @staticmethod
    def _sign(key: TermKey) -> int:
        """The sign taking a complex key from dz_k next to dzb_k to (I, J):
        each dz_i passes the dzb_j with j < i, so it is the shuffle sign of
        their slots 2i - 1 and 2j, which never tie."""
        I, J = key
        return _shuffled(tuple(2 * i - 1 for i in I), tuple(2 * j for j in J))[1]

    def read(self, side: int, key) -> Tuple[Support, int, Tuple[int, int]]:
        """A key of ``side`` as its support, its mask and the factor i^t 2^k
        applied before the stages, as (t, k): (-2i)^|D| sgn for a complex
        key, (-i)^|Y| for a real key with dy mask Y.  Built for a key the
        memo lacks (``_transform`` reads the memo first) and kept."""
        slots = set(key if side else [2 * k - 1 for k in key[0]] + [2 * k for k in key[1]])
        coords = sorted({(v + 1) // 2 for v in slots})
        both = tuple(k for k in coords if 2 * k - 1 in slots and 2 * k in slots)
        singles = tuple(k for k in coords if k not in both)
        mask = sum(1 << j for j, k in enumerate(singles) if 2 * k in slots)
        if side:
            factor = (3 * mask.bit_count() % 4, 0)
        else:  # dz ^ dzb = -2i dx ^ dy
            factor = ((3 * len(both) + (0 if self._sign(key) > 0 else 2)) % 4, len(both))
        found = self.readings[side][key] = ((singles, both), mask, factor)
        return found

    def image(self, side: int, support: Support, mask: int) -> Tuple[object, Tuple[int, int]]:
        """The key of ``side`` of a support and a mask, and the factor
        i^t 2^-k applied after the stages, as (t, k): i^|Y| for a real key
        with dy mask Y, 2^-|S| (i/2)^|D| sgn for a complex key.  Built for a
        pair the memo lacks (``_transform`` reads the memo first) and kept."""
        singles, both = support
        doubled = [v for k in both for v in (2 * k - 1, 2 * k)]
        slots = sorted(doubled + [2 * k - 1 + (mask >> j & 1) for j, k in enumerate(singles)])
        if side:
            key, factor = tuple(slots), (mask.bit_count() % 4, 0)
        else:
            key = (tuple((v + 1) // 2 for v in slots if v % 2), tuple(v // 2 for v in slots if not v % 2))
            factor = ((len(both) + (0 if self._sign(key) > 0 else 2)) % 4, len(singles) + len(both))
        found = self.images[side][(support, mask)] = (key, factor)
        return found

    def star(self, key: TermKey) -> Tuple[Tuple[TermKey, GaussianRational], ...]:
        """The oracle star's row of a complex key K: the (key, constant) pairs
        of the oracle image of conj(e_K), complexify(real_hodge_star(realify(
        conj(e_K)))), built by these three steps alone on the first request
        and kept."""
        row = self.stars.get(key)
        if row is None:
            image = complexify(real_hodge_star(realify(Form(self.n, {key: 1}).conjugate())))
            row = self.stars[key] = tuple((image_key, c.constant_value()) for image_key, c in image.terms.items())
        return row


@lru_cache(maxsize=16)
def _codec(n: int) -> _Codec:
    """The key codec of dimension n, built once per n (the last 16 are kept)."""
    return _Codec(n)


def _turned(a: int, b: int, turns: int) -> Tuple[int, int]:
    """The numerators of (a + b i) i^turns, for any turns >= 0: only
    turns mod 4 is read."""
    if turns & 2:
        a, b = -a, -b
    return (-b, a) if turns & 1 else (a, b)


@lru_cache(maxsize=256)
def _pairs(width: int, varying: int, base: int) -> Tuple[Tuple[int, int], ...]:
    """The (low, high) mask pairs of the Walsh-Hadamard stages on ``width``
    masks, one stage after another: the stage of each bit b of ``varying``
    pairs Y and Y | b.  Only the masks whose other bits are those of
    ``base`` are paired; every other entry is zero."""
    bits = [1 << j for j in range(width.bit_length() - 1) if varying >> j & 1]
    return tuple((low, low | bit) for bit in bits for low in range(width) if not low & bit and low & ~varying == base)


def _transform(n: int, terms: Mapping, side: int) -> Dict[object, WirtingerPolynomial]:
    """The term map of realify (``side`` _COMPLEX) or complexify (``side``
    _REAL) of a term map.

    Every scalar is brought over one common denominator, and each key is
    read as its support, mask and factor (``_Codec.read``).  Per support,
    each monomial has two lists of integer numerators indexed by mask, one
    of real and one of imaginary parts, and each key writes its scalars,
    turned and shifted by its factor, at its mask (a (support, mask) pair
    has one key, so no entry is written twice).  The Walsh-Hadamard stages
    are integer sums and differences in place (``_pairs``), so a round trip
    cancels as it goes with no scalar built (Van Loan, "The ubiquitous
    Kronecker product", 2000).  A coordinate of S on which every key of
    the support agrees needs no stage, since it would only copy or copy and
    negate: each mask reads such a bit from the keys' mask (``base``), and
    turns by i^2 for each such bit set in both.  Each mask with a nonzero
    numerator is written as its image key (``_Codec.image``), each of its
    scalars one ``_reduced`` after that key's factor.  Both codec memos
    are read here, and the codec builds an entry only on a miss."""
    codec, other = _codec(n), 1 - side
    readings, images = codec.readings[side], codec.images[other]
    den = lcm(*[c._d for coeff in terms.values() for c in coeff.terms.values()])
    groups: Dict[Support, list] = {}  # support -> [monomial -> (real parts, imaginary parts), a mask, the bits where masks differ]
    for key, coeff in terms.items():
        support, mask, (turns, shift) = readings.get(key) or codec.read(side, key)
        group = groups.get(support)
        if group is None:
            group = groups[support] = [{}, mask, 0]
        slots = group[0]
        group[2] |= mask ^ group[1]
        for exponents, c in coeff.terms.items():
            parts = slots.get(exponents)
            if parts is None:
                width = 1 << len(support[0])
                parts = slots[exponents] = ([0] * width, [0] * width)
            scale = den // c._d << shift
            parts[0][mask], parts[1][mask] = _turned(c._a * scale, c._b * scale, turns)
    image = {}
    for support, (slots, first, varying) in groups.items():
        width, base = 1 << len(support[0]), first & ~varying
        pairs = _pairs(width, varying, base)
        for parts in slots.values():
            for values in parts:
                for low, high in pairs:
                    u, v = values[low], values[high]
                    values[low], values[high] = u + v, u - v
        for mask in range(width):
            source, out = mask & varying | base, {}
            for exponents, (re, im) in slots.items():
                a, b = re[source], im[source]
                if a or b:
                    if not out:  # the first entry that does not cancel: only now is the image key needed
                        key, (turns, shift) = images.get((support, mask)) or codec.image(other, support, mask)
                        turns, d = turns + 2 * (mask & base).bit_count(), den << shift
                    a, b = _turned(a, b, turns)
                    out[exponents] = _reduced(a, b, d)
            if out:
                image[key] = WirtingerPolynomial._trusted(n, out)
    return image


def realify(form: Form) -> RealForm:
    """Expand dz^k = dx^k + i dy^k exactly; coefficients are kept.

    One call of ``_transform``: per coordinate of S, dz and dzb go to
    dx + i dy and dx - i dy, and each coordinate of D carries
    dz ^ dzb = -2i dx ^ dy."""
    return RealForm._trusted(form.n, _transform(form.n, form.terms, _COMPLEX))


def complexify(real: RealForm) -> Form:
    """Exact inverse of :func:`realify`.

    One call of ``_transform``: per coordinate of S, dx and dy go to
    (dz + dzb)/2 and (i/2)(dzb - dz), and each coordinate of D carries
    dx ^ dy = (i/2) dz ^ dzb."""
    return Form._trusted(real.n, _transform(real.n, real.terms, _REAL))


def real_hodge_star(real: RealForm) -> RealForm:
    """Euclidean Hodge star on monomials: star(e_K) = sgn(K, K^c) e_(K^c)
    with orientation dx1 ^ dy1 ^ ... ^ dxn ^ dyn.  Linear; coefficients
    pass through untouched, negated where the sign is -1."""
    degrees = real.total_degrees()
    if len(degrees) > 1:
        raise ValueError(f"real star needs a homogeneous form, got degrees {sorted(degrees)}")
    terms = {}
    for indices, coeff in real.terms.items():
        rest, sign = complement(indices, 2 * real.n)
        terms[rest] = coeff if sign > 0 else -coeff
    return RealForm._trusted(real.n, terms)


def oracle_star(psi: Form) -> Form:
    """The oracle path: conjugate, realify, Euclidean star, map back.

    The engine star is antilinear while the Euclidean star is linear, so
    conjugating first lines up both the bidegree and the coefficient
    conjugation of the two paths.  The three steps act on keys only, so
    psi is pulled back through the rows of conj(e_K) (``_Codec.star``),
    each coefficient read conjugated, as ``star.raise_indices`` reads it.
    """
    return Form._trusted(psi.n, _pulled_back(psi.n, psi.terms, _codec(psi.n).star, WirtingerPolynomial._conjugate_terms))


class BidegreeComparison(NamedTuple):
    p: int
    q: int
    proportional: bool
    ratio: Optional[GaussianRational]


class OracleReport(NamedTuple):
    """Engine star versus oracle star, compared per bidegree."""

    n: int
    convention: StarConvention
    proportional: bool
    comparisons: Tuple[BidegreeComparison, ...]

    def ratio_for(self, p: int, q: int) -> Optional[GaussianRational]:
        for cmp in self.comparisons:
            if (cmp.p, cmp.q) == (p, q):
                return cmp.ratio
        return None


def _ratio(rows: Iterable[Tuple[Mapping, Iterable[Tuple[Hashable, GaussianRational]]]]) -> Optional[GaussianRational]:
    """The one ratio reader of the oracle: given pairs of an engine map and
    its oracle's (target, constant) pairs, the one r with every engine value
    r times the oracle's at the same target, or None.  Each pair's two
    sides must have the same targets, and r is read at the first target."""
    ratio = None
    for engine, oracle in rows:
        if len(engine) != len(oracle):
            return None
        for target, c in oracle:
            value = engine.get(target)
            if value is None:
                return None
            if ratio is None:
                ratio = value / c
            elif value != c * ratio:
                return None
    return ratio


def _monomials(form: Form) -> Dict[Tuple[TermKey, Tuple[int, ...]], GaussianRational]:
    """A form as one map from (key, exponents) to its scalar."""
    return {(key, e): c for key, coeff in form.terms.items() for e, c in coeff.terms.items()}


def oracle_compare(
    psi: Form,
    metric: HermitianMetric,
    convention: StarConvention = DEFAULT_CONVENTION,
) -> OracleReport:
    """Compare the engine star against the real-coordinate oracle.

    Restricted to the identity metric, where the Euclidean real star is
    the matching ground truth.  Reports the exact proportionality constant
    per (p,q)-component or flags the mismatch.

    Both stars are linear maps on keys with constant rows, and both read
    each coefficient conjugated: the engine's rows are the metric's star
    rows (``star._StarRows.image``), the oracle's the codec's
    (``_Codec.star``, built from realify, the Euclidean star and
    complexify alone).  One reader, ``_ratio``, judges either path.  Under
    single conjugation a bidegree is judged on the rows of its keys
    first: ``_ratio`` gets each key's engine row as a map, its targets'
    halves swapped under the printed output, and the key's oracle row.
    When every key's two rows agree up to one ratio r, the two stars of
    the component agree up to r by linearity, and r is the ratio the
    forms give, since the ratio of two proportional nonzero forms is
    unique.  Then no component, no star and no polynomial is built.  In
    every other case, a row mismatch or the literal conjugation, whose
    engine star does not read the coefficients as the oracle does, the
    component is built and ``_ratio`` gets its two stars, each flattened
    to one map from (key, exponents) to a scalar (``_monomials``).  Two
    forms have equal keys and equal monomials at each key exactly when
    their flattened maps have equal keys, so this is the form-level
    verdict.  A wrong engine row thus still fails the check, on the form
    level.
    """
    if not metric.is_identity():
        raise ValueError("oracle comparison is defined for the identity metric only")
    if psi.n != metric.n:
        raise ValueError(f"form ambient dimension {psi.n} != metric dimension {metric.n}")
    single, printed = convention.conjugation_mode == "single", convention.output_index_mode == "printed_eq_2_9"
    engine_rows, oracle_rows = _star_rows(psi, metric).image, _codec(psi.n).star
    keys: Dict[Tuple[int, int], List[TermKey]] = {}  # bidegree -> psi's keys of it
    for key in psi.terms:
        keys.setdefault((len(key[0]), len(key[1])), []).append(key)
    comparisons = []
    for p, q in sorted(keys):
        ratio = _ratio(({(B, A) if printed else (A, B): c for (A, B), c in engine_rows(key)}, oracle_rows(key)) for key in keys[p, q]) if single else None
        if ratio is None:
            part = psi.component(p, q)
            ratio = _ratio([(_monomials(hodge_star(part, metric, convention)), _monomials(oracle_star(part)).items())])
        comparisons.append(BidegreeComparison(p=p, q=q, proportional=ratio is not None, ratio=ratio))
    return OracleReport(
        n=psi.n,
        convention=convention,
        proportional=all(cmp.proportional for cmp in comparisons),
        comparisons=tuple(comparisons),
    )

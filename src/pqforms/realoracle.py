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
the key codec of dimension n builds the image of each key once, by realify,
the Euclidean star and complexify on the unit form, and keeps it.

realify and complexify act on each coordinate alone, so they factor into
one 2x2 map per coordinate (the Kronecker-factored transform).  A key
codec kept per n reads a key as its support and builds each row or image
key once.  realify fans a complex key out through its row; complexify runs
one butterfly stage per coordinate that carries one differential and drops
the term maps that cancel after each stage, so a key with s such
coordinates costs O(s 2^s) additions, not the 4^s products of a change of
frame per real key.

:class:`RealForm` is the second subclass of the term store of
:mod:`pqforms.forms`: its keys are strictly increasing tuples over 1..2n,
merged and wedged by the same helpers as the keys of
:class:`~pqforms.forms.Form`.  Only its key check, the degree and the names
of a key, its ``term`` constructor and its ``wedge`` are its own.  The
oracle is thus independent of the complex star but not of the container,
so the tests check realify(a ^ b) == realify(a) ^ realify(b) on random
forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from typing import Dict, List, NamedTuple, Optional, Tuple

from .forms import Form, TermKey, _TermStore, _pulled_back, _row, _validate_multi_index, _wedge_terms, complement, sort_with_sign
from .metric import HermitianMetric
from .scalars import GaussianRational, _quarter_turned, gaussian
from .star import DEFAULT_CONVENTION, StarConvention, hodge_star
from .wpoly import WirtingerPolynomial, _add_into

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
    (1, 1, 1): gaussian(Fraction(1, 2)),
    (2, 0, 0): gaussian(4),
    (2, 0, 1): gaussian(2),
    (2, 0, 2): gaussian(1),
    (2, 1, 0): gaussian(2),
    (2, 1, 1): gaussian(1),
    (2, 1, 2): gaussian(Fraction(1, 2)),
    (2, 2, 0): gaussian(1),
    (2, 2, 1): gaussian(Fraction(1, 2)),
    (2, 2, 2): gaussian(Fraction(1, 4)),
    (3, 0, 0): gaussian(8),
    (3, 0, 1): gaussian(4),
    (3, 0, 2): gaussian(2),
    (3, 0, 3): gaussian(1),
    (3, 1, 0): gaussian(4),
    (3, 1, 1): gaussian(2),
    (3, 1, 2): gaussian(1),
    (3, 1, 3): gaussian(Fraction(1, 2)),
    (3, 2, 0): gaussian(2),
    (3, 2, 1): gaussian(1),
    (3, 2, 2): gaussian(Fraction(1, 2)),
    (3, 2, 3): gaussian(Fraction(1, 4)),
    (3, 3, 0): gaussian(1),
    (3, 3, 1): gaussian(Fraction(1, 2)),
    (3, 3, 2): gaussian(Fraction(1, 4)),
    (3, 3, 3): gaussian(Fraction(1, 8)),
    (4, 0, 0): gaussian(16),
    (4, 0, 1): gaussian(8),
    (4, 0, 2): gaussian(4),
    (4, 0, 3): gaussian(2),
    (4, 0, 4): gaussian(1),
    (4, 1, 0): gaussian(8),
    (4, 1, 1): gaussian(4),
    (4, 1, 2): gaussian(2),
    (4, 1, 3): gaussian(1),
    (4, 1, 4): gaussian(Fraction(1, 2)),
    (4, 2, 0): gaussian(4),
    (4, 2, 1): gaussian(2),
    (4, 2, 2): gaussian(1),
    (4, 2, 3): gaussian(Fraction(1, 2)),
    (4, 2, 4): gaussian(Fraction(1, 4)),
    (4, 3, 0): gaussian(2),
    (4, 3, 1): gaussian(1),
    (4, 3, 2): gaussian(Fraction(1, 2)),
    (4, 3, 3): gaussian(Fraction(1, 4)),
    (4, 3, 4): gaussian(Fraction(1, 8)),
    (4, 4, 0): gaussian(1),
    (4, 4, 1): gaussian(Fraction(1, 2)),
    (4, 4, 2): gaussian(Fraction(1, 4)),
    (4, 4, 3): gaussian(Fraction(1, 8)),
    (4, 4, 4): gaussian(Fraction(1, 16)),
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
        return self._trusted(self.n, _wedge_terms(self.terms, self._same_space(other).terms))


class _Codec:
    """The per-coordinate key codec of realify and complexify in dimension n.

    Both maps act on each coordinate alone.  So a key is read as its
    support: the coordinates S that carry one differential and those D that
    carry two, with a bit mask over S of the coordinates that carry dy, or
    dzb.  Coordinate k maps dx_k, dy_k to (dz_k + dzb_k)/2, (i/2)(dzb_k - dz_k)
    and dx_k ^ dy_k to (i/2) dz_k ^ dzb_k.  Written with dz_k next to dzb_k,
    like the real keys, the maps keep every slot in place and need no sign;
    one sign per complex key takes that order to (I, J).  The reading of a
    key, the image of a (support, mask) pair and the oracle star's row of a
    complex key (``star``) depend only on the key, so each is built once
    and kept.
    """

    __slots__ = ("n", "rows", "supports", "keys", "stars", "interned")

    def __init__(self, n: int):
        self.n = n
        self.rows: Dict[TermKey, Tuple[Optional[GaussianRational], Tuple[Tuple[RealIndex, int], ...]]] = {}
        self.supports: Dict[RealIndex, Tuple[Support, int, int]] = {}
        self.keys: Dict[Tuple[Support, int], Tuple[TermKey, GaussianRational]] = {}
        self.stars: Dict[TermKey, Tuple[Tuple[TermKey, GaussianRational], ...]] = {}
        self.interned: Dict[object, object] = {}

    def _sign(self, key: TermKey) -> int:
        """The sign taking a complex key from dz_k next to dzb_k to (I, J)."""
        I, J = key
        order = sorted([2 * k for k in I] + [2 * k + 1 for k in J])
        return sort_with_sign([v // 2 + (v % 2) * self.n for v in order])[1]

    def row(self, key: TermKey) -> Tuple[Optional[GaussianRational], Tuple[Tuple[RealIndex, int], ...]]:
        """realify's row of a complex key: the scale 2^|D| (None for 1) and
        one (real key, quarter turns) pair per dy mask; the image of e_K is
        the sum of scale * i**turns * e_real over the row."""
        row = self.rows.get(key)
        if row is None:
            I, J = key
            both = set(I).intersection(J)
            # dz = dx + i dy and dzb = dx - i dy: the quarter turns of each dy
            singles = [(k, 3 if k in J else 1) for k in sorted(set(I).symmetric_difference(J))]
            # dz ^ dzb = -2i dx ^ dy: the unit part of the factor (-2i)^|D| * sgn is turned
            base = 3 * len(both) + (0 if self._sign(key) > 0 else 2)
            fixed = [v for k in both for v in (2 * k - 1, 2 * k)]
            pairs = []
            for mask in range(1 << len(singles)):
                real, turns = list(fixed), base
                for j, (k, dy_turns) in enumerate(singles):
                    if mask >> j & 1:
                        real.append(2 * k)
                        turns += dy_turns
                    else:
                        real.append(2 * k - 1)
                pairs.append((tuple(sorted(real)), turns % 4))
            row = self.rows[key] = (gaussian(2 ** len(both)) if both else None, tuple(pairs))
        return row

    def support(self, real: RealIndex) -> Tuple[Support, int, int]:
        """complexify's reading of a real key: its support (S, D), its dy
        mask Y over S and the quarter turns of (-i)^|Y|."""
        found = self.supports.get(real)
        if found is None:
            slots: Dict[int, List[int]] = {}
            for v in real:
                slots.setdefault((v + 1) // 2, []).append(v)
            singles = tuple(k for k, vs in slots.items() if len(vs) == 1)
            both = tuple(k for k, vs in slots.items() if len(vs) == 2)
            dy = [j for j, k in enumerate(singles) if slots[k][0] == 2 * k]
            found = self.supports[real] = ((singles, both), sum(1 << j for j in dy), 3 * len(dy) % 4)
        return found

    def key(self, support: Support, zb: int) -> Tuple[TermKey, GaussianRational]:
        """complexify's image of a support and a dzb mask over S: the
        complex key and its constant 2^-|S| (i/2)^|D| sgn."""
        found = self.keys.get((support, zb))
        if found is None:
            singles, both = support
            I = tuple(sorted(both + tuple(k for j, k in enumerate(singles) if not zb >> j & 1)))
            J = tuple(sorted(both + tuple(k for j, k in enumerate(singles) if zb >> j & 1)))
            scale = gaussian(Fraction(self._sign((I, J)), 2 ** (len(singles) + len(both))))
            found = self.keys[(support, zb)] = ((I, J), _quarter_turned(scale, len(both)))
        return found

    def star(self, key: TermKey) -> Tuple[Tuple[TermKey, GaussianRational], ...]:
        """The oracle star's row of a complex key, the (key, constant) pairs of
        complexify(real_hodge_star(realify(e_K))), built by these three steps
        alone on the first request and kept, interned like a frame's rows."""
        row = self.stars.get(key)
        if row is None:
            image = complexify(real_hodge_star(realify(Form(self.n, {key: 1}))))
            row = self.stars[key] = _row(image.terms.items(), self.interned)
        return row


@lru_cache(maxsize=16)
def _codec(n: int) -> _Codec:
    """The key codec of dimension n, built once per n (the last 16 are kept)."""
    return _Codec(n)


def realify(form: Form) -> RealForm:
    """Expand dz^k = dx^k + i dy^k exactly; coefficients are kept.

    Each complex key fans out through its row (``_Codec.row``): its term
    map is scaled once by 2^|D| and turned once per power of i, and each
    real key sums the maps it receives into one polynomial."""
    n, codec = form.n, _codec(form.n)
    pieces: Dict[RealIndex, list] = {}
    for key, coeff in form.terms.items():
        scale, row = codec.row(key)
        terms = coeff.terms if scale is None else {e: c * scale for e, c in coeff.terms.items()}
        turned = {0: terms}
        for real, turns in row:
            if turns not in turned:
                turned[turns] = {e: _quarter_turned(c, turns) for e, c in terms.items()}
            pieces.setdefault(real, []).append(turned[turns])
    pairs = []
    for real, maps in pieces.items():
        if len(maps) == 1:
            pairs.append((real, WirtingerPolynomial._trusted(n, maps[0])))
        else:
            out = reduce(_add_into, maps[1:], dict(maps[0]))
            if any(out.values()):  # keys that cancel build no polynomial
                pairs.append((real, WirtingerPolynomial._trusted(n, out)))
    return RealForm._trusted(n, pairs)


def _plus(u: dict, v: dict, negate: bool) -> Optional[dict]:
    """The term map u + v, or u - v when ``negate``; None when it cancels."""
    out = dict(u)
    for exponents, c in v.items():
        prev = out.get(exponents)
        if prev is None:
            out[exponents] = -c if negate else c
        else:
            total = prev - c if negate else prev + c
            if total:
                out[exponents] = total
            else:
                del out[exponents]
    return out or None


def _butterflies(maps: List[Optional[dict]]) -> None:
    """The Walsh-Hadamard transform of 2^s term maps, in place: the stage
    of bit b sends the maps (u, v) at masks (Y, Y | b) to (u + v, u - v).
    A map that cancels becomes None at once, so a round trip cancels as it
    goes (Van Loan, "The ubiquitous Kronecker product", 2000)."""
    width, bit = len(maps), 1
    while bit < width:
        for low in range(width):
            if low & bit:
                continue
            high = low | bit
            u, v = maps[low], maps[high]
            if v is None:
                maps[high] = u
            elif u is None:
                maps[low], maps[high] = v, {e: -c for e, c in v.items()}
            else:
                maps[low], maps[high] = _plus(u, v, False), _plus(u, v, True)
        bit <<= 1


def complexify(real: RealForm) -> Form:
    """Exact inverse of :func:`realify`.

    The terms are grouped by support (``_Codec.support``); each term map
    is turned by (-i)^|Y|, the group runs one butterfly stage per
    coordinate of S, and each map left over is multiplied once by the
    constant of its image key (``_Codec.key``)."""
    n, codec = real.n, _codec(real.n)
    groups: Dict[Support, List[Optional[dict]]] = {}
    for key, coeff in real.terms.items():
        support, dy, turns = codec.support(key)
        maps = groups.get(support)
        if maps is None:
            maps = groups[support] = [None] * (1 << len(support[0]))
        maps[dy] = coeff.terms if not turns else {e: _quarter_turned(c, turns) for e, c in coeff.terms.items()}
    pairs = []
    for support, maps in groups.items():
        _butterflies(maps)
        for zb, terms in enumerate(maps):
            if terms:
                key, constant = codec.key(support, zb)
                pairs.append((key, WirtingerPolynomial._trusted(n, {e: c * constant for e, c in terms.items()})))
    return Form._trusted(n, pairs)


def real_hodge_star(real: RealForm) -> RealForm:
    """Euclidean Hodge star on monomials: star(e_K) = sgn(K, K^c) e_(K^c)
    with orientation dx1 ^ dy1 ^ ... ^ dxn ^ dyn.  Linear; coefficients
    pass through untouched, negated where the sign is -1."""
    degrees = real.total_degrees()
    if len(degrees) > 1:
        raise ValueError(f"real star needs a homogeneous form, got degrees {sorted(degrees)}")
    pairs = []
    for indices, coeff in real.terms.items():
        rest, sign = complement(indices, 2 * real.n)
        pairs.append((rest, coeff if sign > 0 else -coeff))
    return RealForm._trusted(real.n, pairs)


def oracle_star(psi: Form) -> Form:
    """The oracle path: conjugate, realify, Euclidean star, map back.

    The engine star is antilinear while the Euclidean star is linear, so
    conjugating first lines up both the bidegree and the coefficient
    conjugation of the two paths.  The three steps act on keys only, so
    the conjugate is pulled back through their memoized rows (``_Codec.star``).
    """
    return Form._trusted(psi.n, _pulled_back(psi.n, psi.conjugate().terms, _codec(psi.n).star).items())


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


def _proportionality_ratio(engine: Form, oracle: Form) -> Tuple[bool, Optional[GaussianRational]]:
    if oracle.is_zero():
        return engine.is_zero(), None
    if engine.is_zero():
        return False, None
    key, oracle_coeff = oracle.sorted_terms()[0]
    exponents, scalar = next(iter(sorted(oracle_coeff.terms.items())))
    engine_coeff = engine.coefficient(*key)
    lead = engine_coeff.terms.get(exponents)
    if lead is None:
        return False, None
    ratio = lead / scalar
    proportional = engine == oracle.scale(ratio)
    return proportional, (ratio if proportional else None)


def oracle_compare(
    psi: Form,
    metric: HermitianMetric,
    convention: StarConvention = DEFAULT_CONVENTION,
) -> OracleReport:
    """Compare the engine star against the real-coordinate oracle.

    Restricted to the identity metric, where the Euclidean real star is
    the matching ground truth.  Reports the exact proportionality constant
    per (p,q)-component or flags the mismatch.
    """
    if not metric.is_identity():
        raise ValueError("oracle comparison is defined for the identity metric only")
    if psi.n != metric.n:
        raise ValueError("ambient dimension mismatch")
    comparisons = []
    overall = True
    for p, q in sorted(psi.bidegrees()):
        part = psi.component(p, q)
        engine = hodge_star(part, metric, convention)
        oracle = oracle_star(part)
        proportional, ratio = _proportionality_ratio(engine, oracle)
        overall = overall and proportional
        comparisons.append(BidegreeComparison(p=p, q=q, proportional=proportional, ratio=ratio))
    return OracleReport(
        n=psi.n,
        convention=convention,
        proportional=overall,
        comparisons=tuple(comparisons),
    )

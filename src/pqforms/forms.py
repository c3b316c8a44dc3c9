"""Graded exterior algebra of (p,q)-forms with polynomial coefficients.

Storage convention: every term is coeff * dz^I ^ dzb^J with all dz factors
before all dzb factors and both index blocks strictly increasing.  Every
sign in the engine flows from this single convention via permutation
parity, so re-canonicalizing a stored form is always the identity.  One
kernel, ``_shuffled``, merges two increasing index tuples and signs the
shuffle; ``_key_product`` applies it to ``Form`` keys half by half.  Every
wedge, derivative, canonicalization and codec sign is one of the two, and
``complement`` and ``Form.conjugate`` use closed forms of it.

The term store is one private base class, ``_TermStore``, of which
``Form`` and the oracle's ``RealForm`` are thin subclasses.  It is itself
a ``wpoly._TermMap``, the protocol it shares with ``WirtingerPolynomial``
(the validating constructor, the sum, ``_coerce``, ``zero``, negation,
difference, ``is_zero``, truth value, equality and hashing); the store
adds how a pair is checked, merged and lifted, the trusted constructor,
scaling, the degrees and the repr, and each subclass gives only how its
keys are checked, their degree and the names of their differentials,
besides its own ``term`` and ``wedge``.  ``_merged`` is the one merge loop
of both and ``_wedge_terms`` the one wedge loop, so every sum is built in
a single constructor call.
The public constructors validate each key and coefficient
(``_TermStore._checked``) before the merge; the internal ops build
through the trusted ``_trusted``, which checks nothing.  It merges an
iterable of pairs, as a sum, a wedge or a derivative yields them, and
stores a ``dict`` as it is: a dict cannot repeat a key, so the builders
whose keys are distinct by construction (a pull-back, a component, a
conjugate, a negation, a nonzero scaling) pass their own term map and
nothing is merged again.  A repeated key's coefficients are summed in
place into one term map by ``wpoly._add_into``, the one in-place sum.
``_run_key`` is the one fold of a run of differentials through
``_key_product``, for ``Form.from_factors`` and the parser.

Index raising, ``transform_form`` and the Hodge star pull forms back
through a ``_Frame``, a change of generators on constants (the star's
rows are a frame too); the oracle star pulls back through its key codec's
memo (see :mod:`pqforms.realoracle`), and the pairing functionals of
:mod:`pqforms.obstruction` through rows of weights.  ``_pulled_back`` is
the one pull-back loop: it reads each key's row of (image key, constant)
pairs and sums the scaled monomials in place, one term map per image key.
``_Frame.image`` and ``_Frame.at`` are the only loops that pair two half
rows.  ``realify`` and ``complexify`` act on one coordinate at a time.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .scalars import ONE, GaussianRational, _quarter_turned
from .wpoly import Z, ZBAR, PolyLike, WirtingerPolynomial, _add_into, _TermMap

MultiIndex = Tuple[int, ...]
TermKey = Tuple[MultiIndex, MultiIndex]
Factor = Tuple[str, int]  # (kind, index): ("z", 3) means dz3, ("zb", 3) means dzb3

CoeffLike = Union[PolyLike, "WirtingerPolynomial"]


def _shuffled(a: MultiIndex, b: MultiIndex) -> Tuple[MultiIndex, int]:
    """The one permutation-sign kernel: the increasing merge of two strictly
    increasing tuples and the sign of the shuffle that sorts a + b, the
    parity of the pairs x in a, y in b with y < x; 0 when they share an
    index (the wedge monomial vanishes)."""
    if not a or not b:
        return a + b, 1
    merged: List[int] = []
    passed, i, size = 0, 0, len(a)
    for y in b:
        while i < size and a[i] < y:
            merged.append(a[i])
            i += 1
        if i < size and a[i] == y:
            return (), 0
        passed += size - i  # the indices of a that y passes
        merged.append(y)
    return tuple(merged) + a[i:], -1 if passed % 2 else 1


def _key_product(left: TermKey, right: TermKey) -> Tuple[TermKey, int]:
    """The key of e_left ^ e_right and its sign (0 when they share a
    differential): the dz halves and the dzb halves are merged by
    ``_shuffled``, and the dzb half of ``left`` passes the dz half of
    ``right``."""
    (I, J), (K, L) = left, right
    dz, sign = _shuffled(I, K)
    dzb, half = _shuffled(J, L)
    sign *= half
    return (dz, dzb), -sign if len(J) * len(K) % 2 else sign


def _run_key(factors: Iterable[Factor]) -> Tuple[TermKey, int]:
    """The key of the wedge of a run of differentials, folded one factor at
    a time through ``_key_product``, and its sign: 0 when a differential
    repeats."""
    key, sign = ((), ()), 1
    for kind, index in factors:
        key, step = _key_product(key, ((index,), ()) if kind == Z else ((), (index,)))
        sign *= step
    return key, sign


def complement(indices: MultiIndex, n: int) -> Tuple[MultiIndex, int]:
    """The increasing complement K^c of a strictly increasing K inside 1..n,
    and the sign of the permutation sorting K followed by K^c, which is
    ``_shuffled(K, K^c)`` in closed form: the j-th index of K passes the
    K_j - j indices of K^c below it."""
    present = set(indices)
    rest = tuple(k for k in range(1, n + 1) if k not in present)
    k = len(indices)
    return rest, -1 if (sum(indices) - k * (k + 1) // 2) % 2 else 1


def _validate_multi_index(indices: MultiIndex, n: int, label: str) -> MultiIndex:
    indices = tuple(indices)
    for k in indices:
        if not 1 <= k <= n:
            raise ValueError(f"{label} index {k} out of range 1..{n}")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"{label} multi-index {indices} is not strictly increasing")
    return indices


def _term_key(key: TermKey, n: int) -> TermKey:
    I, J = key
    return _validate_multi_index(I, n, "dz"), _validate_multi_index(J, n, "dzb")


def _merged(pairs: Iterable[Tuple[Any, WirtingerPolynomial]]) -> Dict[Any, WirtingerPolynomial]:
    """The one merge loop of the term store: sum repeated keys, drop zeros.

    The coefficients of a repeated key are added in place into one term
    map, so its polynomial is built once, however often the key repeats.
    It runs on the pairs of the public constructors and on the pairs that
    ``_TermStore._trusted`` is given, never on a term map it is given.
    """
    clean: Dict[Any, WirtingerPolynomial] = {}
    sums: Dict[Any, dict] = {}  # repeated key -> its running term map
    for key, coeff in pairs:
        prev = clean.get(key)
        if prev is None:
            clean[key] = coeff
        elif key in sums:
            _add_into(sums[key], coeff.terms.items())
        else:
            sums[key] = _add_into(dict(prev.terms), coeff.terms.items())
    for key, terms in sums.items():
        clean[key] = WirtingerPolynomial._trusted(clean[key].n, terms)
    return {key: coeff for key, coeff in clean.items() if coeff.terms}


def _summed(forms: Iterable) -> Iterator[Tuple[Any, WirtingerPolynomial]]:
    """The (key, coeff) pairs of a sum of forms, for one constructor call."""
    return chain.from_iterable(form.terms.items() for form in forms)


def _wedge_terms(left: Mapping, right: Mapping, product: Callable) -> Iterator[Tuple[Any, Any]]:
    """The one wedge loop: yield (key, +-c1*c2) for every pair of terms,
    whose coefficients are polynomials or, in a ``_Frame``, constants.

    ``product`` gives the key of a product of two keys and its sign, as
    ``_key_product`` does for ``Form`` keys and ``_shuffled`` for real keys
    and a frame's halves; a pair sharing an index vanishes without its
    coefficient product being formed.
    """
    pairs = right.items()
    for key, c1 in left.items():
        for key2, c2 in pairs:
            merged, sign = product(key, key2)
            if sign:
                c = c1 * c2
                yield merged, c if sign > 0 else -c


def _pulled_back(n: int, terms: Mapping, image: Callable, read=attrgetter("terms")) -> Dict[Any, WirtingerPolynomial]:
    """The one pull-back loop: the term map of a form's image under a linear
    map on keys.  Each monomial of a coefficient (its term map by ``read``)
    times each constant of its key's row (``image(key)``) is added in place
    into that image key's term map; each map that does not cancel becomes
    one polynomial at the end.  A key's row is taken first, and its
    coefficient is read only when the row is not empty."""
    sums: Dict[Any, dict] = {}
    for key, coeff in terms.items():
        row = image(key)
        if not row:
            continue
        monomials = read(coeff).items()
        for image_key, scalar in row:
            out = sums.setdefault(image_key, {})
            for exponents, c in monomials:
                prev = out.get(exponents)
                out[exponents] = c * scalar if prev is None else prev + c * scalar
    return {key: WirtingerPolynomial._trusted(n, out) for key, out in sums.items() if any(out.values())}


class _Frame:
    """The change of generators given by two n x n matrices: dz_k goes to
    sum_a dz[k][a] dz_a and dzb_k to sum_b dzb[k][b] dzb_b.

    The 2n generator images, term maps of constants, are built once from the
    nonzero entries.  The image of a key (I, J) is the product of the images
    of its halves I and J, with no sign.  The image of a half, a row of the
    compound matrix (Cauchy-Binet), starts from its first generator's image
    (the empty half's row is {(): 1}), folds the others' images through the
    one wedge loop, each step summed by ``_add_into`` (``_build_half``).
    ``_half`` is the one memo lookup: it keeps each half's row in ``halves``
    as a map from indices to constants, built on its first read; a
    subclass overrides only ``_build_half``.  ``image`` reads a key's
    whole row and ``at`` its entries at chosen image keys, the left
    constants turned by ``_turns(key)`` quarter turns: none here, the
    bidegree's unit in ``star._StarRows``."""

    __slots__ = ("generators", "halves")

    def __init__(self, dz: Sequence[Sequence[Any]], dzb: Sequence[Sequence[Any]]):
        self.generators = tuple([{(a,): GaussianRational.coerce(c) for a, c in enumerate(row, 1) if c} for row in rows] for rows in (dz, dzb))
        self.halves: Tuple[dict, dict] = ({}, {})  # dz-half I or dzb-half J -> its row

    def _half(self, side: int, indices: MultiIndex) -> Dict[MultiIndex, GaussianRational]:
        row = self.halves[side].get(indices)
        if row is None:
            row = self.halves[side][indices] = self._build_half(side, indices)
        return row

    def _build_half(self, side: int, indices: MultiIndex) -> Dict[MultiIndex, GaussianRational]:
        """The row of a half, folded from its generators' images."""
        generators = self.generators[side]
        row = generators[indices[0] - 1] if indices else {(): ONE}
        for k in indices[1:]:
            sums = _add_into({}, _wedge_terms(row, generators[k - 1], _shuffled))
            row = {key: c for key, c in sums.items() if c}
        return row

    def _turns(self, key: TermKey) -> int:
        """The quarter turns of a key's left constants: none for a plain frame."""
        return 0

    def image(self, key: TermKey) -> List[Tuple[TermKey, GaussianRational]]:
        """The row of a key: (image key, constant) pairs."""
        left, right, turns = self._half(0, key[0]).items(), self._half(1, key[1]).items(), self._turns(key) & 3
        if turns:
            left = [(A, _quarter_turned(a, turns)) for A, a in left]
        return [((A, B), a * b) for A, a in left for B, b in right]

    def at(self, reads: Sequence[Tuple[Any, TermKey, int]], scale: Optional[GaussianRational] = None) -> Callable[[TermKey], List[Tuple[Any, GaussianRational]]]:
        """The row function of the frame read only at chosen image keys, for
        ``_pulled_back``: ``reads`` lists (target, image key, extra quarter
        turns) triples, and a key's row emits at each target its constant at
        that image key, turned by the extra turns and times ``scale`` when
        one is given.  An image key the row lacks is left out."""
        half, turned = self._half, self._turns

        def image(key: TermKey) -> List[Tuple[Any, GaussianRational]]:
            left, right, turns = half(0, key[0]), half(1, key[1]), turned(key)
            row = [(target, _quarter_turned(left[A], turns + extra) * right[B]) for target, (A, B), extra in reads if A in left and B in right]
            return row if scale is None else [(target, c * scale) for target, c in row]

        return image


class _TermStore(_TermMap):
    """The term store of ``Form`` and ``RealForm``: a dimension n and a map
    from canonical keys to nonzero polynomial coefficients, on the term-map
    protocol of ``wpoly._TermMap``.

    A subclass gives only what its keys mean: ``_check_key`` validates a
    key, ``_degree`` is its degree, ``_names`` the names of its
    differentials and ``_label`` the word its repr starts with; it also
    has its own ``term`` constructor and its own ``wedge``, which passes
    ``_wedge_terms`` the product of its keys (``_key_product`` or
    ``_shuffled``).  ``terms`` may be a mapping or an iterable of
    (key, coeff) pairs; repeated keys are summed.  The sum of two stores
    is ``_TermMap.__add__``, and ``_coerce`` lifts no other operand.
    """

    __slots__ = ()

    @staticmethod
    def _merged(pairs: Iterable[Tuple[Any, WirtingerPolynomial]]) -> Dict[Any, WirtingerPolynomial]:
        """The module's ``_merged``, looked up when called, so the public
        constructors and ``_trusted`` reach the one merge loop by one name."""
        return _merged(pairs)

    def _checked(self, n: int, key, coeff: CoeffLike) -> Tuple[Any, WirtingerPolynomial]:
        """A pair of the public constructors: the key through ``_check_key``,
        the coefficient as a polynomial of dimension n."""
        key = self._check_key(key, n)
        if not isinstance(coeff, WirtingerPolynomial):
            coeff = WirtingerPolynomial.constant(n, coeff)
        elif coeff.n != n:
            raise ValueError(f"coefficient ambient dimension {coeff.n} != {n}")
        return key, coeff

    def _lift(self, other):
        raise TypeError(f"expected a {type(self).__name__}, got {type(other).__name__}")

    @classmethod
    def _trusted(cls, n: int, terms: Union[dict, Iterable[Tuple[Any, WirtingerPolynomial]]]):
        """The constructor of the internal ops: the engine built the keys
        and coefficients, so nothing is checked.  A ``dict`` is already
        merged, since it cannot repeat a key, and is stored as it is: its
        coefficients must be nonzero.  An iterable of pairs is merged."""
        form = object.__new__(cls)
        form.n = n
        form.terms = terms if isinstance(terms, dict) else _merged(terms)
        return form

    # -- linear structure ------------------------------------------------------

    def scale(self, value: CoeffLike):
        """Multiply every coefficient by a scalar or polynomial."""
        if isinstance(value, WirtingerPolynomial):
            return self._trusted(self.n, ((key, coeff * value) for key, coeff in self.terms.items()))
        value = GaussianRational.coerce(value)
        return self._trusted(self.n, {key: coeff.scale(value) for key, coeff in self.terms.items()} if value else {})

    # -- queries ------------------------------------------------------------------

    def total_degrees(self) -> Set[int]:
        return {self._degree(key) for key in self.terms}

    def sorted_terms(self) -> List[Tuple[Any, WirtingerPolynomial]]:
        """Terms ordered by (degree, key); the printer's order."""
        return sorted(self.terms.items(), key=lambda kv: (self._degree(kv[0]), kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return f"<{self._label} 0>"
        bits = [f"{coeff!r}*{'^'.join(self._names(key)) or '1'}" for key, coeff in self.sorted_terms()]
        return f"<{self._label} " + " + ".join(bits) + ">"


class Form(_TermStore):
    """A finite sum of terms coeff * dz^I ^ dzb^J in canonical order.

    Terms of different bidegrees may coexist, so the exterior derivative
    needs no special casing; homogeneous pieces are recovered with
    :meth:`component`.
    """

    __slots__ = ()

    _check_key = staticmethod(_term_key)
    _label = "form"

    @staticmethod
    def _degree(key: TermKey) -> int:
        return len(key[0]) + len(key[1])

    @staticmethod
    def _names(key: TermKey) -> List[str]:
        return [f"dz{k}" for k in key[0]] + [f"dzb{k}" for k in key[1]]

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_scalar(cls, n: int, value: CoeffLike) -> "Form":
        return cls(n, {((), ()): value})

    @classmethod
    def term(cls, n: int, I: Iterable[int], J: Iterable[int], coeff: CoeffLike = 1) -> "Form":
        """Single canonical term; I and J must already be strictly increasing."""
        return cls(n, {(tuple(I), tuple(J)): coeff})

    # -- canonicalization ----------------------------------------------------

    @classmethod
    def from_factors(cls, n: int, factors: Sequence[Factor], coeff: CoeffLike = 1) -> "Form":
        """Build coeff * (product of tagged differentials) in canonical order.

        The factors may arrive in any order; the result carries the parity
        of the permutation that sorts all dz factors (by index) in front of
        all dzb factors (by index), folded by ``_run_key``.  A repeated
        differential gives zero.
        """
        for kind, index in factors:
            if kind not in (Z, ZBAR):
                raise ValueError(f"differential kind must be 'z' or 'zb', got {kind!r}")
            if not 1 <= index <= n:
                raise ValueError(f"differential index {index} out of range 1..{n}")
        key, sign = _run_key(factors)
        return cls(n, {key: coeff if sign > 0 else -coeff} if sign else None)

    # -- graded multiplication ---------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        """Exterior product; bilinear, associative, graded-anticommutative."""
        return self._trusted(self.n, _wedge_terms(self.terms, self._coerce(other).terms, _key_product))

    def __xor__(self, other: "Form") -> "Form":
        return self.wedge(other)

    # -- conjugation and grading ---------------------------------------------

    def conjugate(self) -> "Form":
        """Complex conjugate form.

        Each term (I, J, c) maps to (J, I, conj(c) * (-1)^{|I||J|}); the sign
        is that of reordering dzb^I ^ dz^J back into canonical order,
        ``_key_product(((), I), (J, ()))`` in closed form, and bidegrees
        (p,q) swap to (q,p).  An involution.
        """
        terms = {}
        for (I, J), coeff in self.terms.items():
            conj = coeff.conjugate()
            terms[J, I] = -conj if (len(I) * len(J)) % 2 else conj
        return self._trusted(self.n, terms)

    def component(self, p: int, q: int) -> "Form":
        """The (p,q)-homogeneous part; summing over all (p,q) rebuilds the form."""
        return self._trusted(self.n, {key: c for key, c in self.terms.items() if len(key[0]) == p and len(key[1]) == q})

    def bidegrees(self) -> Set[Tuple[int, int]]:
        return {(len(I), len(J)) for I, J in self.terms}

    def is_homogeneous(self) -> bool:
        """Single bidegree (vacuously true for the zero form)."""
        return len(self.bidegrees()) <= 1

    def homogeneous_bidegree(self) -> Tuple[int, int]:
        degrees = self.bidegrees()
        if len(degrees) != 1:
            raise ValueError(f"form is not homogeneous: bidegrees {sorted(degrees)}")
        return next(iter(degrees))

    # -- queries ------------------------------------------------------------------

    def coefficient(self, I: Iterable[int], J: Iterable[int]) -> WirtingerPolynomial:
        """The coefficient of dz^I ^ dzb^J; the key is checked as ``Form(n, terms)`` checks it."""
        return self.terms.get(_term_key((I, J), self.n), WirtingerPolynomial.zero(self.n))

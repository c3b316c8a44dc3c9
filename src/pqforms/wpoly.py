"""Polynomials in the 2n independent formal variables z1..zn, zb1..zn.

The barred variables are genuinely independent symbols, never obtained from
the unbarred ones by evaluation.  A polynomial is stored sparsely as a map
from exponent vectors of length 2n (first n slots are z-exponents, last n
slots are zb-exponents) to nonzero Gaussian-rational coefficients, so two
polynomials are equal exactly when their term maps are equal.

A polynomial and a form share one term-map protocol, the private base
``_TermMap``: the validating constructor, the trusted constructor
``_trusted``, the sum, the n-ary sum ``_sum``, ``_coerce``, ``zero``,
negation, difference, ``is_zero``, truth value, equality and hashing are
written once there.  ``WirtingerPolynomial`` and the form store
``forms._TermStore`` give only how a pair is checked (``_checked``), how
pairs are merged (``_merged``) and how another operand is lifted
(``_lift``).  ``_add_into`` is the one in-place sum of the engine: it adds
(key, value) pairs into one map, dropping a key whose sum cancels, for
the sum of two term maps, a polynomial merge, a repeated key of a form
merge and each step of a frame's half-row fold.
A trusted term map is stored as it is, so each op whose sums can
cancel in a loop of its own (a product, a pull-back) drops its zeros with
``_nonzero``.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import add
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping, Tuple, Union

from .scalars import ONE, ZERO, GaussianRational, ScalarLike, _power

if TYPE_CHECKING:
    from fractions import Fraction

Exponents = Tuple[int, ...]

Z = "z"
ZBAR = "zb"
_KINDS = (Z, ZBAR)

PolyLike = Union[int, "Fraction", GaussianRational, "WirtingerPolynomial"]

_new = object.__new__


def _add_into(out: Dict[Hashable, GaussianRational], pairs: Iterable[Tuple[Hashable, GaussianRational]]):
    """The one in-place sum: add (key, value) pairs, such as a term map's
    ``items()``, into ``out`` and return ``out``.  A key whose sum is zero
    is dropped where the sum is formed, so a map of nonzero values stays
    one; a zero value given for a new key is kept as it is."""
    for key, value in pairs:
        prev = out.get(key)
        if prev is None:
            out[key] = value
        elif total := prev + value:
            out[key] = total
        else:
            del out[key]
    return out


def _nonzero(terms: Dict[Hashable, GaussianRational]) -> Dict[Hashable, GaussianRational]:
    """A term map with its zero values dropped, for a sum that can cancel."""
    return {key: c for key, c in terms.items() if c}


class _TermMap:
    """The protocol of a sparse term map, shared by ``WirtingerPolynomial``
    and the term store of forms (``forms._TermStore``): a dimension n and a
    map ``terms`` from keys to nonzero values.

    The validating constructor reads ``terms`` as a mapping or an iterable
    of (key, value) pairs, checks each pair and merges them, so a repeated
    key is summed.  A subclass gives ``_checked(n, key, value)``, which
    returns the checked pair or raises, ``_merged(pairs)``, which sums
    repeated keys and drops zeros, and ``_lift(other)``, an operand of
    another type as one of its own kind or an error.  The trusted
    constructor ``_trusted(n, terms)`` stores a ``dict`` as a term map and
    merges an iterable of pairs with the same ``_merged``; the validating
    constructor merges through ``_merged``, not ``_trusted``, so that each
    trusted build can be checked against it.  The sum of two term maps
    adds the right operand's terms into a copy of the left's map, and the
    n-ary sum ``_sum`` merges the terms of all its operands at once.
    ``_coerce``, the rest of the linear structure, equality and hashing
    are here too."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Union[Mapping, Iterable[Tuple[Hashable, object]], None] = None):
        if n < 1:
            raise ValueError(f"ambient dimension must be positive, got {n}")
        pairs = () if terms is None else terms.items() if isinstance(terms, Mapping) else terms
        self.n = n
        self.terms = self._merged(self._checked(n, key, value) for key, value in pairs)

    def _coerce(self, other):
        """``other`` if it is a term map of the same kind and dimension,
        else ``_lift(other)``."""
        if isinstance(other, type(self)):
            if other.n != self.n:
                raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")
            return other
        return self._lift(other)

    @classmethod
    def _trusted(cls, n: int, terms: Union[dict, Iterable[Tuple[Hashable, object]]]):
        """The constructor of the internal ops: the engine built the keys and
        values, so nothing is checked.  A ``dict`` is stored as it is, so
        its values must be nonzero: an op whose sums can cancel drops its
        zeros first (``_add_into`` as it sums, or ``_nonzero``).  An
        iterable of pairs is merged (``_merged``)."""
        out = _new(cls)
        out.n = n
        out.terms = terms if isinstance(terms, dict) else cls._merged(terms)
        return out

    @classmethod
    def _sum(cls, n: int, maps: Iterable["_TermMap"]):
        """The sum of term maps of dimension n, built once: their terms are
        merged into one map (``_merged``)."""
        return cls._trusted(n, chain.from_iterable(m.terms.items() for m in maps))

    def __add__(self, other):
        """The sum, from a copy of this term map: the other operand's terms
        are added in place (``_add_into``), which drops a sum that cancels."""
        return self._trusted(self.n, _add_into(dict(self.terms), self._coerce(other).terms.items()))

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    def __neg__(self):
        return self._trusted(self.n, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))


class WirtingerPolynomial(_TermMap):
    """Sparse exact polynomial over the variables z1..zn, zb1..zn."""

    __slots__ = ()

    @staticmethod
    def _checked(n: int, exponents: Iterable[int], coeff: ScalarLike) -> Tuple[Exponents, GaussianRational]:
        """A pair of the public constructor: an exponent vector of length 2n
        with no negative entry, and a scalar."""
        exponents = tuple(exponents)
        if len(exponents) != 2 * n:
            raise ValueError(f"exponent vector {exponents} has length {len(exponents)}, expected {2 * n}")
        if any(e < 0 for e in exponents):
            raise ValueError(f"negative exponent in {exponents}")
        return exponents, GaussianRational.coerce(coeff)

    @staticmethod
    def _merged(pairs: Iterable[Tuple[Exponents, GaussianRational]]) -> Dict[Exponents, GaussianRational]:
        """The term map of (exponents, scalar) pairs: repeated exponent
        vectors summed by ``_add_into``, zero coefficients dropped (a
        public constructor's pair may hold one)."""
        return _nonzero(_add_into({}, pairs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, n: int, value: ScalarLike) -> "WirtingerPolynomial":
        """A constant, built trusted (no term for zero); an n below 1 goes to
        the validating constructor, which rejects it."""
        value = GaussianRational.coerce(value)
        terms = {(0,) * (2 * n): value} if value else {}
        return cls._trusted(n, terms) if n > 0 else cls(n, terms)

    @classmethod
    def one(cls, n: int) -> "WirtingerPolynomial":
        return cls.constant(n, 1)

    @classmethod
    def variable(cls, n: int, kind: str, index: int) -> "WirtingerPolynomial":
        """The variable z_index or zb_index; ``_slot`` rejects any n < 1,
        since no index lies in 1..n."""
        slot = cls._slot(n, kind, index)
        exponents = [0] * (2 * n)
        exponents[slot] = 1
        return cls._trusted(n, {tuple(exponents): ONE})

    @classmethod
    def z(cls, n: int, index: int) -> "WirtingerPolynomial":
        return cls.variable(n, Z, index)

    @classmethod
    def zb(cls, n: int, index: int) -> "WirtingerPolynomial":
        return cls.variable(n, ZBAR, index)

    @staticmethod
    def _slot(n: int, kind: str, index: int) -> int:
        if kind not in _KINDS:
            raise ValueError(f"variable kind must be one of {_KINDS}, got {kind!r}")
        if not 1 <= index <= n:
            raise ValueError(f"variable index {index} out of range 1..{n}")
        return index - 1 if kind == Z else n + index - 1

    def _lift(self, value: ScalarLike) -> "WirtingerPolynomial":
        """A scalar operand as a constant polynomial; n is already checked,
        so only the scalar is."""
        return WirtingerPolynomial.constant(self.n, value)

    # -- ring operations ----------------------------------------------------

    # bound in this class's own dict, where bench/tracer.py finds the operators it counts
    __add__ = __radd__ = _TermMap.__add__

    def __rsub__(self, other: PolyLike) -> "WirtingerPolynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> "WirtingerPolynomial":
        o = self._coerce(other)
        out: Dict[Exponents, GaussianRational] = {}
        right = o.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return WirtingerPolynomial._trusted(self.n, _nonzero(out))

    __rmul__ = __mul__

    def scale(self, value: ScalarLike) -> "WirtingerPolynomial":
        c = GaussianRational.coerce(value)
        return WirtingerPolynomial._trusted(self.n, {e: k * c for e, k in self.terms.items()} if c else {})

    def __pow__(self, exponent: int) -> "WirtingerPolynomial":
        """``scalars._power``, whose products the DSL budget charges first; one(n) for 0."""
        if exponent < 0:
            raise ValueError("polynomial powers must be non-negative")
        return _power(self, exponent) if exponent else WirtingerPolynomial.one(self.n)

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "WirtingerPolynomial":
        """Complex conjugation: swap the z block with the zb block and
        conjugate every coefficient.  An involution."""
        return WirtingerPolynomial._trusted(self.n, self._conjugate_terms())

    def _conjugate_terms(self) -> Dict[Exponents, GaussianRational]:
        """The term map of the conjugate, without building the polynomial."""
        n = self.n
        return {exponents[n:] + exponents[:n]: coeff.conjugate() for exponents, coeff in self.terms.items()}

    def derivative(self, kind: str, index: int) -> "WirtingerPolynomial":
        """Formal partial derivative with respect to z_index or zb_index.

        The z and zb variables are independent, so d(zb1)/d(z1) = 0.
        """
        slot = self._slot(self.n, kind, index)
        out: Dict[Exponents, GaussianRational] = {}
        for exponents, coeff in self.terms.items():
            e = exponents[slot]
            if e == 0:
                continue
            lowered = exponents[:slot] + (e - 1,) + exponents[slot + 1 :]
            out[lowered] = coeff * e
        return WirtingerPolynomial._trusted(self.n, out)

    def substitute(self, mapping: Mapping[Tuple[str, int], "WirtingerPolynomial"]) -> "WirtingerPolynomial":
        """Substitute polynomials for variables; unmapped variables stay put.

        Keys are (kind, index) pairs.  Used for linear coordinate changes.
        """
        n = self.n
        images: Dict[int, WirtingerPolynomial] = {}
        for (kind, index), image in mapping.items():
            slot = self._slot(n, kind, index)
            images[slot] = self._coerce(image)
        out: Dict[Exponents, GaussianRational] = {}
        for exponents, coeff in self.terms.items():
            kept = tuple(0 if slot in images else e for slot, e in enumerate(exponents))
            term = WirtingerPolynomial._trusted(n, {kept: coeff})
            for slot, e in enumerate(exponents):
                if e and slot in images:
                    term = term * images[slot] ** e
            _add_into(out, term.terms.items())
        return WirtingerPolynomial._trusted(n, out)

    # -- queries -------------------------------------------------------------

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * (2 * self.n), ZERO)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def variables(self, kind: str) -> List[int]:
        """The ascending indices k of the variables z_k (or zb_k, by
        ``kind``) that occur with a positive exponent."""
        n = self.n
        first = self._slot(n, kind, 1)
        occurring = set()
        for exponents in self.terms:
            occurring.update(compress(range(1, n + 1), exponents[first : first + n]))
        return sorted(occurring)

    def __repr__(self) -> str:
        if not self.terms:
            return "<poly 0>"
        parts = []
        for exponents in sorted(self.terms, reverse=True):
            body = _variable_names(exponents, self.n)
            parts.append(f"({self.terms[exponents]}){'*' + body if body else ''}")
        return "<poly " + " + ".join(parts) + ">"


def _variable_names(exponents: Exponents, n: int) -> str:
    """The variables of a monomial, as ``z1**2*zb1``; empty for a constant."""
    names = []
    for slot, e in enumerate(exponents):
        if e == 0:
            continue
        name = f"{Z}{slot + 1}" if slot < n else f"{ZBAR}{slot - n + 1}"
        names.append(name if e == 1 else f"{name}**{e}")
    return "*".join(names)

"""Pairing functionals that separate paired-index forms from the rest.

A class dual to a complex submanifold looks, in adapted local coordinates,
like a wedge of paired factors dz^s ^ dzb^s: every dz carries its matching
dzb.  The two linear functionals here contract a form against a real
direction v, once over the dz indices and once over the dzb indices; their
difference vanishes on every real-rational combination of paired forms but
not on a form such as dz1 ^ dz2 ^ dzb3 ^ dzb4.  Real orthogonal coordinate
changes with exact rational entries let the zero verdict be re-checked in
rotated frames instead of being assumed invariant.

The projection of dz^s (and of dzb^s) on v = sum_j c_j x^j is read as the
component c_s.  This is the reading under which both displayed behaviors
come out exactly: paired forms give zero, the candidate form gives
c1 + c2 - c3 - c4.  Alternative readings of "projection" (for instance a
complex pairing against v) are conceivable but not implemented.

Both functionals, their difference and its symbolic coefficients in v are
pull-backs (``forms._pulled_back``) through a row function on keys: onto
the constant key () with one weight per key, or onto the indices j with
1 and -1.  Directions and frame matrices hold real ``GaussianRational``s,
the engine's one exact number type.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from .forms import Form, MultiIndex, _Frame, _pulled_back
from .scalars import MINUS_ONE, ONE, ZERO, GaussianRational, parse_scalar
from .wpoly import WirtingerPolynomial, Z, ZBAR

if TYPE_CHECKING:
    from fractions import Fraction

RationalLike = Union[int, str, "Fraction", GaussianRational]


def _real(value: RationalLike) -> GaussianRational:
    """A real rational as a ``GaussianRational``: a string in the
    ``parse_scalar`` grammar, or an int, ``Fraction`` or real scalar."""
    try:
        scalar = parse_scalar(value) if isinstance(value, str) else GaussianRational.coerce(value)
    except TypeError:
        raise TypeError(f"cannot interpret {value!r} as an exact rational") from None
    if scalar != scalar.conjugate():
        raise ValueError(f"{value!r} is not a real rational")
    return scalar


class Direction(NamedTuple("Direction", [("n", int), ("components", Tuple[GaussianRational, ...])])):
    """A real rational vector v = sum_j c_j x^j, not all components zero."""

    __slots__ = ()

    def __new__(cls, n: int, components: Iterable[RationalLike]) -> "Direction":
        if n < 1:
            raise ValueError("dimension must be positive")
        components = tuple(_real(c) for c in components)
        if len(components) != n:
            raise ValueError(f"expected {n} components, got {len(components)}")
        if not any(components):
            raise ValueError("direction must have at least one nonzero component")
        return super().__new__(cls, n, components)

    @classmethod
    def basis(cls, n: int, index: int) -> "Direction":
        if not 1 <= index <= n:
            raise ValueError(f"basis index {index} out of range 1..{n}")
        return cls(n, tuple(ONE if j == index else ZERO for j in range(1, n + 1)))

    @classmethod
    def parse(cls, text: str, n: int) -> "Direction":
        """Parse the CLI syntax: comma-separated rationals, e.g. "1,0,-1/2,0".

        Each component is read by ``parse_scalar``, the metric-file grammar,
        and must have no imaginary part."""
        parts = text.split(",")
        if len(parts) != n:
            raise ValueError(f"direction {text!r} has {len(parts)} components, expected {n}")
        return cls(n, parts)

    def component(self, index: int) -> GaussianRational:
        return self.components[index - 1]


def _axis(n: int, axis: int) -> int:
    """A coordinate axis of a frame builder, checked to lie in 1..n."""
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} out of range 1..{n}")
    return axis


class RealOrthogonalMatrix:
    """An exact rational matrix with A^T A = I.

    Supported constructions (permutations, sign flips, Pythagorean 2x2
    rotation blocks and their products) keep every entry rational, so all
    transformed verdicts stay exact.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence[RationalLike]]):
        rows = tuple(tuple(_real(v) for v in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("orthogonal matrix must be square and non-empty")
        for i in range(n):
            for j in range(n):
                dot = sum(rows[k][i] * rows[k][j] for k in range(n))
                if dot != (1 if i == j else 0):
                    raise ValueError(
                        f"matrix is not orthogonal: column {i + 1} . column {j + 1} = {dot}"
                    )
        self.n = n
        self.entries = rows

    @classmethod
    def identity(cls, n: int) -> "RealOrthogonalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def permutation(cls, order: Sequence[int]) -> "RealOrthogonalMatrix":
        """Rows of the identity re-ordered; order is 1-based."""
        n = len(order)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"{order} is not a permutation of 1..{n}")
        return cls([[1 if order[i] == j + 1 else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def sign_flip(cls, n: int, flipped: Iterable[int]) -> "RealOrthogonalMatrix":
        flipped = {_axis(n, k) for k in flipped}
        return cls(
            [[(-1 if i + 1 in flipped else 1) if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def rotation(cls, n: int, axis_a: int, axis_b: int, cos: RationalLike, sin: RationalLike) -> "RealOrthogonalMatrix":
        """Plane rotation with exact rational cosine and sine, e.g. 3/5 and 4/5."""
        if _axis(n, axis_a) == _axis(n, axis_b):
            raise ValueError(f"rotation axes must differ, got axis {axis_a} twice")
        c, s = _real(cos), _real(sin)
        if c * c + s * s != 1:
            raise ValueError(f"({c}, {s}) is not on the rational unit circle")
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        i, j = axis_a - 1, axis_b - 1
        rows[i][i], rows[i][j] = c, s
        rows[j][i], rows[j][j] = -s, c
        return cls(rows)

    def compose(self, other: "RealOrthogonalMatrix") -> "RealOrthogonalMatrix":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        n = self.n
        return RealOrthogonalMatrix(
            [[sum(self.entries[i][k] * other.entries[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RealOrthogonalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(str(v) for v in row) for row in self.entries)
        return f"RealOrthogonalMatrix[{rows}]"


def pr_plus(form: Form, direction: Direction) -> WirtingerPolynomial:
    """Contract the dz indices against v: each term contributes its
    coefficient times sum of c_s over s in I.  Linear in the form."""
    return _pr(form, direction, 1, 0)


def pr_minus(form: Form, direction: Direction) -> WirtingerPolynomial:
    """Contract the dzb indices against v: each term contributes its
    coefficient times sum of c_s over s in J."""
    return _pr(form, direction, 0, 1)


def obstruction(form: Form, direction: Direction) -> WirtingerPolynomial:
    """The separating functional pr_plus - pr_minus; exact zero test."""
    return _pr(form, direction, 1, -1)


def _pr(form: Form, direction: Direction, plus: int, minus: int) -> WirtingerPolynomial:
    """plus * pr_plus + minus * pr_minus, one pull-back onto the constant
    key (): a key (I, J) goes there with the weight plus * sum of c_s over
    I + minus * sum of c_s over J, and a zero weight gives an empty row."""
    if direction.n != form.n:
        raise ValueError(f"direction dimension {direction.n} != form dimension {form.n}")
    c = direction.components

    def row(key):
        weight = plus * sum(c[s - 1] for s in key[0]) + minus * sum(c[s - 1] for s in key[1])
        return [((), weight)] if weight else []

    return _pulled_back(form.n, form.terms, row).get((), WirtingerPolynomial.zero(form.n))


def obstruction_direction_coefficients(form: Form) -> Dict[int, WirtingerPolynomial]:
    """Coefficients of the obstruction as a symbolic linear function of v.

    The functional is linear in v: a key (I, J) contributes its coefficient
    times c_j for j in I but not J, and times -c_j for j in J but not I.  So
    one pull-back onto the indices j gives the whole symbolic expression,
    obstruction(form, v) equals sum_j c_j * result[j], in ascending j.
    Keys with zero value are dropped, so an empty dict means the
    obstruction vanishes identically in v.
    """

    def row(key):
        I, J = key
        return [(j, ONE) for j in I if j not in J] + [(j, MINUS_ONE) for j in J if j not in I]

    return dict(sorted(_pulled_back(form.n, form.terms, row).items()))


def paired_class_form(indices: Iterable[int], coeff, n: int) -> Form:
    """The local normal form of a paired-index class representative:
    coeff * product over s of (dz^s ^ dzb^s), in canonical order."""
    index_tuple: MultiIndex = tuple(sorted(set(indices)))
    if not index_tuple:
        raise ValueError("paired class form needs at least one index")
    factors = []
    for s in index_tuple:
        if not 1 <= s <= n:
            raise ValueError(f"paired index {s} out of range 1..{n}")
        factors.append((Z, s))
        factors.append((ZBAR, s))
    return Form.from_factors(n, factors, coeff)


def transform_form(form: Form, matrix: RealOrthogonalMatrix) -> Form:
    """Rewrite a form in a rotated real-orthogonal frame.

    Differentials and variables transform with the same real entries:
    dz^j becomes sum_m a[j][m] dz^m, and z^j becomes sum_m a[j][m] z^m,
    likewise for the barred copies: the differentials go through the change
    of generators ``forms._Frame(a, a)``, whose rows are the minors of a.
    A variable's image sums only the nonzero entries of its row, and a
    constant coefficient is kept as it is.
    The result is an ordinary form read in the primed frame.
    """
    n = form.n
    if matrix.n != n:
        raise ValueError(f"matrix dimension {matrix.n} != form dimension {n}")
    substitution = {}
    for j, row in enumerate(matrix.entries, start=1):
        for kind in (Z, ZBAR):
            variables = (WirtingerPolynomial.variable(n, kind, m).scale(a) for m, a in enumerate(row, start=1) if a)
            substitution[(kind, j)] = WirtingerPolynomial._sum(n, variables)
    substituted = {key: coeff if coeff.is_constant() else coeff.substitute(substitution) for key, coeff in form.terms.items()}
    frame = _Frame(matrix.entries, matrix.entries)
    return Form._trusted(n, _pulled_back(n, substituted, frame.image))


def _holomorphic_in(poly: WirtingerPolynomial, allowed: Tuple[int, ...], which: str) -> None:
    """Raise unless a polynomial uses only the allowed z-variables and no zb
    variable at all, naming the first offending variable."""
    outside = [f"z{k}" for k in poly.variables(Z) if k not in allowed] + [f"zb{k}" for k in poly.variables(ZBAR)]
    if outside:
        names = ", ".join(f"z{k}" for k in allowed)
        raise ValueError(f"{which} factor must be holomorphic in {names} only; it uses {outside[0]}")


def k3_product_form(
    factor_one: WirtingerPolynomial,
    factor_two: WirtingerPolynomial,
    n: int = 4,
) -> Form:
    """Build the (2,2)-form factor_one * conj(factor_two) on
    dz1 ^ dz2 ^ dzb3 ^ dzb4 out of two holomorphic block factors.

    factor_one may depend only on z1, z2 and factor_two only on z3, z4;
    the wedge of factor_one * dz1 ^ dz2 with the conjugate of
    factor_two * dz3 ^ dz4 then lands on the single mixed-index monomial.
    """
    if n < 4:
        raise ValueError("the product construction needs at least 4 coordinates")
    if factor_one.n != n or factor_two.n != n:
        raise ValueError(f"factors must live in ambient dimension {n}")
    _holomorphic_in(factor_one, (1, 2), "first")
    _holomorphic_in(factor_two, (3, 4), "second")
    left = Form.term(n, (1, 2), (), factor_one)
    right = Form.term(n, (3, 4), (), factor_two).conjugate()
    return left.wedge(right)


class DirectionVerdict(NamedTuple):
    direction: Direction
    value: WirtingerPolynomial
    is_zero: bool


class FrameVerdict(NamedTuple):
    frame: str
    verdicts: Tuple[DirectionVerdict, ...]

    @property
    def all_zero(self) -> bool:
        return all(v.is_zero for v in self.verdicts)


class FrameReport(NamedTuple):
    """Obstruction verdicts for one form across rotated frames."""

    frames: Tuple[FrameVerdict, ...]

    @property
    def all_zero(self) -> bool:
        return all(f.all_zero for f in self.frames)

    @property
    def zero_verdict_stable(self) -> bool:
        """True when every frame agrees with the original frame's verdict."""
        reference = self.frames[0].all_zero
        return all(f.all_zero == reference for f in self.frames)


def lemma34_scenario(
    form: Form,
    directions: Sequence[Direction],
    transforms: Sequence[RealOrthogonalMatrix] = (),
) -> FrameReport:
    """Evaluate the obstruction in the given frame and in every rotated
    frame, reporting zero/nonzero per direction.

    Nothing cohomological is concluded here: the report only records the
    algebraic functional values.  Whether the zero verdict survives all
    real orthogonal frames for arbitrary forms is an experiment this
    runner can execute, not a claimed invariant.
    """
    frames: List[FrameVerdict] = []

    def evaluate(label: str, candidate: Form) -> None:
        verdicts = []
        for v in directions:
            value = obstruction(candidate, v)
            verdicts.append(DirectionVerdict(direction=v, value=value, is_zero=value.is_zero()))
        frames.append(FrameVerdict(frame=label, verdicts=tuple(verdicts)))

    evaluate("standard", form)
    for idx, matrix in enumerate(transforms, start=1):
        evaluate(f"transform_{idx}", transform_form(form, matrix))
    return FrameReport(frames=tuple(frames))


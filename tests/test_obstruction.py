import random
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _factors, brute_pull_back, forms, matrix_images, random_form
from pqforms import (
    Direction,
    Form,
    GaussianRational,
    HermitianMetric,
    RealOrthogonalMatrix,
    WirtingerPolynomial,
    gaussian,
    harmonic_check,
    k3_product_form,
    lemma34_scenario,
    obstruction,
    obstruction_direction_coefficients,
    paired_class_form,
    pr_minus,
    pr_plus,
    transform_form,
)
from pqforms.scenarios import scenario_transforms
from pqforms.wpoly import Z, ZBAR


def e(n, j):
    return Direction.basis(n, j)


def test_direction_validation():
    with pytest.raises(ValueError, match="dimension must be positive"):
        Direction(0, ())
    with pytest.raises(ValueError, match="at least one nonzero component"):
        Direction(2, (Fraction(0), "0/3"))
    with pytest.raises(ValueError, match="expected 2 components, got 1"):
        Direction(2, (1,))
    with pytest.raises(ValueError):
        Direction.parse("1,2", 3)
    components = Direction.parse("1,-1/2", 2).components
    assert components == (Fraction(1), Fraction(-1, 2)) and all(type(c) is GaussianRational for c in components)


# Components are read in the metric-file scalar grammar: an exponent, a decimal
# point, a digit separator or an imaginary part is refused before any arithmetic.
@pytest.mark.parametrize("text", ["1e999999999,1", "1.5,1", "1e3,1", "1_0,1", "2i,1"])
def test_direction_components_outside_the_rational_grammar_are_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a real rational|invalid scalar literal"):
        Direction.parse(text, 2)
    assert time.perf_counter() - start < 1


def test_pr_on_paired_term():
    n = 2
    form = Form.term(n, (1,), (1,), 1)
    v = Direction.parse("3,5", n)
    assert pr_plus(form, v) == WirtingerPolynomial.constant(n, 3)
    assert pr_minus(form, v) == WirtingerPolynomial.constant(n, 3)


def test_pr_plus_block_form_scales_coefficient():
    n = 4
    f = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 4)
    form = Form.term(n, (1, 2), (3, 4), f)
    v = Direction.parse("2,3,-1,7", n)
    assert pr_plus(form, v) == f.scale(5)  # c1 + c2
    assert pr_minus(form, v) == f.scale(6)  # c3 + c4


def test_pr_of_zero_form():
    assert pr_plus(Form.zero(3), e(3, 1)).is_zero()


def test_obstruction_of_paired_forms_vanishes():
    n = 2
    paired = Form.term(n, (1, 2), (1, 2), 1)  # dz1^dzb1^dz2^dzb2 canonicalized
    for v in (e(n, 1), e(n, 2), Direction.parse("1,1", n), Direction.parse("2,-5/3", n)):
        assert obstruction(paired, v).is_zero()


def test_obstruction_of_candidate_form():
    n = 4
    candidate = Form.term(n, (1, 2), (3, 4), 1)
    assert obstruction(candidate, e(n, 1)) == WirtingerPolynomial.one(n)
    coefficients = obstruction_direction_coefficients(candidate)
    assert coefficients == {
        1: WirtingerPolynomial.one(n),
        2: WirtingerPolynomial.one(n),
        3: WirtingerPolynomial.constant(n, -1),
        4: WirtingerPolynomial.constant(n, -1),
    }


def test_obstruction_linearity():
    rng = random.Random(61)
    n = 3
    v = Direction.parse("2,-1,1/3", n)
    for _ in range(20):
        a = random_form(rng, n)
        b = random_form(rng, n)
        alpha, beta = Fraction(3, 2), Fraction(-2)
        combined = a.scale(gaussian(alpha)) + b.scale(gaussian(beta))
        expected = obstruction(a, v).scale(gaussian(alpha)) + obstruction(b, v).scale(gaussian(beta))
        assert obstruction(combined, v) == expected


@st.composite
def directions(draw, n: int):
    """A real rational direction of dimension n, its components Fractions or strings."""
    values = draw(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=n, max_size=n).filter(any))
    return Direction(n, [draw(st.sampled_from((value, str(value)))) for value in values])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_functionals_match_their_sums_and_the_symbolic_coefficients(data):
    form = data.draw(forms(n=data.draw(st.integers(1, 4))))
    n = form.n
    v = data.draw(directions(n))
    zero = WirtingerPolynomial.zero(n)
    # the docstrings' sums: each term's coefficient times the sum of c_s over I (over J)
    for functional, side in ((pr_plus, 0), (pr_minus, 1)):
        written_out = zero
        for key, coeff in form.terms.items():
            written_out = written_out + coeff.scale(sum(v.component(s) for s in key[side]))
        assert functional(form, v) == written_out
    value = obstruction(form, v)
    assert value == pr_plus(form, v) - pr_minus(form, v)
    coefficients = obstruction_direction_coefficients(form)
    assert list(coefficients) == sorted(coefficients) and all(coefficients.values())
    assert value == sum((poly.scale(v.component(j)) for j, poly in coefficients.items()), zero)
    for j in range(1, n + 1):
        assert coefficients.get(j, zero) == obstruction(form, Direction.basis(n, j))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_directions_and_matrices_round_trip_through_their_own_scalars(data):
    n = data.draw(st.integers(1, 4))
    v = data.draw(directions(n))
    assert Direction(n, v.components) == v
    matrix = data.draw(orthogonal_matrices(n))
    assert RealOrthogonalMatrix(matrix.entries) == matrix
    # each component equals, hashes and prints as the Fraction it replaces
    for c in v.components + matrix.entries[0]:
        assert type(c) is GaussianRational
        assert c == c.re and hash(c) == hash(c.re) and str(c) == str(c.re)


def test_paired_class_form_canonical_order():
    built = paired_class_form({3, 4}, 1, 4)
    direct = Form.from_factors(4, [("z", 3), ("zb", 3), ("z", 4), ("zb", 4)], 1)
    assert built == direct
    assert paired_class_form({1}, 1, 1) == Form.term(1, (1,), (1,), 1)


def test_paired_class_forms_have_symbolically_zero_obstruction():
    n = 4
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            form = paired_class_form(subset, 1, n)
            assert obstruction_direction_coefficients(form) == {}


def test_transform_identity():
    rng = random.Random(67)
    a = random_form(rng, 3)
    assert transform_form(a, RealOrthogonalMatrix.identity(3)) == a


def test_transform_rotation_of_dz1():
    matrix = RealOrthogonalMatrix([["3/5", "4/5"], ["-4/5", "3/5"]])
    image = transform_form(Form.term(2, (1,), (), 1), matrix)
    expected = Form.term(2, (1,), (), gaussian(Fraction(3, 5))) + Form.term(
        2, (2,), (), gaussian(Fraction(4, 5))
    )
    assert image == expected


def test_transform_fixes_paired_one_one_sum():
    n = 2
    invariant = Form.term(n, (1,), (1,), 1) + Form.term(n, (2,), (2,), 1)
    for matrix in (
        RealOrthogonalMatrix([["3/5", "4/5"], ["-4/5", "3/5"]]),
        RealOrthogonalMatrix.permutation([2, 1]),
        RealOrthogonalMatrix.sign_flip(2, [1]),
    ):
        assert transform_form(invariant, matrix) == invariant


def test_transform_preserves_wedge():
    rng = random.Random(71)
    matrix = RealOrthogonalMatrix.rotation(3, 1, 3, "5/13", "12/13")
    for _ in range(10):
        a = random_form(rng, 3, max_terms=2, max_degree=1)
        b = random_form(rng, 3, max_terms=2, max_degree=1)
        assert transform_form(a.wedge(b), matrix) == transform_form(a, matrix).wedge(
            transform_form(b, matrix)
        )


def test_transform_substitutes_variables():
    n = 2
    matrix = RealOrthogonalMatrix.permutation([2, 1])
    form = Form.from_scalar(n, WirtingerPolynomial.z(n, 1))
    assert transform_form(form, matrix) == Form.from_scalar(n, WirtingerPolynomial.z(n, 2))



@st.composite
def orthogonal_matrices(draw, n: int):
    """A product of one to three exact rotations, permutations and sign flips."""
    matrix = RealOrthogonalMatrix.identity(n)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("rotation", "permutation", "sign_flip") if n > 1 else ("sign_flip",)))
        if kind == "rotation":
            a, b = draw(st.permutations(range(1, n + 1)))[:2]
            cos, sin = draw(st.sampled_from((("3/5", "4/5"), ("5/13", "12/13"))))
            factor = RealOrthogonalMatrix.rotation(n, a, b, cos, sin)
        elif kind == "permutation":
            factor = RealOrthogonalMatrix.permutation(draw(st.permutations(range(1, n + 1))))
        else:
            factor = RealOrthogonalMatrix.sign_flip(n, draw(st.sets(st.integers(1, n))))
        matrix = matrix.compose(factor)
    return matrix


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transform_form_matches_the_unmemoized_pull_back(data):
    # z^j and zb^j go to sum_m a[j][m] z^m and sum_m a[j][m] zb^m in the
    # coefficients, dz^j and dzb^j to the same sums of differentials
    form = data.draw(forms(max_terms=3, max_degree=2))
    n = form.n
    matrix = data.draw(orthogonal_matrices(n))
    a = matrix.entries
    substitution = {
        (kind, j): sum((WirtingerPolynomial.variable(n, kind, m).scale(a[j - 1][m - 1]) for m in range(1, n + 1)), WirtingerPolynomial.zero(n))
        for kind in (Z, ZBAR)
        for j in range(1, n + 1)
    }
    substituted = {key: coeff.substitute(substitution) for key, coeff in form.terms.items()}
    unit, images = matrix_images(n, a, a)
    assert transform_form(form, matrix) == brute_pull_back(substituted, _factors, unit, lambda c: c, images)


def test_transform_scales_only_by_nonzero_entries(monkeypatch):
    # the first scenario rotation at n = 4 has 6 nonzero entries of 16: one
    # scaled variable per nonzero entry and kind, and the constant
    # coefficient is not substituted into
    matrix = scenario_transforms()[0]
    form = Form.term(4, (1, 2), (3, 4), 1)
    scales, substitutions = [], []
    scale, substitute = WirtingerPolynomial.scale, WirtingerPolynomial.substitute

    def counted_scale(self, value):
        scales.append(value)
        return scale(self, value)

    def counted_substitute(self, mapping):
        substitutions.append(mapping)
        return substitute(self, mapping)

    monkeypatch.setattr(WirtingerPolynomial, "scale", counted_scale)
    monkeypatch.setattr(WirtingerPolynomial, "substitute", counted_substitute)
    image = transform_form(form, matrix)
    monkeypatch.undo()
    assert len(scales) == 2 * sum(bool(a) for row in matrix.entries for a in row) == 12
    assert all(scales) and not substitutions
    unit, images = matrix_images(4, matrix.entries, matrix.entries)
    assert image == brute_pull_back(form.terms, _factors, unit, lambda c: c, images)


def test_non_orthogonal_matrix_rejected():
    with pytest.raises(ValueError):
        RealOrthogonalMatrix([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        RealOrthogonalMatrix.rotation(2, 1, 2, "1/2", "1/2")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RealOrthogonalMatrix.rotation(4, 0, 2, "3/5", "4/5"), "axis 0 out of range 1..4"),
        (lambda: RealOrthogonalMatrix.rotation(4, 1, 5, "3/5", "4/5"), "axis 5 out of range 1..4"),
        (lambda: RealOrthogonalMatrix.rotation(4, 3, 3, "3/5", "4/5"), "rotation axes must differ, got axis 3 twice"),
        (lambda: RealOrthogonalMatrix.sign_flip(3, [0, 7]), "axis 0 out of range 1..3"),
        (lambda: RealOrthogonalMatrix.sign_flip(3, [7]), "axis 7 out of range 1..3"),
    ],
)
def test_frame_builders_reject_bad_axes(build, message):
    # a bad axis would otherwise index from the end, raise an IndexError or
    # be ignored
    with pytest.raises(ValueError, match=message):
        build()


def test_k3_product_form_unit_factors():
    n = 4
    one = WirtingerPolynomial.one(n)
    assert k3_product_form(one, one) == Form.term(n, (1, 2), (3, 4), 1)


def test_k3_product_form_variable_factors():
    n = 4
    f1 = WirtingerPolynomial.z(n, 1)
    f2 = WirtingerPolynomial.z(n, 3)
    expected_coeff = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 3)
    assert k3_product_form(f1, f2) == Form.term(n, (1, 2), (3, 4), expected_coeff)


def test_k3_product_form_rejects_antiholomorphic_factor():
    n = 4
    with pytest.raises(ValueError) as err:
        k3_product_form(WirtingerPolynomial.zb(n, 1), WirtingerPolynomial.one(n))
    assert "zb1" in str(err.value)
    with pytest.raises(ValueError) as err:
        k3_product_form(WirtingerPolynomial.one(n), WirtingerPolynomial.z(n, 1))
    assert "z1" in str(err.value)


def test_k3_product_form_harmonic_for_constants():
    n = 4
    metric = HermitianMetric.identity(n)
    for c1, c2 in ((1, 1), (3, -2), (gaussian(0, 1), gaussian(2, 5))):
        psi = k3_product_form(
            WirtingerPolynomial.constant(n, c1), WirtingerPolynomial.constant(n, c2)
        )
        assert harmonic_check(psi, metric).harmonic


def test_lemma34_scenario_paired_combination():
    n = 4
    rng = random.Random(73)
    weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
    combo = Form.zero(n)
    subsets = [(1,), (2, 3), (1, 4), (1, 2, 3), (1, 2, 3, 4)]
    for w, subset in zip(weights, subsets):
        combo = combo + paired_class_form(subset, gaussian(w), n)
    directions = [e(n, j) for j in range(1, 5)] + [Direction.parse("1,2,-3,1/2", n)]
    report = lemma34_scenario(combo, directions, scenario_transforms())
    assert report.all_zero
    assert report.zero_verdict_stable
    assert len(report.frames) == 4


def test_lemma34_scenario_candidate_nonzero():
    n = 4
    candidate = Form.term(n, (1, 2), (3, 4), 1)
    report = lemma34_scenario(candidate, [e(n, 1)])
    assert not report.frames[0].all_zero


def test_lemma34_scenario_zero_form():
    report = lemma34_scenario(Form.zero(4), [e(4, 1)], scenario_transforms())
    assert report.all_zero


_I2, _I3 = RealOrthogonalMatrix.identity(2), RealOrthogonalMatrix.identity(3)
_ONE3, _ONE4, _ONE5 = (WirtingerPolynomial.one(n) for n in (3, 4, 5))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Direction.basis(2, 3), ValueError, "basis index 3 out of range 1..2"),
        (lambda: Direction(1, [1.5]), TypeError, "cannot interpret 1.5 as an exact rational"),
        (lambda: Direction(2, [1, gaussian(1, 2)]), ValueError, "GaussianRational(1, 2) is not a real rational"),
        (lambda: RealOrthogonalMatrix([[gaussian(0, 1)]]), ValueError, "GaussianRational(0, 1) is not a real rational"),
        (lambda: RealOrthogonalMatrix([]), ValueError, "orthogonal matrix must be square and non-empty"),
        (lambda: RealOrthogonalMatrix([[1, 0]]), ValueError, "orthogonal matrix must be square and non-empty"),
        (lambda: RealOrthogonalMatrix.permutation([1, 1]), ValueError, "[1, 1] is not a permutation of 1..2"),
        (lambda: _I2.compose(_I3), ValueError, "dimension mismatch"),
        (lambda: obstruction(Form.term(2, (1,), (1,), 1), Direction.basis(3, 1)), ValueError, "direction dimension 3 != form dimension 2"),
        (lambda: paired_class_form([], 1, 2), ValueError, "paired class form needs at least one index"),
        (lambda: paired_class_form([3], 1, 2), ValueError, "paired index 3 out of range 1..2"),
        (lambda: transform_form(Form.term(2, (1,), (), 1), _I3), ValueError, "matrix dimension 3 != form dimension 2"),
        (lambda: k3_product_form(_ONE3, _ONE3, 3), ValueError, "the product construction needs at least 4 coordinates"),
        (lambda: k3_product_form(_ONE5, _ONE4, 4), ValueError, "factors must live in ambient dimension 4"),
    ],
)
def test_input_checks(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_orthogonal_matrix_equality_and_repr():
    rotation = RealOrthogonalMatrix.rotation(2, 1, 2, "3/5", "4/5")
    assert rotation == RealOrthogonalMatrix([["3/5", "4/5"], ["-4/5", "3/5"]])
    assert rotation != _I2 and rotation.__eq__(1) is NotImplemented
    assert repr(rotation) == "RealOrthogonalMatrix[3/5, 4/5; -4/5, 3/5]"

import random
import re
from fractions import Fraction
from importlib import import_module
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _factors, brute_parity, brute_pull_back, forms, homogeneous_forms, matrix_images, multi_indices, polys, random_dense_metric, random_form, recording_trusted, scalars
from pqforms import (
    Form,
    GaussianRational,
    RealForm,
    RealOrthogonalMatrix,
    WirtingerPolynomial,
    exterior_d,
    gaussian,
    hodge_star,
    oracle_star,
    raise_indices,
    complexify,
    defining_identity_check,
    real_hodge_star,
    realify,
    transform_form,
    volume_form,
)
from pqforms import realoracle
from pqforms.forms import _Frame, _key_product, _merged, _pulled_back, _shuffled, _term_key, complement
from pqforms.realoracle import _Codec
from pqforms.wpoly import Z, ZBAR


def test_repeated_factor_vanishes():
    assert Form.from_factors(1, [(Z, 1), (Z, 1)], 1).is_zero()


def test_single_transposition_sign():
    built = Form.from_factors(1, [(ZBAR, 1), (Z, 1)], 1)
    assert built == Form.term(1, (1,), (1,), -1)


def test_canonicalization_sign_matches_brute_parity():
    # factors dz1, dzb3, dz2 sort with one out-of-order pair
    factors = [(Z, 1), (ZBAR, 3), (Z, 2)]
    keys = [(0, k) if kind == Z else (1, k) for kind, k in factors]
    assert brute_parity(keys) == -1
    built = Form.from_factors(3, factors, 1)
    assert built == Form.term(3, (1, 2), (3,), -1)


def test_factor_index_out_of_range():
    with pytest.raises(ValueError):
        Form.from_factors(2, [(Z, 3)], 1)


def test_a_single_index_half_row_multiplies_nothing(monkeypatch):
    # the half row of one index is its generator's row, not a fold from {(): 1}
    calls = []
    multiply = GaussianRational.__mul__
    monkeypatch.setattr(GaussianRational, "__mul__", lambda self, other: calls.append(other) or multiply(self, other))
    g = [[2, gaussian(0, 1), 0], [0, 1, Fraction(1, 2)], [3, 0, 1]]
    frame = _Frame(g, list(zip(*g)))
    for side, rows in enumerate((g, list(zip(*g)))):
        for k, row in enumerate(rows, 1):
            assert frame._half(side, (k,)) == {(a,): c for a, c in enumerate(row, 1) if c}
    assert frame._half(0, ()) == {(): 1}
    assert calls == []


def test_wedge_square_is_zero():
    dz1 = Form.term(2, (1,), (), 1)
    assert dz1.wedge(dz1).is_zero()


def test_wedge_of_block_factors():
    n = 4
    f1 = WirtingerPolynomial.z(n, 1)
    f2 = WirtingerPolynomial.zb(n, 3)
    left = Form.term(n, (1, 2), (), f1)
    right = Form.term(n, (), (3, 4), f2)
    assert left.wedge(right) == Form.term(n, (1, 2), (3, 4), f1 * f2)


def test_wedge_transposition_sign():
    n = 2
    left = Form.term(n, (1,), (1,), 1)
    right = Form.term(n, (2,), (2,), 1)
    assert left.wedge(right) == Form.term(n, (1, 2), (1, 2), -1)


def test_equal_forms_from_different_op_orders_hash_equal():
    n = 3
    z2, zb1 = WirtingerPolynomial.z(n, 2), WirtingerPolynomial.zb(n, 1)
    inputs = [
        (Form.term(n, (1,), (), z2), Form.term(n, (), (2,), 1), Form.term(n, (3,), (1,), zb1)),
        (RealForm.term(n, (1,), z2), RealForm.term(n, (4,), 1), RealForm.term(n, (2, 5), zb1)),
    ]
    for a, b, c in inputs:
        # a and b have degree 1 and c degree 2, so a^b = -b^a and a^c = c^a
        built = [a.wedge(b + c), a.wedge(c) + a.wedge(b), c.wedge(a) - b.wedge(a), (c - b).wedge(a)]
        assert all(f == built[0] for f in built)
        assert len({hash(f) for f in built}) == 1
        assert len(set(built)) == 1


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        Form.term(1, (1,), (), 1).wedge(Form.term(2, (1,), (), 1))


def test_conjugate_of_holomorphic_block():
    n = 4
    f = WirtingerPolynomial.z(n, 3) * WirtingerPolynomial.z(n, 4)
    form = Form.term(n, (3, 4), (), f)
    assert form.conjugate() == Form.term(n, (), (3, 4), f.conjugate())


def test_conjugate_with_reordering_sign():
    # conj(i*dz1^dzb2) picks up (-1)^{|I||J|} = -1 besides the scalar conjugation
    form = Form.term(2, (1,), (2,), gaussian(0, 1))
    assert form.conjugate() == Form.term(2, (2,), (1,), gaussian(0, 1))


@given(forms())
def test_conjugate_is_involution(a):
    assert a.conjugate().conjugate() == a


def test_component_extraction():
    n = 1
    mixed = Form.term(n, (1,), (), 1) + Form.term(n, (1,), (1,), 1)
    assert mixed.component(1, 0) == Form.term(n, (1,), (), 1)
    assert mixed.component(0, 1).is_zero()
    assert Form.zero(n).component(2, 2).is_zero()


@given(forms(n=2))
def test_components_reassemble(a):
    total = Form.zero(a.n)
    for p in range(a.n + 1):
        for q in range(a.n + 1):
            total = total + a.component(p, q)
    assert total == a


@settings(max_examples=50)
@given(homogeneous_forms(n=3), homogeneous_forms(n=3))
def test_graded_anticommutativity(a, b):
    if a.is_zero() or b.is_zero():
        return
    deg_a = sum(a.homogeneous_bidegree())
    deg_b = sum(b.homogeneous_bidegree())
    sign = -1 if (deg_a * deg_b) % 2 else 1
    assert a.wedge(b) == (b.wedge(a) if sign == 1 else -b.wedge(a))


@settings(max_examples=40)
@given(forms(n=3, max_terms=2), forms(n=3, max_terms=2), forms(n=3, max_terms=2))
def test_wedge_associativity(a, b, c):
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@given(forms(n=3))
def test_conjugation_swaps_bidegrees(a):
    for p in range(4):
        for q in range(4):
            assert a.conjugate().component(p, q) == a.component(q, p).conjugate()


def test_recanonicalization_is_identity():
    rng = random.Random(7)
    for _ in range(25):
        a = random_form(rng, 3)
        rebuilt = Form.zero(a.n)
        for (I, J), coeff in a.terms.items():
            factors = [(Z, k) for k in I] + [(ZBAR, k) for k in J]
            rebuilt = rebuilt + Form.from_factors(a.n, factors, coeff)
        assert rebuilt == a


def _subsets(n):
    return [K for k in range(n + 1) for K in combinations(range(1, n + 1), k)]


def _keys(n):
    return [(I, J) for I in _subsets(n) for J in _subsets(n)]


def test_shuffled_matches_brute_parity():
    # every pair of subsets of 1..6, disjoint or not
    subsets = _subsets(6)
    for a in subsets:
        for b in subsets:
            merged, sign = _shuffled(a, b)
            assert sign == brute_parity(a + b)
            if sign:
                assert merged == tuple(sorted(a + b))


def test_key_product_matches_a_flat_sort():
    # dz_k is k and dzb_k is n + k in one flat tuple, sorted and signed by brute_parity
    for n in range(1, 4):
        keys = _keys(n)
        for left in keys:
            for right in keys:
                flat = [k for I, J in (left, right) for k in I + tuple(n + j for j in J)]
                key, sign = _key_product(left, right)
                assert sign == brute_parity(flat)
                if sign:
                    flat.sort()
                    assert key == (tuple(k for k in flat if k <= n), tuple(k - n for k in flat if k > n))


def test_from_factors_matches_brute_parity_in_every_order():
    # every order of up to 5 of these factors; dz2 is in the pool twice, so
    # some orders repeat a factor and must give zero
    pool = [(Z, 2), (ZBAR, 1), (Z, 3), (ZBAR, 3), (Z, 1), (Z, 2)]
    for size in range(len(pool)):
        for factors in permutations(pool, size):
            sign = brute_parity([(0 if kind == Z else 1, k) for kind, k in factors])
            I = tuple(sorted(k for kind, k in factors if kind == Z))
            J = tuple(sorted(k for kind, k in factors if kind == ZBAR))
            expected = Form.term(3, I, J, sign) if sign else Form.zero(3)
            assert Form.from_factors(3, factors, 1) == expected


def test_codec_sign_matches_an_inversion_count():
    # dz_i sits in slot 2i - 1 and dzb_j in slot 2j; the key writes I, then J
    for n in range(1, 5):
        for I, J in _keys(n):
            assert _Codec._sign((I, J)) == brute_parity([2 * i - 1 for i in I] + [2 * j for j in J])


def test_conjugate_sign_is_the_key_product_sign():
    # conj(dz^I ^ dzb^J) = dzb^I ^ dz^J, reordered to dz^J ^ dzb^I
    for n in range(1, 4):
        for I, J in _keys(n):
            key, sign = _key_product(((), I), (J, ()))
            assert key == (J, I)
            assert Form.term(n, I, J, 1).conjugate() == Form.term(n, J, I, sign)


def test_complement():
    assert complement((2, 4), 5) == ((1, 3, 5), -1)
    assert complement((), 3) == ((1, 2, 3), 1)
    for m in range(9):
        for k in range(m + 1):
            for K in combinations(range(1, m + 1), k):
                rest, sign = complement(K, m)
                assert sorted(K + rest) == list(range(1, m + 1))
                assert rest == tuple(sorted(rest))
                assert sign == brute_parity(K + rest) == _shuffled(K, rest)[1]


_KEYS = [((1,), ()), ((), (1, 2)), ((1,), (2,))]


@given(st.lists(st.tuples(st.sampled_from(_KEYS), polys(n=2, max_terms=2)), max_size=6))
def test_pairs_with_repeated_keys_build_the_sum(pairs):
    total = Form.zero(2)
    for key, coeff in pairs:
        total = total + Form(2, {key: coeff})
    assert Form(2, pairs) == total
    assert Form(2, iter(pairs)) == total


def test_repeated_keys_merge_without_polynomial_adds(monkeypatch):
    n = 2
    coeffs = [WirtingerPolynomial.z(n, 1).scale(k) + WirtingerPolynomial.zb(n, k % 2 + 1) for k in range(1, 40)]
    expected = WirtingerPolynomial(n, {})
    for c in coeffs:
        expected = expected + c
    calls = []
    add = WirtingerPolynomial.__add__

    def counted(self, other):
        calls.append(other)
        return add(self, other)

    monkeypatch.setattr(WirtingerPolynomial, "__add__", counted)
    merged = Form(n, [(((1,), (2,)), c) for c in coeffs] + [(((2,), ()), coeffs[0])])
    assert calls == []
    monkeypatch.undo()
    assert merged == Form(n, {((1,), (2,)): expected, ((2,), ()): coeffs[0]})


def test_cancelling_pairs_leave_no_key():
    key = ((1,), (2,))
    c = WirtingerPolynomial.z(2, 1) + WirtingerPolynomial.constant(2, gaussian(0, 1))
    assert Form(2, [(key, c), (key, -c)]).terms == {}
    built = Form(2, [(key, c), (((), ()), 3), (key, -c)])
    assert key not in built.terms
    assert built == Form.from_scalar(2, 3)
    assert Form(2, [(key, c), (key, -c), (key, c)]) == Form(2, {key: c})


@settings(max_examples=30, deadline=None)
@given(forms(n=2, max_terms=3), forms(n=2, max_terms=3), homogeneous_forms(n=2, max_degree=1), polys(n=2, max_terms=2))
def test_internal_ops_build_only_canonical_terms(a, b, h, c):
    metric = random_dense_metric(random.Random(3), 2)
    rotation = RealOrthogonalMatrix([["3/5", "4/5"], ["-4/5", "3/5"]])
    with pytest.MonkeyPatch.context() as patch:
        built = recording_trusted(patch, Form, _term_key)
        table = raise_indices(h, metric)
        results = [
            a + b, a - b, -a, a.scale(gaussian(2, -1)), a.scale(c), a ^ b, a.conjugate(), a.component(1, 0),
            hodge_star(a, metric), exterior_d(a), transform_form(a, rotation),
        ]
    assert all(any(out is seen for seen in built) for out in results)
    # the raised table is the pull-back's own term map: canonical keys, no zero
    assert Form(2, table).terms == table and all(c.terms for c in table.values())


def test_distinct_key_builders_skip_the_merge(monkeypatch):
    # a builder whose keys are distinct by construction hands _trusted its
    # own term map, which is stored as it is; sums, wedges and the identity
    # check's top-key sum still merge
    n = 3
    c = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 2) + WirtingerPolynomial.constant(n, gaussian(1, -2))
    a = Form(n, {((1,), (2,)): c, ((2,), (3,)): c.scale(3), ((1, 3), ()): 1, ((), ()): c})
    b = Form(n, {((3,), ()): c, ((), (1,)): 2})
    h = a.component(1, 1)
    metric = random_dense_metric(random.Random(5), n)
    rotation = RealOrthogonalMatrix([["3/5", "4/5", 0], ["-4/5", "3/5", 0], [0, 0, 1]])
    real, real_h = realify(a), realify(h)
    oracle_star(a)  # fills the codec's rows, which the public constructor builds
    volume_form(metric)
    calls = []

    def counted(pairs):
        calls.append(pairs)
        return _merged(pairs)

    monkeypatch.setattr(import_module("pqforms.forms"), "_merged", counted)
    builders = {
        "hodge_star": lambda: hodge_star(a, metric),
        "oracle_star": lambda: oracle_star(a),
        "transform_form": lambda: transform_form(a, rotation),
        "realify": lambda: realify(a),
        "complexify": lambda: complexify(real),
        "real_hodge_star": lambda: real_hodge_star(real_h),
        "component": lambda: a.component(1, 1),
        "conjugate": lambda: a.conjugate(),
        "negation": lambda: -a,
        "scale": lambda: a.scale(gaussian(2, -1)),
        "scale by zero": lambda: a.scale(0),
    }
    for name, build in builders.items():
        del calls[:]
        out = build()
        assert not calls, name
        assert all(coeff.terms for coeff in out.terms.values()), name
    assert a.scale(0).is_zero() and a.scale(0) == Form.zero(n)
    for name, build in {"sum": lambda: a + b, "wedge": lambda: a ^ b, "identity check": lambda: defining_identity_check(h, h, metric)}.items():
        del calls[:]
        build()
        assert calls, name


@pytest.mark.parametrize(
    "n, terms, message",
    [
        (2, {((3,), ()): 1}, "dz index 3 out of range 1..2"),
        (2, {((), (0,)): 1}, "dzb index 0 out of range 1..2"),
        (2, {((2, 1), ()): 1}, r"dz multi-index \(2, 1\) is not strictly increasing"),
        (2, {((), (1, 1)): 1}, r"dzb multi-index \(1, 1\) is not strictly increasing"),
        (2, {((1,), ()): WirtingerPolynomial.z(3, 1)}, "coefficient ambient dimension 3 != 2"),
        (0, None, "ambient dimension must be positive, got 0"),
        (0, {((), ()): 1}, "ambient dimension must be positive, got 0"),
    ],
)
def test_public_constructor_rejections(n, terms, message):
    with pytest.raises(ValueError, match=message):
        Form(n, terms)
    with pytest.raises(ValueError, match=message):
        Form(n, list(terms.items()) if terms else terms)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Form.term(2, (1,), ()) + 3, TypeError, "expected a Form, got int"),
        (lambda: Form.term(2, (1,), ()) + RealForm.term(2, (1,), 1), TypeError, "expected a Form, got RealForm"),
        (lambda: Form.term(2, (1,), ()) - 3, TypeError, "expected a Form, got int"),
        (lambda: Form.term(2, (1,), ()) ^ 3, TypeError, "expected a Form, got int"),
        (lambda: RealForm.term(2, (1,), 1) + Form.term(2, (1,), ()), TypeError, "expected a RealForm, got Form"),
        (lambda: Form.term(2, (1,), ()) + Form.term(3, (1,), ()), ValueError, "ambient dimension mismatch: 2 vs 3"),
        (lambda: Form.term(2, (1,), ()) ^ Form.term(3, (1,), ()), ValueError, "ambient dimension mismatch: 2 vs 3"),
        (lambda: RealForm.term(2, (1,), 1) + RealForm.term(3, (1,), 1), ValueError, "ambient dimension mismatch: 2 vs 3"),
        (lambda: Form(2, {((1,), ()): "1"}), TypeError, "cannot interpret '1' as a Gaussian rational"),
        # a bad key with a bad coefficient reports the key
        (lambda: Form(2, {((3,), ()): "1"}), ValueError, "dz index 3 out of range 1..2"),
        (lambda: Form(2, [(((), (2, 1)), WirtingerPolynomial.z(3, 1))]), ValueError, "dzb multi-index (2, 1) is not strictly increasing"),
        (lambda: RealForm(2, {(5,): "1"}), ValueError, "real index 5 out of range 1..4"),
    ],
)
def test_constructor_and_sum_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_public_constructor_agrees_with_trusted_on_pairs(data):
    # repeated keys, zero coefficients and cancelling pairs
    n = data.draw(st.integers(1, 2))
    keys = data.draw(st.lists(st.tuples(multi_indices(n), multi_indices(n)), min_size=1, max_size=3))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(keys), polys(n=n, max_terms=2)), max_size=5))
    pairs += [(key, -c) for key, c in pairs[: data.draw(st.integers(0, len(pairs)))]]
    assert Form(n, pairs) == Form._trusted(n, pairs)


@pytest.mark.parametrize(
    "I,J,message",
    [
        ((2, 1), (), r"dz multi-index \(2, 1\) is not strictly increasing"),
        ((5,), (9,), "dz index 5 out of range 1..2"),
        ((), (1, 1), r"dzb multi-index \(1, 1\) is not strictly increasing"),
    ],
)
def test_coefficient_checks_its_key(I, J, message):
    # dz2 ^ dz1 is not a stored key of dz1 ^ dz2: it is refused, not read as 0
    form = Form.term(2, (1, 2), (), 1)
    with pytest.raises(ValueError, match=message):
        form.coefficient(I, J)
    assert form.coefficient(iter((1, 2)), ()) == WirtingerPolynomial.one(2)
    assert form.coefficient((1,), ()) == WirtingerPolynomial.zero(2)


def _counting_the_pull_back(monkeypatch, rows=False):
    """Count the polynomials built and the ``WirtingerPolynomial.scale``
    calls from the entry of the last pull-back loop (``forms._pulled_back``,
    patched where each caller imports it), ``realoracle.realify`` or
    ``realoracle.complexify`` on, leaving out the work that builds a row on
    its first request (``_Frame.image``, ``_Codec.star``) unless ``rows``."""
    counts = {"built": 0, "scale": 0}
    paused = []
    trusted, init, scale = WirtingerPolynomial._trusted.__func__, WirtingerPolynomial.__init__, WirtingerPolynomial.scale

    def count(name):
        if not paused:
            counts[name] += 1

    def counted_trusted(cls, n, terms):
        count("built")
        return trusted(cls, n, terms)

    def counted_init(self, *args):
        count("built")
        init(self, *args)

    def counted_scale(self, value):
        count("scale")
        return scale(self, value)

    def entering(function):
        def entered(*args):
            counts.update(built=0, scale=0)
            return function(*args)

        return entered

    def unmeasured(row):
        def rowed(self, key):
            paused.append(key)
            try:
                return row(self, key)
            finally:
                paused.pop()

        return rowed

    monkeypatch.setattr(WirtingerPolynomial, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(WirtingerPolynomial, "__init__", counted_init)
    monkeypatch.setattr(WirtingerPolynomial, "scale", counted_scale)
    for name in ("star", "obstruction", "realoracle"):
        monkeypatch.setattr(import_module(f"pqforms.{name}"), "_pulled_back", entering(_pulled_back))
    for name in ("realify", "complexify"):
        monkeypatch.setattr(realoracle, name, entering(getattr(realoracle, name)))
    if not rows:
        monkeypatch.setattr(_Frame, "image", unmeasured(_Frame.image))
        monkeypatch.setattr(_Codec, "star", unmeasured(_Codec.star))
    return counts


def test_pull_back_builds_one_polynomial_per_output_key(monkeypatch):
    # every input below sends two keys onto the same image keys, with no
    # cancellation; the second call of each runs on a warm memo
    n = 3
    c = (WirtingerPolynomial.z(n, 1) + WirtingerPolynomial.zb(n, 2).scale(gaussian(2, -1))) ** 2
    psi = Form(n, {((1,), ()): c, ((), (1,)): c.scale(3), ((2,), (3,)): c})
    real = realify(psi)
    h = Form(n, {((1,), (2,)): c, ((2,), (3,)): c.scale(gaussian(0, 1))})
    metric = random_dense_metric(random.Random(7), n)
    rotation = RealOrthogonalMatrix([["3/5", "4/5", 0], ["-4/5", "3/5", 0], [0, 0, 1]])
    calls = [
        lambda: realoracle.realify(psi).terms,
        lambda: realoracle.complexify(real).terms,
        lambda: raise_indices(h, metric),
        lambda: transform_form(psi, rotation).terms,
        lambda: oracle_star(psi).terms,
    ]
    expected = [call() for call in calls]
    counts = _counting_the_pull_back(monkeypatch)
    for call, terms in zip(calls, expected):
        assert call() == terms
        assert counts == {"built": len(terms), "scale": 0}


def test_a_cold_frame_builds_no_polynomial_and_no_wedge(monkeypatch):
    # the rows of a frame are constants: a raise or a transform through a
    # frame whose rows are all still unbuilt builds one polynomial per output
    # key, and wedges no form
    n = 4
    psi = Form.term(n, (1, 2), (3,), WirtingerPolynomial.z(n, 1) + 2)
    matrix = RealOrthogonalMatrix([["3/5", 0, "4/5", 0], [0, 0, 0, 1], ["-4/5", 0, "3/5", 0], [0, 1, 0, 0]])
    wedges = []
    wedge = Form.wedge

    def counted(self, other):
        wedges.append(other)
        return wedge(self, other)

    counts = _counting_the_pull_back(monkeypatch, rows=True)
    monkeypatch.setattr(Form, "wedge", counted)
    raised = raise_indices(psi, random_dense_metric(random.Random(3), n))
    assert counts == {"built": len(raised), "scale": 0} and len(raised) > 1
    moved = transform_form(psi, matrix).terms
    assert counts == {"built": len(moved), "scale": 0} and len(moved) > 1
    assert wedges == []


def test_frame_rows_do_not_depend_on_the_entry_type():
    # one matrix written with int, Fraction or Gaussian rational entries
    rows = [[1, 0, Fraction(-3, 2)], [Fraction(1, 2), 2, 0], [0, -1, 1]]
    frames = [_Frame(matrix, matrix) for matrix in (rows, [[Fraction(v) for v in row] for row in rows], [[gaussian(v) for v in row] for row in rows])]
    subsets = [c for k in range(4) for c in combinations(range(1, 4), k)]
    images = [[frame.image((I, J)) for I in subsets for J in subsets] for frame in frames]
    assert images[0] == images[1] == images[2]
    assert all(type(c) is GaussianRational for image in images for row in image for _, c in row)


def test_complexify_cancels_in_place():
    # z1 dx1 + i z1 dy1 = z1 dz1: the dzb1 parts cancel inside one term map
    z1 = WirtingerPolynomial.z(1, 1)
    back = complexify(RealForm(1, {(1,): z1, (2,): z1.scale(gaussian(0, 1))}))
    assert back == Form.term(1, (1,), (), z1)
    assert list(back.terms) == [((1,), ())] and all(coeff.terms for coeff in back.terms.values())


@st.composite
def frame_matrices(draw, n: int):
    """An n x n matrix over Q(i) with many zero entries; now and then its
    last row repeats its first, so singular matrices are drawn too."""
    entry = st.one_of(st.just(gaussian(0)), scalars())
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_frame_matches_the_unmemoized_pull_back(data):
    # cold halves on the first pull-back, warm on the second
    form = data.draw(forms(max_terms=4, max_degree=1))
    n = form.n
    dz, dzb = data.draw(frame_matrices(n)), data.draw(frame_matrices(n))
    unit, images = matrix_images(n, dz, dzb)
    expected = brute_pull_back(form.terms, _factors, unit, lambda c: c, images).terms
    frame = _Frame(dz, dzb)
    assert _pulled_back(n, form.terms, frame.image) == expected
    assert _pulled_back(n, form.terms, frame.image) == expected


@pytest.mark.parametrize(
    "build, message",
    [(lambda: Form.from_factors(2, [("w", 1)]), "differential kind must be 'z' or 'zb', got 'w'")],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_form_repr_zero_and_nonzero():
    # terms in canonical order, a constant term named 1
    n = 2
    f = Form.term(n, (1,), (2,), WirtingerPolynomial.z(n, 1).scale(gaussian(1, -2))) + Form.from_scalar(n, 3)
    assert repr(f) == "<form <poly (3)>*1 + <poly (1-2*i)*z1>*dz1^dzb2>"
    assert repr(Form.zero(n)) == "<form 0>"

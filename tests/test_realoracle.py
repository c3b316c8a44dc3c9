import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_complexify, brute_oracle_star, brute_realify, forms, homogeneous_forms, nonzero_scalars, polys, random_form, recording_trusted
from pqforms import (
    Form,
    HermitianMetric,
    ORACLE_STAR_RATIOS,
    RealForm,
    StarConvention,
    WirtingerPolynomial,
    complexify,
    gaussian,
    hodge_star,
    oracle_star,
    oracle_compare,
    real_hodge_star,
    realify,
    volume_form,
)
from pqforms import realoracle
from pqforms.forms import _pulled_back
from pqforms.realoracle import _codec
from pqforms.scalars import GaussianRational
from pqforms.star import _StarRows


def test_realify_dz1():
    result = realify(Form.term(1, (1,), (), 1))
    expected = RealForm.term(1, (1,), 1) + RealForm.term(1, (2,), gaussian(0, 1))
    assert result == expected


def test_realify_paired_product():
    # (dx + i dy) ^ (dx - i dy) = -2i dx ^ dy
    result = realify(Form.term(1, (1,), (1,), 1))
    assert result == RealForm.term(1, (1, 2), gaussian(0, -2))


def test_realify_zero():
    assert realify(Form.zero(3)).is_zero()


def test_realify_and_complexify_keep_coefficients():
    # the star is pointwise, so only the differentials move: z1*zb2 stays z1*zb2
    n = 2
    c = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 2)
    assert realify(Form.from_scalar(n, c)) == RealForm.term(n, (), c)
    assert complexify(RealForm.term(n, (), c)) == Form.from_scalar(n, c)
    real = realify(Form.term(n, (1,), (2,), c))
    # (dx1 + i dy1) ^ (dx2 - i dy2), each term carrying c itself
    i = gaussian(0, 1)
    assert real == RealForm(n, {(1, 3): c, (1, 4): c.scale(-i), (2, 3): c.scale(i), (2, 4): c})
    assert complexify(real) == Form.term(n, (1,), (2,), c)


def test_realify_and_complexify_make_no_polynomial_product(monkeypatch):
    n = 2
    c = (WirtingerPolynomial.z(n, 1) + WirtingerPolynomial.zb(n, 2)) ** 3
    psi = Form(n, {((1,), (2,)): c, ((1, 2), ()): c.scale(gaussian(2, -1))})
    calls = []
    multiply = WirtingerPolynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    complexify(realify(psi))  # the frames wedge their constant images once per key
    monkeypatch.setattr(WirtingerPolynomial, "__mul__", counted)
    back = complexify(realify(psi))
    assert calls == []
    monkeypatch.undo()
    assert back == psi


def test_round_trip_of_an_n8_key_cancels_as_it_goes(monkeypatch):
    # the (4,4) key dz1^..^dz4^dzb5^..^dzb8 spreads to 2^8 real keys; the
    # butterfly stages of both maps are integer sums and differences, and
    # each output scalar is built once from its numerators, so the round
    # trip makes no scalar addition or product at all, on a cold codec and
    # on a warm one (a change of frame per key made 4^8 products)
    n = 8
    e = Form.term(n, (1, 2, 3, 4), (5, 6, 7, 8), 1)
    counts = {"add": 0, "mul": 0}
    for name, kind in (("__add__", "add"), ("__radd__", "add"), ("__sub__", "add"), ("__rsub__", "add"),
                       ("__mul__", "mul"), ("__rmul__", "mul")):
        def counted(self, other, _op=getattr(GaussianRational, name), _kind=kind):
            counts[_kind] += 1
            return _op(self, other)

        monkeypatch.setattr(GaussianRational, name, counted)
    _codec.cache_clear()
    backs = [complexify(realify(e)) for _ in range(2)]
    monkeypatch.undo()
    assert backs == [e, e]
    assert counts == {"add": 0, "mul": 0}


def test_complexify_dx1():
    result = complexify(RealForm.term(1, (1,), 1))
    half = gaussian(1) / gaussian(2)
    expected = Form.term(1, (1,), (), half) + Form.term(1, (), (1,), half)
    assert result == expected


def test_complexify_inverts_realify_example():
    assert complexify(RealForm.term(1, (1, 2), gaussian(0, -2))) == Form.term(1, (1,), (1,), 1)


def test_round_trip_random_forms():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(15):
            form = random_form(rng, n)
            assert complexify(realify(form)) == form


def test_real_star_orientation_n1():
    assert real_hodge_star(RealForm.term(1, (1,), 1)) == RealForm.term(1, (2,), 1)
    assert real_hodge_star(RealForm.term(1, (2,), 1)) == RealForm.term(1, (1,), -1)


def test_real_star_n2_pair():
    # indices: dx1=1, dy1=2, dx2=3, dy2=4; sign of (1,3 | 2,4) is -1
    result = real_hodge_star(RealForm.term(2, (1, 3), 1))
    assert result == RealForm.term(2, (2, 4), -1)


def test_real_star_rejects_mixed_degree():
    mixed = RealForm.term(1, (1,), 1) + RealForm.term(1, (1, 2), 1)
    with pytest.raises(ValueError):
        real_hodge_star(mixed)


def test_real_double_star_law_exhaustive():
    # star(star(e_K)) = (-1)^(k(2n-k)) e_K over all monomials up to 2n = 8
    for n in (1, 2, 3, 4):
        two_n = 2 * n
        for k in range(two_n + 1):
            sign = -1 if (k * (two_n - k)) % 2 else 1
            for K in combinations(range(1, two_n + 1), k):
                e = RealForm.term(n, K, 1)
                assert real_hodge_star(real_hodge_star(e)) == e.scale(sign), (n, K)


def test_orientation_agrees_with_complex_volume():
    # realified volume forms land on +2^n dx1^dy1^...^dxn^dyn
    for n in (1, 2):
        vol = realify(volume_form(HermitianMetric.identity(n)))
        assert vol == RealForm.term(n, tuple(range(1, 2 * n + 1)), 2 ** n)


def test_oracle_compare_dz1():
    report = oracle_compare(Form.term(1, (1,), (), 1), HermitianMetric.identity(1))
    assert report.proportional
    assert report.ratio_for(1, 0) == gaussian(1)


def test_oracle_compare_reports_no_ratio_for_an_absent_bidegree():
    report = oracle_compare(Form.term(2, (1,), (2,), 1), HermitianMetric.identity(2))
    assert [(c.p, c.q) for c in report.comparisons] == [(1, 1)]
    assert report.ratio_for(1, 1) is not None
    assert report.ratio_for(1, 0) is None and report.ratio_for(2, 2) is None


def test_real_form_repr_names_dx_and_dy():
    # real index 2k - 1 is dx_k and 2k is dy_k; terms in canonical order
    n = 2
    r = RealForm.term(n, (1, 2, 4), WirtingerPolynomial.z(n, 2)) + RealForm.term(n, (3,), 2)
    assert repr(r) == "<realform <poly (2)>*dx2 + <poly (1)*z2>*dx1^dy1^dy2>"
    assert repr(RealForm(n)) == "<realform 0>"


def test_oracle_compare_block_form():
    n = 4
    psi = Form.term(n, (1, 2), (3, 4), 1)
    report = oracle_compare(psi, HermitianMetric.identity(n))
    assert report.proportional
    assert report.ratio_for(2, 2) == gaussian(1)  # 2^(4-2-2)


def test_oracle_compare_zero_form():
    report = oracle_compare(Form.zero(2), HermitianMetric.identity(2))
    assert report.proportional


def test_oracle_compare_requires_identity_metric():
    with pytest.raises(ValueError):
        oracle_compare(Form.term(2, (1,), (), 1), HermitianMetric.diagonal([2, 1]))


def test_single_ratio_across_random_forms():
    # >= 50 random forms per bidegree and dimension, all giving one constant
    rng = random.Random(91)
    for n in (1, 2):
        metric = HermitianMetric.identity(n)
        for p in range(n + 1):
            for q in range(n + 1):
                expected = ORACLE_STAR_RATIOS[(n, p, q)]
                for _ in range(50):
                    psi = random_form(rng, n, bidegree=(p, q), max_degree=1)
                    if psi.is_zero():
                        continue
                    report = oracle_compare(psi, metric)
                    assert report.proportional
                    assert report.ratio_for(p, q) == expected


def _defined_ratio(engine, oracle):
    """The ratio test by its definition: the ratio read at one oracle
    monomial, then ``engine == oracle.scale(ratio)``."""
    key, oracle_coeff = next(iter(oracle.terms.items()))
    exponents, scalar = next(iter(oracle_coeff.terms.items()))
    lead = engine.coefficient(*key).terms.get(exponents)
    if lead is None:
        return False, None
    ratio = lead / scalar
    return (True, ratio) if engine == oracle.scale(ratio) else (False, None)


@settings(max_examples=150, deadline=None)
@given(
    homogeneous_forms(max_terms=3).filter(bool),
    nonzero_scalars(),
    st.sampled_from(["multiple", "perturbed", "extra key", "missing key", "dropped monomial"]),
    st.integers(0, 63),
    nonzero_scalars(),
)
def test_proportionality_ratio_matches_its_definition(oracle, ratio, variant, pick, delta):
    # engine is ratio * oracle, or that multiple changed in one place; the
    # ratio reader on the two forms' monomials returns the definition's
    # verdict and ratio
    n = oracle.n
    terms = {key: dict(coeff.terms) for key, coeff in oracle.scale(ratio).terms.items()}
    keys = sorted(terms)
    key = keys[pick % len(keys)]
    exponents = sorted(terms[key])[pick % len(terms[key])]
    if variant == "perturbed":
        changed = terms[key][exponents] + delta
        terms[key][exponents] = changed if changed else changed + delta
    elif variant == "extra key":
        subsets = [c for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
        extra = next((I, J) for I in subsets for J in subsets if (I, J) not in terms)
        terms[extra] = {(0,) * (2 * n): delta}
    elif variant == "missing key":
        del terms[key]
    elif variant == "dropped monomial":
        del terms[key][exponents]
    engine = Form(n, {key: WirtingerPolynomial(n, coeff) for key, coeff in terms.items()})
    assume(engine)
    read = realoracle._ratio([(realoracle._monomials(engine), realoracle._monomials(oracle).items())])
    verdict = (read is not None, read)
    assert verdict == _defined_ratio(engine, oracle)
    monomials = sum(len(coeff.terms) for coeff in oracle.terms.values())
    if variant == "multiple":
        assert verdict == (True, ratio)
    elif variant != "perturbed" or monomials > 1:
        # one place differs from a multiple, and an unchanged monomial fixes the ratio
        assert verdict == (False, None)


_REAL_KEYS = [(1,), (2, 3), (1, 2, 4)]


@given(st.lists(st.tuples(st.sampled_from(_REAL_KEYS), polys(n=2, max_terms=2)), max_size=6))
def test_realform_pairs_with_repeated_keys_build_the_sum(pairs):
    total = RealForm.zero(2)
    for key, coeff in pairs:
        total = total + RealForm.term(2, key, coeff)
    assert RealForm(2, pairs) == total


def test_realform_cancelling_pairs_leave_no_key():
    c = WirtingerPolynomial.z(2, 2).scale(gaussian(1, -1))
    built = RealForm(2, [((2, 3), c), ((1,), 5), ((2, 3), -c)])
    assert (2, 3) not in built.terms
    assert built == RealForm.term(2, (1,), 5)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(forms(n=n, max_terms=2, max_degree=1), forms(n=n, max_terms=2, max_degree=1))
    )
)
def test_realify_turns_wedge_into_real_wedge(pair):
    # RealForm.wedge against Form.wedge through the independent frame
    a, b = pair
    assert realify(a.wedge(b)) == realify(a).wedge(realify(b))


@settings(max_examples=30, deadline=None)
@given(forms(n=2, max_terms=2, max_degree=1), forms(n=2, max_terms=2, max_degree=1), homogeneous_forms(n=2, max_degree=1))
def test_oracle_ops_build_only_canonical_terms(a, b, h):
    with pytest.MonkeyPatch.context() as patch:
        built = recording_trusted(patch, Form)
        built_real = recording_trusted(patch, RealForm)
        recording_trusted(patch, WirtingerPolynomial)
        x, y = realify(a), realify(b)
        real_results = [x, x + y, x - y, -x, x.scale(gaussian(1, 3)), x.wedge(y), real_hodge_star(realify(h))]
        results = [complexify(x), oracle_star(a)]
    assert all(any(out is seen for seen in built_real) for out in real_results)
    assert all(any(out is seen for seen in built) for out in results)



def test_realform_truth_value():
    assert not RealForm.zero(2)
    assert RealForm.term(2, (1,), 1)
    assert not RealForm.term(2, (1,), 1) - RealForm.term(2, (1,), 1)


def test_form_and_realform_do_not_mix():
    form, real = Form.term(2, (1,), (), 1), RealForm.term(2, (1,), 1)
    with pytest.raises(TypeError):
        form + real
    with pytest.raises(TypeError):
        real - form
    with pytest.raises(TypeError):
        real.wedge(form)
    assert Form.zero(2) != RealForm.zero(2)
    assert not Form.zero(2) == RealForm.zero(2)

@pytest.mark.parametrize(
    "n, terms, message",
    [
        (2, {(5,): 1}, "real index 5 out of range 1..4"),
        (2, {(0, 1): 1}, "real index 0 out of range 1..4"),
        (2, {(3, 1): 1}, r"real multi-index \(3, 1\) is not strictly increasing"),
        (2, {(2, 2): 1}, r"real multi-index \(2, 2\) is not strictly increasing"),
        (2, {(1,): WirtingerPolynomial.z(1, 1)}, "coefficient ambient dimension 1 != 2"),
        (0, None, "ambient dimension must be positive, got 0"),
    ],
)
def test_realform_constructor_rejections(n, terms, message):
    with pytest.raises(ValueError, match=message):
        RealForm(n, terms)
    with pytest.raises(ValueError, match=message):
        RealForm(n, list(terms.items()) if terms else terms)


def test_real_star_makes_no_scalar_multiply(monkeypatch):
    # signs of both kinds: at n = 2, star(dx1) = dy1^dx2^dy2 and star(dy1) = -dx1^dx2^dy2
    c = WirtingerPolynomial.z(2, 1).scale(gaussian(2, -3)) + WirtingerPolynomial.constant(2, gaussian(0, 5))
    real = RealForm(2, {(1,): c, (2,): c.scale(7)})
    calls = []
    multiply = GaussianRational.__mul__

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    starred = real_hodge_star(real)
    assert calls == []
    monkeypatch.undo()
    assert starred == RealForm(2, {(2, 3, 4): c, (1, 3, 4): -c.scale(7)})


@settings(max_examples=40, deadline=None)
@given(forms(max_terms=3, max_degree=1))
def test_real_codec_matches_the_unmemoized_pull_back(form):
    # cold codec on the first call, warm on the second
    _codec.cache_clear()
    real = brute_realify(form)
    assert realify(form) == real and realify(form) == real
    back = brute_complexify(real)
    assert complexify(real) == back and complexify(real) == back
    assert back == form


@st.composite
def real_forms(draw):
    n = draw(st.integers(1, 3))
    keys = st.lists(st.integers(1, 2 * n), unique=True).map(lambda k: tuple(sorted(k)))
    return RealForm(n, draw(st.lists(st.tuples(keys, polys(n=n, max_terms=2)), max_size=6)))


@settings(max_examples=60, deadline=None)
@given(real_forms())
def test_complexify_matches_the_unmemoized_pull_back_on_any_real_form(real):
    # any keys and supports mixed in one form, with cancelling butterflies
    _codec.cache_clear()
    back = brute_complexify(real)
    assert complexify(real) == back and complexify(real) == back
    assert realify(back) == real


_DENOMINATED = (gaussian(Fraction(1, 2)), gaussian(Fraction(1, 3)), gaussian(Fraction(5, 7)), gaussian(0, Fraction(1, 6)))
_UNITS = (gaussian(1), gaussian(-1), gaussian(0, 1), gaussian(0, -1))


@st.composite
def shared_support_forms(draw):
    """A complex form and a real form, n <= 4, whose keys share supports and
    monomials.  Per drawn support (S, D), each side has keys at several
    masks over S.  A key's coefficient is a sum over a pool of three
    monomials of scalars over the denominators 2, 3, 7 and 6, or the
    previous key's coefficient times a unit, so that the transform's sums
    cancel to zero at some masks."""
    n = draw(st.integers(1, 4))
    pool = (WirtingerPolynomial.constant(n, 1), WirtingerPolynomial.z(n, 1), WirtingerPolynomial.zb(n, n))
    sides = ({}, {})
    for _ in range(draw(st.integers(1, 2))):
        roles = draw(st.lists(st.sampled_from("-sd"), min_size=n, max_size=n))  # per coordinate: none, one or two differentials
        S, D = ([k for k, role in enumerate(roles, 1) if role == kind] for kind in "sd")
        for side, terms in enumerate(sides):
            coeff = None
            for mask in sorted(draw(st.sets(st.integers(0, 2 ** len(S) - 1), min_size=1, max_size=4))):
                if coeff is not None and draw(st.booleans()):
                    coeff = coeff.scale(draw(st.sampled_from(_UNITS)))
                else:
                    picks = draw(st.lists(st.tuples(st.sampled_from(_DENOMINATED), st.sampled_from((1, -1, 2))), min_size=3, max_size=3))
                    chosen = draw(st.sets(st.integers(0, 2), min_size=1))
                    coeff = sum((pool[j].scale(picks[j][0] * picks[j][1]) for j in chosen), WirtingerPolynomial.zero(n))
                up = [k for j, k in enumerate(S) if mask >> j & 1]  # dzb_k, or dy_k
                down = [k for k in S if k not in up]
                if side:
                    terms[tuple(sorted([v for k in D for v in (2 * k - 1, 2 * k)] + [2 * k - 1 for k in down] + [2 * k for k in up]))] = coeff
                else:
                    terms[(tuple(sorted(D + down)), tuple(sorted(D + up)))] = coeff
    return Form(n, sides[0]), RealForm(n, sides[1])


@settings(max_examples=60, deadline=None)
@given(shared_support_forms())
def test_integer_transform_matches_the_brute_maps(pair):
    # keys sharing supports and monomials, scalars over several denominators
    # and sums that cancel: the maps agree with the ones wedged out afresh,
    # on a cold codec and then a warm one, and every output scalar is
    # normalised (d > 0, gcd(a, b, d) = 1)
    form, real = pair
    expected = (brute_realify(form), brute_complexify(real), form)
    _codec.cache_clear()
    for _ in range(2):
        got = (realify(form), complexify(real), complexify(realify(form)))
        assert got == expected
        for scalar in (c for out in got for coeff in out.terms.values() for c in coeff.terms.values()):
            assert scalar._d > 0 and gcd(scalar._a, scalar._b, scalar._d) == 1


def test_real_codec_keeps_one_entry_per_key():
    # realify reads each of the 4^n complex keys once and writes each of the
    # 4^n (support, dy mask) pairs once, as one real key each; complexify
    # reads each of the 4^n real keys once and writes each of the 4^n
    # (support, dzb mask) pairs once, as one complex key each.  The unit
    # keys go one at a time, so that no image cancels.
    n = 2
    _codec.cache_clear()
    codec = _codec(n)
    subsets = [c for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
    every_complex = Form(n, {(I, J): 1 for I in subsets for J in subsets})
    every_real = RealForm(n, {K: 1 for k in range(2 * n + 1) for K in combinations(range(1, 2 * n + 1), k)})
    for _ in range(2):
        for key in every_complex.terms:
            realify(Form(n, {key: 1}))
        for key in every_real.terms:
            complexify(RealForm(n, {key: 1}))
        assert [len(memo) for memo in codec.readings + codec.images] == [16] * 4
        assert sorted(codec.readings[realoracle._COMPLEX]) == sorted(every_complex.terms)
        assert sorted(codec.readings[realoracle._REAL]) == sorted(every_real.terms)
        assert sorted(key for key, _ in codec.images[realoracle._COMPLEX].values()) == sorted(every_complex.terms)
        assert sorted(key for key, _ in codec.images[realoracle._REAL].values()) == sorted(every_real.terms)


def test_oracle_star_memo_holds_one_pair_per_unit_key(monkeypatch):
    # a cold build needs only realify, the Euclidean star and complexify:
    # with the complex star and index raising refusing to run, it succeeds
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran the complex star")

    for name in ("pqforms.star.hodge_star", "pqforms.star.raise_indices", "pqforms.realoracle.hodge_star"):
        monkeypatch.setattr(name, refuse)
    _codec.cache_clear()
    for n in (1, 2, 3):
        codec = _codec(n)
        subsets = [c for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
        for I in subsets:
            for J in subsets:
                pairs = codec.star((I, J))
                assert len(pairs) == 1
                (key, value), = pairs
                # the row of conj(e_(I,J)): the unmemoized three-step path of e_(I,J)
                assert Form(n, {key: value}) == brute_oracle_star(Form.term(n, I, J, 1))
        assert len(codec.stars) == 4 ** n


def test_a_warm_oracle_star_runs_none_of_its_three_steps(monkeypatch):
    # the codec keeps each key's oracle image: once every key of psi has
    # been starred, the three steps are never called again
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle star memo was missed")

    n = 3
    c = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 3) + WirtingerPolynomial.constant(n, gaussian(1, 2))
    psi = Form(n, {((1,), (2,)): c, ((1, 3), ()): c.scale(5), ((), (1, 2, 3)): c, ((2,), (2,)): 1})
    _codec.cache_clear()
    expected = oracle_star(psi)
    assert expected == brute_oracle_star(psi)
    for name in ("realify", "real_hodge_star", "complexify"):
        monkeypatch.setattr(realoracle, name, refuse)
    assert oracle_star(psi) == expected
    assert oracle_star(psi.scale(gaussian(0, 1))) == expected.scale(gaussian(0, -1))


def test_oracle_ratio_law_on_every_unit_key_up_to_n5():
    # 4 + 16 + 64 + 256 + 1,024 = 1,364 unit keys: each oracle image is one
    # pair, and the engine star is 2^(n-p-q) times it; the recorded table
    # agrees wherever it has an entry
    checked = 0
    for n in range(1, 6):
        metric = HermitianMetric.identity(n)
        codec = _codec(n)
        subsets = [c for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
        for I in subsets:
            for J in subsets:
                p, q = len(I), len(J)
                assert len(codec.star((I, J))) == 1
                report = oracle_compare(Form.term(n, I, J, 1), metric)
                law = gaussian(2) ** (n - p - q)
                assert report.proportional and report.ratio_for(p, q) == law, (n, I, J)
                assert ORACLE_STAR_RATIOS.get((n, p, q), law) == law
                checked += 1
    assert checked == 1364
    assert {key[0] for key in ORACLE_STAR_RATIOS} == {1, 2, 3, 4}


@settings(max_examples=40, deadline=None)
@given(forms(max_terms=4, max_degree=2))
def test_oracle_star_matches_the_three_step_path(psi):
    # cold memo on the first call, warm on the second
    _codec.cache_clear()
    cold = oracle_star(psi)
    expected = brute_oracle_star(psi)
    assert cold == expected
    assert oracle_star(psi) == expected


def test_a_warm_oracle_star_builds_one_polynomial_per_output_key(monkeypatch):
    # each coefficient is read conjugated in place, so no conjugate form is
    # built; the key ((1,), (2,)) has odd |I||J|, whose conjugate is negated
    n = 4
    c = (WirtingerPolynomial.z(n, 1) + WirtingerPolynomial.zb(n, 2).scale(gaussian(2, -1)) + WirtingerPolynomial.z(n, 3)) ** 4
    assert len(c.terms) == 15
    psi = Form(n, {((1,), (2,)): c, ((1, 2), (3, 4)): c.scale(3), ((), (1, 4)): c.scale(gaussian(0, 1))})
    expected = oracle_star(psi)
    assert len(expected.terms) == 3
    built = []
    trusted, init = WirtingerPolynomial._trusted.__func__, WirtingerPolynomial.__init__

    def counted_trusted(cls, n, terms):
        built.append(terms)
        return trusted(cls, n, terms)

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(WirtingerPolynomial, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(WirtingerPolynomial, "__init__", counted_init)
    assert oracle_star(psi) == expected
    assert len(built) == len(expected.terms)


@pytest.mark.parametrize("n, metric_n", [(2, 3), (3, 2)])
def test_oracle_compare_checks_the_metric_dimension(n, metric_n):
    with pytest.raises(ValueError, match=f"^form ambient dimension {n} != metric dimension {metric_n}$"):
        oracle_compare(Form.term(n, (1,), (), 1), HermitianMetric.identity(metric_n))


_CONVENTIONS = [StarConvention(c, o) for c in ("single", "literal_eq_2_9") for o in ("same_type_complement", "printed_eq_2_9")]


def test_holding_oracle_compare_builds_no_polynomial(monkeypatch):
    # under single conjugation each key's engine row is one ratio times its
    # oracle row, so a warm comparison reads the rows alone: no pull-back,
    # no polynomial
    n = 3
    c = (WirtingerPolynomial.z(n, 1) + WirtingerPolynomial.zb(n, 3).scale(gaussian(1, -2))) ** 3
    psi = Form(n, {((1,), (2,)): c, ((2,), (3,)): c.scale(5), ((1, 3), ()): c, ((), (1, 2)): 1, ((1, 2, 3), (1, 2, 3)): c})
    metric = HermitianMetric.identity(n)
    expected = oracle_compare(psi, metric)
    assert expected.proportional and [(cmp.p, cmp.q) for cmp in expected.comparisons] == [(0, 2), (1, 1), (2, 0), (3, 3)]
    assert all(cmp.ratio == gaussian(2) ** (n - cmp.p - cmp.q) for cmp in expected.comparisons)
    calls = []
    trusted, init = WirtingerPolynomial._trusted.__func__, WirtingerPolynomial.__init__

    def counted_trusted(cls, n, terms):
        calls.append("_trusted")
        return trusted(cls, n, terms)

    def counted_init(self, *args):
        calls.append("__init__")
        init(self, *args)

    def counted_pull_back(*args):
        calls.append("_pulled_back")
        return _pulled_back(*args)

    monkeypatch.setattr(WirtingerPolynomial, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(WirtingerPolynomial, "__init__", counted_init)
    for module in ("pqforms.star", "pqforms.realoracle"):
        monkeypatch.setattr(f"{module}._pulled_back", counted_pull_back)
    assert oracle_compare(psi, metric) == expected
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(forms(max_terms=5, max_degree=2), st.sampled_from(_CONVENTIONS))
def test_oracle_compare_gives_the_form_level_verdict(psi, convention):
    # the rows' verdict, where it is read, is that of the two stars of each
    # component compared form against form, by the definition of the ratio
    metric = HermitianMetric.identity(psi.n)
    report = oracle_compare(psi, metric, convention)
    verdicts = []
    for p, q in sorted(psi.bidegrees()):
        part = psi.component(p, q)
        verdicts.append((p, q, *_defined_ratio(hodge_star(part, metric, convention), oracle_star(part))))
    assert [tuple(cmp) for cmp in report.comparisons] == verdicts
    assert report.proportional == all(verdict[2] for verdict in verdicts)


@pytest.mark.parametrize("variant", ["doubled", "extra target"])
def test_a_wrong_engine_row_fails_through_the_form_level_path(monkeypatch, variant):
    # the two (1,1) keys land on distinct targets; with the engine row of
    # one of them doubled, or given one more target, the rows disagree, so
    # that component is built and its two stars, no longer proportional,
    # are compared form against form
    n = 2
    metric = HermitianMetric.identity(n)
    psi = Form(n, {((1,), (1,)): WirtingerPolynomial.z(n, 1), ((2,), (2,)): 1, ((1, 2), ()): 1})
    assert oracle_compare(psi, metric).proportional
    image, star, built = _StarRows.image, realoracle.hodge_star, []

    def wrong(self, key):
        row = image(self, key)
        if key != ((1,), (1,)):
            return row
        return [(target, c * 2) for target, c in row] if variant == "doubled" else row + [(((1,), (2,)), gaussian(1))]

    def recorded(part, *args):
        built.append(part.bidegrees())
        return star(part, *args)

    monkeypatch.setattr(_StarRows, "image", wrong)
    monkeypatch.setattr(realoracle, "hodge_star", recorded)
    report = oracle_compare(psi, metric)
    assert not report.proportional
    assert [tuple(cmp) for cmp in report.comparisons] == [(1, 1, False, None), (2, 0, True, gaussian(1))]
    assert built == [{(1, 1)}]

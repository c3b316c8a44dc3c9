"""Star operator checks: frozen examples plus the defining-identity law.

The expected values here were derived before the star was written, either
from the defining identity phi ^ star(psi) = <phi,psi> vol expanded by
hand, or from the real-coordinate oracle.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqforms.star
from helpers import _factors, brute_pull_back, brute_raise, forms, homogeneous_forms, matrix_images, random_dense_metric, random_form, random_scalar
from pqforms import (
    DEFAULT_CONVENTION,
    Form,
    HermitianMetric,
    LITERAL_CONVENTION,
    StarConvention,
    WirtingerPolynomial,
    defining_identity_check,
    gaussian,
    hodge_star,
    pointwise_inner,
    raise_indices,
    volume_form,
)
from pqforms.forms import _Frame, _key_product, complement
from pqforms.scalars import ZERO


def lemma31_coeff(n=4):
    return WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 4) + WirtingerPolynomial.constant(n, 3)


def test_raise_indices_identity_is_conjugation():
    n = 4
    f = lemma31_coeff(n)
    psi = Form.term(n, (1, 2), (3, 4), f.scale(4))
    table = raise_indices(psi, HermitianMetric.identity(n))
    assert table == {((1, 2), (3, 4)): f.conjugate().scale(4)}


def test_raise_indices_diagonal_metric():
    metric = HermitianMetric.diagonal([2, 1])
    psi = Form.term(2, (1,), (2,), 1)
    table = raise_indices(psi, metric)
    assert table == {((1,), (2,)): WirtingerPolynomial.constant(2, Fraction(1, 2))}


def test_raise_indices_matches_minors_formula_on_dense_metrics():
    # non-diagonal metrics against the Leibniz-minor reference of the helpers
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(2):
            metric = random_dense_metric(rng, n)
            assert any(metric.entries[a][b] for a in range(n) for b in range(n) if a != b)
            for p in range(n + 1):
                for q in range(n + 1):
                    psi = random_form(rng, n, bidegree=(p, q), max_degree=1)
                    assert raise_indices(psi, metric) == brute_raise(psi, metric), (n, p, q)


def test_raise_indices_zero_form():
    assert raise_indices(Form.zero(2), HermitianMetric.identity(2)) == {}


def test_raise_indices_rejects_mixed_bidegree():
    mixed = Form.term(2, (1,), (), 1) + Form.term(2, (1,), (1,), 1)
    with pytest.raises(ValueError):
        raise_indices(mixed, HermitianMetric.identity(2))


def test_pointwise_inner_unit_monomials():
    n = 1
    metric = HermitianMetric.identity(n)
    dz1 = Form.term(n, (1,), (), 1)
    assert pointwise_inner(dz1, dz1, metric) == WirtingerPolynomial.one(n)
    pair = Form.term(n, (1,), (1,), 1)
    assert pointwise_inner(pair, pair, metric) == WirtingerPolynomial.one(n)


def test_pointwise_inner_of_coefficient_form():
    n = 4
    f = lemma31_coeff(n)
    psi = Form.term(n, (1, 2), (3, 4), f)
    value = pointwise_inner(psi, psi, HermitianMetric.identity(n))
    assert value == f * f.conjugate()


def test_pointwise_inner_bidegree_mismatch():
    n = 2
    with pytest.raises(ValueError):
        pointwise_inner(Form.term(n, (1,), (), 1), Form.term(n, (), (1,), 1), HermitianMetric.identity(n))


def test_star_of_dz1_at_n1():
    # derived from dz1 ^ star(dz1) = (dz1,dz1) vol = i dz1^dzb1
    metric = HermitianMetric.identity(1)
    assert hodge_star(Form.term(1, (1,), (), 1), metric) == Form.term(1, (), (1,), gaussian(0, 1))


def test_star_of_one_is_volume():
    metric = HermitianMetric.identity(1)
    assert hodge_star(Form.from_scalar(1, 1), metric) == volume_form(metric)


def test_star_of_holomorphic_block_form():
    n = 4
    metric = HermitianMetric.identity(n)
    f = lemma31_coeff(n)
    psi = Form.term(n, (1, 2), (3, 4), f)
    expected = Form.term(n, (3, 4), (1, 2), f.conjugate())
    assert hodge_star(psi, metric) == expected


def test_star_literal_variant_returns_input_shape():
    n = 4
    metric = HermitianMetric.identity(n)
    f = lemma31_coeff(n)
    psi = Form.term(n, (1, 2), (3, 4), f)
    assert hodge_star(psi, metric, LITERAL_CONVENTION) == psi


def test_star_of_a_unit_key_is_the_power_of_i():
    # (1..p) and (1..q) come before their complements, so under the identity
    # the star of the unit key is the bidegree's unit alone
    i = gaussian(0, 1)
    for n in range(1, 13):
        metric = HermitianMetric.identity(n)
        for p in range(n + 1):
            for q in range(n + 1):
                exponent = n * (n - 1) // 2 + (n - p) * q
                psi = Form.term(n, range(1, p + 1), range(1, q + 1), 1)
                expected = Form.term(n, range(p + 1, n + 1), range(q + 1, n + 1), i ** n * (-1) ** exponent)
                assert hodge_star(psi, metric) == expected, (n, p, q)


def test_defining_identity_simplest_case():
    metric = HermitianMetric.identity(1)
    dz1 = Form.term(1, (1,), (), 1)
    report = defining_identity_check(dz1, dz1, metric)
    assert report.holds
    assert report.residual.is_zero()


def test_defining_identity_fails_for_printed_index_mode():
    metric = HermitianMetric.identity(1)
    dz1 = Form.term(1, (1,), (), 1)
    printed = StarConvention(conjugation_mode="single", output_index_mode="printed_eq_2_9")
    report = defining_identity_check(dz1, dz1, metric, printed)
    assert not report.holds
    # phi ^ star(psi) = dz1 ^ (i dz1) = 0, so the residual is minus the inner-product volume
    assert report.residual == -volume_form(metric)


def test_defining_identity_zero_form():
    metric = HermitianMetric.identity(2)
    report = defining_identity_check(Form.zero(2), Form.term(2, (1,), (), 1), metric)
    assert report.holds


@settings(max_examples=60, deadline=None)
@given(homogeneous_forms(n=2, max_degree=1), homogeneous_forms(n=2, max_degree=1))
def test_defining_identity_random_pairs(a, b):
    if a.is_zero() or b.is_zero():
        return
    if a.homogeneous_bidegree() != b.homogeneous_bidegree():
        return
    for metric in (HermitianMetric.identity(2), HermitianMetric.diagonal([2, 1])):
        assert defining_identity_check(a, b, metric).holds


def test_double_star_involution_exhaustive_monomials():
    for n in (1, 2, 3):
        metric = HermitianMetric.identity(n)
        for p in range(n + 1):
            for q in range(n + 1):
                sign = -1 if (p + q) % 2 else 1
                for A in combinations(range(1, n + 1), p):
                    for B in combinations(range(1, n + 1), q):
                        psi = Form.term(n, A, B, 1)
                        twice = hodge_star(hodge_star(psi, metric), metric)
                        assert twice == (psi if sign == 1 else -psi), (n, A, B)


def test_star_is_antilinear_in_constants():
    rng = random.Random(3)
    metric = HermitianMetric.identity(2)
    c = gaussian(Fraction(2, 3), Fraction(-1, 2))
    for _ in range(20):
        psi = random_form(rng, 2, bidegree=(1, 1))
        assert hodge_star(psi.scale(c), metric) == hodge_star(psi, metric).scale(c.conjugate())


def test_star_of_volume_is_one():
    for n in (1, 2, 3):
        metric = HermitianMetric.identity(n)
        assert hodge_star(volume_form(metric), metric) == Form.from_scalar(n, 1)


def test_star_records_convention_default():
    assert DEFAULT_CONVENTION.conjugation_mode == "single"
    assert DEFAULT_CONVENTION.output_index_mode == "same_type_complement"
    assert LITERAL_CONVENTION.conjugation_mode == "literal_eq_2_9"
    assert LITERAL_CONVENTION.output_index_mode == "printed_eq_2_9"


def test_star_mixed_bidegree_dispatch():
    n = 2
    metric = HermitianMetric.identity(n)
    a = Form.term(n, (1,), (), 1)
    b = Form.term(n, (1,), (2,), 1)
    assert hodge_star(a + b, metric) == hodge_star(a, metric) + hodge_star(b, metric)


N8_MONOMIALS = [
    Form.from_scalar(8, 1),
    Form.term(8, (3,), (2, 7), 1),
    Form.term(8, (1, 3, 5, 7), (2, 3, 6, 8), 1),
    Form.term(8, tuple(range(1, 9)), tuple(range(1, 9)), 1),
]


@pytest.mark.parametrize("metric", [HermitianMetric.identity(8), HermitianMetric.diagonal(list(range(1, 9)))],
                         ids=["identity", "diagonal"])
def test_star_laws_at_n8(metric):
    for psi in N8_MONOMIALS:
        p, q = psi.homogeneous_bidegree()
        twice = hodge_star(hodge_star(psi, metric), metric)
        assert twice == (-psi if (p + q) % 2 else psi), (p, q)
        assert defining_identity_check(psi, psi, metric).holds, (p, q)


def test_raise_indices_on_a_reused_metric_matches_a_fresh_copy():
    # many raises through one metric's kept frame, then the same raises on a
    # metric built anew from its entries
    rng = random.Random(11)
    metric = random_dense_metric(rng, 3)
    forms = [random_form(rng, 3, bidegree=(p, q), max_degree=1) for p in range(4) for q in range(4) for _ in range(3)]
    for psi in forms:
        for _ in range(3):
            raise_indices(psi, metric)
    fresh = HermitianMetric(metric.entries)
    assert [raise_indices(psi, metric) for psi in forms] == [raise_indices(psi, fresh) for psi in forms]


_CONVENTIONS = [StarConvention(c, o) for c in ("single", "literal_eq_2_9") for o in ("same_type_complement", "printed_eq_2_9")]


def _recording_pull_backs(monkeypatch):
    """Record (terms, image, result) of every pull-back the star module
    makes, the result as returned: the literal check merges its sums after."""
    calls = []
    original = pqforms.star._pulled_back

    def counted(n, terms, image, read):
        result = original(n, terms, image, read)
        calls.append((terms, image, dict(result)))
        return result

    monkeypatch.setattr(pqforms.star, "_pulled_back", counted)
    return calls


def _partners(phi):
    """The complements K^c = (A^c, B^c) of phi's keys K = (A, B)."""
    return {(complement(A, phi.n)[0], complement(B, phi.n)[0]) for A, B in phi.terms}


def _recording_reads(monkeypatch):
    """Record (frame, reads, scale, row function) of every ``_Frame.at``
    read, the star rows' among them."""
    calls = []
    original = _Frame.at

    def recorded(frame, reads, scale=None):
        row = original(frame, reads, scale)
        calls.append((frame, list(reads), scale, row))
        return row

    monkeypatch.setattr(_Frame, "at", recorded)
    return calls


def _assert_check_reads(reads, phi, metric, convention):
    """The check read the metric's one set of star rows at the complements
    of phi's keys (named with swapped halves under the swapped output),
    emitted at phi's keys K, or at (K,) under the literal conjugation, and
    the raising frame at phi's keys times -v, emitted at them; return the
    two row functions, star rows first."""
    swapped = convention.output_index_mode != "same_type_complement"
    literal = convention.conjugation_mode == "literal_eq_2_9"
    (_, star_reads, star_scale, star_row), = [call for call in reads if call[0] is metric._star]
    (_, raise_reads, raise_scale, raise_row), = [call for call in reads if call[0] is metric._star.frame]
    assert len(reads) == 2 and star_scale is None
    partners = {(A, B): (complement(A, phi.n)[0], complement(B, phi.n)[0]) for A, B in phi.terms}
    assert [(target, image[::-1] if swapped else image) for target, image, _ in star_reads] == [((K,) if literal else K, partner) for K, partner in partners.items()]
    assert [extra for _, _, extra in star_reads] == [0 if _key_product(K, partners[K])[1] > 0 else 2 for K in phi.terms]
    assert raise_reads == [(K, K, 0) for K in phi.terms]
    (_, volume), = volume_form(metric).terms.items()
    assert raise_scale == -volume.constant_value()
    return star_row, raise_row


def _assert_both_sides_emit(psi, rows, star_row, raise_row, convention):
    """Both row functions emit for some key of psi, the star rows' unless
    the swapped output misses the complements (p != q), and the star side
    read the star rows at psi's halves."""
    (p, q), swapped = psi.homogeneous_bidegree(), convention.output_index_mode != "same_type_complement"
    assert any(raise_row(key) for key in psi.terms)
    assert any(star_row(key) for key in psi.terms) or (swapped and p != q)
    assert {L for L, _ in psi.terms} <= set(rows.halves[0]) and {M for _, M in psi.terms} <= set(rows.halves[1])


def _assert_rows_summed(image, psi, phi, star_row, raise_row, convention):
    """The pull-back's row of each key of psi is the per-target sum of the
    two sides' rows, a target at most once and zero sums dropped: empty
    under the default convention, where the check holds, and keeping the
    star side's (K,) targets under the literal conjugation."""
    literal = convention.conjugation_mode == "literal_eq_2_9"
    for key in psi.terms:
        expected = {}
        for target, c in star_row(key) + raise_row(key):
            expected[target] = expected.get(target, ZERO) + c
        row = image(key)
        assert len({target for target, _ in row}) == len(row)
        assert dict(row) == {target: c for target, c in expected.items() if c}
        if convention == DEFAULT_CONVENTION:
            assert row == []
        if literal:
            assert {target for target, _ in row if target not in phi.terms} == {target for target, _ in star_row(key)}


def _check_pairs(rng):
    """(phi, psi) pairs of equal bidegree at n = 3, each pair sharing a key."""
    for p, q in [(0, 0), (1, 0), (1, 2), (2, 2), (3, 3)]:
        yield (random_form(rng, 3, bidegree=(p, q), max_degree=1) + Form.term(3, range(1, p + 1), range(1, q + 1), k) for k in (1, 2))


def test_defining_identity_check_raises_psi_once(monkeypatch):
    # under every convention, one pull-back of psi, read conjugated, through
    # the metric's one set of star rows read only at the complements of
    # phi's keys and the raising frame read only at phi's keys; under single
    # conjugation both emit at phi's keys, where their constants cancel
    # before any monomial is multiplied
    pulls, reads = _recording_pull_backs(monkeypatch), _recording_reads(monkeypatch)
    rng = random.Random(2)
    metric = random_dense_metric(rng, 3)
    for convention in _CONVENTIONS:
        for phi, psi in _check_pairs(rng):
            assert not phi.is_zero() and not psi.is_zero()
            del pulls[:], reads[:]
            report = defining_identity_check(phi, psi, metric, convention)
            (terms, image, result), = pulls
            assert terms is psi.terms
            assert report.holds == (result == {}) and (report.holds or convention != DEFAULT_CONVENTION)
            star_row, raise_row = _assert_check_reads(reads, phi, metric, convention)
            # the one pull-back goes through both sides, each emitting, summed per target
            _assert_rows_summed(image, psi, phi, star_row, raise_row, convention)
            _assert_both_sides_emit(psi, metric._star, star_row, raise_row, convention)
            if convention.conjugation_mode == "single":
                assert {target for key in psi.terms for target, _ in image(key)} <= set(phi.terms)


@pytest.mark.parametrize("convention", _CONVENTIONS[2:], ids=["literal-same", "literal"])
def test_defining_identity_check_literal_convention_pulls_back_once(monkeypatch, convention):
    # the literal star side is the single one's, read conjugated in the same
    # pull-back as the raise but emitted at (K,); each such sum, mapped to
    # (-1)^n times its conjugate, is s_K times the literal star at K^c
    pulls, reads = _recording_pull_backs(monkeypatch), _recording_reads(monkeypatch)
    rng = random.Random(7)
    metric = random_dense_metric(rng, 3)
    for phi, psi in _check_pairs(rng):
        del pulls[:], reads[:]
        report = defining_identity_check(phi, psi, metric, convention)
        (terms, image, sums), = pulls
        assert terms is psi.terms
        star_row, raise_row = _assert_check_reads(reads, phi, metric, convention)
        _assert_rows_summed(image, psi, phi, star_row, raise_row, convention)
        _assert_both_sides_emit(psi, metric._star, star_row, raise_row, convention)
        starred = {K[0]: c for K, c in sums.items() if K not in phi.terms}
        raised = {K: c for K, c in sums.items() if K in phi.terms}
        assert raised and set(starred) <= set(phi.terms)
        del pulls[:]
        star = hodge_star(psi, metric, convention)
        for K in phi.terms:
            partner = complement(K[0], 3)[0], complement(K[1], 3)[0]
            expected = star.terms.get(partner, WirtingerPolynomial.zero(3)).scale(_key_product(K, partner)[1])
            assert (-starred[K].conjugate() if K in starred else WirtingerPolynomial.zero(3)) == expected
        expected = phi ^ star
        assert report.residual == expected - volume_form(metric).scale(pointwise_inner(phi, psi, metric))


def test_defining_identity_check_stars_psi_only_at_phi_partners(monkeypatch):
    # n = 4, a dense metric, one (2,2) key of phi and three of psi: the
    # whole star has 36 keys, the check's star rows are read at one
    rng = random.Random(12)
    metric = random_dense_metric(rng, 4)
    phi = Form.term(4, (1, 3), (2, 4), WirtingerPolynomial.z(4, 2))
    psi = Form(4, {((1, 3), (2, 4)): 1, ((1, 2), (3, 4)): WirtingerPolynomial.zb(4, 1), ((2, 4), (1, 2)): gaussian(2, -1)})
    assert len(hodge_star(psi, metric).terms) == 36
    pulls, reads = _recording_pull_backs(monkeypatch), _recording_reads(monkeypatch)
    assert defining_identity_check(phi, psi, metric).holds
    (_, image, result), = pulls
    assert result == {}
    star_row, raise_row = _assert_check_reads(reads, phi, metric, DEFAULT_CONVENTION)
    # both sides emit at phi's one key and cancel there: the summed rows are empty
    _assert_rows_summed(image, psi, phi, star_row, raise_row, DEFAULT_CONVENTION)
    assert {target for key in psi.terms for target, _ in star_row(key)} == set(phi.terms)
    assert {target for key in psi.terms for target, _ in raise_row(key)} == set(phi.terms)
    assert [image for _, image, _ in reads[0][1]] == [((2, 4), (1, 3))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_star_rows_partner_is_the_complement_with_the_product_sign(n):
    # every key of every bidegree: K^c is the complement of each half, and
    # the quarter turns are those of _key_product(K, K^c)'s sign; the memo
    # keeps each half's complement, never a whole key
    metric = HermitianMetric.identity(n)
    rows = pqforms.star._star_rows(Form.zero(n), metric)
    halves = [A for p in range(n + 1) for A in combinations(range(1, n + 1), p)]
    for K in [(A, B) for A in halves for B in halves]:
        partner = complement(K[0], n)[0], complement(K[1], n)[0]
        assert rows.partner(K) == (partner, 0 if _key_product(K, partner)[1] > 0 else 2)
    assert rows.complements == {A: complement(A, n) for A in halves}


@pytest.mark.parametrize("convention", _CONVENTIONS, ids=["default", "single-printed", "literal-same", "literal"])
def test_a_second_check_calls_complement_for_no_key_it_has_seen(monkeypatch, convention):
    # the complements and the star rows' halves are kept on the metric: a
    # second check of the same psi complements only the halves of phi's
    # new keys that no key before had, each once, and a third, with no new
    # half, complements nothing
    calls = []
    original = pqforms.star.complement
    monkeypatch.setattr(pqforms.star, "complement", lambda indices, n: calls.append(indices) or original(indices, n))
    rng = random.Random(37)
    metric = random_dense_metric(rng, 3)
    phi, psi = (random_form(rng, 3, bidegree=(1, 2), max_degree=1) + Form.term(3, (1,), (1, 2), 1) for _ in range(2))
    new = Form.term(3, (2,), (1, 3), 1) + Form.term(3, (3,), (2, 3), 1)
    fresh = [K for K in new.terms if K not in phi.terms]
    assert fresh
    defining_identity_check(phi, psi, metric, convention)
    assert calls
    del calls[:]
    defining_identity_check(phi + new, psi, metric, convention)
    seen = {half for K in phi.terms for half in K}
    assert calls and sorted(calls) == sorted({half for K in fresh for half in K} - seen)
    del calls[:]
    defining_identity_check(new, psi, metric, convention)
    defining_identity_check(phi + new, psi, metric, convention)
    assert calls == []


@pytest.mark.parametrize("convention", _CONVENTIONS, ids=["default", "single-printed", "literal-same", "literal"])
def test_defining_identity_check_conjugates_each_coefficient_once(monkeypatch, convention):
    # a check of psi conjugates, in its one pull-back, exactly the
    # coefficients whose summed row is not empty, each once; a holding
    # default check conjugates none.  The literal conjugation conjugates
    # each nonzero star-side sum once more, one per K^c the literal star of
    # psi holds.  Then the star rows lose their unit, so no sum cancels, and
    # the same count holds with every coefficient read through the wrapper.
    calls = []
    original = WirtingerPolynomial._conjugate_terms

    def counted(coeff):
        calls.append(coeff)
        return original(coeff)

    rng = random.Random(23)
    metric = random_dense_metric(rng, 3)
    pairs = [tuple(pair) for pair in _check_pairs(rng)]
    # the metric's star rows are built before the wrapper is installed, and
    # still the check's reads must go through it
    stars = [hodge_star(psi, metric, convention) for _, psi in pairs]
    monkeypatch.setattr(WirtingerPolynomial, "_conjugate_terms", counted)
    pulls = _recording_pull_backs(monkeypatch)
    for broken in (False, True):
        if broken:  # i^-3 != 1 at n = 3: the star side no longer cancels the raise's
            _unturned_unit(monkeypatch)
        for (phi, psi), star in zip(pairs, stars):
            del calls[:], pulls[:]
            report = defining_identity_check(phi, psi, metric, convention)
            (_, image, _), = pulls
            rowed = [coeff for key, coeff in psi.terms.items() if image(key)]
            if convention == DEFAULT_CONVENTION:
                assert (rowed == []) == report.holds == (not broken)
            if broken:
                assert len(rowed) == len(psi.terms)
            sums = 0
            if convention.conjugation_mode == "literal_eq_2_9":
                sums = sum((complement(A, 3)[0], complement(B, 3)[0]) in star.terms for A, B in phi.terms)
            read = [c for c in calls if any(c is coeff for coeff in psi.terms.values())]
            assert len(read) == len(rowed) and {id(c) for c in read} == {id(c) for c in rowed}
            assert len(calls) == len(rowed) + sums


@pytest.mark.parametrize("convention", _CONVENTIONS, ids=["default", "single-printed", "literal-same", "literal"])
def test_a_reader_wrapped_after_the_first_star_sees_the_next_stars(monkeypatch, convention):
    # the star rows keep no reader of psi: a wrapper on _conjugate_terms
    # installed after a metric's first star sees each coefficient of the
    # next star read once, and none once it is removed
    calls = []
    original = WirtingerPolynomial._conjugate_terms
    rng = random.Random(29)
    metric = random_dense_metric(rng, 3)
    psi = random_form(rng, 3, bidegree=(1, 2), max_degree=1)
    expected = hodge_star(psi, metric, convention)
    monkeypatch.setattr(WirtingerPolynomial, "_conjugate_terms", lambda coeff: calls.append(coeff) or original(coeff))
    assert hodge_star(psi, metric, convention) == expected
    read = [c for c in calls if any(c is coeff for coeff in psi.terms.values())]
    assert len(read) == len(psi.terms) and {id(c) for c in read} == {id(c) for c in psi.terms.values()}
    monkeypatch.undo()
    del calls[:]
    assert hodge_star(psi, metric, convention) == expected and calls == []


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32), st.booleans())
def test_frame_reads_at_chosen_keys_what_its_rows_hold(n, seed, scaled):
    # the one half-row reader against the whole row: a dense frame and the
    # metric's star rows, read at the row's own image keys and at others,
    # which are left out
    rng = random.Random(seed)
    metric = random_dense_metric(rng, n)
    dense = _Frame(*([[random_scalar(rng) for _ in range(n)] for _ in range(n)] for _ in range(2)))
    rows = pqforms.star._star_rows(Form.zero(n), metric)
    assert pqforms.star._star_rows(Form.zero(n), metric) is rows is metric._star
    halves = [A for p in range(n + 1) for A in combinations(range(1, n + 1), p)]
    keys = [(A, B) for A in halves for B in halves]
    scale = random_scalar(rng) or gaussian(1, 1) if scaled else None
    for frame in (dense, rows):
        for key in rng.sample(keys, min(6, len(keys))):
            row = dict(frame.image(key))
            reads = [(("target", t), rng.choice(list(row) if row and rng.random() < 0.6 else keys), rng.randrange(4)) for t in range(rng.randint(0, 6))]
            expected = []
            for target, image, extra in reads:
                c = row.get(image)
                if c is not None:
                    c = c * gaussian(0, 1) ** extra
                    expected.append((target, c if scale is None else c * scale))
            assert frame.at(reads, scale)(key) == expected


def test_hodge_star_raises_a_mixed_form_in_one_pull_back(monkeypatch):
    # four bidegrees, one pull-back through the metric's one set of star
    # rows under each convention, and the same star as per component
    rng = random.Random(4)
    metric = random_dense_metric(rng, 3)
    psi = Form.zero(3)
    for p, q in [(0, 0), (1, 0), (1, 2), (3, 1)]:
        psi = psi + random_form(rng, 3, bidegree=(p, q), max_degree=1) + Form.term(3, range(1, p + 1), range(1, q + 1), 1)
    assert len(psi.bidegrees()) == 4
    for convention in _CONVENTIONS:
        expected = Form.zero(3)
        for p, q in sorted(psi.bidegrees()):
            expected = expected + hodge_star(psi.component(p, q), metric, convention)
        calls = _recording_pull_backs(monkeypatch)
        assert hodge_star(psi, metric, convention) == expected
        assert [image for _, image, _ in calls] == [metric._star.image]
        monkeypatch.undo()


@pytest.mark.parametrize("convention", _CONVENTIONS, ids=["default", "single-printed", "literal-same", "literal"])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sampled_from(["phi", "psi", None]), st.integers(0, 2**32))
def test_defining_identity_residual_is_its_definition(convention, n, zero, seed):
    # every (p, q), the swapped output's p != q rows among them, and a zero
    # phi or psi, on a dense metric
    rng = random.Random(seed)
    metric = random_dense_metric(rng, n)
    for p in range(n + 1):
        for q in range(n + 1):
            phi, psi = (Form.zero(n) if side == zero else random_form(rng, n, bidegree=(p, q), max_degree=1) for side in ("phi", "psi"))
            expected = phi ^ hodge_star(psi, metric, convention)
            expected = expected - volume_form(metric).scale(pointwise_inner(phi, psi, metric))
            report = defining_identity_check(phi, psi, metric, convention)
            assert report.residual == expected, (p, q)
            assert report.holds == expected.is_zero()
            assert report.convention == convention


def _unsigned_half(monkeypatch):
    """Star rows whose half rows lose the complement sign sgn(A, A^c)."""
    half = pqforms.star._StarRows._half

    def unsigned(rows, side, indices):
        # each key of a half row is A^c; the sign folded into it is sgn(A, A^c)
        return {rest: c if complement(complement(rest, rows.n)[0], rows.n)[1] > 0 else -c for rest, c in half(rows, side, indices).items()}

    monkeypatch.setattr(pqforms.star._StarRows, "_half", unsigned)


def _unturned_unit(monkeypatch):
    """Star rows whose unit loses its quarter turns i^n."""
    turns = pqforms.star._StarRows._turns
    monkeypatch.setattr(pqforms.star._StarRows, "_turns", lambda rows, key: turns(rows, key) - rows.n)


@pytest.mark.parametrize("breaking", [_unsigned_half, _unturned_unit], ids=["complement-sign", "unit"])
def test_defining_identity_check_catches_a_broken_star(monkeypatch, breaking):
    # the star side and the volume side are computed apart: the check fails
    # exactly where phi ^ star(psi) moves with the broken rows
    rng = random.Random(31)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 3)
        p, q = rng.randint(0, n), rng.randint(0, n)
        metric = random_dense_metric(rng, n)
        phi, psi = (random_form(rng, n, bidegree=(p, q), max_degree=1) for _ in range(2))
        cases.append((phi, psi, metric.entries, phi ^ hodge_star(psi, metric)))
    breaking(monkeypatch)
    caught = 0
    for phi, psi, entries, wedge in cases:
        broken = phi ^ hodge_star(psi, HermitianMetric(entries))
        report = defining_identity_check(phi, psi, HermitianMetric(entries))
        assert report.holds == (broken == wedge)
        caught += not report.holds
    assert caught >= 30


def _dz(n, *indices):
    return Form.term(n, indices, (), 1)


_MIXED = Form.term(2, (1,), (), 1) + Form.term(2, (1,), (1,), 1)


@pytest.mark.parametrize(
    "phi, psi, message",
    [
        (_dz(2, 1), Form.term(2, (), (1,), 1), "defining identity needs forms of equal bidegree"),
        (_MIXED, _dz(2, 1), r"form is not homogeneous: bidegrees \[\(1, 0\), \(1, 1\)\]"),
        (_dz(2, 1), _MIXED, r"form is not homogeneous: bidegrees \[\(1, 0\), \(1, 1\)\]"),
        (_dz(2, 1), _dz(3, 1), "form ambient dimension 3 != metric dimension 2"),
        (_dz(3, 1), _dz(2, 1), "ambient dimension mismatch: 3 vs 2"),
        # the checks run in this order: bidegree, then psi against the metric, then phi
        (_dz(3, 1), Form.term(2, (), (1,), 1), "defining identity needs forms of equal bidegree"),
        (_dz(3, 1), _dz(3, 1), "form ambient dimension 3 != metric dimension 2"),
        (Form.zero(3), _dz(2, 1), "ambient dimension mismatch: 3 vs 2"),
        (_dz(2, 1), Form.zero(3), "form ambient dimension 3 != metric dimension 2"),
    ],
)
def test_defining_identity_check_errors(phi, psi, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        defining_identity_check(phi, psi, HermitianMetric.identity(2))


def test_raise_indices_checks_the_dimension_of_a_zero_form():
    # a zero form is checked against the metric as any form is, and builds
    # no star rows, so no raising frame
    metric = HermitianMetric.identity(2)
    with pytest.raises(ValueError, match="^form ambient dimension 3 != metric dimension 2$"):
        raise_indices(Form.zero(3), metric)
    assert metric._star is None
    assert raise_indices(Form.zero(2), metric) == {} and metric._star is None


def test_defining_identity_zero_phi_accepts_mixed_psi():
    report = defining_identity_check(Form.zero(2), _MIXED, HermitianMetric.identity(2))
    assert report.holds and report.residual.is_zero()


@settings(max_examples=40, deadline=None)
@given(forms(max_terms=4, max_degree=1), st.integers(0, 2**32))
def test_raise_indices_matches_the_unmemoized_pull_back(psi, seed):
    # each component through one metric's frame: cold memo on the first
    # raise, warm on the second
    metric = random_dense_metric(random.Random(seed), psi.n)
    parts = [psi.component(p, q) for p, q in sorted(psi.bidegrees())]
    first = [raise_indices(part, metric) for part in parts]
    if metric._star is None:  # only the zero form never builds the frame
        assert psi.is_zero()
        return
    # dz^l goes to sum_a ginv[l][a] dz^a and dzb^m to sum_b ginv[b][m] dzb^b
    n, ginv = psi.n, metric.inverse
    unit, images = matrix_images(n, ginv, [[ginv[b][m] for b in range(n)] for m in range(n)])
    conjugate = WirtingerPolynomial.conjugate
    expected = [brute_pull_back(part.terms, _factors, unit, conjugate, images).terms for part in parts]
    assert first == expected
    assert [raise_indices(part, metric) for part in parts] == expected


def test_repeated_raises_do_not_grow_the_memo():
    rng = random.Random(5)
    metric = random_dense_metric(rng, 3)
    psis = [random_form(rng, 3, bidegree=(p, q), max_degree=1) for p in range(4) for q in range(4)]
    for psi in psis:
        raise_indices(psi, metric)
    frame = metric._star.frame
    halves = [dict(memo) for memo in frame.halves]
    # the halves of a key are kept, never the whole key
    assert set(halves[0]) == {I for psi in psis for I, _ in psi.terms}
    assert set(halves[1]) == {J for psi in psis for _, J in psi.terms}
    for _ in range(3):
        for psi in psis:
            raise_indices(psi, metric)
    assert list(frame.halves) == halves
    assert all(frame.halves[side][key] is halves[side][key] for side in (0, 1) for key in halves[side])


@pytest.mark.parametrize(
    "phi, psi",
    [(_dz(2, 1), _dz(2, 1)), (_dz(2, 1), _dz(3, 1)), (_dz(3, 1), _dz(2, 1))],
)
def test_pointwise_inner_checks_the_metric_dimension(phi, psi):
    with pytest.raises(ValueError, match="^ambient dimension mismatch between forms and metric$"):
        pointwise_inner(phi, psi, HermitianMetric.identity(3))


def brute_star(psi, metric, convention):
    """The star with no memo: psi raised by ``brute_pull_back`` through the
    inverse metric, then each raised term sent to its complements with the
    closed prefactor i^n (-1)^(n(n-1)/2 + (n-p)q) sgn(A, A^c) sgn(B, B^c) det(g)."""
    n, ginv = psi.n, metric.inverse
    unit, images = matrix_images(n, ginv, [[ginv[b][m] for b in range(n)] for m in range(n)])
    raised = brute_pull_back(psi.terms, _factors, unit, WirtingerPolynomial.conjugate, images)
    i = gaussian(0, 1)
    pairs = []
    for (A, B), coeff in raised.terms.items():
        (A_c, sign_A), (B_c, sign_B) = complement(A, n), complement(B, n)
        prefactor = i ** n * (-1) ** (n * (n - 1) // 2 + (n - len(A)) * len(B)) * sign_A * sign_B * metric.determinant
        if convention.conjugation_mode == "literal_eq_2_9":
            coeff = coeff.conjugate()
        key = (A_c, B_c) if convention.output_index_mode == "same_type_complement" else (B_c, A_c)
        pairs.append((key, coeff.scale(prefactor)))
    return Form(n, pairs)


@settings(max_examples=40, deadline=None)
@given(forms(max_terms=4, max_degree=1), st.integers(0, 2**32))
def test_hodge_star_matches_the_unmemoized_star(psi, seed):
    # mixed bidegrees under all four conventions, each on a fresh metric:
    # cold star rows on the first call, warm on the second
    metric = random_dense_metric(random.Random(seed), psi.n)
    for convention in _CONVENTIONS:
        fresh = HermitianMetric(metric.entries)
        expected = brute_star(psi, fresh, convention)
        assert hodge_star(psi, fresh, convention) == expected, convention
        assert hodge_star(psi, fresh, convention) == expected, convention


@settings(max_examples=40, deadline=None)
@given(forms(max_terms=4, max_degree=1), st.integers(0, 2**32))
def test_printed_variants_are_maps_of_the_consistent_star(psi, seed):
    # on the unmemoized star, mixed bidegrees and a dense metric: the
    # literal conjugation is (-1)^n times the coefficient conjugate of the
    # single one, since its unit u = +-i^n is not conjugated and
    # u / conj(u) = (-1)^n, and the printed output swaps each key's halves
    n = psi.n
    metric = random_dense_metric(random.Random(seed), n)
    for output in ("same_type_complement", "printed_eq_2_9"):
        single = brute_star(psi, metric, StarConvention("single", output))
        literal = brute_star(psi, metric, StarConvention("literal_eq_2_9", output))
        assert literal == Form(n, {key: c.conjugate().scale((-1) ** n) for key, c in single.terms.items()})
    for conjugation in ("single", "literal_eq_2_9"):
        same = brute_star(psi, metric, StarConvention(conjugation, "same_type_complement"))
        printed = brute_star(psi, metric, StarConvention(conjugation, "printed_eq_2_9"))
        assert printed == Form(n, {(B, A): c for (A, B), c in same.terms.items()})


_ENTRY_POINTS = {
    "raise_indices": raise_indices,
    "pointwise_inner": lambda psi, metric: pointwise_inner(psi, psi, metric),
    "hodge_star": hodge_star,
    "defining_identity_check": lambda psi, metric: defining_identity_check(psi, psi, metric),
}


@pytest.mark.parametrize("first", list(_ENTRY_POINTS))
def test_star_rows_keep_halves_only_one_set_per_metric(first):
    # whichever entry point runs first builds the metric's one set of rows
    # with its raising frame, and the other three read that object; the
    # stars under all four conventions share the rows, which hold the
    # consistent star's halves and no convention
    rng = random.Random(6)
    metric = random_dense_metric(rng, 3)
    psis = [random_form(rng, 3, bidegree=(p, q), max_degree=1) for p in range(4) for q in range(4)]
    assert metric._star is None
    _ENTRY_POINTS[first](next(psi for psi in psis if psi.terms), metric)
    built = metric._star
    assert isinstance(built, pqforms.star._StarRows)
    frame = built.frame
    for name, entry in _ENTRY_POINTS.items():
        if name != first:
            for psi in psis:
                entry(psi, metric)
                assert metric._star is built and built.frame is frame
    rows = []
    for convention in _CONVENTIONS:
        for psi in psis:
            hodge_star(psi, metric, convention)
            rows.append(metric._star)
    assert isinstance(metric._star, pqforms.star._StarRows) and all(r is metric._star for r in rows)
    assert pqforms.star._StarRows.__slots__ == ("frame", "n", "determinant", "complements")
    assert metric._star is built and metric._star.frame is frame
    # the halves of a key are kept, never the whole key
    assert set(metric._star.halves[0]) == {I for psi in psis for I, _ in psi.terms}
    assert set(metric._star.halves[1]) == {J for psi in psis for _, J in psi.terms}
    assert HermitianMetric(metric.entries)._star is None


def test_repeated_stars_do_not_grow_the_memo():
    rng = random.Random(9)
    metric = random_dense_metric(rng, 3)
    psis = [random_form(rng, 3, bidegree=(p, q), max_degree=1) for p in range(4) for q in range(4)]
    for psi in psis:
        hodge_star(psi, metric)
    rows = metric._star
    halves = [dict(memo) for memo in rows.halves]
    # the other conventions read the same halves
    for convention in _CONVENTIONS * 3:
        for psi in psis:
            hodge_star(psi, metric, convention)
    assert metric._star is rows
    assert list(rows.halves) == halves
    assert all(rows.halves[side][key] is halves[side][key] for side in (0, 1) for key in halves[side])

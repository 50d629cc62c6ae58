from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import curvedual as cd
from curvedual.errors import (BranchMismatch, BranchOutOfRange,
                              DifferentialDegreeError, ParseError)
from curvedual.laurent import (INF, Element, clip_product, clip_window,
                               linear_combination)

QQ = cd.rationals()

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=5).filter(bool)


@st.composite
def elements(draw, degree=None, nbranches=None):
    nb = nbranches if nbranches is not None else draw(st.integers(1, 3))
    deg = degree if degree is not None else draw(st.integers(0, 1))
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, nb - 1), st.integers(-5, 5)),
        coeff, max_size=6))
    return Element(QQ, nb, entries, deg)


@given(elements())
def test_parse_format_roundtrip(elem):
    text = cd.format_element(elem)
    assert cd.parse_element(QQ, text) == elem


def test_parse_accepts_spec_shapes(qq, f5):
    e = cd.parse_element(qq, "(t^2 + t^5, 0)")
    assert e.nbranches == 2
    assert e.coefficient(0, 5) == Fraction(1)
    assert e.valuation(1) == INF

    form = cd.parse_element(qq, "(t^-1, 2 t^-1) dt")
    assert form.degree == 1
    assert form.residue(1) == Fraction(2)

    assert cd.parse_element(qq, "dt") == Element(qq, 1, {(0, 0): qq.one}, 1)
    assert cd.parse_element(qq, "3/2 t^-4").coefficient(0, -4) == Fraction(3, 2)
    assert cd.parse_element(f5, "(4 t, 3)").coefficient(0, 1) == f5.of_int(4)


@pytest.mark.parametrize("bad", [
    "", "()", "(t", "t,t", "(t, (t))", "t^", "t + + t", "q^2",
])
def test_parse_rejects_garbage(bad, qq):
    with pytest.raises(ParseError):
        cd.parse_element(qq, bad)


def test_parse_branch_count_pinning(qq):
    with pytest.raises(BranchMismatch):
        cd.parse_element(qq, "(t, t)", nbranches=3)


@settings(max_examples=60)
@given(elements(degree=0, nbranches=2), elements(degree=0, nbranches=2),
       elements(degree=0, nbranches=2))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Element.zero(QQ, 2)


@given(elements(degree=0, nbranches=2), elements(degree=0, nbranches=2))
def test_valuations_add_under_product(a, b):
    p = a * b
    for i in range(2):
        va, vb = a.valuation(i), b.valuation(i)
        if va == INF or vb == INF:
            assert p.valuation(i) == INF
        else:
            assert p.valuation(i) == va + vb


def test_residues(qq):
    w = cd.parse_element(qq, "(2 t^-1 + t^-3, 5 t^-1) dt")
    assert w.residue(0) == Fraction(2)
    assert w.residue(1) == Fraction(5)
    with pytest.raises(DifferentialDegreeError):
        Element(qq, w.nbranches, w.coeffs).residue(0)
    with pytest.raises(BranchOutOfRange):
        w.residue(2)


def test_degree_discipline(qq):
    f = cd.parse_element(qq, "t")
    w = cd.parse_element(qq, "t dt")
    assert (f * w).degree == 1
    with pytest.raises(DifferentialDegreeError):
        f + w
    with pytest.raises(DifferentialDegreeError):
        w * w
    with pytest.raises(DifferentialDegreeError):
        Element(qq, 1, {}, degree=2)


def test_branch_guards(qq):
    with pytest.raises(BranchOutOfRange):
        Element(qq, 2, {(2, 0): qq.one})
    a = cd.parse_element(qq, "(t, t)")
    b = cd.parse_element(qq, "t")
    with pytest.raises(BranchMismatch):
        a + b


def test_constructors_and_views(qq):
    m = Element.monomial(qq, 3, 1, 4)
    assert m.valuations() == (INF, 4, INF)
    d = Element.diag_monomial(qq, 3, 2)
    assert d.valuations() == (2, 2, 2)


def test_pow_and_scale(qq):
    t = cd.parse_element(qq, "(t, 2 t)")
    assert t ** 3 == cd.parse_element(qq, "(t^3, 8 t^3)")
    assert t ** 0 == Element.one(qq, 2)
    assert 3 * t == t.scale(Fraction(3)) == t * 3
    with pytest.raises(ValueError):
        t ** -1


def test_map_coefficients_base_change(qq, f5):
    e = cd.parse_element(qq, "(2 t, 7)")
    moved = e.map_coefficients(lambda c: f5.of_int(c.numerator), f5)
    assert moved.field == f5
    assert moved.coefficient(1, 0) == f5.of_int(2)


PRODUCT_FIELDS = [QQ, cd.prime_field(5), cd.prime_field(5).extension(2)]


def _scalars(field):
    if field is QQ:
        return coeff
    return st.sampled_from(list(field.elements())).filter(bool)


@st.composite
def coeff_dicts(draw, field, nb):
    return draw(st.dictionaries(
        st.tuples(st.integers(0, nb - 1), st.integers(-6, 6)),
        _scalars(field), max_size=7))


def full_product(a, b):
    """The branchwise double loop of the product before it was clipped:
    every term, a cancelled key dropped and re-added on its next hit."""
    out = {}
    for (i, ja), ca in a.items():
        for (ib, jb), cb in b.items():
            if ib == i:
                key = (i, ja + jb)
                s = out.get(key)
                s = ca * cb if s is None else s + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


@settings(max_examples=150)
@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=["Q", "F5", "F25"])
@given(data=st.data())
def test_clip_product_is_the_clipped_full_product(field, data):
    nb = data.draw(st.integers(1, 3))
    a = data.draw(coeff_dicts(field, nb))
    b = data.draw(coeff_dicts(field, nb))
    tail = data.draw(st.none() | st.tuples(
        *[st.integers(-10, 10) for _ in range(nb)]))
    want = full_product(a, b)
    if tail is not None:
        want = clip_window(want, tail)
    got = clip_product(a, b, tail)
    # items in order: the key order of a product reaches echelon rows
    assert list(got.items()) == list(want.items())
    if tail is None:
        assert Element(field, nb, a) * Element(field, nb, b) == \
            Element(field, nb, want)


@settings(max_examples=80)
@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=["Q", "F5", "F25"])
@given(data=st.data())
def test_linear_combination_matches_the_element_sum(field, data):
    nb = data.draw(st.integers(1, 3))
    vecs = data.draw(st.lists(coeff_dicts(field, nb), max_size=5))
    weights = [data.draw(st.just(field.zero) | _scalars(field))
               for _ in vecs]
    want = Element.zero(field, nb, degree=1)
    for w, v in zip(weights, vecs):
        if w:
            want = want + Element(field, nb, v, 1).scale(w)
    got = linear_combination(field, nb, weights, vecs, degree=1)
    assert got == want
    assert list(got.coeffs.items()) == list(want.coeffs.items())

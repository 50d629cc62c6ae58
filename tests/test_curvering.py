import math

import pytest
from hypothesis import given, strategies as st

import curvedual as cd
from curvedual import curvering
from curvedual.errors import (InvariantViolation, NotCoprime,
                              NotFiniteColength, NotPrimeField, ParseError,
                              TooLarge)
from curvedual.family import random_spec
from curvedual.fields import format_field
from curvedual.laurent import Element, window_key
from curvedual.linalg import Echelon


# frozen by hand: members of <4,6,7> are 0,4,6,7,8,10,11,12,...
SEMIGROUP_CASES = [
    ((2, 3), 2, 1, True, (1,)),
    ((3, 4, 5), 3, 2, False, (1, 2)),
    ((3, 5, 7), 5, 3, False, (1, 2, 4)),
    ((4, 6, 7), 10, 5, True, (1, 2, 3, 5, 9)),
    ((11, 12), 110, 55, True, None),
]


@pytest.mark.parametrize("gens,cond,delta,symmetric,gaps", SEMIGROUP_CASES)
def test_semigroup_oracle_frozen(gens, cond, delta, symmetric, gaps):
    data = cd.semigroup_oracle(gens)
    assert data.conductor == cond
    assert data.delta == delta
    assert data.symmetric is symmetric
    if gaps is not None:
        assert data.gaps == gaps


@given(st.integers(2, 15), st.integers(2, 15))
def test_semigroup_pairs_match_closed_form(a, b):
    # independent oracle: conductor (a-1)(b-1), delta half of that
    if math.gcd(a, b) != 1:
        with pytest.raises(NotCoprime):
            cd.semigroup_oracle((a, b))
        return
    data = cd.semigroup_oracle((a, b))
    assert data.conductor == (a - 1) * (b - 1)
    assert data.delta == (a - 1) * (b - 1) // 2
    assert data.symmetric


def test_semigroup_oracle_stops_at_the_conductor_cap():
    cap = curvering.MAX_SEMIGROUP_CONDUCTOR
    assert cap >= 288
    assert cd.semigroup_oracle((2, cap + 1)).conductor == cap
    assert cd.semigroup_oracle((17, 19)).conductor == 288
    for gens in [(2, cap + 3), (cap + 1, cap + 2), (cap + 2, cap + 3),
                 (3, cap * cap)]:
        with pytest.raises(TooLarge, match=f"bound {cap}"):
            cd.semigroup_oracle(gens)


@pytest.mark.parametrize("bad", [(2, 4), (0, 3), (-2, 3), (6, 10, 14)])
def test_semigroup_rejects_bad_generators(bad):
    with pytest.raises(NotCoprime):
        cd.semigroup_oracle(bad)


# (name, conductor exponents, delta, gorenstein)
NAMED_INVARIANTS = [
    ("smooth", (0,), 0, True),
    ("cusp", (2,), 1, True),
    ("node", (1, 1), 1, True),
    ("tacnode", (2, 2), 2, True),
    ("three-lines", (2, 2, 2), 3, True),
    ("axes", (1, 1, 1), 2, False),
]


@pytest.mark.parametrize("name,cond,delta,gor", NAMED_INVARIANTS)
def test_named_ring_invariants(named, name, cond, delta, gor):
    ring = named[name]
    assert ring.cond == cond
    assert ring.delta == delta
    assert ring.colength_normalization == sum(cond)
    assert ring.colength_ring == sum(cond) - delta
    assert ring.is_gorenstein() is gor


def test_semigroup_ring_matches_oracle(qq):
    for gens in [(2, 3), (3, 4, 5), (4, 6, 7), (11, 12)]:
        ring = cd.build(cd.semigroup_spec(qq, gens))
        data = cd.semigroup_oracle(gens)
        assert ring.cond == (data.conductor,)
        assert ring.delta == data.delta
        assert ring.is_gorenstein() is data.symmetric


@pytest.mark.parametrize("extra_conductor, extra_delta", [(3, 1), (0, 1)])
def test_build_refuses_an_oracle_the_scan_contradicts(
        monkeypatch, qq, extra_conductor, extra_delta):
    # the oracle sizes the window, so an overstated conductor still
    # leaves room for the scan; the scan's answer must match it anyway
    oracle = curvering.semigroup_oracle

    def overstating(gens):
        data = oracle(gens)
        return curvering.SemigroupData(
            data.generators, data.conductor + extra_conductor,
            data.delta + extra_delta, data.symmetric, data.gaps)

    monkeypatch.setattr(curvering, "semigroup_oracle", overstating)
    with pytest.raises(InvariantViolation, match="semigroup oracle"):
        cd.build(cd.semigroup_spec(qq, (3, 5)))


def test_membership(cusp, node, qq):
    t = lambda s: cd.parse_element(qq, s)
    assert cusp.membership(t("t^2"))
    assert cusp.membership(t("t^3 + 5 t^2"))
    assert not cusp.membership(t("t"))
    assert cusp.membership(t("t^17"))  # beyond the conductor
    assert node.membership(t("(t, 0)"))
    assert node.membership(t("(1, 1)"))
    assert not node.membership(t("(1, 0)"))
    assert not node.membership(t("(t, 0) dt"))


def test_presentation_independence(qq, cusp):
    # same subring from a different generating set
    other = cd.build(cd.CurveSpec(qq, (
        cd.parse_element(qq, "t^2 + t^3"),
        cd.parse_element(qq, "t^3"),
    )))
    assert other == cusp
    assert hash(other) == hash(cusp)
    assert other != cd.build(cd.semigroup_spec(qq, (2, 5)))


def test_constant_shift_is_normalized(qq):
    # generators are taken modulo constants, so 1 + t^2 works like t^2
    ring = cd.build(cd.CurveSpec(qq, (
        cd.parse_element(qq, "1 + t^2"),
        cd.parse_element(qq, "4 + t^3"),
    )))
    assert ring == cd.build(cd.semigroup_spec(qq, (2, 3)))


def test_window_bound_enforced(qq):
    gens = (cd.parse_element(qq, "t^11"), cd.parse_element(qq, "t^12"))
    with pytest.raises(NotFiniteColength):
        cd.build(cd.CurveSpec(qq, gens, window_bound=200))
    ring = cd.build(cd.CurveSpec(qq, gens, window_bound=300))
    assert ring.cond == (110,)
    # the semigroup route presizes its window from the exact conductor
    assert cd.build(cd.semigroup_spec(qq, (11, 12))).cond == (110,)


def test_window_bound_is_capped(qq, monkeypatch):
    # the widest window the semigroup path presizes, so seminormalization,
    # which rebuilds within the ring's own window, stays in range
    cap = curvering.MAX_WINDOW_BOUND
    assert cap == 2 * curvering.MAX_SEMIGROUP_CONDUCTOR + 2 == 8194
    gens = (cd.parse_element(qq, "t^2"), cd.parse_element(qq, "t^3"))
    assert cd.build(cd.CurveSpec(qq, gens, window_bound=cap)).cond == (2,)

    def refuse(*args):
        raise AssertionError("closed past the cap")

    monkeypatch.setattr(curvering, "_closure_window", refuse)
    with pytest.raises(TooLarge, match="window bound 8195 exceeds the "
                                       "bound 8194"):
        cd.build(cd.CurveSpec(qq, gens, window_bound=cap + 1))


def test_no_finite_colength_cases(qq):
    with pytest.raises(NotFiniteColength):
        cd.build(cd.CurveSpec(qq, ()))
    # a branch the generators never see cannot have finite colength
    with pytest.raises(NotFiniteColength):
        cd.build(cd.CurveSpec(qq, (cd.parse_element(qq, "(t, 0)"),)))


def test_seminormalization(named, qq):
    for name, ring in named.items():
        semi = ring.seminormalization()
        assert semi.is_seminormal()
        assert all(n <= 1 for n in semi.cond)
        if ring.is_seminormal():
            assert semi == ring
    # the cusp seminormalizes to the smooth line
    assert named["cusp"].seminormalization() == named["smooth"]
    assert named["tacnode"].seminormalization() == named["node"]


def test_conductor_cross_check(r345):
    assert r345.cond == (3,)
    assert r345.delta == 2
    assert (r345.colength_normalization, r345.colength_ring) == (3, 1)
    assert r345.is_gorenstein() is False


def test_base_change(f2):
    ring = cd.named_ring(f2, "node")
    big, mapper = ring.base_change(2)
    assert big.field.order == 4
    assert big.cond == ring.cond
    assert big.colength_ring == ring.colength_ring
    moved = mapper(ring.gens[0])
    assert big.membership(moved)
    same, ident = ring.base_change(1)
    assert same is ring
    with pytest.raises(NotPrimeField):
        big.base_change(2)
    with pytest.raises(NotPrimeField):
        cd.named_ring(cd.rationals(), "node").base_change(2)


def test_parse_curve_file_roundtrip(qq, f5):
    for spec in [
        cd.named_spec(qq, "tacnode"),
        cd.semigroup_spec(f5, (3, 7)),
        cd.monomial_spec(qq, 4),
    ]:
        text = cd.format_curve_file(spec)
        back = cd.parse_curve_file(text)
        assert back.field == spec.field
        assert back.generators == spec.generators
        assert back.semigroup == spec.semigroup
        assert cd.build(back) == cd.build(spec)


def test_parse_curve_file_errors():
    with pytest.raises(ParseError, match="line 1"):
        cd.parse_curve_file("gen t^2\nfield Q\n")
    with pytest.raises(ParseError, match="line 2"):
        cd.parse_curve_file("field Q\nwibble 3\n")
    with pytest.raises(ParseError, match="missing field"):
        cd.parse_curve_file("# nothing here\n")
    with pytest.raises(ParseError, match="either"):
        cd.parse_curve_file("field Q\ngen t^2\nsemigroup 2 3\n")
    with pytest.raises(ParseError, match="line 3"):
        cd.parse_curve_file("field Q\nbranches 2\ngen (t, t\n")
    # each of field, branches and semigroup may appear once
    with pytest.raises(ParseError, match="line 4: repeated field"):
        cd.parse_curve_file("field F5\nbranches 1\ngen t^2 + 3 t^3\n"
                            "field F7\n")
    with pytest.raises(ParseError, match="line 4: repeated field"):
        cd.parse_curve_file("field F5\nbranches 1\ngen t^2 + 3 t^3\n"
                            "field Q\n")
    with pytest.raises(ParseError, match="line 3: repeated semigroup"):
        cd.parse_curve_file("field Q\nsemigroup 2 3\nsemigroup 3 4\n")
    with pytest.raises(ParseError, match="line 3: repeated branches"):
        cd.parse_curve_file("field Q\nbranches 1\nbranches 1\n")
    with pytest.raises(ParseError, match="line 3: branches 1 disagrees"):
        cd.parse_curve_file("field Q\ngen (t^2, t)\nbranches 1\n")
    # a semigroup ring has one branch, whichever line comes first
    with pytest.raises(ParseError, match="line 3: a semigroup ring has one"):
        cd.parse_curve_file("field Q\nbranches 2\nsemigroup 2 3\n")
    with pytest.raises(ParseError, match="line 3: a semigroup ring has one"):
        cd.parse_curve_file("field Q\nsemigroup 2 3\nbranches 2\n")
    spec = cd.parse_curve_file("field Q\nbranches 1\nsemigroup 2 3\n")
    assert spec.semigroup == (2, 3)
    assert cd.parse_curve_file(cd.format_curve_file(spec)) == spec


def test_spec_conveniences(qq):
    spec = cd.semigroup_spec(qq, (3, 4))
    assert spec.label == "<3,4>"
    assert cd.monomial_spec(qq, 3).semigroup == (3, 4, 5)
    with pytest.raises(ParseError):
        cd.named_spec(qq, "doodle")
    assert "cusp" in cd.curve_names()


def reference_build(spec):
    """(cond, window, basis) of the ring build before the slab shed:
    the closure under a product clipped at the window width, the
    top-down scan for the full slab, the pivot filter and a second
    echelon of the filtered rows."""
    field = spec.field
    gens = list(spec.generators)
    if spec.semigroup is not None:
        gens = [Element.monomial(field, 1, 0, a) for a in spec.semigroup]
        width = 2 * max(cd.semigroup_oracle(spec.semigroup).conductor, 1) + 2
    gens = curvering._normalize_generators(gens)
    r = gens[0].nbranches
    if spec.semigroup is None:
        vals = [g.valuation(i) for g in gens for i in range(r)
                if g.valuation(i) != math.inf]
        width = min(spec.window_bound, max(8, 2 * max(vals) + 2))
    while True:
        ech = Echelon(field, sort_key=window_key)
        frontier = [{(i, 0): field.one for i in range(r)}]
        ech.insert(frontier[0])
        while frontier:
            v = frontier.pop()
            for g in gens:
                vec = {}
                for (i, ja), ca in v.items():
                    for (ib, jb), cb in g.coeffs.items():
                        if ib == i and ja + jb < width:
                            vec[(i, ja + jb)] = \
                                vec.get((i, ja + jb), field.zero) + ca * cb
                vec = {k: c for k, c in vec.items() if c}
                if vec and ech.insert(vec) is not None:
                    frontier.append(vec)
        cond = []
        for i in range(r):
            s = width
            for j in range(width - 1, -1, -1):
                if not ech.contains({(i, j): field.one}):
                    break
                s = j
            cond.append(s)
        need = 2 * max(max(cond), 1) + 2
        if need <= width:
            break
        width = min(need, spec.window_bound)
    rows = [{k: c for k, c in row.items() if k[1] < cond[k[0]]}
            for row, piv in zip(ech.rows, ech.pivots)
            if piv[1] < cond[piv[0]]]
    reduced = Echelon(field, sort_key=window_key)
    reduced.extend(rows)
    return (tuple(cond), width,
            tuple(Element(field, r, row) for row in reduced.rows))


REFERENCE_SPECS = (
    [spec for name in ("Q", "F5")
     for spec in cd.family_specs(cd.parse_field(name))]
    + [random_spec(cd.parse_field(name), seed)
       for name in ("Q", "F2", "F7") for seed in range(30)])


@pytest.mark.parametrize(
    "spec", REFERENCE_SPECS,
    ids=[f"{format_field(s.field)}-{s.label}" for s in REFERENCE_SPECS])
def test_build_matches_the_reference_scan(spec):
    ring = cd.build(spec)
    cond, window, basis = reference_build(spec)
    assert (ring.cond, ring.window, ring.basis) == (cond, window, basis)
    assert [list(b.coeffs) for b in ring.basis] == \
        [list(b.coeffs) for b in basis]

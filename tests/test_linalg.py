import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import curvedual as cd
from curvedual.linalg import (Echelon, TrackedEchelon, _Tag, dense_rank,
                              intersect_spans, is_invertible, kernel, span,
                              vec_addmul, vec_sub)


def rand_vec(field, rng, keys):
    return {k: c for k in keys if (c := field.random(rng))}


scalars = st.fractions(min_value=-30, max_value=30, max_denominator=6)
vectors = st.dictionaries(st.integers(0, 5), scalars, max_size=6).map(
    lambda d: {k: v for k, v in d.items() if v})


@given(vectors, vectors, scalars)
def test_vec_helpers(a, b, c):
    s = vec_addmul(a, c, b)
    for k in set(a) | set(b):
        assert s.get(k, Fraction(0)) == a.get(k, Fraction(0)) + c * b.get(k, Fraction(0))
    assert all(v for v in s.values())
    d = vec_sub(a, b)
    for k in set(a) | set(b):
        assert d.get(k, Fraction(0)) == a.get(k, Fraction(0)) - b.get(k, Fraction(0))


@settings(max_examples=40)
@given(st.lists(vectors, max_size=8), vectors, vectors)
def test_echelon_span_closure(vecs, x, y):
    qq = cd.rationals()
    ech = span(qq, vecs)
    assert ech.dim <= 6
    for v in vecs:
        assert ech.contains(v)
    # span is closed under addition of members
    if ech.contains(x) and ech.contains(y):
        assert ech.contains(vec_addmul(x, Fraction(1), y))
    # inserting a member does not grow the span
    if vecs:
        before = ech.dim
        assert ech.insert(vecs[0]) is None
        assert ech.dim == before


def test_echelon_coords_reconstruct():
    qq = cd.rationals()
    rng = random.Random(3)
    basis = [rand_vec(qq, rng, range(8)) for _ in range(5)]
    ech = span(qq, basis)
    target = {}
    for v in basis:
        target = vec_addmul(target, qq.random(rng), v)
    cs = ech.coords(target)
    assert cs is not None
    rebuilt = {}
    for c, row in zip(cs, ech.rows):
        rebuilt = vec_addmul(rebuilt, c, row)
    assert rebuilt == target
    assert ech.coords({99: Fraction(1)}) is None


def test_tracked_echelon_express():
    f5 = cd.prime_field(5)
    rng = random.Random(11)
    ins = [rand_vec(f5, rng, range(6)) for _ in range(7)]
    tracked = TrackedEchelon(f5)
    for i, v in enumerate(ins):
        tracked.insert(v, tag=i)
    probe = {}
    for v in ins[:4]:
        probe = vec_addmul(probe, f5.random(rng), v)
    combo = tracked.express(probe)
    assert combo is not None
    rebuilt = {}
    for tag, c in combo.items():
        rebuilt = vec_addmul(rebuilt, c, ins[tag])
    assert rebuilt == probe
    assert tracked.express({77: f5.one}) is None


@pytest.mark.parametrize("field_name", ["Q", "F5"])
def test_tracked_dependent_insert_keeps_rows(field_name):
    field = cd.parse_field(field_name)
    one, two, three = (field.of_int(n) for n in (1, 2, 3))
    a = {0: one, 1: one, 2: one}
    b = {1: one, 2: two}
    tracked = TrackedEchelon(field)
    assert tracked.insert(a, "a") and tracked.insert(b, "b")
    rows = [dict(row) for row in tracked.ech.rows]
    pivots = list(tracked.ech.pivots)
    dependent = vec_addmul(vec_addmul({}, three, a), two, b)
    # the residual is a pure tag combination: it must not become a row
    # pivoted at an old tag, which would rewrite the rows holding that tag
    assert tracked.insert(dependent, "c") is False
    assert tracked.ech.rows == rows and tracked.ech.pivots == pivots
    assert tracked.express(dependent) == {"a": three, "b": two}
    assert_echelon_invariants(tracked, {"a": a, "b": b})


@pytest.mark.parametrize("field_name", ["Q", "F5"])
def test_kernel_solves_constraints(field_name):
    field = cd.parse_field(field_name)
    rng = random.Random(19)
    unknowns = list(range(7))
    constraints = [rand_vec(field, rng, unknowns) for _ in range(4)]
    basis = kernel(field, constraints, unknowns)
    rank = span(field, constraints).dim
    assert len(basis) == len(unknowns) - rank  # rank-nullity
    for sol in basis:
        for row in constraints:
            total = field.zero
            for k, c in row.items():
                total = total + c * sol.get(k, field.zero)
            assert total == field.zero
    # solutions are independent
    assert span(field, basis).dim == len(basis)


def test_intersect_spans():
    qq = cd.rationals()
    e = lambda *ks: {k: Fraction(1) for k in ks}
    a = [e(0), e(1)]
    b = [e(1), e(2)]
    meet = intersect_spans(qq, a, b)
    ech = span(qq, meet)
    assert ech.dim == 1
    assert ech.contains(e(1))
    assert not ech.contains(e(0))
    # disjoint spans meet trivially
    assert intersect_spans(qq, [e(0)], [e(1)]) == []


def test_dense_rank_and_invertibility():
    qq = cd.rationals()
    one = Fraction(1)
    assert dense_rank(qq, [[one, one], [one, one]]) == 1
    assert dense_rank(qq, [[one, Fraction(0)], [Fraction(0), one]]) == 2
    assert is_invertible(qq, [[one, one], [one, Fraction(2)]])
    assert not is_invertible(qq, [[one, one], [Fraction(2), Fraction(2)]])
    assert is_invertible(qq, [])


def test_echelon_respects_sort_key():
    qq = cd.rationals()
    ech = Echelon(qq, sort_key=lambda k: -k)
    ech.insert({0: Fraction(1), 3: Fraction(1)})
    # with reversed order the pivot is the largest key
    assert ech.pivots == [3]


def full_scan_reduce(ech, vec):
    """Textbook elimination: every pivot in turn, in pivot order."""
    out = {k: x for k, x in vec.items() if x}
    for p, row in zip(ech.pivots, ech.rows):
        c = out.get(p)
        if c is not None:
            out = vec_addmul(out, -c, row)
    return out


def combine(coeffs, vecs):
    out = {}
    for c, v in zip(coeffs, vecs):
        out = vec_addmul(out, c, v)
    return out


def assert_echelon_invariants(ech, inserted=None):
    """Echelon shape and pivot index; for a TrackedEchelon, the tagged
    echelon's, with every pivot a real key and every row's tag part
    combining the `inserted` vectors (tag -> vector) to its real part."""
    if isinstance(ech, TrackedEchelon):
        tagged = ech.ech
        assert_echelon_invariants(tagged)
        for p, row in zip(tagged.pivots, tagged.rows):
            assert not isinstance(p, _Tag)
            real = {k: x for k, x in row.items() if not isinstance(k, _Tag)}
            tags = {k.tag: x for k, x in row.items() if isinstance(k, _Tag)}
            assert combine(tags.values(), [inserted[t] for t in tags]) == real
        return
    assert len(ech.rows) == len(ech.pivots) == len(ech._pivot_keys)
    assert list(ech._pivot_keys) == sorted(ech._pivot_keys)
    assert ech._pivot_keys == [ech.sort_key(p) for p in ech.pivots]
    assert set(ech._row_at) == set(ech.pivots)
    pivots = set(ech.pivots)
    for p, row in zip(ech.pivots, ech.rows):
        assert ech._row_at[p] is row
        assert row[p] == ech.field.one
        assert min(row, key=ech.sort_key) == p
        assert not (pivots - {p}) & set(row)


@settings(max_examples=60, deadline=None)
@given(field_name=st.sampled_from(["Q", "F2", "F5", "F7"]),
       n=st.integers(1, 64), dense=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_pivot_index_matches_textbook_elimination(field_name, n, dense, seed):
    field = cd.parse_field(field_name)
    rng = random.Random(seed)
    # an injective order that is not the natural one on 0..63
    order = lambda k: (7 * k) % 67

    def draw():
        keys = range(n) if dense else rng.sample(range(n), min(n, 4))
        return rand_vec(field, rng, keys)

    ech = Echelon(field, sort_key=order)
    fresh = []
    for _ in range(rng.randint(1, 24)):
        if ech.pivots and rng.random() < 0.25:
            p = rng.choice(ech.pivots)
            kept = [dict(row) for row in ech.rows if row is not ech._row_at[p]]
            ech.discard(p)
            rebuilt = span(field, kept, sort_key=order)
            assert ech.rows == rebuilt.rows and ech.pivots == rebuilt.pivots
            assert p not in ech._row_at
            fresh = []
        else:
            v = draw()
            ech.insert(v)
            fresh.append(v)
        assert_echelon_invariants(ech)
    with pytest.raises(KeyError):
        ech.discard(n + 1)

    for v in fresh:
        assert ech.contains(v)
        cs = ech.coords(v)
        assert cs is not None and combine(cs, ech.rows) == v
    for _ in range(8):
        v = draw()
        r = ech.reduce(v)
        expected = full_scan_reduce(ech, v)
        assert list(r.items()) == list(expected.items())
        assert not set(r) & set(ech.pivots)
        cs = ech.coords(vec_sub(v, r))
        assert cs is not None and combine(cs, ech.rows) == vec_sub(v, r)
        assert (ech.coords(v) is None) == bool(r)

    tracked = TrackedEchelon(field, sort_key=order)
    for tag, v in enumerate(fresh):
        tracked.insert(v, tag)
        assert_echelon_invariants(tracked, fresh)
    for _ in range(8):
        weights = [field.random(rng) for _ in fresh]
        probe = combine(weights, fresh)
        combo = tracked.express(probe)
        assert combo is not None
        assert combine(combo.values(), [fresh[t] for t in combo]) == probe
        outside = draw()
        assert (tracked.express(outside) is None) == (
            not span(field, fresh, sort_key=order).contains(outside))

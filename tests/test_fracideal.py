import random

import pytest

import curvedual as cd
from curvedual.duality import _socle_parameter
from curvedual.errors import (DifferentialDegreeError, NotContained,
                              NotMember, OwnerMismatch, ZeroDivisor,
                              ZeroOnBranch)
from curvedual.fracideal import (FracIdeal, ZeroModule, conductor_module,
                                 from_generators,
                                 maximal_ideal, normalization_module,
                                 random_ideal, random_ring_element,
                                 slab_module, unit_ideal)
from curvedual.laurent import INF, Element, clip_window, window_key
from curvedual.linalg import kernel, span, vec_iaddmul


def elem(ring, text):
    return cd.parse_element(ring.field, text, nbranches=ring.nbranches)


def test_unit_ideal_presentation_independence(cusp, qq):
    one = unit_ideal(cusp)
    again = from_generators(cusp, [elem(cusp, "1")])
    assert again == one
    shifted = from_generators(cusp, [elem(cusp, "1 + t^2"), elem(cusp, "t^5")])
    assert shifted == one
    assert one.contains_module(shifted) and shifted.contains_module(one)
    assert one.pole == (0,)


def test_normalization_and_conductor(named):
    for ring in named.values():
        big = normalization_module(ring)
        one = unit_ideal(ring)
        assert big.contains_module(one)
        assert big.len_quotient(one) == ring.delta
        # the conductor is the colon of the ring into the branch tuple
        assert one.colon(big) == conductor_module(ring)
        assert one.len_quotient(conductor_module(ring)) == ring.colength_ring


def test_colon_against_probe_oracle(tacnode, r345):
    for ring in (tacnode, r345):
        a = random_ideal(ring, seed=5)
        b = random_ideal(ring, seed=6)
        q = a.colon(b)
        assert a.contains_module(q * b)
        # probe grid: diagonal monomials agree with the definition
        for j in range(-3, 4):
            x = Element.diag_monomial(ring.field, ring.nbranches, j)
            claimed = q.contains_element(x)
            actual = a.contains_module(b.scale(x))
            assert claimed == actual, (ring.label, j)


def test_module_arithmetic_laws(node):
    a = random_ideal(node, seed=1)
    b = random_ideal(node, seed=2)
    c = random_ideal(node, seed=3)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert (a + b).contains_module(a)
    meet = a.intersect(b)
    assert meet == b.intersect(a)
    assert a.contains_module(meet) and b.contains_module(meet)
    assert (a * (b + c)) == a * b + a * c


def test_scale_and_shift(cusp):
    one = unit_ideal(cusp)
    t2 = elem(cusp, "t^2")
    moved = one.scale(t2)
    assert moved.pole == (2,)
    assert moved.contains_element(elem(cusp, "t^2 + 7 t^4"))
    assert not moved.contains_element(elem(cusp, "t^3"))
    assert moved == t2 * one
    back = moved.scale(2)
    assert back == moved
    with pytest.raises(ZeroOnBranch):
        one.scale(0)


def test_length_additivity(r345):
    one = unit_ideal(r345)
    m = maximal_ideal(r345)
    mm = m * m
    assert one.len_quotient(m) == 1
    total = one.len_quotient(mm)
    assert total == one.len_quotient(m) + m.len_quotient(mm)
    reps = one.quotient_basis(mm)
    assert len(reps) == total
    # lifts really do span the quotient
    rebuilt = mm + from_generators(r345, reps)
    assert rebuilt == one


def nested_pairs(ring):
    """(M, N) with N inside M: the ring over m^2 and over x*O, the
    branch tuple over the ring, and the dualizing module over x*omega."""
    one = unit_ideal(ring)
    m = maximal_ideal(ring)
    x = _socle_parameter(ring)
    omega = cd.canonical_module(ring).module
    return [(one, m * m), (one, one.scale(x)), (m, m * m),
            (normalization_module(ring), one), (omega, omega.scale(x))]


@pytest.mark.parametrize("field", [cd.rationals(), cd.prime_field(5),
                                   cd.prime_field(2)], ids=["Q", "F5", "F2"])
@pytest.mark.parametrize("curve", [(3, 4, 5), (3, 5), "tacnode",
                                   "three-lines"])
def test_quotient_classes_write_each_class_over_the_lifts(field, curve):
    ring = (cd.named_ring(field, curve) if isinstance(curve, str)
            else cd.build(cd.semigroup_spec(field, curve)))
    one = ring.field.one
    for total, sub in nested_pairs(ring):
        reps, classes = total.quotient_classes(sub)
        assert len(reps) == total.len_quotient(sub)
        assert reps == total.quotient_basis(sub)
        for k, rep in enumerate(reps):
            assert classes(rep) == {k: one}
        assert all(classes(row) == {} for row in sub.rows_as_elements())
        assert all(classes(row) is not None
                   for row in total.rows_as_elements())


def test_quotient_requires_containment(node):
    one = unit_ideal(node)
    big = normalization_module(node)
    with pytest.raises(NotContained):
        maximal_ideal(node).quotient_basis(one)
    with pytest.raises(NotContained):
        one.len_quotient(big)


def test_is_principal(cusp, node, r345):
    one = unit_ideal(cusp)
    g = one.is_principal()
    assert g is not None and from_generators(cusp, [g]) == one
    # conductor of the cusp needs two generators over the ring
    assert conductor_module(cusp).is_principal() is None
    assert maximal_ideal(node).is_principal() is None
    assert maximal_ideal(r345).is_principal() is None
    shifted = random_ideal(node, seed=9, extra_gens=0)
    assert shifted.is_principal() is not None


def test_torsion_quotient(node):
    one = unit_ideal(node)
    m = maximal_ideal(node)
    q = cd.TorsionQuotient(one, m)
    assert q.length == 1
    assert len(q.basis()) == 1
    assert q.ring == node
    with pytest.raises(NotContained):
        cd.TorsionQuotient(m, one)


def test_herbrand_examples(cusp, tacnode):
    one = unit_ideal(cusp)
    lhs, rhs = cd.herbrand(one, elem(cusp, "t^2"))
    assert lhs == rhs == 2
    lhs, rhs = cd.herbrand(unit_ideal(tacnode), elem(tacnode, "(t^2, t^2 + t^3)"))
    assert lhs == rhs == 4
    with pytest.raises(NotMember):
        cd.herbrand(one, elem(cusp, "t"))
    with pytest.raises(ZeroDivisor):
        cd.herbrand(unit_ideal(tacnode), elem(tacnode, "(t^2, 0)"))


def test_herbrand_random(r345):
    one = unit_ideal(r345)
    rng = random.Random(0)
    seen = 0
    while seen < 10:
        x = random_ring_element(r345, rng)
        if any(v == float("inf") for v in x.valuations()):
            continue
        lhs, rhs = cd.herbrand(one, x)
        assert lhs == rhs
        seen += 1


def test_degree_discipline(node):
    one = unit_ideal(node)
    w = from_generators(node, [elem(node, "(t, t) dt")])
    assert w.degree == 1
    with pytest.raises(DifferentialDegreeError):
        one + w
    with pytest.raises(DifferentialDegreeError):
        w * w
    with pytest.raises(DifferentialDegreeError):
        one.intersect(w)
    # colon flips the marker: functions into forms gives forms
    assert w.colon(one).degree == 1
    assert w.colon(w).degree == 0
    with pytest.raises(DifferentialDegreeError):
        from_generators(node, [elem(node, "(t, t)"), elem(node, "(t, t) dt")])


def test_owner_mismatch(cusp, node):
    with pytest.raises(OwnerMismatch):
        unit_ideal(cusp) + unit_ideal(node)
    with pytest.raises(OwnerMismatch):
        unit_ideal(cusp).colon(unit_ideal(node))


def test_from_generators_guards(node):
    with pytest.raises(ZeroOnBranch):
        from_generators(node, [])
    with pytest.raises(ZeroOnBranch):
        from_generators(node, [elem(node, "(t, 0)")])


def test_module_generators_regenerate(tacnode):
    for seed in range(4):
        m = random_ideal(tacnode, seed=seed)
        again = from_generators(tacnode, m.module_generators())
        assert again == m


def test_random_ideal_reproducible(node):
    a = random_ideal(node, seed=42)
    b = random_ideal(node, seed=42)
    assert a == b
    assert len({random_ideal(node, seed=s) for s in range(8)}) > 1
    # one generator, in the maximal ideal: principal, and not the ring
    single = random_ideal(node, seed=0, shift_bound=0, extra_gens=0)
    assert single.is_principal() is not None
    assert maximal_ideal(node).contains_module(single)
    assert single != unit_ideal(node)


def sample_rings():
    """The rings the random ideals are measured on: five semigroups
    over Q and F5, and four multi-branch curves over Q."""
    rings = [cd.build(cd.semigroup_spec(field, gens))
             for field in (cd.rationals(), cd.prime_field(5))
             for gens in [(2, 3), (3, 5), (3, 4, 5), (5, 7), (13, 17)]]
    rings += [cd.named_ring(cd.rationals(), name)
              for name in ("node", "tacnode", "three-lines", "axes")]
    return rings


def test_random_ideals_are_mostly_not_principal():
    # 364 of these 560 draws are not principal and 281 hold a window
    # row that is not a monomial; the floors are half and two fifths,
    # and a quarter on every ring
    principal = monomial = 0
    for ring in sample_rings():
        here = 0
        for seed in range(40):
            ideal = random_ideal(ring, seed)
            if ideal.is_principal() is None:
                here += 1
            monomial += all(len(row) == 1 for row in ideal.ech.rows)
        assert here >= 10, ring
        principal += 40 - here
    assert 560 - principal >= 280
    assert 560 - monomial >= 224


@pytest.mark.parametrize("extra_gens", [0, 1, 2, 4])
def test_random_ideal_bounds(extra_gens):
    # unshifted, the ideal lies in the maximal ideal; it needs at most
    # 1 + extra_gens generators, plus one per branch none of them reach,
    # and its colength is at most the sum of n_i + c_i + 2, less delta
    for ring in sample_rings():
        lows = [max(n, 1) for n in ring.cond]
        bound = sum(ring.cond) + sum(lows) + 2 * ring.nbranches - ring.delta
        for seed in range(6):
            ideal = random_ideal(ring, seed, shift_bound=0,
                                 extra_gens=extra_gens)
            assert maximal_ideal(ring).contains_module(ideal)
            assert (len(ideal.minimal_generators())
                    <= 1 + extra_gens + ring.nbranches)
            assert 1 <= unit_ideal(ring).len_quotient(ideal) <= bound


def test_zero_module(node):
    z = ZeroModule(node)
    assert z == ZeroModule(node)
    assert z != ZeroModule(node, degree=1)
    assert z.window_dim == 0
    assert z.contains_element(Element.zero(node.field, 2))
    assert not z.contains_element(elem(node, "(t, t)"))


def test_slab_module(tacnode):
    s = slab_module(tacnode, (3, 1))
    assert s.pole == (3, 1) == s.tail
    assert s.contains_element(elem(tacnode, "(t^3, t)"))
    assert not s.contains_element(elem(tacnode, "(t^2, t)"))


# -- combinatorial oracle for monomial modules of semigroup rings -------------

def semigroup_values(gens, upto):
    """Elements of the numerical semigroup <gens> below `upto`, by sieve."""
    member = [False] * upto
    member[0] = True
    for x in range(1, upto):
        member[x] = any(x >= g and member[x - g] for g in gens)
    return {x for x in range(upto) if member[x]}


class ValueSet:
    """The value set of a monomial module: finitely many values below
    `cond`, and every integer from `cond` on."""

    def __init__(self, low, cond):
        self.low = frozenset(x for x in low if x < cond)
        self.cond = cond

    def __contains__(self, x):
        return x >= self.cond or x in self.low

    @property
    def least(self):
        return min(self.low, default=self.cond)

    def below(self):
        return sorted(self.low)


def module_values(semigroup, frobenius, exps):
    """Value set of the module generated by t^e, e in exps: exps + S."""
    top = max(exps) + frobenius + 2
    s = semigroup_values(semigroup, top - min(exps) + 1)
    vals = {e + x for e in exps for x in s}
    cond = top
    while cond - 1 in vals:
        cond -= 1
    return ValueSet(vals, cond)


def colon_values(a, b):
    """{x : x + B ⊆ A}.  x + B ⊆ A needs x + b.least >= a.least, and
    every x with x + b.least >= a.cond qualifies."""
    good = set()
    lo, hi = a.least - b.least, a.cond - b.least
    for x in range(lo, hi):
        if x + b.cond >= a.cond and all(x + y in a for y in b.below()):
            good.add(x)
    return ValueSet(good, hi)


def assert_matches_values(mod, vals):
    """A monomial module's canonical form lists exactly its values."""
    window = []
    for row in mod.ech.rows:
        assert len(row) == 1 and set(row.values()) == {mod.ring.field.one}
        ((_, j),) = row
        window.append(j)
    assert mod.tail == (vals.cond,)
    assert sorted(window) == vals.below()
    assert mod.pole == (vals.least,)


@pytest.mark.parametrize("pair,field_name",
                         [((7, 9), "Q"), ((7, 9), "F5"), ((9, 11), "Q"),
                          ((9, 11), "F5")])
def test_colon_of_monomial_modules_against_value_sets(pair, field_name):
    field = cd.parse_field(field_name)
    ring = cd.build(cd.semigroup_spec(field, pair))
    frobenius = pair[0] * pair[1] - pair[0] - pair[1]
    assert ring.cond == (frobenius + 1,)
    rng = random.Random(sum(pair))

    def monomial_module():
        exps = sorted(rng.sample(range(-6, frobenius), rng.randint(1, 3)))
        gens = [Element.monomial(field, 1, 0, e) for e in exps]
        mod = from_generators(ring, gens)
        vals = module_values(pair, frobenius, exps)
        assert_matches_values(mod, vals)
        return mod, vals

    for _ in range(6):
        (a, av), (b, bv) = monomial_module(), monomial_module()
        assert_matches_values(a.colon(b), colon_values(av, bv))
    one = unit_ideal(ring)
    assert_matches_values(one.colon(normalization_module(ring)),
                          ValueSet((), frobenius + 1))


def shrink_by_rebuilding(ring, pole, tail, rows):
    """Window echelon and tail by the definition: while the monomial
    just below a tail lies in the span, remove that slot from every
    row and echelonize the rest again from scratch."""
    field = ring.field
    tail = list(tail)
    ech = span(field, [clip_window(row, tail) for row in rows],
               sort_key=window_key)
    for i in range(ring.nbranches):
        while tail[i] > pole[i]:
            key = (i, tail[i] - 1)
            if not ech.contains({key: field.one}):
                break
            kept = [{k: c for k, c in row.items() if k != key}
                    for row in ech.rows]
            ech = span(field, [row for row in kept if row],
                       sort_key=window_key)
            tail[i] -= 1
    return tuple(tail), ech


@pytest.mark.parametrize("name", ["tacnode", "three-lines", "r345"])
def test_tail_shrink_matches_rebuild(named, r345, name):
    ring = r345 if name == "r345" else named[name]
    field = ring.field
    for seed in range(4):
        mod = random_ideal(ring, seed=seed)
        extra = 3 + seed
        tail = [t + extra for t in mod.tail]
        rows = [dict(row) for row in mod.ech.rows]
        rng = random.Random(seed)
        for i in range(ring.nbranches):
            for j in range(mod.tail[i], tail[i]):
                # monomials above the true tail, some disguised
                row = {(i, j): field.one}
                if j + 1 < tail[i] and rng.random() < 0.5:
                    row[(i, j + 1)] = field.random_nonzero(rng)
                rows.append(row)
        grown = FracIdeal(ring, mod.degree, mod.pole, tail, rows)
        want_tail, want = shrink_by_rebuilding(ring, mod.pole, tail, rows)
        assert grown.tail == want_tail == mod.tail
        assert sum(tail) - sum(grown.tail) >= 3 * ring.nbranches
        assert grown.ech.rows == want.rows
        assert grown.ech.pivots == want.pivots
        assert grown == mod


# -- minimal generators against the row-based reference ----------------------

def reference_colon(a, b):
    """a:b with one constraint per window row and slab monomial of b, as
    `colon` computed it before it read b's minimal generators."""
    field = a.ring.field
    r = a.ring.nbranches
    lo = [pm - pn for pm, pn in zip(a.pole, b.pole)]
    hi = [tm - pn for tm, pn in zip(a.tail, b.pole)]
    unknowns = [(i, j) for i in range(r) for j in range(lo[i], hi[i])]
    unknowns.sort(key=window_key)
    reps = b._window_vectors([t - l for t, l in zip(a.tail, lo)])
    normal = {}

    def normal_form(key):
        nf = normal.get(key)
        if nf is None:
            nf = normal[key] = a.ech.reduce({key: field.one})
        return nf

    constraints = {}
    for idx, n in enumerate(reps):
        for u in unknowns:
            i, j = u
            top = a.tail[i] - j
            resid = {}
            for (br, l), c in n.items():
                if br == i and l < top:
                    vec_iaddmul(resid, c, normal_form((i, l + j)))
            for key, c in resid.items():
                constraints.setdefault((idx, key), {})[u] = c
    sols = kernel(field, constraints.values(), unknowns)
    return FracIdeal(a.ring, a.degree ^ b.degree, lo, hi, sols)


def reference_is_principal(mod):
    """Nakayama through the full product m*M: the first module
    generator outside m*M when M/mM has length one, else None."""
    mm = maximal_ideal(mod.ring) * mod
    if mod.len_quotient(mm) != 1:
        return None
    return next(g for g in mod.module_generators()
                if not mm.contains_element(g))


def sparse_element_of_m(ring, rng):
    """A combination of one to three non-unit basis rows and slab
    monomials of the ring, nonzero on every branch."""
    field = ring.field
    r = ring.nbranches
    pool = [b.coeffs for b in ring.basis[1:]]
    pool += [{(i, j): field.one} for i in range(r)
             for j in range(max(ring.cond[i], 1), max(ring.cond[i], 1) + 2)]
    while True:
        picks = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        x = sum((Element(field, r, v, 0).scale(field.random_nonzero(rng))
                 for v in picks), Element.zero(field, r))
        if INF not in x.valuations():
            return x


def sample_modules(ring, seed):
    """Unit, m, m^2, omega, the normalization, the conductor, m*omega
    and two modules generated by sparse elements of m."""
    rng = random.Random(seed)
    m = maximal_ideal(ring)
    omega = cd.canonical_module(ring).module
    mods = [unit_ideal(ring), m, m * m, omega, normalization_module(ring),
            conductor_module(ring), m * omega]
    for count in (2, 3):
        gens = [sparse_element_of_m(ring, rng) for _ in range(count)]
        mods.append(from_generators(ring, gens))
    return mods


@pytest.mark.parametrize("field_name", ["Q", "F5", "F7"])
def test_colon_and_principality_match_the_row_based_reference(field_name):
    field = cd.parse_field(field_name)
    nonprincipal = total = 0
    for seed, ring in enumerate(cd.family_rings(field, bound=8)):
        mods = sample_modules(ring, seed)
        for mod in mods:
            gens = mod.minimal_generators()
            assert gens == mod.minimal_generators()
            assert len(gens) == mod.len_quotient(maximal_ideal(ring) * mod)
            assert from_generators(ring, gens, degree=mod.degree) == mod
            assert mod.is_principal() == reference_is_principal(mod)
            nonprincipal += len(gens) > 1
            total += 1
        for a in mods:
            for b in mods:
                assert a.colon(b) == reference_colon(a, b), (ring.label, a, b)
    assert nonprincipal > total // 2


def semigroup_counts(gens):
    """(multiplicity, embedding dimension, type) of <gens>, from its
    members: the least positive member, the positive members that are
    no sum of two positive members, and the pseudo-Frobenius numbers,
    the gaps x with x + s a member for every positive member s."""
    cond = cd.semigroup_oracle(gens).conductor
    upto = max(cond, max(gens)) + min(gens) + 1
    members = semigroup_values(gens, upto)
    positive = sorted(members - {0})
    sums = {a + b for a in positive for b in positive}
    minimal = [s for s in positive if s not in sums]
    pseudo_frobenius = [x for x in range(cond) if x not in members
                        and all(x + s in members or x + s >= cond
                                for s in positive)]
    return positive[0], len(minimal), len(pseudo_frobenius)


@pytest.mark.parametrize("field_name", ["Q", "F5"])
@pytest.mark.parametrize("gens", [(3, 4, 5), (7, 9), (5, 7, 9), (4, 6, 9),
                                  (6, 7, 8, 9, 10, 11), (9, 11)])
def test_generator_counts_of_semigroup_rings(gens, field_name):
    ring = cd.build(cd.semigroup_spec(cd.parse_field(field_name), gens))
    multiplicity, embedding_dim, type_ = semigroup_counts(gens)
    omega = cd.canonical_module(ring).module
    assert len(normalization_module(ring).minimal_generators()) \
        == multiplicity
    assert len(maximal_ideal(ring).minimal_generators()) == embedding_dim
    assert len(omega.minimal_generators()) == type_
    assert (type_ == 1) == (omega.is_principal() is not None)


def test_large_semigroup_colons_match_the_reference():
    ring = cd.build(cd.semigroup_spec(cd.prime_field(5), (17, 19)))
    assert ring.cond == (288,)
    omega = cd.canonical_module(ring).module
    m = maximal_ideal(ring)
    dual_m = omega.colon(m)
    assert dual_m == reference_colon(omega, m)
    assert cd.dual(dual_m) == reference_colon(omega, dual_m) == m
    assert len(m.minimal_generators()) == 2
    assert len(omega.minimal_generators()) == 1


# -- exact elimination over Q: no back-substitution swell ----------------------

def test_module_construction_rewrites_no_row_over_q(qq, monkeypatch):
    """`FracIdeal(...)` inserts its rows highest leading key first, so
    building ω, m, Ō and random ideals on (13,17) over Q rewrites no row
    already in the echelon: the back-substitution that swells Fractions
    never runs.  The rows of ω and m arrive reduced, so they read 0 in
    any order; a random ideal's products of basis rows with generators
    do not, and in the given order they rewrite thousands of rows."""
    from curvedual import linalg
    ring = cd.build(cd.semigroup_spec(qq, (13, 17)))
    depth, rewrites = [0], [0]
    add = linalg.vec_addmul
    init = FracIdeal.__init__

    def counting_addmul(*args):
        rewrites[0] += depth[0] > 0
        return add(*args)

    def nested_init(self, *args):
        depth[0] += 1
        try:
            init(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(linalg, "vec_addmul", counting_addmul)
    monkeypatch.setattr(FracIdeal, "__init__", nested_init)
    omega = cd.canonical_module(ring).module
    m = maximal_ideal(ring)
    obar = normalization_module(ring)
    assert omega.window_dim and m.window_dim and obar == slab_module(ring, (0,))
    ideals = [random_ideal(ring, seed) for seed in range(2)]
    assert all(ideal.window_dim for ideal in ideals)
    assert rewrites == [0]
    # the counter sees a rewrite when one happens
    depth[0] += 1
    ech = linalg.Echelon(qq)
    ech.insert({0: 1, 1: 1})
    ech.insert({1: 1})
    assert rewrites == [1]


def test_ring_bases_over_q_have_unit_entries(qq):
    """Every entry of the reduced ring basis over Q is ±1 (an int), on
    the family rings and on (13,17); a swell in the ring closure or in
    the scalar form would show here first."""
    rings = cd.family_rings(qq) + [cd.build(cd.semigroup_spec(qq, (13, 17)))]
    for ring in rings:
        for b in ring.basis:
            for c in b.coeffs.values():
                assert type(c) is int and c in (1, -1), (ring, b)

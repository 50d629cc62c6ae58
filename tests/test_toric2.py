import itertools

import pytest

import curvedual as cd
from curvedual.errors import (InvariantViolation, NotMember, NotSaturated,
                              OwnerMismatch, ParseError)
from curvedual.toric2 import (AffineSemigroup2, MonomialModule2,
                              canonical_module_toric, model, monomial_iso,
                              s2_hull, saturation)


def brute_members(gens, box=20):
    """Every sum of generators landing in [0, box]^2, by saturation of
    a breadth-first closure; independent of the package's DP."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = (base[0] + g[0], base[1] + g[1])
            if nxt[0] <= box and nxt[1] <= box and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@pytest.mark.parametrize("gens", [
    ((1, 0), (0, 1)),
    ((3, 0), (2, 1), (1, 2), (0, 3)),
    ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)),
    ((2, 0), (0, 3), (1, 1)),
    ((5, 1), (1, 5)),
])
def test_membership_against_brute_force(gens):
    S = AffineSemigroup2(gens)
    members = brute_members(gens)
    for pt in itertools.product(range(21), repeat=2):
        assert S.contains(pt) == (pt in members), pt


def test_minimal_generators():
    # no degree-three point of the pinched plane is a sum of two others
    S = model("pinched-plane")
    assert set(S.generators) == {(2, 0), (1, 1), (0, 2),
                                 (3, 0), (2, 1), (1, 2), (0, 3)}
    assert set(model("plane").generators) == {(1, 0), (0, 1)}
    redundant = AffineSemigroup2([(1, 0), (0, 1), (4, 7)])
    assert set(redundant.generators) == {(1, 0), (0, 1)}


def test_group_and_cone():
    S = model("diagonal-mod3")
    assert S.in_group((1, 2)) and S.in_group((-1, 1)) and S.in_group((3, 0))
    assert not S.in_group((1, 0))
    assert S.in_cone((5, 0)) and not S.in_cone((-1, 2))
    assert S.ray_group_primitives == ((3, 0), (0, 3))
    assert model("plane").ray_group_primitives == ((1, 0), (0, 1))


def test_degenerate_generators_rejected():
    with pytest.raises(InvariantViolation):
        AffineSemigroup2([(1, 0), (-1, 0)])  # not pointed
    with pytest.raises(InvariantViolation):
        AffineSemigroup2([(1, 1), (2, 2)])  # rank one
    with pytest.raises(InvariantViolation):
        AffineSemigroup2([])


def test_module_generator_must_sit_in_group():
    S = model("diagonal-mod3")
    with pytest.raises(NotMember):
        MonomialModule2(S, [(1, 0)])
    m = MonomialModule2(S, [(0, 0), (2, 1), (3, 0)])
    assert m.generators == ((0, 0),)


def test_saturation_cases():
    assert saturation(model("plane")) == model("plane")
    assert saturation(model("diagonal-mod3")) == model("diagonal-mod3")
    sat = saturation(model("pinched-plane"))
    assert sat == model("plane")
    # idempotent
    assert saturation(sat) == sat
    # narrow cone missing an interior Hilbert basis element
    S = AffineSemigroup2([(1, 0), (1, 1), (1, 3)])
    assert not S.contains((1, 2))
    assert saturation(S) == AffineSemigroup2([(1, 0), (1, 1), (1, 2), (1, 3)])
    # but a sublattice gap is not a saturation defect
    even = AffineSemigroup2([(1, 0), (1, 2)])
    assert saturation(even) == even


def test_saturation_preserves_group():
    # <(2,0),(0,3),(1,1)> spans all of Z^2 but misses cone points like (1,0)
    S = AffineSemigroup2([(2, 0), (0, 3), (1, 1)])
    sat = saturation(S)
    assert sat == model("plane")
    assert not S.contains((1, 0)) and sat.contains((1, 0))


def test_ray_localization_against_brute_force():
    S = model("pinched-plane")
    module = MonomialModule2(S, [(0, 0)])
    # localizing inverts the on-ray members, so membership means some
    # on-ray shift lands in the module
    for ray in (0, 1):
        d = S.ray_directions[ray]
        shifts = [k for k in range(0, 60)
                  if S.contains((k * d[0], k * d[1]))]
        for pt in itertools.product(range(-4, 10), repeat=2):
            brute = any(module.contains((pt[0] + k * d[0], pt[1] + k * d[1]))
                        for k in shifts)
            assert module.in_ray_localization(pt, ray) == brute, (pt, ray)


def test_hull_of_pinched_plane():
    S = model("pinched-plane")
    module = MonomialModule2(S, [(0, 0)])
    hull = s2_hull(module)
    assert set(hull.generators) == {(0, 0), (1, 0), (0, 1)}
    # strictly larger than the module, and idempotent
    assert not module.contains((1, 0))
    assert s2_hull(hull) == hull
    for pt in itertools.product(range(-3, 8), repeat=2):
        assert hull.contains(pt) == module.hull_contains(pt), pt


def test_hull_fixes_saturated_rings():
    for name in ("plane", "diagonal-mod3"):
        S = model(name)
        module = MonomialModule2(S, [(0, 0)])
        assert s2_hull(module) == module


def test_hull_of_shifted_module():
    S = model("plane")
    m = MonomialModule2(S, [(2, 5), (5, 2)])
    hull = s2_hull(m)
    assert hull.contains((3, 4)) and hull.contains((2, 5))
    assert not hull.contains((1, 1))
    assert s2_hull(hull) == hull
    # hull membership agrees with the two-ray criterion everywhere
    for pt in itertools.product(range(0, 10), repeat=2):
        assert hull.contains(pt) == m.hull_contains(pt), pt


def test_canonical_module_toric():
    assert canonical_module_toric(model("plane")).generators == ((1, 1),)
    omega3 = canonical_module_toric(model("diagonal-mod3"))
    assert set(omega3.generators) == {(1, 2), (2, 1)}
    with pytest.raises(NotSaturated):
        canonical_module_toric(model("pinched-plane"))


def test_canonical_endomorphisms_recover_ring():
    # points u with u + omega inside omega, over a window: exactly S
    S = model("diagonal-mod3")
    omega = canonical_module_toric(S)
    for pt in itertools.product(range(-3, 9), repeat=2):
        shifts_in = all(omega.contains((pt[0] + g[0], pt[1] + g[1]))
                        for g in omega.generators)
        assert shifts_in == S.contains(pt), pt


def test_monomial_iso():
    S = model("plane")
    a = MonomialModule2(S, [(0, 3), (3, 0)])
    b = MonomialModule2(S, [(2, 6), (5, 3)])
    assert monomial_iso(a, b) == (2, 3)
    assert monomial_iso(a, a) == (0, 0)
    assert b.translate((-2, -3)) == a
    c = MonomialModule2(S, [(0, 3), (4, 0)])
    assert monomial_iso(a, c) is None
    assert monomial_iso(a, MonomialModule2(S, [(0, 0)])) is None
    omega = canonical_module_toric(S)
    assert monomial_iso(MonomialModule2(S, [(0, 0)]), omega) == (1, 1)
    # the mod-3 class of the canonical module is nontrivial
    S3 = model("diagonal-mod3")
    omega3 = canonical_module_toric(S3)
    assert monomial_iso(MonomialModule2(S3, [(0, 0)]), omega3) is None
    with pytest.raises(OwnerMismatch):
        monomial_iso(a, MonomialModule2(S3, [(0, 0)]))


def test_model_names():
    with pytest.raises(ParseError, match="choose from"):
        model("banana")
    assert sorted(cd.toric2.MODELS) == ["diagonal-mod3", "pinched-plane",
                                        "plane"]


def recursive_member(S, w, memo):
    """The membership search written recursively, the shape `_member`
    had before it took an explicit stack; only safe for shallow points."""
    hit = memo.get(w)
    if hit is not None:
        return hit
    out = False
    for g in S._dp_gens:
        z = (w[0] - g[0], w[1] - g[1])
        if z == (0, 0):
            out = True
            break
        a, b = S.normal_values(z)
        if a < 0 or b < 0:
            continue
        if recursive_member(S, z, memo):
            out = True
            break
    memo[w] = out
    return out


@pytest.mark.parametrize("name", ["plane", "diagonal-mod3", "pinched-plane"])
def test_member_search_matches_recursive_walk(name):
    # same answers and the same memo, entry by entry and in the same
    # order, so the explicit stack visits exactly the points the
    # recursion did
    S = model(name)
    memo = dict(S._memo)
    # far points first, so each query searches deep before the memo fills
    points = [(x, y) for x in range(14, -3, -1) for y in range(14, -3, -1)]
    for pt in points:
        want = pt == (0, 0) or (S.in_cone(pt) and S.in_group(pt)
                                and recursive_member(S, pt, memo))
        assert S.contains(pt) == want
    assert list(S._memo.items()) == list(memo.items())


def test_member_search_is_not_recursive():
    # one search step per generator subtraction: 3000 steps deep
    S = model("pinched-plane")
    assert S.contains((3000, 3000))
    assert S.contains((6001, 0))
    assert not S.contains((1, 0))

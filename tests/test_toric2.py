import copy
import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import curvedual as cd
from curvedual import toric2
from curvedual.errors import (InvariantViolation, NotMember, NotSaturated,
                              OwnerMismatch, ParseError, TooLarge)
from curvedual.toric2 import (MAX_MEMBER_LEVEL, MAX_WALK_WIDTH,
                              AffineSemigroup2, MonomialModule2,
                              _staircase, _window_generators,
                              canonical_module_toric,
                              model, monomial_iso, s2_hull, saturation)


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
    # a difference on a ray, where one edge coordinate is equal
    on_ray = AffineSemigroup2([(2, 0), (1, 0), (0, 1), (0, 3)])
    assert set(on_ray.generators) == {(1, 0), (0, 1)}


def all_pairs_minimal(S, raw, points):
    """The minimality loop as it was: each point compared with every
    other one, membership searched over all the raw generators."""
    ref = copy.copy(S)
    ref._memo, ref._steps = {}, [ref.normal_values(g) for g in raw]
    out = []
    for g in sorted(points, key=ref._sort_key):
        ga, gb = ref.normal_values(g)
        if not any(ga >= ha and gb >= hb and h != g
                   and ref.contains((g[0] - h[0], g[1] - h[1]))
                   for h in points for ha, hb in [ref.normal_values(h)]):
            out.append(g)
    return tuple(out)


@settings(max_examples=200, deadline=None)
@example(gens=[(2, 0), (1, 0), (0, 1), (0, 3)], coeffs=[(1, 0), (2, 1)])
@given(st.lists(st.tuples(st.integers(-6, 12), st.integers(-6, 12)),
                min_size=2, max_size=6),
       st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=1, max_size=5))
def test_minimal_points_match_the_all_pairs_loop(gens, coeffs):
    try:
        S = AffineSemigroup2(gens)
    except InvariantViolation:
        assume(False)
    raw = list(dict.fromkeys(g for g in gens if g != (0, 0)))
    assert S.generators == all_pairs_minimal(S, raw, raw)
    # combinations of two generators are group points
    g, h = S.generators[0], S.generators[-1]
    pts = list(dict.fromkeys((a * g[0] + b * h[0], a * g[1] + b * h[1])
                             for a, b in coeffs))
    assert MonomialModule2(S, pts).generators == all_pairs_minimal(S, raw,
                                                                   pts)


def test_an_antichain_is_kept_without_a_membership_search(monkeypatch):
    # the staircase (1, k), k = 0..2047, of `toric saturate --gens
    # '1,0 1,1 1,2047'`: no point bounds another in edge coordinates
    def refuse(self, point):
        raise AssertionError("an undominated point was searched")

    stairs = [(1, k) for k in range(2048)]
    monkeypatch.setattr(AffineSemigroup2, "contains", refuse)
    assert set(AffineSemigroup2(stairs[::-1]).generators) == set(stairs)
    S = AffineSemigroup2([(1, 0), (1, 2047)])
    assert toric2._minimal_points(S, stairs) == tuple(
        sorted(stairs, key=S._sort_key))
    # and in near-linear time: a pass over every pair of 20,000 points,
    # about 2 * 10^8 comparisons, takes far longer than the bound
    start = time.perf_counter()
    assert len(AffineSemigroup2([(1, k) for k in range(20000)]).generators) \
        == 20000
    assert time.perf_counter() - start < 2.0


def edge_ray_points(S):
    """The first group point of each ray, read off the edge form (g, c,
    t): edge coordinates (0, t) on the first ray and (A, 0) on the
    second, A = g t / gcd(c, t)."""
    g, c, t = S._edge_form
    return S._edge_point(0, t), S._edge_point(g * t // math.gcd(c, t), 0)


def test_group_and_cone():
    S = model("diagonal-mod3")
    assert S.in_group((1, 2)) and S.in_group((-1, 1)) and S.in_group((3, 0))
    assert not S.in_group((1, 0))
    assert S.in_cone((5, 0)) and not S.in_cone((-1, 2))
    assert edge_ray_points(S) == ((3, 0), (0, 3))
    assert edge_ray_points(model("plane")) == ((1, 0), (0, 1))


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
    assert MonomialModule2(S, [(x - 2, y - 3) for x, y in b.generators]) == a
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
    for g in S.generators:
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
    memo = {S._edge_point(*e): v for e, v in S._memo.items()}
    # far points first, so each query searches deep before the memo fills
    points = [(x, y) for x in range(14, -3, -1) for y in range(14, -3, -1)]
    for pt in points:
        want = pt == (0, 0) or (S.in_cone(pt) and S.in_group(pt)
                                and recursive_member(S, pt, memo))
        assert S.contains(pt) == want
    assert [(S._edge_point(*e), v) for e, v in S._memo.items()] == list(
        memo.items())


def test_member_search_is_not_recursive():
    # one search step per generator subtraction: 3000 steps deep
    S = model("pinched-plane")
    assert S.contains((3000, 3000))
    assert S.contains((6001, 0))
    assert not S.contains((1, 0))


# -- the hull's lattice walk against the grid filter --------------------------

def _corner_points(S, a_lo, a_hi, b_lo, b_hi):
    """Edge pairs (a, b) of the group points with a in [a_lo, a_hi] and
    b in [b_lo, b_hi], in order of a, then b.

    The edge form (g, c, t) is the Hermite form of the group in edge
    coordinates, rows (g, c) and (0, t), so (a, b) is a group point
    exactly when g divides a and b = c a/g (mod t).  The walk takes the
    columns a that g divides, starts each at its first such b >= b_lo
    and steps by t; it never looks at the pairs in between.
    """
    g, c, t = S._edge_form
    for a in range(a_lo + (-a_lo) % g, a_hi + 1, g):
        for b in range(b_lo + (c * (a // g) - b_lo) % t, b_hi + 1, t):
            yield a, b


def point_walk(module, b1, b2, size):
    """`_window_generators` as it was before the walk over residue
    classes: every group point of the square in order, a point recorded
    as a hull point without a test once some u - g was found, and kept
    when it is a hull point with no such u - g.  u - g lies at most
    `back` columns behind u, so only those columns are remembered."""
    S = module.semigroup
    steps = S._steps
    back = max(sa for sa, _ in steps)
    found = {}  # column a -> the b of its hull points
    kept = []
    for a, b in _corner_points(S, b1, b1 + size, b2, b2 + size):
        col = found.get(a)
        if col is None:
            found = {k: v for k, v in found.items() if k >= a - back}
            col = found[a] = set()
        if any(b - sb in found.get(a - sa, ()) for sa, sb in steps):
            col.add(b)
        elif module._ray_local((a, b), 0) and module._ray_local((a, b), 1):
            col.add(b)
            kept.append(S._edge_point(a, b))
    return kept


def grid_corner_points(S, a_lo, a_hi, b_lo, b_hi):
    """Every pair of edge coordinates in the box, kept when it gives a
    group point: the filter `_corner_points` had before it walked the
    lattice."""
    (d1x, d1y), (d2x, d2y) = S.ray_directions
    det = S._det
    for a in range(a_lo, a_hi + 1):
        for b in range(b_lo, b_hi + 1):
            px = a * d2x + b * d1x
            py = a * d2y + b * d1y
            if px % det or py % det:
                continue
            u = (px // det, py // det)
            if S.in_group(u):
                yield u


def reference_hull(module):
    """`s2_hull` as it was before the lattice walk: every hull point of
    the grid-filtered window goes to `MonomialModule2`, and the rim is
    the outer box with the window skipped."""
    S = module.semigroup
    gens = module.generators
    coords = [S.normal_values(h) for h in gens]
    b1 = min(c[0] for c in coords)
    b2 = min(c[1] for c in coords)
    span = max(max(S.normal_values(g)) for g in S.generators)
    mspan = max(c[0] - b1 + c[1] - b2 for c in coords)
    reach = S._det * (S._ray_gcds[0] * max(S._ray_conductors[0], 1)
                      + S._ray_gcds[1] * max(S._ray_conductors[1], 1))
    size = 2 * (span + mspan + reach) + 8
    for _ in range(3):
        pts = list(gens)
        for u in grid_corner_points(S, b1, b1 + size, b2, b2 + size):
            if module.hull_contains(u):
                pts.append(u)
        out = MonomialModule2(S, pts)
        top = size + span + 2
        rim_ok = True
        for u in grid_corner_points(S, b1, b1 + top, b2, b2 + top):
            a, b = S.normal_values(u)
            if a <= b1 + size and b <= b2 + size:
                continue
            if module.hull_contains(u) != out.contains(u):
                rim_ok = False
                break
        if rim_ok:
            return out
        size *= 2
    raise InvariantViolation("reference window failed to stabilize")


@st.composite
def plane_semigroups(draw):
    """Pointed plane semigroups on two to four generators, det <= 40;
    many generate a proper sublattice of Z^2."""
    pts = draw(st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8)),
                        min_size=2, max_size=4))
    try:
        S = AffineSemigroup2(pts)
    except InvariantViolation:
        assume(False)
    assume(S._det <= 40)
    return S


def module_over(S, shift):
    """The ring itself, or the ring plus the difference of two
    generators (a group point that may lie outside S)."""
    gens = [(0, 0)]
    if shift and len(S.generators) > 1:
        g, h = S.generators[0], S.generators[-1]
        gens.append((g[0] - h[0], g[1] - h[1]))
    return MonomialModule2(S, gens)


def stepped_ray_primitives(S):
    """The least k >= 1 with k * d in the group, for each ray direction
    d, found by stepping k up to the group index."""
    g, _, t = S._edge_form
    out = []
    for dx, dy in S.ray_directions:
        k = next(k for k in range(1, g * t // S._det + 1)
                 if S.in_group((k * dx, k * dy)))
        out.append((k * dx, k * dy))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@example(gens=[(1, 0), (0, 1)])
@example(gens=[(12, 11), (11, 12)])
@example(gens=[(3, 0), (2, 1), (1, 2), (0, 3)])
@given(st.lists(st.tuples(st.integers(-6, 12), st.integers(-6, 12)),
                min_size=2, max_size=4))
def test_ray_primitives_closed_form_matches_stepping(gens):
    # the edge form's two ray points are the rays' first group points
    try:
        S = AffineSemigroup2(gens)
    except InvariantViolation:
        assume(False)
    assert edge_ray_points(S) == stepped_ray_primitives(S)


def test_edge_period():
    # t of the edge form (g, c, t): group points with the same first
    # edge coordinate n1 step by t in the second, n2
    S = AffineSemigroup2([(1, 0), (1, 40)])
    assert S._det == 40 and S._edge_form[2] == 40
    # group of index 3: the first ray's group primitive is 3 * d1
    S3 = model("diagonal-mod3")
    assert S3.ray_directions[0] == (1, 0) and S3._edge_form[2] == 3
    for S in (S, S3, AffineSemigroup2([(1, 7), (3, 2), (7, 2), (7, 7)])):
        (d1x, d1y), t, det = S.ray_directions[0], S._edge_form[2], S._det
        step = (t * d1x // det, t * d1y // det)
        assert t % det == 0 and S.in_group(step)
        assert edge_ray_points(S)[0] == step
        assert S.normal_values(edge_ray_points(S)[1])[1] == 0
        assert not any(k * d1x % det == 0 and k * d1y % det == 0
                       and S.in_group((k * d1x // det, k * d1y // det))
                       for k in range(1, t))


@settings(max_examples=80, deadline=None)
@example(S=AffineSemigroup2([(1, 0), (1, 40)]), box=(-5, 30, -7, 90))
@example(S=model("diagonal-mod3"), box=(0, 20, 1, 20))
@given(plane_semigroups(),
       st.tuples(st.integers(-10, 10), st.integers(0, 60),
                 st.integers(-10, 10), st.integers(0, 60)))
def test_corner_walk_matches_grid_filter(S, box):
    a_lo, a_len, b_lo, b_len = box
    a_hi, b_hi = a_lo + a_len, b_lo + b_len
    walk = [S._edge_point(a, b)
            for a, b in _corner_points(S, a_lo, a_hi, b_lo, b_hi)]
    assert walk == list(grid_corner_points(S, a_lo, a_hi, b_lo, b_hi))


@settings(max_examples=40, deadline=None)
@example(S=AffineSemigroup2([(1, 0), (1, 40)]), shift=False)
@example(S=AffineSemigroup2([(2, 1), (1, 2)]), shift=True)
@example(S=model("pinched-plane"), shift=True)
@given(plane_semigroups(), st.booleans())
def test_hull_matches_full_window_minimalization(S, shift):
    module = module_over(S, shift)
    assert s2_hull(module) == reference_hull(module)


def plane_in_group(S, pt):
    """Group membership from the Hermite form of the generators in the
    plane's coordinates, without edge coordinates."""
    d, e, m = toric2._lattice_basis(S.generators)
    return pt[0] % d == 0 and (pt[1] - (pt[0] // d) * e) % m == 0


def plane_reachable(S, ray, t):
    """Vectors reachable by off-ray generator combos at edge level
    exactly t, as plane points, level by level."""
    off = [g for g in S.generators if S.normal_values(g)[ray]]
    levels = [{(0, 0)}]
    for ell in range(1, t + 1):
        levels.append({(v[0] + g[0], v[1] + g[1]) for g in off
                       for ng in [S.normal_values(g)[ray]] if ng <= ell
                       for v in levels[ell - ng]})
    return levels[t]


def reference_ray_local(module, pt, ray):
    """Ray localization of a group point as `_ray_local` decided it
    before the residue lookup: walk every multiple mu of the ray's gcd
    between two bounds and look z - mu d up among the reachable plane
    vectors."""
    S = module.semigroup
    d = S.ray_directions[ray]
    ga = S._ray_gcds[ray]
    det = S._det
    rmax = max([S.normal_values(g)[1 - ray] for g in S.generators
                if S.normal_values(g)[ray]], default=0)
    for h in module.generators:
        z = (pt[0] - h[0], pt[1] - h[1])
        nz = S.normal_values(z)
        t = nz[ray]
        if t < 0:
            continue
        reach = plane_reachable(S, ray, t)
        if not reach:
            continue
        other = nz[1 - ray]
        hi = other // det
        lo = -((t * rmax - other) // det)
        mu = hi - (hi % ga)
        while mu >= lo:
            sigma = (z[0] - mu * d[0], z[1] - mu * d[1])
            if sigma in reach:
                return True
            mu -= ga
    return False


@settings(max_examples=40, deadline=None)
@example(S=AffineSemigroup2([(10, 2), (9, -3), (11, 12)]), shift=True)
@example(S=AffineSemigroup2([(0, -3), (7, 9), (11, -1)]), shift=True)
@example(S=model("diagonal-mod3"), shift=True)
@given(plane_semigroups(), st.booleans())
def test_residue_lookup_matches_the_mu_loop(S, shift):
    # off-group points of the box included: both sides must say no
    module = module_over(S, shift)
    for pt in itertools.product(range(-6, 10), repeat=2):
        in_group = plane_in_group(S, pt)
        assert S.in_group(pt) == in_group, pt
        for ray in (0, 1):
            want = in_group and reference_ray_local(module, pt, ray)
            assert module.in_ray_localization(pt, ray) == want, (pt, ray)
        assert module.hull_contains(pt) == (
            in_group and reference_ray_local(module, pt, 0)
            and reference_ray_local(module, pt, 1)), pt


@settings(max_examples=40, deadline=None)
@example(S=model("pinched-plane"), shift=False)
@example(S=AffineSemigroup2([(4, 0), (6, 0), (0, 5), (1, 1)]), shift=False)
@given(plane_semigroups(), st.booleans())
def test_window_keeps_only_points_without_a_hull_point_below(S, shift):
    # the kept points are exactly the window's hull points u with no
    # u - g a hull point of the window, found pointwise on every point
    module = module_over(S, shift)
    b1 = min(S.normal_values(h)[0] for h in module.generators)
    b2 = min(S.normal_values(h)[1] for h in module.generators)
    size = 3 * max(max(S.normal_values(g)) for g in S.generators) + 6
    window = list(grid_corner_points(S, b1, b1 + size, b2, b2 + size))
    found = {u for u in window if module.hull_contains(u)}
    want = [u for u in window if u in found
            and not any((u[0] - g[0], u[1] - g[1]) in found
                        for g in S.generators)]
    assert _window_generators(module, b1, b2, size) == want


# -- the one-walk certificate ---------------------------------------------------

def hull_window(module):
    """(b1, b2, size, top) of `s2_hull`'s first walk: the lowest edge
    coordinates of the module's generators, the window width and the
    width of the square around it that the rim fills."""
    S = module.semigroup
    coords = [S.normal_values(h) for h in module.generators]
    b1 = min(c[0] for c in coords)
    b2 = min(c[1] for c in coords)
    span = max(max(S.normal_values(g)) for g in S.generators)
    mspan = max(c[0] - b1 + c[1] - b2 for c in coords)
    reach = S._det * (S._ray_gcds[0] * max(S._ray_conductors[0], 1)
                      + S._ray_gcds[1] * max(S._ray_conductors[1], 1))
    size = 2 * (span + mspan + reach) + 8
    return b1, b2, size, size + span + 2


def beyond(S, u, b1, b2, size):
    a, b = S.normal_values(u)
    return a > b1 + size or b > b2 + size


def test_window_growth_is_seen_by_the_square_walk():
    # negative control: the hull generator (34, 15) has edge
    # coordinates (15, 91), beyond the first window of width 86, so a
    # certificate blind to the rim would return the window's answer
    # without it; the square walk keeps it and the window must grow
    S = AffineSemigroup2([(3, 4), (3, 0), (7, 5), (8, 3)])
    module = MonomialModule2(S, [(0, 0)])
    b1, b2, size, top = hull_window(module)
    assert size == 86
    assert _window_generators(module, b1, b2, size) == [(0, 0), (33, 18),
                                                        (32, 21)]
    kept = _window_generators(module, b1, b2, top)
    assert [u for u in kept if beyond(S, u, b1, b2, size)] == [(34, 15)]
    hull = s2_hull(module)
    assert hull == reference_hull(module)
    assert hull.generators == ((0, 0), (32, 21), (33, 18), (34, 15))


@settings(max_examples=40, deadline=None)
@example(S=AffineSemigroup2([(3, 4), (3, 0), (7, 5), (8, 3)]), shift=False)
@example(S=model("pinched-plane"), shift=True)
@given(plane_semigroups(), st.booleans())
def test_square_walk_keeps_the_window_walk(S, shift):
    # a window point's u - g is never a rim point, so the window points
    # kept by the walk over the whole square are the window walk's own
    module = module_over(S, shift)
    b1, b2, size, top = hull_window(module)
    square = _window_generators(module, b1, b2, top)
    inside = [u for u in square if not beyond(S, u, b1, b2, size)]
    assert inside == _window_generators(module, b1, b2, size)


@st.composite
def hull_walks(draw):
    """(module, size): a plane semigroup, the ring or its shifted module
    (`module_over`) with up to three generators in all, the extra ones
    combinations of two semigroup generators, and a window width from 0
    to 3 span + 6, span the largest edge coordinate of a generator."""
    S = draw(plane_semigroups())
    gens = list(module_over(S, draw(st.booleans())).generators)
    g, h = S.generators[0], S.generators[-1]
    for i, j in draw(st.lists(st.tuples(st.integers(-2, 2),
                                        st.integers(-2, 2)), max_size=2)):
        gens.append((i * g[0] + j * h[0], i * g[1] + j * h[1]))
    span = max(map(max, S._steps))
    return (MonomialModule2(S, gens[:3]),
            draw(st.integers(0, 3 * span + 6)))


def two_steps_on_ray0():
    # steps (0, 4) and (0, 6) on ray 0, and a module point with a
    # negative coordinate
    S = AffineSemigroup2([(4, 0), (6, 0), (0, 5), (1, 1)])
    module = MonomialModule2(S, [(0, 0), (-2, 1)])
    assert sorted(sb for sa, sb in S._steps if not sa) == [4, 6]
    return module


def doubling_walk():
    # the first walk keeps (34, 15) beyond its window, so the window
    # doubles
    return MonomialModule2(AffineSemigroup2([(3, 4), (3, 0), (7, 5),
                                             (8, 3)]), [(0, 0)])


@settings(max_examples=120, deadline=None)
@example(walk=(two_steps_on_ray0(), 0))
@example(walk=(two_steps_on_ray0(), 20))
@example(walk=(two_steps_on_ray0(), hull_window(two_steps_on_ray0())[3]))
@example(walk=(doubling_walk(), 111))
@example(walk=(doubling_walk(), 197))
@given(hull_walks())
def test_class_walk_matches_the_point_walk(walk):
    module, size = walk
    S = module.semigroup
    b1 = min(S.normal_values(h)[0] for h in module.generators)
    b2 = min(S.normal_values(h)[1] for h in module.generators)
    assert (_window_generators(module, b1, b2, size)
            == point_walk(module, b1, b2, size))


def test_hull_refuses_a_walk_that_keeps_a_non_minimal_point(monkeypatch):
    # a hull point one semigroup step above a kept point is in the hull
    # but is no minimal generator; MonomialModule2 would drop it
    walk = toric2._window_generators

    def one_too_many(module, b1, b2, size):
        kept = walk(module, b1, b2, size)
        g = module.semigroup.generators[0]
        return kept + [(kept[0][0] + g[0], kept[0][1] + g[1])]

    module = MonomialModule2(model("plane"), [(2, 5), (5, 2)])
    s2_hull(module)
    monkeypatch.setattr(toric2, "_window_generators", one_too_many)
    with pytest.raises(InvariantViolation, match="minimal generator"):
        s2_hull(module)


def test_hull_runs_no_module_membership(monkeypatch):
    # the certificate comes from the walk alone: no semigroup search
    # for the extracted module's points
    cases = [MonomialModule2(model("pinched-plane"), [(0, 0)]),
             MonomialModule2(model("plane"), [(2, 5), (5, 2)]),
             MonomialModule2(AffineSemigroup2([(3, 4), (3, 0), (7, 5),
                                               (8, 3)]), [(0, 0)]),
             MonomialModule2(AffineSemigroup2([(1, -2), (1, 8), (6, -1),
                                               (6, 4)]), [(-5, -6)])]
    want = [s2_hull(m) for m in cases]

    def refuse(self, point):
        raise AssertionError("s2_hull asked a module membership question")

    monkeypatch.setattr(MonomialModule2, "contains", refuse)
    assert [s2_hull(m) for m in cases] == want


# -- the search caps ---------------------------------------------------------

def test_member_search_is_capped_by_level():
    S = model("pinched-plane")
    assert S.contains((MAX_MEMBER_LEVEL - 1, 1))
    with pytest.raises(TooLarge, match="bound 8192"):
        S.contains((MAX_MEMBER_LEVEL, 1))
    # points outside the cone or the group need no search at any level
    assert not S.contains((-1, 10 ** 12))
    assert not model("diagonal-mod3").contains((10 ** 12, 0))
    # the module's minimality test runs the same search
    with pytest.raises(TooLarge):
        MonomialModule2(model("plane"), [(0, 0), (3, 10 ** 11)])


def test_localization_is_capped_by_level():
    # ray 1 at edge level 24,997: the levels below it are never built
    S = AffineSemigroup2([(3, 4), (3, 0), (7, 5), (8, 3)])
    module = MonomialModule2(S, [(0, 0)])
    assert S.normal_values((10000, 5001)) == (5001, 24997)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="level 24997 exceeds the bound 8192"):
        module.hull_contains((10000, 5001))
    with pytest.raises(TooLarge, match="level 24997"):
        module.in_ray_localization((10000, 5001), 1)
    assert len(S._levels[1]) == 1
    assert time.perf_counter() - start < 2.0
    # the plane's first ray is the x-axis, at edge level y
    plane = MonomialModule2(model("plane"), [(0, 0)])
    assert plane.in_ray_localization((-5, MAX_MEMBER_LEVEL), 0)
    with pytest.raises(TooLarge):
        plane.in_ray_localization((-5, MAX_MEMBER_LEVEL + 1), 0)
    with pytest.raises(TooLarge):
        plane.hull_contains((0, MAX_MEMBER_LEVEL + 1))


def test_hull_walk_memory_is_bounded():
    # the square has about 170,000 points; the plane's generators reach
    # back one column, so the walk keeps the hull points of two columns
    module = MonomialModule2(model("plane"), [(100, 0), (0, 100)])
    tracemalloc.start()
    try:
        assert s2_hull(module).generators == ((0, 0),)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_hull_walk_is_capped_by_width(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked past the cap")

    S = model("plane")
    # widths 2047 and 2051: (1015, 0) and (1017, 0) span 1015 and 1017
    below = MonomialModule2(S, [(1015, 0), (0, 1015)])
    above = MonomialModule2(S, [(1017, 0), (0, 1017)])
    monkeypatch.setattr(toric2, "_window_generators", refuse)
    with pytest.raises(TooLarge, match="bound 2048"):
        s2_hull(above)
    with pytest.raises(AssertionError, match="walked"):
        s2_hull(below)
    # minimalizing the points of a walk inside the cap never needs a
    # search from above the member cap: their differences have level at
    # most twice the width
    assert 2 * MAX_WALK_WIDTH <= MAX_MEMBER_LEVEL


def test_doubled_hull_walk_is_capped_too(monkeypatch):
    # the first walk (width 111) keeps (34, 15) beyond the window; the
    # doubled walk (width 197) is refused under a cap of 150
    module = MonomialModule2(AffineSemigroup2([(3, 4), (3, 0), (7, 5),
                                               (8, 3)]), [(0, 0)])
    widths = []
    walk = toric2._window_generators

    def counted(module, b1, b2, top):
        widths.append(top)
        return walk(module, b1, b2, top)

    monkeypatch.setattr(toric2, "_window_generators", counted)
    monkeypatch.setattr(toric2, "MAX_WALK_WIDTH", 150)
    with pytest.raises(TooLarge, match="width 197"):
        s2_hull(module)
    assert widths == [111]


def test_staircase_is_capped(monkeypatch):
    # (1, 0), (1, 1), (1, k) over Z^2: edge form (1, k - 1, k), so the
    # staircase walks the k + 1 columns 0, ..., k and keeps every one
    S = AffineSemigroup2([(1, 0), (1, 1), (1, 2047)])
    assert len(_staircase(S, 0)) == MAX_WALK_WIDTH
    # a group index of 10^9 in the plane's coordinates, but an edge form
    # (10^9, 0, 1): two columns, answered at once
    tall = AffineSemigroup2([(1, 0), (0, 10 ** 9)])
    assert saturation(tall) == tall
    assert canonical_module_toric(tall).generators == ((1, 10 ** 9),)
    # edge form (5000, 0, 5000): the second ray's first group point has
    # edge coordinates (5000, 0), so two columns, not g t / g + 1
    square = AffineSemigroup2([(5000, 0), (0, 5000)])
    assert square._edge_form == (5000, 0, 5000)
    assert _staircase(square, 0) == [(5000, 0), (0, 5000)]

    def refuse(*args):
        raise AssertionError("walked past the cap")

    above = AffineSemigroup2([(1, 0), (1, 1), (1, 2048)])
    monkeypatch.setattr(AffineSemigroup2, "_edge_point", refuse)
    for fn in (saturation, canonical_module_toric):
        with pytest.raises(TooLarge, match="staircase of 2049 columns "
                                           "exceeds the bound 2048"):
            fn(above)


# -- saturation and the canonical module against the parallelogram scan ------

def parallelogram_points(S):
    """Group points z of the bounding box of the fundamental
    parallelogram spanned by the rays' first group points v1, v2, each
    with its cross coordinates z x v2 and v1 x z; the parallelogram is
    where both lie in [0, v1 x v2]."""
    v1, v2 = stepped_ray_primitives(S)
    dv = v1[0] * v2[1] - v1[1] * v2[0]
    xs = [0, v1[0], v2[0], v1[0] + v2[0]]
    ys = [0, v1[1], v2[1], v1[1] + v2[1]]
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if S.in_group((x, y)):
                a = x * v2[1] - y * v2[0]
                b = v1[0] * y - v1[1] * x
                if 0 <= a <= dv and 0 <= b <= dv:
                    yield (x, y), a, b


def reference_saturation(S):
    """`saturation` as it was before the staircase: every irreducible
    lies in the fundamental parallelogram, and a nonzero point of it is
    kept when no other one lies below it in the saturation."""
    pts = [z for z, _, _ in parallelogram_points(S) if z != (0, 0)]

    def in_saturation(w):
        return S.in_cone(w) and S.in_group(w)

    return AffineSemigroup2(
        [z for z in pts
         if not any(c != z and in_saturation((z[0] - c[0], z[1] - c[1]))
                    for c in pts)])


def reference_canonical(S):
    """`canonical_module_toric` as it was before the staircase: the
    parallelogram's points off both of its lower edges."""
    return MonomialModule2(S, [z for z, a, b in parallelogram_points(S)
                               if a > 0 and b > 0])


@settings(max_examples=150, deadline=None)
@example(S=AffineSemigroup2([(1, 0), (1, 1), (1, 3)]))
@example(S=AffineSemigroup2([(2, 0), (0, 3), (1, 1)]))
@example(S=AffineSemigroup2([(1, 0), (1, 2)]))
@example(S=model("diagonal-mod3"))
@given(plane_semigroups())
def test_staircase_matches_the_parallelogram_scan(S):
    sat = saturation(S)
    assert sat == reference_saturation(S)
    assert canonical_module_toric(sat) == reference_canonical(sat)

import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import curvedual as cd
from curvedual import toric2
from curvedual.errors import (InvariantViolation, NotMember, NotSaturated,
                              OwnerMismatch, ParseError, TooLarge)
from curvedual.toric2 import (MAX_HULL_WIDTH, MAX_MEMBER_LEVEL,
                              AffineSemigroup2, MonomialModule2,
                              _corner_points, _window_generators,
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


# -- the hull's lattice walk against the grid filter --------------------------

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


def test_edge_period():
    S = AffineSemigroup2([(1, 0), (1, 40)])
    assert S._det == 40 and S.edge_period == 40
    # group of index 3: the first ray's group primitive is 3 * d1
    S3 = model("diagonal-mod3")
    assert S3.ray_directions[0] == (1, 0) and S3.edge_period == 3
    for S in (S, S3, AffineSemigroup2([(1, 7), (3, 2), (7, 2), (7, 7)])):
        (d1x, d1y), t, det = S.ray_directions[0], S.edge_period, S._det
        step = (t * d1x // det, t * d1y // det)
        assert t % det == 0 and S.in_group(step)
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
    walk = list(_corner_points(S, a_lo, a_hi, b_lo, b_hi))
    assert walk == list(grid_corner_points(S, a_lo, a_hi, b_lo, b_hi))


@settings(max_examples=40, deadline=None)
@example(S=AffineSemigroup2([(1, 0), (1, 40)]), shift=False)
@example(S=AffineSemigroup2([(2, 1), (1, 2)]), shift=True)
@example(S=model("pinched-plane"), shift=True)
@given(plane_semigroups(), st.booleans())
def test_hull_matches_full_window_minimalization(S, shift):
    module = module_over(S, shift)
    assert s2_hull(module) == reference_hull(module)


@settings(max_examples=40, deadline=None)
@example(S=model("pinched-plane"), shift=False)
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
    assert 2 * MAX_HULL_WIDTH <= MAX_MEMBER_LEVEL


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
    monkeypatch.setattr(toric2, "MAX_HULL_WIDTH", 150)
    with pytest.raises(TooLarge, match="width 197"):
        s2_hull(module)
    assert widths == [111]

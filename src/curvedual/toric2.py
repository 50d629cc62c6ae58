"""Plane affine semigroups: saturation, hulls, monomial duality data.

A semigroup S here is given by finitely many integer points spanning a
pointed two-dimensional cone.  Writing d1, d2 for the primitive ray
directions, the edge coordinates of a point w are n1(w) = cross(d1, w)
and n2(w) = cross(w, d2), nonnegative exactly on the cone.  All the
work runs over these pairs; plane points appear only as input, in the
public predicates and in the output.  Every semigroup element splits
into its on-ray and off-ray generator parts, which is what makes the
localization at a ray decidable without any search window:

  u lies in the localization M_ray of a monomial module M
  iff for some generator h of M and some combo s of off-ray
  generators with the same edge level as u - h, the remainder
  u - h - s is a multiple of the ray direction divisible by the
  gcd of the on-ray generator multipliers.

(The on-ray multipliers form a numerical semigroup whose differences
are exactly the multiples of that gcd, and adding enough on-ray
generators always repairs any such remainder.)  That is one congruence
on the other edge coordinate (`_ray_local`).  The hull off the origin
is the intersection of the two ray localizations with the group; its
new generators are collected in an explicit corner window, certified
by the same walk carried on over a rim around it.

In edge coordinates the group has the Hermite form (g, c, t): its
points are the pairs (a, b) with g | a and b = c a/g (mod t).  The hull
walks a square of them.  The saturation is the set of group points
with a, b >= 0 and the canonical module of a saturated semigroup the
set with a, b >= 1 (Oda, Convex Bodies and Algebraic Geometry, 1.6);
the generators of both are the minimal points, one per step of a
staircase over the columns a.
"""

from __future__ import annotations

import math

from .curvering import semigroup_oracle
from .errors import (InvariantViolation, NotMember, NotSaturated,
                     OwnerMismatch, ParseError, TooLarge)

# Highest level n1 + n2 a semigroup membership search may start from,
# and highest edge level a ray localization may build.  The search
# memoises every point it meets, all of them in the cone below the
# start, so its time and memory grow with the level.  Near the cap, the
# slowest of 600 searches on random semigroups with generators in
# [-6, 12]^2 met 512,000 points in 0.8 s and 120 MB (2-vCPU VM, Python
# 3.11).  Past it `contains` and the localizations raise TooLarge; the
# hull walk asks for levels up to its width only.
MAX_MEMBER_LEVEL = 8192

# Widest walk over edge coordinates: the side of the hull's square, the
# rim included, and the column count of the staircase of `saturation`
# and `canonical_module_toric`.  At the cap, the hull of (1015, 0),
# (0, 1015) over the plane takes 0.01 s (4.5-5.9 s while the walk tested
# every group point), that of the ring on (400, 0), (1, 1), (0, 1), with
# 400 classes a column, 1.1-1.3 s, and `toric saturate --gens '1,0 1,1
# 1,2047'` 0.11-0.17 s (2-vCPU VM, Python 3.11).  The widest benchmark
# walk is 250.  Past the cap both raise TooLarge before they walk.
MAX_WALK_WIDTH = 2048


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _egcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _lattice_basis(vectors):
    """Hermite form (d, e, m) of the group generated: rows (d, e) and
    (0, m) with d, m > 0 for a rank-two lattice."""
    d = e = m = 0
    for (a, b) in vectors:
        if d == 0:
            if a:
                d, e = (a, b) if a > 0 else (-a, -b)
            else:
                m = math.gcd(m, b)
            continue
        g, x, y = _egcd(d, a)
        leftover = (d // g) * b - (a // g) * e
        d, e = g, x * e + y * b
        m = math.gcd(m, leftover)
    return d, e % m, m


def _extremal_pair(gens):
    """Generators a, b on the two rays of the cone, b counterclockwise
    from a.  On a pointed cone, "clockwise of" orders the generators by
    angle, so one pass finds the extremes; the check after it is the
    definition: cross(a, b) > 0 and every g = x a + y b with x, y >= 0,
    that is cross(a, g) >= 0 and cross(g, b) >= 0."""
    a = b = gens[0]
    for g in gens:
        if _cross(a, g) < 0:
            a = g
        if _cross(g, b) < 0:
            b = g
    if _cross(a, b) <= 0 or any(_cross(a, g) < 0 or _cross(g, b) < 0
                                for g in gens):
        raise InvariantViolation(
            "generators do not span a pointed two-dimensional cone")
    return a, b


def _primitive(v):
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def _minimal_points(S, points):
    """The points, given without repeats, that no other one of them
    reaches by adding an element of S, in `_sort_key` order.

    g - h lies in the cone exactly when both edge coordinates of g are
    at least those of h, and then h has the lower level, so each point
    is compared only with the kept points before it: a point h that
    reaches g and is not kept is reached from an earlier kept one,
    which then reaches g too.

    A point whose edge coordinates no other point bounds from below is
    reached by none, so it is kept without a comparison.  One sweep in
    edge-coordinate order finds these points: each has a second
    coordinate below every one before it.  On an antichain, such as
    the staircase of `saturation`, that is every point.
    """
    edge = {g: S.normal_values(g) for g in points}
    undominated = set()
    low = math.inf
    for g in sorted(points, key=edge.__getitem__):
        b = edge[g][1]
        if b < low:
            undominated.add(g)
            low = b
    keep = []
    for g in sorted(points, key=S._sort_key):
        ga, gb = edge[g]
        if g in undominated or not any(
                ga >= ha and gb >= hb and S.contains(_sub(g, h))
                for h, ha, hb in keep):
            keep.append((g, ga, gb))
    return tuple(h for h, _, _ in keep)


class AffineSemigroup2:
    """Finitely generated subsemigroup of Z^2 with a pointed 2d cone.

    Stores the canonical minimal generator list, the two primitive ray
    directions (counterclockwise), and in edge coordinates the
    generators (`_steps`) and the Hermite form of the group
    (`_edge_form`).  Membership is an exact level-descent search,
    memoised per instance, from a level of at most MAX_MEMBER_LEVEL.
    """

    def __init__(self, generators):
        raw = [pt for pt in dict.fromkeys((int(g[0]), int(g[1]))
                                          for g in generators)
               if pt != (0, 0)]
        if not raw:
            raise InvariantViolation("at least one nonzero generator needed")
        lo, hi = _extremal_pair(raw)  # so the group has rank two
        self.ray_directions = (_primitive(lo), _primitive(hi))
        self._det = _cross(*self.ray_directions)
        # the minimality test searches over all of them
        self._steps = [self.normal_values(g) for g in raw]
        self._edge_form = _lattice_basis(self._steps)
        self._memo = {}
        self.generators = _minimal_points(self, raw)
        self._steps = [self.normal_values(g) for g in self.generators]
        self._init_ray_data()

    def _sort_key(self, pt):
        a, b = self.normal_values(pt)
        return (a + b, pt[0], pt[1])

    def _init_ray_data(self):
        self._ray_gcds = []
        self._ray_conductors = []
        self._offray = []
        self._levels = []
        for ray in (0, 1):
            # k for each generator k d on the ray: n(k d) = k det
            ks = [e[1 - ray] // self._det for e in self._steps if not e[ray]]
            ga = math.gcd(*ks)
            self._ray_gcds.append(ga)
            scaled = sorted({k // ga for k in ks})
            self._ray_conductors.append(
                ga * semigroup_oracle(scaled).conductor)
            self._offray.append([e for e in self._steps if e[ray]])
            self._levels.append([frozenset({0})])

    # -- basic predicates ----------------------------------------------------

    def normal_values(self, pt):
        """(n1, n2): the two edge functionals, nonnegative on the cone,
        each vanishing on its own ray."""
        (d1x, d1y), (d2x, d2y) = self.ray_directions
        x, y = pt
        return (d1x * y - d1y * x, x * d2y - y * d2x)

    def in_group(self, pt):
        return self._group_pair(self.normal_values(pt))

    def _group_pair(self, e):
        """Whether the edge pair e is that of a group point."""
        g, c, t = self._edge_form
        return e[0] % g == 0 and (e[1] - c * (e[0] // g)) % t == 0

    def _edge_point(self, a, b):
        """The point u with edge coordinates (a, b): u = (a d2 + b d1) /
        det, for a pair of the group's edge form."""
        (d1x, d1y), (d2x, d2y) = self.ray_directions
        det = self._det
        return ((a * d2x + b * d1x) // det, (a * d2y + b * d1y) // det)

    def in_cone(self, pt):
        a, b = self.normal_values(pt)
        return a >= 0 and b >= 0

    def contains(self, point):
        e = self.normal_values((int(point[0]), int(point[1])))
        if e == (0, 0):
            return True
        a, b = e
        if a < 0 or b < 0 or not self._group_pair(e):
            return False
        if a + b > MAX_MEMBER_LEVEL:
            raise TooLarge(f"membership search from level {a + b} exceeds "
                           f"the bound {MAX_MEMBER_LEVEL}")
        return self._member(e)

    def _member(self, w):
        """Depth-first search for w - g in the semigroup over edge pairs,
        generators in order, every finished pair memoised.  The stack is
        explicit, so a point far from the origin does not hit the
        recursion limit."""
        memo = self._memo
        hit = memo.get(w)
        if hit is not None:
            return hit
        steps = self._steps
        stack = [(w, iter(steps))]
        found = None  # answer of the frame popped last, None on descent
        while stack:
            v, rest = stack[-1]
            out, found = found, None
            if not out:
                out = False
                for sa, sb in rest:
                    z = a, b = v[0] - sa, v[1] - sb
                    if a == b == 0:
                        out = True
                        break
                    if a < 0 or b < 0:
                        continue
                    known = memo.get(z)
                    if known is None:
                        out = None
                        stack.append((z, iter(steps)))
                        break
                    if known:
                        out = True
                        break
                if out is None:
                    continue
            stack.pop()
            memo[v] = found = out
        return found

    def _reachable(self, ray, t):
        """Residues modulo det * ga (ga the ray's gcd) of the other edge
        coordinate of the off-ray combos at edge level t; cached."""
        if t > MAX_MEMBER_LEVEL:
            raise TooLarge(f"localization at edge level {t} exceeds the "
                           f"bound {MAX_MEMBER_LEVEL}")
        lv = self._levels[ray]
        m = self._det * self._ray_gcds[ray]
        while len(lv) <= t:
            ell = len(lv)
            lv.append(frozenset((r + e[1 - ray]) % m
                                for e in self._offray[ray] if e[ray] <= ell
                                for r in lv[ell - e[ray]]))
        return lv[t]

    def __eq__(self, other):
        if not isinstance(other, AffineSemigroup2):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"<plane semigroup on {list(self.generators)}>"


class MonomialModule2:
    """Module of lattice points over a plane semigroup, stored by its
    minimal generators (unique because the cone is pointed) and their
    edge coordinates."""

    def __init__(self, semigroup, generators):
        self.semigroup = semigroup
        pts = {}
        for g in generators:
            pt = (int(g[0]), int(g[1]))
            if not semigroup.in_group(pt):
                raise NotMember(f"generator {pt} lies outside the group")
            pts[pt] = None
        if not pts:
            raise InvariantViolation("a module needs at least one generator")
        self.generators = _minimal_points(semigroup, pts)
        self._edges = [semigroup.normal_values(h) for h in self.generators]

    def contains(self, point):
        pt = (int(point[0]), int(point[1]))
        return any(self.semigroup.contains(_sub(pt, h))
                   for h in self.generators)

    def in_ray_localization(self, point, ray):
        """Exact ray-localization membership (docstring at module top)."""
        S = self.semigroup
        e = S.normal_values((int(point[0]), int(point[1])))
        return S._group_pair(e) and self._ray_local(e, ray)

    def _ray_local(self, e, ray):
        """`in_ray_localization` for the edge pair e of a group point.

        Let n be the other edge coordinate and ga the ray's gcd.  For z
        = u - h, h a generator, and a combo s at z's edge level t, z - s
        lies on the ray's line: z - s = mu d, mu = (n(z) - n(s)) / det.
        The remainder test asks for ga | mu, that is n(s) = n(z) modulo
        det * ga, one lookup in the residues of level t.  A walk over mu
        between (n(z) - t rmax) / det and n(z) / det, rmax the largest n
        of an off-ray generator, would find no more: 0 <= n(s) <= t rmax.
        """
        S = self.semigroup
        m = S._det * S._ray_gcds[ray]
        for h in self._edges:
            t = e[ray] - h[ray]
            r = (e[1 - ray] - h[1 - ray]) % m
            if t >= 0 and r in S._reachable(ray, t):
                return True
        return False

    def hull_contains(self, point):
        return all(self.in_ray_localization(point, ray) for ray in (0, 1))

    def __eq__(self, other):
        if not isinstance(other, MonomialModule2):
            return NotImplemented
        return (self.semigroup == other.semigroup
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.semigroup, self.generators))

    def __repr__(self):
        return f"<monomial module on {list(self.generators)}>"


# -- operations -----------------------------------------------------------------

def _staircase(S, lo):
    """Nonzero group points z with n1(z), n2(z) >= lo that are minimal
    for the order of edge coordinates, in order of n1: for lo = 0 the
    Hilbert basis of the saturation, for lo = 1 the generators of its
    module of interior points.

    The saturation is the set of group points with both edge
    coordinates >= 0, the interior points those with both >= 1.  A
    point z of either set is a sum z = h + s, with h nonzero (interior,
    for lo = 1), h != z and s in the saturation, exactly when some such
    h has n1(h) <= n1(z) and n2(h) <= n2(z): then s = z - h has both
    edge coordinates >= 0, and it lies in the group as a difference of
    group points.  So the generators are the minimal points.  Column a
    holds group points only when g divides a; of these only its lowest
    b >= lo (the origin skipped) can be minimal, and it is minimal
    exactly when it lies below the lowest b of every earlier column,
    that is below every b kept so far.  The ray point with edge
    coordinates (A, 0), A = g t / gcd(c, t), is the first group point
    of the second ray.  A point z of a column past A lies above (A, 0)
    and above z - (A, 0), which is interior when z is; so the walk stops
    at A, after A/g + 1 columns at most.
    """
    g, c, t = S._edge_form
    top = g * t // math.gcd(c, t)
    if top // g + 1 > MAX_WALK_WIDTH:
        raise TooLarge(f"staircase of {top // g + 1} columns exceeds the "
                       f"bound {MAX_WALK_WIDTH}")
    out = []
    low = math.inf
    for a in range(lo + (-lo) % g, top + 1, g):
        b = lo + (c * (a // g) - lo) % t
        if a == b == 0:
            b = t
        if b < low:
            low = b
            out.append(S._edge_point(a, b))
    return out


def saturation(S: AffineSemigroup2) -> AffineSemigroup2:
    """Hilbert basis of cone(S) intersected with group(S), read off the
    staircase of edge coordinates (`_staircase`)."""
    out = AffineSemigroup2(_staircase(S, 0))  # same cone, same edges
    if out._edge_form != S._edge_form:
        raise InvariantViolation("saturation changed the group")
    return out


def _window_generators(module, b1, b2, size):
    """Hull points u of the square [b1, b1 + size] x [b2, b2 + size] of
    edge coordinates with no u - g a hull point for a semigroup
    generator g = (ga, gb), in order of a, then b.

    The hull H is a module inside {n1 >= b1, n2 >= b2}, so such a u - g
    lies in the square.  Ray 0 is extreme, so it carries generators;
    (0, s0) is the least, and t | s0.  H + (0, s0) lies in H, so
    H meets the class b = r (mod s0) of column a in the b >= beta(a, r)
    of the square, and only (a, beta) can be kept.  A g with ga > 0
    puts (a, B) in H, B = beta(a - ga, r - gb) + gb; a binary search,
    by the exact test of both ray localizations, finds beta among the
    class's points below the least B, probing the highest first.  If
    beta < B, no such g has u - g in H, so (a, beta) is kept exactly
    when no g with ga = 0 has beta(a, beta - gb) <= beta - gb.
    """
    S = module.semigroup
    g, c, t = S._edge_form
    steps = S._steps
    flat = [sb for sa, sb in steps if not sa]
    s0 = min(flat)
    back = max(sa for sa, _ in steps)
    local = module._ray_local
    top = b2 + size
    inf = math.inf
    tables = {}
    kept = []
    for a in range(b1 + (-b1) % g, b1 + size + 1, g):
        tables.pop(a - back - g, None)
        climb = [(tables[a - sa], sb) for sa, sb in steps
                 if sa and a - sa in tables]
        col = tables[a] = {}
        fresh = []
        low = b2 + (c * (a // g) - b2) % t
        for b in range(low, min(low + s0, top + 1), t):
            r = b % s0
            bound = min([tab.get((r - sb) % s0, inf) + sb
                         for tab, sb in climb] or [inf])
            n = -((b - min(bound, top + 1)) // s0)
            i, j, m = 0, n, n - 1
            while i < j:
                if local((a, b + m * s0), 0) and local((a, b + m * s0), 1):
                    j = m
                else:
                    i = m + 1
                m = (i + j) // 2
            if i < n:
                col[r] = b + i * s0
                fresh.append(b + i * s0)
            elif bound <= top:
                col[r] = bound
        kept += [S._edge_point(a, beta) for beta in sorted(fresh)
                 if all(col.get((beta - sb) % s0, inf) > beta - sb
                        for sb in flat)]
    return kept


def s2_hull(module: MonomialModule2) -> MonomialModule2:
    """Intersection of the two ray localizations with the group.

    Pointwise membership is exact; the finitely many generators beyond
    the module itself are collected in a corner window [b1, b1 + size]^2
    of edge coordinates, sized from the generator data, and certified by
    one walk over the square [b1, b1 + top]^2, window and rim together,
    top = size + span + 2.  When the walk keeps a point beyond the
    window, the window doubles; persistent growth is an invariant
    violation rather than a wrong answer.

    Let H be the hull, a module inside {n1 >= b1, n2 >= b2}, b1 and b2
    the lowest edge coordinates of the module's generators.
    `_window_generators` keeps exactly H's minimal generators in the
    square, its points u with no u - g in H, in (n1, n2) order.  A
    window point's u - g is never a rim point, so the kept window points
    are those a walk of the window alone keeps.  Every point dropped
    descends, by strictly falling level, to a kept one.

    Let out be the module generated by the kept window points; out lies
    in H, and H meets the window inside out, the module's generators
    included.  The rim agrees with out (H and out have the same rim
    points) exactly when the walk keeps no rim point:

    - a kept rim point u lies in H but not in out, because every point
      of out beyond the window has some u - g in out, inside H;
    - conversely, the first rim point of H outside out, in (n1, n2)
      order, has no u - g in H: such a point would lie in the window
      (so in out) or be an earlier rim point (so in out).  The walk
      keeps it.

    So the rim is certified without a semigroup search, and the kept
    window points, H's minimal generators, are H's generator tuple.
    `MonomialModule2` minimalizes them again; a point it drops was kept
    by a faulty walk, which raises `InvariantViolation`.
    """
    S = module.semigroup
    coords = module._edges
    b1 = min(c[0] for c in coords)
    b2 = min(c[1] for c in coords)
    span = max(map(max, S._steps))
    mspan = max(c[0] - b1 + c[1] - b2 for c in coords)
    reach = S._det * (S._ray_gcds[0] * max(S._ray_conductors[0], 1)
                      + S._ray_gcds[1] * max(S._ray_conductors[1], 1))
    size = 2 * (span + mspan + reach) + 8
    for _ in range(3):
        top = size + span + 2
        if top > MAX_WALK_WIDTH:
            raise TooLarge(f"hull walk of width {top} exceeds the bound "
                           f"{MAX_WALK_WIDTH}")
        kept = _window_generators(module, b1, b2, top)
        if all(a <= b1 + size and b <= b2 + size
               for a, b in map(S.normal_values, kept)):
            out = MonomialModule2(S, kept)
            if set(out.generators) != set(kept):
                raise InvariantViolation(
                    "hull walk kept a point that is not a minimal generator")
            return out
        size *= 2
    raise InvariantViolation("hull corner window failed to stabilize")


def canonical_module_toric(S: AffineSemigroup2) -> MonomialModule2:
    """Module of interior lattice points of a saturated semigroup, on
    the staircase of edge coordinates >= 1 (`_staircase`)."""
    if saturation(S) != S:
        raise NotSaturated("interior-point recipe needs a saturated input")
    return MonomialModule2(S, _staircase(S, 1))


def monomial_iso(mod_a: MonomialModule2, mod_b: MonomialModule2):
    """Translation vector u with mod_a + u = mod_b, or None.

    Minimal generators are unique and their canonical order is
    translation-equivariant, so the difference of the leading
    generators is the only possible u.
    """
    if mod_a.semigroup != mod_b.semigroup:
        raise OwnerMismatch("modules live over different semigroups")
    ga, gb = mod_a.generators, mod_b.generators
    if len(ga) != len(gb):
        return None
    u = _sub(gb[0], ga[0])
    if all(gb[i] == (ga[i][0] + u[0], ga[i][1] + u[1])
           for i in range(len(ga))):
        return u
    return None


# -- named models -----------------------------------------------------------------

MODELS = {
    # full smooth quadrant
    "plane": ((1, 0), (0, 1)),
    # coordinate sums divisible by three
    "diagonal-mod3": ((3, 0), (2, 1), (1, 2), (0, 3)),
    # all of the quadrant except the two degree-one points
    "pinched-plane": ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)),
}


def model(name: str) -> AffineSemigroup2:
    try:
        gens = MODELS[name]
    except KeyError:
        raise ParseError(
            f"unknown model {name!r}; choose from {sorted(MODELS)}") from None
    return AffineSemigroup2(gens)

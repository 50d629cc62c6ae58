"""Plane affine semigroups: saturation, hulls, monomial duality data.

A semigroup S here is given by finitely many integer points spanning a
pointed two-dimensional cone.  Writing d1, d2 for the primitive ray
directions and n1(w) = cross(d1, w), n2(w) = cross(w, d2) for the two
edge functionals (nonnegative exactly on the cone), every semigroup
element splits into its on-ray and off-ray generator parts, which is
what makes the localization at a ray decidable without any search
window:

  u lies in the localization M_ray of a monomial module M
  iff for some generator h of M and some combo s of off-ray
  generators with the same edge level as u - h, the remainder
  u - h - s is a multiple of the ray direction divisible by the
  gcd of the on-ray generator multipliers.

(The on-ray multipliers form a numerical semigroup whose differences
are exactly the multiples of that gcd, and adding enough on-ray
generators always repairs any such remainder.)  The hull off the
origin is the intersection of the two ray localizations with the
group; its new generators are collected in an explicit corner window,
certified by the same walk carried on over a rim around it.
"""

from __future__ import annotations

import math

from .curvering import semigroup_oracle
from .errors import (InvariantViolation, NotMember, NotSaturated,
                     OwnerMismatch, ParseError, TooLarge)

# Highest level n1 + n2 a semigroup membership search may start from.
# The search memoises every point it meets, all of them in the cone
# below the start, so its time and memory grow with the level.  Near the
# cap, the slowest of 600 searches on random semigroups with generators
# in [-6, 12]^2 met 512,000 points in 0.8 s and 120 MB (2-vCPU VM,
# Python 3.11).  Past it `contains` raises TooLarge.
MAX_MEMBER_LEVEL = 8192

# Widest square of edge coordinates the hull walk may cover, the rim
# included.  The walk visits every group point of the square, about
# (top + 1)^2 / det of them, and keeps each one it finds.  At the cap,
# the hull of (1015, 0), (0, 1015) over the plane walks 4.2 million
# points in 4.5 s and 625 MB (2-vCPU VM, Python 3.11).  The widest
# walk of the benchmark jobs is 250.  Past the cap `s2_hull` raises
# TooLarge before it walks.
MAX_HULL_WIDTH = 2048


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
    if m:
        e %= m
    return d, e, m


def _extremal_pair(gens):
    for a in gens:
        for b in gens:
            if _cross(a, b) <= 0:
                continue
            if all(_cross(a, g) >= 0 and _cross(g, b) >= 0 for g in gens):
                return a, b
    raise InvariantViolation(
        "generators do not span a pointed two-dimensional cone")


def _primitive(v):
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


class AffineSemigroup2:
    """Finitely generated subsemigroup of Z^2 with a pointed 2d cone.

    Stores the canonical minimal generator list, the two primitive ray
    directions (counterclockwise), and the Hermite form of the group
    generated.  Membership is an exact level-descent search, memoised
    per instance, from a level of at most MAX_MEMBER_LEVEL.
    """

    def __init__(self, generators):
        raw = []
        for g in generators:
            pt = (int(g[0]), int(g[1]))
            if pt != (0, 0) and pt not in raw:
                raw.append(pt)
        if not raw:
            raise InvariantViolation("at least one nonzero generator needed")
        lo, hi = _extremal_pair(raw)
        self.ray_directions = (_primitive(lo), _primitive(hi))
        self._det = _cross(*self.ray_directions)
        self._hnf = _lattice_basis(raw)
        if self._hnf[0] == 0 or self._hnf[2] == 0:
            raise InvariantViolation("group of the semigroup has rank < 2")
        self._memo = {}
        self._dp_gens = list(raw)
        minimal = []
        for g in sorted(raw, key=self._sort_key):
            diffs = (_sub(g, h) for h in raw)
            if not any(z != (0, 0) and self.contains(z) for z in diffs):
                minimal.append(g)
        self.generators = tuple(minimal)
        self._dp_gens = minimal
        self._init_ray_data()

    def _sort_key(self, pt):
        a, b = self.normal_values(pt)
        return (a + b, pt[0], pt[1])

    def _init_ray_data(self):
        self._ray_gcds = []
        self._ray_conductors = []
        self._offray = []
        self._off_other_max = []
        self._levels = []
        for ray in (0, 1):
            d = self.ray_directions[ray]
            ks, off, omax = [], [], 0
            for g in self.generators:
                nv = self.normal_values(g)
                if nv[ray] == 0:
                    k = g[0] // d[0] if d[0] else g[1] // d[1]
                    if k < 1 or (k * d[0], k * d[1]) != g:
                        raise InvariantViolation("bad on-ray generator")
                    ks.append(k)
                else:
                    off.append(g)
                    omax = max(omax, nv[1 - ray])
            if not ks:
                # the extremal ray of the cone always carries a generator
                raise InvariantViolation("extremal ray without a generator")
            ga = math.gcd(*ks) if len(ks) > 1 else ks[0]
            self._ray_gcds.append(ga)
            scaled = sorted({k // ga for k in ks})
            self._ray_conductors.append(
                ga * semigroup_oracle(scaled).conductor)
            self._offray.append(off)
            self._off_other_max.append(omax)
            self._levels.append([frozenset({(0, 0)})])

    # -- basic predicates ----------------------------------------------------

    def normal_values(self, pt):
        """(n1, n2): the two edge functionals, nonnegative on the cone,
        each vanishing on its own ray."""
        (d1x, d1y), (d2x, d2y) = self.ray_directions
        x, y = pt
        return (d1x * y - d1y * x, x * d2y - y * d2x)

    def level(self, pt):
        a, b = self.normal_values(pt)
        return a + b

    def in_group(self, pt):
        d, e, m = self._hnf
        if pt[0] % d:
            return False
        return (pt[1] - (pt[0] // d) * e) % m == 0

    def in_cone(self, pt):
        a, b = self.normal_values(pt)
        return a >= 0 and b >= 0

    def contains(self, point):
        w = (int(point[0]), int(point[1]))
        if w == (0, 0):
            return True
        a, b = self.normal_values(w)
        if a < 0 or b < 0 or not self.in_group(w):
            return False
        if a + b > MAX_MEMBER_LEVEL:
            raise TooLarge(f"membership search from level {a + b} exceeds "
                           f"the bound {MAX_MEMBER_LEVEL}")
        return self._member(w)

    def _member(self, w):
        """Depth-first search for w - g in the semigroup, generators in
        order, every finished point memoised.  The stack is explicit, so
        a point far from the origin does not hit the recursion limit."""
        memo = self._memo
        hit = memo.get(w)
        if hit is not None:
            return hit
        gens = self._dp_gens
        stack = [(w, iter(gens))]
        found = None  # answer of the frame popped last, None on descent
        while stack:
            v, rest = stack[-1]
            out, found = found, None
            if not out:
                out = False
                for g in rest:
                    z = _sub(v, g)
                    if z == (0, 0):
                        out = True
                        break
                    a, b = self.normal_values(z)
                    if a < 0 or b < 0:
                        continue
                    known = memo.get(z)
                    if known is None:
                        out = None
                        stack.append((z, iter(gens)))
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
        """Vectors reachable by off-ray generator combos at edge level
        exactly t; computed level by level and cached."""
        lv = self._levels[ray]
        while len(lv) <= t:
            ell = len(lv)
            cur = set()
            for g in self._offray[ray]:
                ng = self.normal_values(g)[ray]
                if ng <= ell:
                    for v in lv[ell - ng]:
                        cur.add((v[0] + g[0], v[1] + g[1]))
            lv.append(frozenset(cur))
        return lv[t]

    @property
    def ray_group_primitives(self):
        """Smallest positive multiple of each ray direction inside the
        group; these frame the fundamental parallelogram."""
        cached = getattr(self, "_ray_prims", None)
        if cached is not None:
            return cached
        d, _, m = self._hnf
        index = d * m
        out = []
        for dirv in self.ray_directions:
            for k in range(1, index + 1):
                if self.in_group((k * dirv[0], k * dirv[1])):
                    out.append((k * dirv[0], k * dirv[1]))
                    break
            else:
                raise InvariantViolation("ray misses the group")
        self._ray_prims = tuple(out)
        return self._ray_prims

    @property
    def edge_period(self):
        """Smallest t > 0 with t*d1/det in the group, d1 the first ray
        direction: the step of the second edge coordinate n2 between
        group points with the same n1.  As d1 is primitive, det divides
        t, so t is det times the multiple of d1 that is the first ray's
        group primitive."""
        cached = getattr(self, "_edge_period", None)
        if cached is None:
            d1 = self.ray_directions[0]
            v1 = self.ray_group_primitives[0]
            k = v1[0] // d1[0] if d1[0] else v1[1] // d1[1]
            cached = self._edge_period = self._det * k
        return cached

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
    minimal generators (unique because the cone is pointed)."""

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
        keep = []
        for g in sorted(pts, key=semigroup._sort_key):
            if not any(semigroup.contains(_sub(g, h)) for h in keep):
                keep.append(g)
        self.generators = tuple(keep)

    def contains(self, point):
        pt = (int(point[0]), int(point[1]))
        return any(self.semigroup.contains(_sub(pt, h))
                   for h in self.generators)

    def in_ray_localization(self, point, ray):
        """Exact ray-localization membership (docstring at module top)."""
        pt = (int(point[0]), int(point[1]))
        return self.semigroup.in_group(pt) and self._ray_local(pt, ray)

    def _ray_local(self, pt, ray):
        """`in_ray_localization` for an int point already in the group."""
        S = self.semigroup
        d = S.ray_directions[ray]
        ga = S._ray_gcds[ray]
        det = S._det
        rmax = S._off_other_max[ray]
        for h in self.generators:
            z = _sub(pt, h)
            nz = S.normal_values(z)
            t = nz[ray]
            if t < 0:
                continue
            reach = S._reachable(ray, t)
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

    def hull_contains(self, point):
        pt = (int(point[0]), int(point[1]))
        return (self.semigroup.in_group(pt)
                and self._ray_local(pt, 0) and self._ray_local(pt, 1))

    def translate(self, vec):
        return MonomialModule2(
            self.semigroup,
            [(g[0] + vec[0], g[1] + vec[1]) for g in self.generators])

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

def _corner_points(S, a_lo, a_hi, b_lo, b_hi):
    """Group points u with edge coordinates a = n1(u) in [a_lo, a_hi]
    and b = n2(u) in [b_lo, b_hi], in order of a, then b.

    u = (a*d2 + b*d1)/det, so two group points with the same a differ by
    a multiple of t*d1/det for t = S.edge_period, and each a has either
    no group point or one per period of b.  For each a the walk finds
    the first b of one period that gives a group point (exact Cramer
    division, then the group test) and steps b by t from there; it
    never looks at the pairs in between.
    """
    (d1x, d1y), (d2x, d2y) = S.ray_directions
    det = S._det
    t = S.edge_period
    sx, sy = t * d1x // det, t * d1y // det
    in_group = S.in_group
    for a in range(a_lo, a_hi + 1):
        ax, ay = a * d2x, a * d2y
        for b in range(b_lo, min(b_lo + t, b_hi + 1)):
            px = ax + b * d1x
            py = ay + b * d1y
            if px % det or py % det:
                continue
            u = (px // det, py // det)
            if in_group(u):
                break
        else:
            continue
        x, y = u
        for _ in range(b, b_hi + 1, t):
            yield (x, y)
            x += sx
            y += sy


def _parallelogram_scan(S):
    """Group points z of the bounding box of the fundamental
    parallelogram spanned by the in-group ray primitives v1, v2, in
    order of x, then y, each with its cross coordinates z x v2 and
    v1 x z; the parallelogram is where both lie in [0, v1 x v2]."""
    v1, v2 = S.ray_group_primitives
    xs = [0, v1[0], v2[0], v1[0] + v2[0]]
    ys = [0, v1[1], v2[1], v1[1] + v2[1]]
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            z = (x, y)
            if S.in_group(z):
                yield z, _cross(z, v2), _cross(v1, z)


def saturation(S: AffineSemigroup2) -> AffineSemigroup2:
    """Hilbert basis of cone(S) intersected with group(S).

    Every irreducible lies in the fundamental parallelogram spanned by
    the two in-group ray primitives (anything beyond an edge can shed
    that primitive and stay in the saturation), so the candidate list
    is finite and exact.
    """
    dv = _cross(*S.ray_group_primitives)
    pts = [z for z, a, b in _parallelogram_scan(S)
           if z != (0, 0) and 0 <= a <= dv and 0 <= b <= dv]

    def in_saturation(w):
        return S.in_cone(w) and S.in_group(w)

    keep = [z for z in pts
            if not any(c != z and _sub(z, c) != (0, 0)
                       and in_saturation(_sub(z, c)) for c in pts)]
    out = AffineSemigroup2(keep)
    if out._hnf != S._hnf:
        raise InvariantViolation("saturation changed the group")
    return out


def _window_generators(module, b1, b2, size):
    """Hull points u of the corner window [b1, b1 + size] x [b2, b2 +
    size] of edge coordinates with no u - g a hull point of the window
    for a semigroup generator g, in walk order.

    The walk meets u - g before u, and the hull is a module, so a point
    with u - g already found is a hull point without a pointwise test.
    """
    S = module.semigroup
    steps = S.generators
    found = set()
    kept = []
    for u in _corner_points(S, b1, b1 + size, b2, b2 + size):
        x, y = u
        if any((x - g[0], y - g[1]) in found for g in steps):
            found.add(u)
        elif module.hull_contains(u):
            found.add(u)
            kept.append(u)
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

    The square is walked over group points only (`_corner_points`), in
    order of edge coordinates, so for every semigroup generator g the
    point u - g, when it lies in the square, comes before u.  Let H be
    the hull.  It is a module, and it lies in {n1 >= b1, n2 >= b2},
    where b1 and b2 are the lowest edge coordinates of the module's
    generators.  So `_window_generators` computes H exactly on the
    square, recording u without a pointwise test once some u - g is
    found, and the points it keeps are exactly H's minimal generators in
    the square.  A window point's u - g is never a rim point, so the
    window points kept by the square walk are exactly those the window
    walk alone would keep.  Every point dropped this way descends, by
    strictly falling level, to a kept one.

    Let out be the module generated by the module's generators and the
    kept window points; out lies in H, and H meets the window inside
    out.  The rim agrees with out (H and out have the same rim points)
    exactly when the walk keeps no rim point:

    - a kept rim point u lies in H but not in out, because every point
      of out beyond the window has some u - g in out, inside H;
    - conversely, the first rim point of H outside out, in walk order,
      has no u - g in H: such a point would lie in the window (so in
      out) or be an earlier rim point (so in out).  The walk keeps it.

    So the rim is certified without a semigroup search, and
    `MonomialModule2` minimalizes the kept window points and the
    module's generators to H's generator tuple.
    """
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
        top = size + span + 2
        if top > MAX_HULL_WIDTH:
            raise TooLarge(f"hull walk of width {top} exceeds the bound "
                           f"{MAX_HULL_WIDTH}")
        kept = _window_generators(module, b1, b2, top)
        if all(a <= b1 + size and b <= b2 + size
               for a, b in map(S.normal_values, kept)):
            return MonomialModule2(S, list(gens) + kept)
        size *= 2
    raise InvariantViolation("hull corner window failed to stabilize")


def canonical_module_toric(S: AffineSemigroup2) -> MonomialModule2:
    """Module of interior lattice points of a saturated semigroup.

    Its minimal generators lie in the fundamental parallelogram: an
    interior point beyond an edge coordinate 1 sheds that in-group ray
    primitive and stays interior, hence is reducible.
    """
    if saturation(S) != S:
        raise NotSaturated("interior-point recipe needs a saturated input")
    dv = _cross(*S.ray_group_primitives)
    return MonomialModule2(S, [z for z, a, b in _parallelogram_scan(S)
                               if 0 < a <= dv and 0 < b <= dv])


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

"""Finite-colength modules of Laurent vectors over a branch tuple.

A `FracIdeal` is a module M of Laurent vectors (functions or forms)
over a one-dimensional local ring O presented by branches.  M is stored
in canonical form as

  * a per-branch window [pole_i, tail_i),
  * a reduced echelon basis of the window part V = M ∩ window,
  * the implicit full monomial slab t^{tail_i} k[[t_i]] on every branch,

so M = V ⊕ slab.  Tails are minimal (the monomial just below each
tail is not in M; `laurent.shed_slab` lowers them) and poles are the
true minimal valuations, which makes equality structural.  Products
are `laurent.clip_product` of rows, cut to the result's window.

A module computes its minimal generators once, on first use, as lifts
of a basis of M/mM.  `colon` writes its constraints from the minimal
generators of the divisor N, μ(N) of them per unknown rather than
dim(N), and `is_principal` reads their count and verifies its
generator once per module.  The `report` and `omega` commands read
their facts through the table-backed readers of `duality`; in
`report`, the property `gorenstein-threshold` and the printed
generator both ask ω for its generator, and one verification serves
both.

The owning ring only needs to expose `field`, `nbranches`, `cond` (the
conductor exponents), `basis` (polynomial lifts of a reduced basis of
the ring modulo its conductor, unit row first) and `gens` (generators
of the maximal ideal, with no constant terms).

All constructions here assume, and preserve, closure under the ring
action; `from_generators` is the safe entry point.
"""

from __future__ import annotations

import random

from .errors import (DifferentialDegreeError, InvariantViolation, NotContained,
                     NotMember, OwnerMismatch, ZeroDivisor, ZeroOnBranch)
from .laurent import (INF, Element, clip_product, clip_window,
                      linear_combination, shed_slab, window_key)
from .linalg import (Echelon, TrackedEchelon, intersect_spans, kernel,
                     vec_iaddmul)


def _orders(ring):
    """e_i, the least order on branch i of a generator of the ring's
    maximal ideal."""
    return [min(g.valuation(i) for g in ring.gens)
            for i in range(ring.nbranches)]


class FracIdeal:
    __slots__ = ("ring", "degree", "pole", "tail", "ech", "_min_gens",
                 "_principal")

    def __init__(self, ring, degree, pole, tail, rows):
        r = ring.nbranches
        pole = [int(x) for x in pole]
        tail = [int(x) for x in tail]
        if len(pole) != r or len(tail) != r:
            raise OwnerMismatch("window length does not match branch count")
        if any(t < p for p, t in zip(pole, tail)):
            raise InvariantViolation("window tail below window start")
        ech = Echelon(ring.field, sort_key=window_key)
        ech.extend(clip_window(row, tail) for row in rows)
        tail = shed_slab(ech, pole, tail)
        # poles become the true minimal valuations
        for i in range(r):
            exps = [j for row in ech.rows for (b, j) in row if b == i]
            pole[i] = min(exps) if exps else tail[i]
        self.ring = ring
        self.degree = degree
        self.pole = tuple(pole)
        self.tail = tuple(tail)
        self.ech = ech
        self._min_gens = None
        self._principal = None

    # -- basic views --------------------------------------------------------

    @property
    def window_dim(self) -> int:
        return self.ech.dim

    def rows_as_elements(self):
        return [Element(self.ring.field, self.ring.nbranches, row, self.degree)
                for row in self.ech.rows]

    def _window_vectors(self, top):
        """The window rows, then on each branch the slab monomials from
        the tail up to top[i], as fresh vectors."""
        one = self.ring.field.one
        vecs = [dict(row) for row in self.ech.rows]
        for i in range(self.ring.nbranches):
            vecs.extend({(i, j): one} for j in range(self.tail[i], top[i]))
        return vecs

    def module_generators(self):
        """Generators of M over the ring: the window rows plus, on each
        branch i, the slab monomials from tail_i to tail_i + e_i - 1.
        Here e_i is the least order on branch i of a ring generator g;
        those monomials times the power series in g fill the slab on
        that branch."""
        ring = self.ring
        top = [t + e for t, e in zip(self.tail, _orders(ring))]
        return [Element(ring.field, ring.nbranches, v, self.degree)
                for v in self._window_vectors(top)]

    def minimal_generators(self):
        """Lifts of a basis of M/mM, picked greedily in the order of
        `module_generators()`; computed once per module.

        mM is the sum of g*M over the ring's generators g.  It holds
        the slab from tail_i + e_i up (the slab of M times a generator
        of order e_i on branch i), so below that slab it is spanned by
        the products of the g with the module generators.  The pick
        runs on coefficient dicts; only a kept generator becomes an
        `Element`."""
        if self._min_gens is None:
            ring = self.ring
            top = [t + e for t, e in zip(self.tail, _orders(ring))]
            cands = self._window_vectors(top)
            ech = Echelon(ring.field, sort_key=window_key)
            for g in ring.gens:
                for v in cands:
                    prod = clip_product(g.coeffs, v, top)
                    if prod:
                        ech.insert(prod)
            self._min_gens = tuple(
                Element(ring.field, ring.nbranches, v, self.degree)
                for v in cands if ech.insert(v) is not None)
        return self._min_gens

    def contains_element(self, elem) -> bool:
        if not isinstance(elem, Element):
            return False
        if elem.field != self.ring.field or elem.nbranches != self.ring.nbranches:
            return False
        if elem.degree != self.degree:
            return False
        for (i, j) in elem.coeffs:
            if j < self.pole[i]:
                return False
        return not self.residual(elem)

    def residual(self, elem):
        """The window part of elem reduced against the window echelon;
        empty iff elem is in M, for elem with no term below the poles."""
        return self.ech.reduce(clip_window(elem.coeffs, self.tail))

    def contains_module(self, other) -> bool:
        """Whether other ⊆ self: its slab lies in self's, and each of its
        window rows, read as a coefficient dict, has no term below
        self's poles and reduces to zero against self's window."""
        self._same_ring(other)
        if other.degree != self.degree:
            return False
        if any(to < ts for to, ts in zip(other.tail, self.tail)):
            return False
        pole, tail, reduce = self.pole, self.tail, self.ech.reduce
        return all(all(j >= pole[i] for i, j in row)
                   and not reduce(clip_window(row, tail))
                   for row in other.ech.rows)

    def _same_ring(self, other):
        if not isinstance(other, FracIdeal):
            raise OwnerMismatch(f"expected a module, got {other!r}")
        if other.ring != self.ring:
            raise OwnerMismatch("modules belong to different rings")

    def __eq__(self, other):
        return (isinstance(other, FracIdeal)
                and other.ring == self.ring
                and other.degree == self.degree
                and other.pole == self.pole
                and other.tail == self.tail
                and other.ech.rows == self.ech.rows)

    def __hash__(self):
        return hash((self.degree, self.pole, self.tail,
                     tuple(frozenset(r.items()) for r in self.ech.rows)))

    def __repr__(self):
        kind = "forms" if self.degree == 1 else "functions"
        return (f"<module of {kind} pole={self.pole} tail={self.tail} "
                f"window_dim={self.window_dim}>")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._same_ring(other)
        if other.degree != self.degree:
            raise DifferentialDegreeError("sum of a function module and a form module")
        pole = [min(a, b) for a, b in zip(self.pole, other.pole)]
        tail = [min(a, b) for a, b in zip(self.tail, other.tail)]
        rows = [clip_window(r, tail) for r in self.ech.rows]
        rows += [clip_window(r, tail) for r in other.ech.rows]
        return FracIdeal(self.ring, self.degree, pole, tail, rows)

    def scale(self, x):
        """The module x*M for an invertible Laurent vector or a scalar."""
        if not isinstance(x, Element):
            c = self.ring.field.coerce(x)
            if not c:
                raise ZeroOnBranch("scaling by zero")
            rows = [{k: c * v for k, v in row.items()} for row in self.ech.rows]
            return FracIdeal(self.ring, self.degree, self.pole, self.tail, rows)
        vals = x.valuations()
        if any(v == INF for v in vals):
            raise ZeroOnBranch("scaling element vanishes on a branch")
        deg = self.degree + x.degree
        if deg > 1:
            raise DifferentialDegreeError("scaling a form module by a form")
        pole = [p + v for p, v in zip(self.pole, vals)]
        tail = [t + v for t, v in zip(self.tail, vals)]
        rows = [clip_product(row, x.coeffs, tail) for row in self.ech.rows]
        return FracIdeal(self.ring, deg, pole, tail, rows)

    def __mul__(self, other):
        if not isinstance(other, FracIdeal):
            return self.scale(other)
        self._same_ring(other)
        deg = self.degree + other.degree
        if deg > 1:
            raise DifferentialDegreeError("product of two form modules")
        pole = [a + b for a, b in zip(self.pole, other.pole)]
        tail = [min(pa + tb, pb + ta) for pa, ta, pb, tb
                in zip(self.pole, self.tail, other.pole, other.tail)]
        rows = [clip_product(a, b, tail)
                for a in self.ech.rows for b in other.ech.rows]
        return FracIdeal(self.ring, deg, pole, tail, rows)

    def __rmul__(self, other):
        return self.scale(other)

    def intersect(self, other):
        self._same_ring(other)
        if other.degree != self.degree:
            raise DifferentialDegreeError("meet of a function module and a form module")
        top = [max(a, b) for a, b in zip(self.tail, other.tail)]
        rows = intersect_spans(self.ring.field, self._window_vectors(top),
                               other._window_vectors(top), sort_key=window_key)
        pole = [max(a, b) for a, b in zip(self.pole, other.pole)]
        return FracIdeal(self.ring, self.degree, pole, top, rows)

    def colon(self, other):
        """The module of Laurent vectors x with x*other ⊆ self.

        The differential marker of the result is the xor of the two
        markers; the window arithmetic itself ignores markers entirely.
        """
        self._same_ring(other)
        deg = self.degree ^ other.degree
        field = self.ring.field
        r = self.ring.nbranches
        lo = [pm - pn for pm, pn in zip(self.pole, other.pole)]
        hi = [tm - pn for tm, pn in zip(self.tail, other.pole)]
        # highest window key first: `kernel` then returns the result's
        # fully reduced echelon rows, which `__init__` takes as they are
        unknowns = [(i, j) for i in range(r) for j in range(lo[i], hi[i])]
        unknowns.sort(key=window_key, reverse=True)
        # x*other ⊆ self iff x*g ∈ self for the generators g of other
        reps = [g.coeffs for g in other.minimal_generators()]
        # the residual of x_u * n is linear in the monomials of the
        # clipped product, so it is a combination of their normal forms
        normal = {}

        def normal_form(key):
            nf = normal.get(key)
            if nf is None:
                nf = normal[key] = self.ech.reduce({key: field.one})
            return nf

        constraints = {}
        for idx, n in enumerate(reps):
            for u in unknowns:
                i, j = u
                top = self.tail[i] - j
                resid = {}
                for (b, l), c in n.items():
                    if b == i and l < top:
                        vec_iaddmul(resid, c, normal_form((i, l + j)))
                for key, c in resid.items():
                    constraints.setdefault((idx, key), {})[u] = c
        sols = kernel(field, constraints.values(), unknowns)
        return FracIdeal(self.ring, deg, lo, hi, sols)

    # -- quotients -----------------------------------------------------------

    def len_quotient(self, sub) -> int:
        """Length of self/sub; requires sub ⊆ self."""
        if not self.contains_module(sub):
            raise NotContained("quotient denominator is not a submodule")
        drop = sum(ts - tm for ts, tm in zip(sub.tail, self.tail))
        return self.window_dim - sub.window_dim + drop

    def quotient_classes(self, sub):
        """Lifts of a basis of self/sub, and their class map.

        One greedy pass over the window rows of self, then its slab
        monomials up to the tail of sub, keeps each vector whose class
        modulo sub is new; the class map writes a Laurent vector's class
        over the kept lifts (`_WindowClasses`)."""
        expected = self.len_quotient(sub)
        field = self.ring.field
        r = self.ring.nbranches
        classes = _WindowClasses(sub)
        cands = (Element(field, r, v, self.degree)
                 for v in self._window_vectors(sub.tail))
        reps = [v for v in cands if classes.add(v)]
        if len(reps) != expected:
            raise InvariantViolation("quotient basis does not match its length")
        return reps, classes

    def quotient_basis(self, sub):
        """Laurent vector lifts of a basis of self/sub."""
        return self.quotient_classes(sub)[0]

    def is_principal(self):
        """A single element generating self over the ring, or None.

        Nakayama: the module is principal iff it has one minimal
        generator.  The generator is double-checked by regeneration,
        once per module, like the minimal generators it is read from.
        """
        gens = self.minimal_generators()
        if len(gens) != 1:
            return None
        if self._principal is None:
            g = gens[0]
            if from_generators(self.ring, [g], degree=self.degree) != self:
                raise InvariantViolation(
                    "generator candidate fails to regenerate the module")
            self._principal = g
        return self._principal


class _WindowClasses:
    """The class map of Laurent vectors modulo a submodule `sub`, over
    representatives added one at a time.

    The residual of a vector against sub (`FracIdeal.residual`) is
    written over the residuals of the representatives through a
    tracked echelon.
    """

    __slots__ = ("sub", "tracked")

    def __init__(self, sub: FracIdeal):
        self.sub = sub
        self.tracked = TrackedEchelon(sub.ring.field, sort_key=window_key)

    def add(self, rep) -> bool:
        """Take rep as the next representative if its class is new."""
        return self.tracked.insert(self.sub.residual(rep), self.tracked.dim)

    def __call__(self, elem):
        """The class of elem as a sparse vector over the representative
        indices, or None when elem is not in the span of the
        representatives and the submodule."""
        return self.tracked.express(self.sub.residual(elem))


class TorsionQuotient:
    """A finite-length quotient presented as a verified nested pair.

    Holds F and G with G ⊆ F (checked at construction) together with
    the length of F/G.  Both modules must carry the same differential
    marker and live over the same ring.
    """

    __slots__ = ("total", "sub", "length")

    def __init__(self, total: FracIdeal, sub: FracIdeal):
        if total.ring != sub.ring:
            raise OwnerMismatch("pair lives over different rings")
        if total.degree != sub.degree:
            raise DifferentialDegreeError(
                "pair mixes a function module and a form module")
        self.total = total
        self.sub = sub
        self.length = total.len_quotient(sub)

    @property
    def ring(self):
        return self.total.ring

    @property
    def degree(self):
        return self.total.degree

    def basis(self):
        return self.total.quotient_basis(self.sub)

    def __repr__(self):
        return f"<torsion quotient of length {self.length}>"


def regular_multiple(module: FracIdeal, elem: Element):
    """(r·F, sum of the branch orders of r) for r in the ring that
    vanishes on no branch; NotMember or ZeroDivisor otherwise.  Each
    call builds r·F afresh."""
    if not unit_ideal(module.ring).contains_element(elem):
        raise NotMember("multiplier is not in the ring")
    vals = elem.valuations()
    if INF in vals:
        raise ZeroDivisor("multiplier vanishes on a branch")
    return module.scale(elem), sum(int(v) for v in vals)


def herbrand(module: FracIdeal, elem: Element):
    """(len(F/rF), sum of the branch orders of r) for r in the ring.

    The two numbers agree; tests assert the equality across random
    inputs rather than baking it in here.  rF, built afresh, and the
    checks on r come from `regular_multiple`.  The seeded cases of
    `duality.harness` read both numbers from there too: they compute
    len(I/xI) once and share it between their herbrand and
    length-duality properties.
    """
    sub, order_sum = regular_multiple(module, elem)
    return module.len_quotient(sub), order_sum


# -- builders ----------------------------------------------------------------

def from_generators(ring, gens, degree=None):
    """The module over the ring spanned by the given Laurent vectors.

    Every branch must be hit by some generator, otherwise the result
    would have infinite colength in the branch tuple.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ZeroOnBranch("no nonzero generators")
    degs = {g.degree for g in gens}
    if len(degs) > 1:
        raise DifferentialDegreeError("generators mix functions and forms")
    deg = degs.pop()
    if degree is not None and degree != deg:
        raise DifferentialDegreeError("generators disagree with requested degree")
    field = ring.field
    r = ring.nbranches
    for g in gens:
        if g.field != field or g.nbranches != r:
            raise OwnerMismatch("generator lives over different branches")
    pole = []
    for i in range(r):
        vals = [g.valuation(i) for g in gens if g.valuation(i) != INF]
        if not vals:
            raise ZeroOnBranch(f"every generator vanishes on branch {i}")
        pole.append(min(vals))
    tail = [ring.cond[i] + pole[i] for i in range(r)]
    basis = list(ring.basis) or [Element.one(field, r)]
    rows = [clip_product(b.coeffs, g.coeffs, tail)
            for b in basis for g in gens]
    return FracIdeal(ring, deg, pole, tail, rows)


def slab_module(ring, offsets, degree=0):
    """The pure monomial module ⊕ t^{offsets_i} k[[t_i]]."""
    offsets = tuple(int(x) for x in offsets)
    return FracIdeal(ring, degree, offsets, offsets, [])


def normalization_module(ring, degree=0):
    """The full branch tuple ⊕ k[[t_i]] as a module over the ring."""
    return slab_module(ring, (0,) * ring.nbranches, degree)


def conductor_module(ring, degree=0):
    return slab_module(ring, ring.cond, degree)


def unit_ideal(ring):
    """The ring itself as a module; memoised on the ring object."""
    cached = getattr(ring, "_unit_ideal", None)
    if cached is None:
        rows = [dict(b.coeffs) for b in ring.basis]
        cached = FracIdeal(ring, 0, (0,) * ring.nbranches, ring.cond, rows)
        ring._unit_ideal = cached
    return cached


def maximal_ideal(ring):
    """The unique maximal ideal: vectors in the ring with zero constants."""
    field = ring.field
    r = ring.nbranches
    rows = []
    if ring.basis:
        one = Element.one(field, r)
        rows.append(dict((ring.basis[0] - one).coeffs))
        rows.extend(dict(b.coeffs) for b in ring.basis[1:])
    tail = [max(n, 1) for n in ring.cond]
    return FracIdeal(ring, 0, (1,) * r, tail, rows)


def random_ring_element(ring, rng):
    """Random polynomial vector inside the ring."""
    field = ring.field
    r = ring.nbranches
    vecs = [b.coeffs for b in ring.basis]
    vecs += [{(i, j): field.one} for i in range(r)
             for j in range(ring.cond[i], ring.cond[i] + 2)]
    return linear_combination(field, r, [field.random(rng) for _ in vecs],
                              vecs)


def random_ideal(ring, seed, shift_bound=2, extra_gens=2):
    """Random finite-colength module, as a twisted ideal of the ring.

    Reproducible from the seed alone.  Between 1 and 1 + extra_gens
    generators are drawn, each a sum of two or three sparse elements of
    the maximal ideal with random nonzero coefficients: ring basis rows
    past the unit, and t^j on branch i for j = c_i, c_i + 1, c_i + 2,
    with c_i = max(n_i, 1).  A branch no generator reaches gets t^(c_i)
    on it.  Before the shift, the ideal lies in the maximal ideal, has
    at most 1 + extra_gens + r minimal generators, and its colength is
    at most Σ(n_i + c_i + 2) - delta: on each branch some generator has
    order at most c_i + 2, and its conductor multiples fill the slab
    from there.  Then the module is shifted by t^s for s drawn in
    [-shift_bound, shift_bound].  Most draws are not principal, and
    about half hold a window row that is not a monomial.
    """
    field = ring.field
    r = ring.nbranches
    lows = [max(n, 1) for n in ring.cond]
    sparse = [b.coeffs for b in ring.basis[1:]]
    sparse += [{(i, j): field.one} for i in range(r)
               for j in range(lows[i], lows[i] + 3)]
    rng = random.Random(seed)
    gens = []
    for _ in range(rng.randint(1, 1 + extra_gens)):
        terms = rng.sample(sparse, rng.randint(2, 3))
        gens.append(linear_combination(
            field, r, [field.random_nonzero(rng) for _ in terms], terms))
    for i in range(r):
        if all(g.valuation(i) == INF for g in gens):
            gens.append(Element.monomial(field, r, i, lows[i]))
    shift = rng.randint(-shift_bound, shift_bound) if shift_bound else 0
    if shift:
        twist = Element.diag_monomial(field, r, shift)
        gens = [twist * g for g in gens]
    return from_generators(ring, gens)


class ZeroModule:
    """Result of hull operations that kill every generator."""

    __slots__ = ("ring", "degree")

    def __init__(self, ring, degree=0):
        self.ring = ring
        self.degree = degree

    window_dim = 0

    def contains_element(self, elem) -> bool:
        return not elem

    def __eq__(self, other):
        return (isinstance(other, ZeroModule) and other.ring == self.ring
                and other.degree == self.degree)

    def __hash__(self):
        return hash(("ZeroModule", self.degree))

    def __repr__(self):
        return "<zero module>"

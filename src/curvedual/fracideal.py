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
dim(N), and `is_principal` reads their count.  The owning ring only
needs to expose `field`, `nbranches`, `cond` (the conductor exponents),
`basis` (polynomial lifts of a reduced basis of the ring modulo its
conductor, unit row first) and `gens` (generators of the maximal ideal,
with no constant terms).

All constructions here assume, and preserve, closure under the ring
action; `from_generators` is the safe entry point.
"""

from __future__ import annotations

import random

from .errors import (DifferentialDegreeError, InvariantViolation, NotContained,
                     NotMember, OwnerMismatch, ZeroDivisor, ZeroOnBranch)
from .laurent import (INF, Element, clip_product, clip_window,
                      linear_combination, shed_slab, window_key)
from .linalg import Echelon, intersect_spans, kernel, span, vec_iaddmul


def _orders(ring):
    """e_i, the least order on branch i of a generator of the ring's
    maximal ideal."""
    return [min(g.valuation(i) for g in ring.gens)
            for i in range(ring.nbranches)]


class FracIdeal:
    __slots__ = ("ring", "degree", "pole", "tail", "ech", "_min_gens")

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
        gens = self.rows_as_elements()
        field = self.ring.field
        r = self.ring.nbranches
        for i, e in enumerate(_orders(self.ring)):
            for k in range(e):
                gens.append(Element.monomial(field, r, i, self.tail[i] + k,
                                             degree=self.degree))
        return gens

    def minimal_generators(self):
        """Lifts of a basis of M/mM, picked greedily in the order of
        `module_generators()`; computed once per module.

        mM is the sum of g*M over the ring's generators g.  It holds
        the slab from tail_i + e_i up (the slab of M times a generator
        of order e_i on branch i), so below that slab it is spanned by
        the products of the g with the module generators."""
        if self._min_gens is None:
            ring = self.ring
            top = [t + e for t, e in zip(self.tail, _orders(ring))]
            cands = self.module_generators()
            ech = Echelon(ring.field, sort_key=window_key)
            for g in ring.gens:
                for v in cands:
                    prod = clip_product(g.coeffs, v.coeffs, top)
                    if prod:
                        ech.insert(prod)
            self._min_gens = tuple(v for v in cands
                                   if ech.insert(v.coeffs) is not None)
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
        self._same_ring(other)
        if other.degree != self.degree:
            return False
        if any(to < ts for to, ts in zip(other.tail, self.tail)):
            return False
        return all(self.contains_element(e) for e in other.rows_as_elements())

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
        unknowns = [(i, j) for i in range(r) for j in range(lo[i], hi[i])]
        unknowns.sort(key=window_key)
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

    def quotient_basis(self, sub):
        """Laurent vector lifts of a basis of self/sub."""
        expected = self.len_quotient(sub)
        field = self.ring.field
        r = self.ring.nbranches
        top = [max(a, b) for a, b in zip(self.tail, sub.tail)]
        ech = span(field, sub._window_vectors(top), sort_key=window_key)
        reps = [Element(field, r, v, self.degree)
                for v in self._window_vectors(top) if ech.insert(v) is not None]
        if len(reps) != expected:
            raise InvariantViolation("quotient basis does not match its length")
        return reps

    def is_principal(self):
        """A single element generating self over the ring, or None.

        Nakayama: the module is principal iff it has one minimal
        generator.  The generator is double-checked by regeneration.
        """
        gens = self.minimal_generators()
        if len(gens) != 1:
            return None
        g = gens[0]
        if from_generators(self.ring, [g], degree=self.degree) != self:
            raise InvariantViolation(
                "generator candidate fails to regenerate the module")
        return g


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


def herbrand(module: FracIdeal, elem: Element):
    """(len(F/rF), sum of the branch orders of r) for r in the ring.

    The two numbers agree; tests assert the equality across random
    inputs rather than baking it in here.
    """
    ring = module.ring
    if not unit_ideal(ring).contains_element(elem):
        raise NotMember("multiplier is not in the ring")
    vals = elem.valuations()
    if INF in vals:
        raise ZeroDivisor("multiplier vanishes on a branch")
    return module.len_quotient(module.scale(elem)), sum(int(v) for v in vals)


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


def random_ring_element(ring, rng, unit=False):
    """Random polynomial vector inside the ring; a unit if requested."""
    field = ring.field
    r = ring.nbranches
    vecs = [b.coeffs for b in ring.basis]
    vecs += [{(i, j): field.one} for i in range(r)
             for j in range(ring.cond[i], ring.cond[i] + 2)]
    out = linear_combination(field, r, [field.random(rng) for _ in vecs],
                             vecs)
    if unit:
        c = out.coefficient(0, 0)
        if not c:
            out = out + Element.one(field, r)
    return out


def random_ideal(ring, seed, shift_bound=2, extra_gens=2):
    """Random finite-colength module, as a twisted ideal of the ring.

    Reproducible from the seed alone.  With shift_bound=0 and
    extra_gens=0 the result is the unit ideal: the single generator is
    forced to be a unit, and a unit generates the whole ring.
    """
    rng = random.Random(seed)
    gens = [random_ring_element(ring, rng, unit=True)]
    for _ in range(extra_gens):
        g = random_ring_element(ring, rng)
        if g:
            gens.append(g)
    mod = from_generators(ring, gens)
    shift = rng.randint(-shift_bound, shift_bound) if shift_bound else 0
    if shift:
        mod = mod.scale(Element.diag_monomial(ring.field, ring.nbranches, shift))
    return mod


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

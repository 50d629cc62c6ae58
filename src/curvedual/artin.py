"""Finite-dimensional commutative local algebras and their modules.

Everything here is exact linear algebra over the coefficient field.
Algebras are stored by structure constants on a basis whose first
element is the unit and whose remaining elements span the radical.
Algebra elements stay dense coefficient tuples over that basis: the
structure constants, the classes of `ArtinQuotient.class_of` and the
argument of `ArtinModule.action_matrix`.  Module vectors are sparse,
as in `linalg`: dicts from module coordinates to nonzero scalars.  A
module stores the action of each algebra basis element as sparse
columns, the images of the module basis vectors, and a map between
modules (a hom-space element, an isomorphism) is a tuple of sparse
columns in the same way.  Both types verify their defining identities
at construction, so a malformed quotient fails loudly instead of
corrupting downstream counts.

The quotient constructors (`curve_quotient`, `present_quotient`) bridge
from the Laurent-window world through one class map, `_WindowClasses`:
the submodule's `FracIdeal.residual` of a Laurent vector is written
over the chosen representatives.  The quotients of a module by a span
(`quotient_module` and the pushout middles of the extension laboratory)
share one induced action, `_induced_action`, which projects images onto
the non-pivot keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (DifferentialDegreeError, InvariantViolation, NoWitness,
                     NotContained, NotKilled, NotMember, TooLarge,
                     ZeroDivisor)
from .fields import FiniteField, prime_field
from .fracideal import FracIdeal, maximal_ideal, unit_ideal
from .laurent import (INF, Element, format_element, linear_combination,
                      window_key)
from .linalg import Echelon, TrackedEchelon, kernel, span, vec_iaddmul

# -- sparse columns -------------------------------------------------------------

def _apply(cols, vec):
    """The linear map with the given sparse columns applied to vec."""
    out = {}
    for k, c in vec.items():
        vec_iaddmul(out, c, cols[k])
    return out


def _rows(cols, d):
    """The rows of a map with d-dimensional target, given by columns:
    row p maps each column index to its entry at p (the transpose)."""
    out = [{} for _ in range(d)]
    for q, col in enumerate(cols):
        for p, c in col.items():
            out[p][q] = c
    return out


# -- algebras -----------------------------------------------------------------

class ArtinAlgebra:
    """Structure constants of a commutative local algebra.

    `mult[i][j]` is the coefficient tuple of basis[i] * basis[j].  The
    basis is unit-adapted: index 0 is the unit and indices 1.. span
    the unique maximal ideal, whose nilpotency is checked.
    """

    __slots__ = ("field", "dim", "mult", "labels")

    def __init__(self, field, mult, labels=None):
        self.field = field
        self.mult = tuple(tuple(tuple(row) for row in line) for line in mult)
        self.dim = len(self.mult)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"b{i}" for i in range(self.dim))
        self._validate()

    def _validate(self):
        n, field = self.dim, self.field
        if n < 1:
            raise InvariantViolation("algebra needs a unit")
        for i in range(n):
            for j in range(n):
                if len(self.mult[i][j]) != n:
                    raise InvariantViolation("ragged structure constants")
        for j in range(n):
            expect = tuple(field.one if k == j else field.zero
                           for k in range(n))
            if self.mult[0][j] != expect:
                raise InvariantViolation("basis[0] is not the unit")
        for i in range(n):
            for j in range(i + 1, n):
                if self.mult[i][j] != self.mult[j][i]:
                    raise InvariantViolation("multiplication not commutative")
        # all triples: ordered triples alone do not imply associativity
        for i in range(1, n):
            for j in range(1, n):
                ij = self.mult[i][j]
                for k in range(1, n):
                    left = self.multiply(ij, self._basis_vec(k))
                    right = self.multiply(self._basis_vec(i),
                                          self.mult[j][k])
                    if left != right:
                        raise InvariantViolation("multiplication not associative")
        # radical nilpotency: powers of span(basis[1:]) must vanish
        current = [self._basis_vec(i) for i in range(1, n)]
        seen_dims = set()
        while current:
            ech = Echelon(field)
            for v in current:
                for i in range(1, n):
                    w = self.multiply(self._basis_vec(i), v)
                    ech.insert({k: c for k, c in enumerate(w) if c})
            if ech.dim in seen_dims:
                raise InvariantViolation("radical is not nilpotent")
            seen_dims.add(ech.dim)
            current = [tuple(row.get(k, field.zero) for k in range(n))
                       for row in ech.rows]

    def _basis_vec(self, i):
        return tuple(self.field.one if k == i else self.field.zero
                     for k in range(self.dim))

    @property
    def unit(self):
        return self._basis_vec(0)

    def multiply(self, u, v):
        out = [self.field.zero] * self.dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if not cj:
                    continue
                c = ci * cj
                for k, s in enumerate(self.mult[i][j]):
                    if s:
                        out[k] = out[k] + c * s
        return tuple(out)

    def __repr__(self):
        return f"<algebra of dimension {self.dim}>"


class ArtinModule:
    """A finite module over an `ArtinAlgebra`, stored by its action.

    `cols[i][j]` is algebra basis[i] applied to module basis vector j,
    a sparse dict over range(dim) (zero entries are dropped).  The
    unit must act as the identity, and basis[i] applied to cols[j][v]
    must equal sum_k mult[i][j][k] * cols[k][v] for every i and j;
    both are checked.
    """

    __slots__ = ("algebra", "dim", "cols", "labels")

    def __init__(self, algebra, cols, labels=None):
        self.algebra = algebra
        self.cols = tuple(tuple({k: c for k, c in col.items() if c}
                                for col in line) for line in cols)
        self.dim = len(self.cols[0]) if self.cols else 0
        self.labels = tuple(labels) if labels is not None else tuple(
            f"v{i}" for i in range(self.dim))
        self._validate()

    def _validate(self):
        algebra, d = self.algebra, self.dim
        if len(self.cols) != algebra.dim:
            raise InvariantViolation("one action per algebra basis element")
        coords = set(range(d))
        for line in self.cols:
            if len(line) != d or any(not col.keys() <= coords
                                     for col in line):
                raise InvariantViolation("ragged action column")
        one = algebra.field.one
        if any(col != {v: one} for v, col in enumerate(self.cols[0])):
            raise InvariantViolation("unit does not act as identity")
        # every ordered pair: with i <= j alone, basis[j] applied after
        # basis[i] could disagree with the structure constants
        for i in range(1, algebra.dim):
            for j in range(1, algebra.dim):
                terms = [(k, c) for k, c in enumerate(algebra.mult[i][j])
                         if c]
                for v in range(d):
                    expect = {}
                    for k, c in terms:
                        vec_iaddmul(expect, c, self.cols[k][v])
                    if _apply(self.cols[i], self.cols[j][v]) != expect:
                        raise InvariantViolation(
                            "action disagrees with the structure constants")

    def action_matrix(self, avec):
        """The action of the algebra element with coefficient tuple
        avec, as a tuple of sparse columns."""
        cols = [{} for _ in range(self.dim)]
        for k, c in enumerate(avec):
            if c:
                for col, image in zip(cols, self.cols[k]):
                    vec_iaddmul(col, c, image)
        return tuple(cols)

    def __repr__(self):
        return (f"<module of dimension {self.dim} over a dimension "
                f"{self.algebra.dim} algebra>")


def trivial_module(algebra) -> ArtinModule:
    """The residue field as a module: radical acts by zero."""
    cols = [({0: algebra.field.one},)]
    cols.extend(({},) for _ in range(algebra.dim - 1))
    return ArtinModule(algebra, cols, labels=("1",))


def free_module(algebra) -> ArtinModule:
    """The algebra as a module over itself (the regular action)."""
    cols = [[{k: c for k, c in enumerate(prod) if c} for prod in line]
            for line in algebra.mult]
    return ArtinModule(algebra, cols, labels=algebra.labels)


def matlis_dual(module: ArtinModule) -> ArtinModule:
    """The dual vector space with the transposed action."""
    cols = [_rows(line, module.dim) for line in module.cols]
    return ArtinModule(module.algebra, cols,
                       labels=tuple(f"{l}*" for l in module.labels))


@dataclass(frozen=True)
class SocleData:
    """The socle's dimension and a basis of sparse module vectors."""

    dimension: int
    basis: tuple


def socle(module: ArtinModule) -> SocleData:
    """The subspace killed by the radical."""
    rows = []
    for line in module.cols[1:]:
        rows.extend(_rows(line, module.dim))
    basis = tuple(kernel(module.algebra.field, rows, range(module.dim)))
    return SocleData(len(basis), basis)


def _radical_span(module: ArtinModule) -> Echelon:
    """Echelon of rad * module inside the module's coordinates."""
    return span(module.algebra.field,
                (col for line in module.cols[1:] for col in line))


def top_data(module: ArtinModule):
    """(dimension of module/rad*module, coordinate indices of a
    complement, echelon of rad*module)."""
    rad = _radical_span(module)
    pivots = set(rad.pivots)
    coords = [q for q in range(module.dim) if q not in pivots]
    return len(coords), coords, rad


# -- minimal resolutions and Ext ----------------------------------------------

def _free_left_apply(algebra, i, vec):
    """Multiply a free-module vector (dict over (slot, alg)) by basis[i]."""
    out = {}
    for (slot, a), c in vec.items():
        vec_iaddmul(out, c, {(slot, k): s
                             for k, s in enumerate(algebra.mult[i][a]) if s})
    return out


def _module_presentation(module: ArtinModule):
    """First syzygy of the minimal cover.

    The cover sends slot j of the free module to the standard basis
    vector at the j-th top coordinate.  Returns (b0, kernel basis): the
    cover rank and the kernel inside the free module, with coordinates
    keyed by (slot, algebra index).
    """
    algebra = module.algebra
    _, coords, _ = top_data(module)
    rows = [{} for _ in range(module.dim)]
    for j, q in enumerate(coords):
        for a in range(algebra.dim):
            for p, x in module.cols[a][q].items():
                rows[p][(j, a)] = x
    unknowns = [(j, a) for j in range(len(coords)) for a in range(algebra.dim)]
    return len(coords), kernel(algebra.field, rows, unknowns)


def _syzygy_step(algebra, rank, kvecs):
    """Minimal generators of a submodule K of A^rank and the kernel of
    the induced cover A^(#gens) -> K."""
    field = algebra.field
    flat = {}
    for j in range(rank):
        for a in range(algebra.dim):
            flat[(j, a)] = len(flat)
    sort_key = flat.__getitem__

    rad = Echelon(field, sort_key=sort_key)
    for v in kvecs:
        for i in range(1, algebra.dim):
            rad.insert(_free_left_apply(algebra, i, v))
    gens = [v for v in kvecs if rad.insert(v) is not None]

    b = len(gens)
    unknowns = [(s, a) for s in range(b) for a in range(algebra.dim)]
    images = {}
    for s, g in enumerate(gens):
        for a in range(algebra.dim):
            images[(s, a)] = _free_left_apply(algebra, a, g)
    rows = {}
    for u, img in images.items():
        for key, c in img.items():
            rows.setdefault(key, {})[u] = c
    nextk = kernel(field, rows.values(), unknowns)
    return gens, nextk


def _resolution(module: ArtinModule, length: int):
    """Betti numbers b_0..b_length of a minimal free resolution, and
    for each differential d_1..d_length the images of its source basis
    vectors, sparse over (target slot, algebra index)."""
    algebra = module.algebra
    rank, kv = _module_presentation(module)
    betti = [rank]
    diffs = []
    for _ in range(length):
        gens, kv = _syzygy_step(algebra, rank, kv) if kv else ([], [])
        betti.append(len(gens))
        diffs.append(gens)
        rank = len(gens)
    return betti, diffs


def minimal_resolution(module: ArtinModule, i_max: int = 5):
    """Betti numbers of a minimal free resolution, as a tuple."""
    betti, _ = _resolution(module, i_max)
    return tuple(betti)


def _hom_differential(nmodule: ArtinModule, gens):
    """Columns of Hom(F_prev, N) -> Hom(F_next, N), phi -> phi o d.

    d sends the t-th basis vector of F_next to gens[t].  The column at
    (j, v) is the image of the map sending slot j of F_prev to N's
    basis vector v; its entries are keyed (t, w), w a coordinate of N.
    """
    cols = {}
    for t, g in enumerate(gens):
        for (j, a), c in g.items():
            for v, image in enumerate(nmodule.cols[a]):
                vec_iaddmul(cols.setdefault((j, v), {}), c,
                            {(t, w): x for w, x in image.items()})
    return cols


def ext(mmodule: ArtinModule, nmodule: ArtinModule, i: int) -> int:
    """dim Ext^i over the algebra, from a minimal free resolution."""
    if mmodule.algebra is not nmodule.algebra \
            and mmodule.algebra.mult != nmodule.algebra.mult:
        raise InvariantViolation("modules live over different algebras")
    if i < 0:
        raise ValueError("negative homological degree")
    field = mmodule.algebra.field
    betti, diffs = _resolution(mmodule, i + 1)
    dn = nmodule.dim

    def delta_rank(s):
        if betti[s] == 0 or betti[s + 1] == 0:
            return 0
        cols = _hom_differential(nmodule, diffs[s])
        return span(field, cols.values(),
                    sort_key=lambda k: k[0] * dn + k[1]).dim

    hom_dim = betti[i] * dn
    if i == 0:
        return hom_dim - delta_rank(0) if betti[1] else hom_dim
    rank_out = delta_rank(i) if betti[i + 1] else 0
    rank_in = delta_rank(i - 1)
    return hom_dim - rank_out - rank_in


# -- hom spaces, isomorphism, surjection --------------------------------------

def hom_space(mmodule: ArtinModule, nmodule: ArtinModule):
    """Basis of the space of equivariant maps M -> N, as a list.

    Each map is a tuple of sparse columns, column q the image of M's
    basis vector q.  A map X is equivariant when X applied to
    M.cols[i][q] equals N's basis[i] applied to X's column q.
    """
    field = mmodule.algebra.field
    dm, dn = mmodule.dim, nmodule.dim
    minus = -field.one
    rows = []
    for mline, nline in zip(mmodule.cols[1:], nmodule.cols[1:]):
        nrows = _rows(nline, dn)
        for q, mcol in enumerate(mline):
            for p, nrow in enumerate(nrows):
                row = {(p, r): c for r, c in mcol.items()}
                vec_iaddmul(row, minus, {(r, q): c for r, c in nrow.items()})
                rows.append(row)
    maps = []
    for sol in kernel(field, rows,
                      [(p, q) for p in range(dn) for q in range(dm)]):
        cols = [{} for _ in range(dm)]
        for (p, q), c in sol.items():
            cols[q][p] = c
        maps.append(tuple(cols))
    return maps


def _coeff_grid(field, nvars, degree_bound):
    """Deterministic search tuples: the whole space over a finite field,
    an integer grid large enough for polynomial identity testing over
    the rationals (per-variable degree at most degree_bound)."""
    if isinstance(field, FiniteField):
        values = field.elements()
    else:
        values = [field.of_int(v) for v in range(degree_bound + 1)]
    return itertools.product(values, repeat=nvars)


def _combine(coeffs, maps):
    """sum c * map over the pairs, for maps given by sparse columns."""
    out = [{} for _ in maps[0]]
    for c, cols in zip(coeffs, maps):
        for acc, col in zip(out, cols):
            vec_iaddmul(acc, c, col)
    return out


def _search_hom(mmodule, nmodule, m_top, n_top):
    """A hom-space element whose top map is onto the top of N, or
    None; exhaustive over the top projections, so None is a proof.

    Nakayama reduces invertibility/surjectivity of an equivariant map
    to the same property of its top, and the top of a combination is
    the combination of tops, so searching coefficient tuples over a
    maximal independent family of tops is complete.  Over the
    rationals the determinant and minors are polynomials of
    per-variable degree at most the top dimension, so the integer grid
    0..dim suffices to find a nonzero value whenever one exists.
    `m_top` and `n_top` are the two modules' `top_data`.
    """
    field = mmodule.algebra.field
    homs = hom_space(mmodule, nmodule)
    if not homs:
        return None
    _, m_coords, _ = m_top
    n_dim, _, n_rad = n_top
    if n_dim > len(m_coords):
        return None
    # the top of a map: its columns at M's top coordinates, modulo rad N
    ech = Echelon(field)
    picked, tops = [], []
    for h in homs:
        top = [n_rad.reduce(h[q]) for q in m_coords]
        flat = {(q, p): c for q, col in enumerate(top) for p, c in col.items()}
        if flat and ech.insert(flat) is not None:
            picked.append(h)
            tops.append(top)
    if not picked:
        return None
    for coeffs in _coeff_grid(field, len(picked), max(n_dim, 1)):
        if any(coeffs) and \
                span(field, _combine(coeffs, tops)).dim == n_dim:
            return tuple(_combine(coeffs, picked))
    return None


def module_iso(mmodule: ArtinModule, nmodule: ArtinModule):
    """An equivariant isomorphism M -> N as a tuple of sparse columns,
    or None (a proof of absence)."""
    if mmodule.dim != nmodule.dim:
        return None
    if mmodule.dim == 0:
        return ()
    m_top, n_top = top_data(mmodule), top_data(nmodule)
    if m_top[0] != n_top[0]:
        return None
    x = _search_hom(mmodule, nmodule, m_top, n_top)
    if x is None:
        return None
    if span(mmodule.algebra.field, x).dim != mmodule.dim:
        raise InvariantViolation("full top rank must lift to an isomorphism")
    return x


def surjection_exists(mmodule: ArtinModule, nmodule: ArtinModule) -> bool:
    """Whether some equivariant map M -> N is onto."""
    if nmodule.dim == 0:
        return True
    x = _search_hom(mmodule, nmodule, top_data(mmodule), top_data(nmodule))
    if x is None:
        return False
    if span(mmodule.algebra.field, x).dim < nmodule.dim:
        raise InvariantViolation("surjective top must lift to a surjection")
    return True


# -- extension enumeration -----------------------------------------------------

def _extension_classes(mmodule: ArtinModule, nmodule: ArtinModule,
                       bound: int):
    """Ext^1(M, N) as cocycles modulo coboundaries.

    With F -> M the minimal cover and K its kernel, a class is a map
    K -> N modulo restrictions of maps F -> N.  Returns (b0, kvecs,
    reps): the rank of F, a basis of K, and cocycles whose classes form
    a basis of Ext^1, so e = len(reps).  Dimensions above `bound` are
    refused, and so is a nonzero dimension over an infinite field,
    whose classes cannot be walked.
    """
    algebra = mmodule.algebra
    field = algebra.field
    b0, kvecs = _module_presentation(mmodule)
    n = algebra.dim
    dn = nmodule.dim

    order = {}
    for j in range(b0):
        for a in range(n):
            order[(j, a)] = len(order)
    tracked = TrackedEchelon(field, sort_key=order.__getitem__)
    for mdx, v in enumerate(kvecs):
        if not tracked.insert(v, mdx):
            raise InvariantViolation("kernel basis is not independent")

    # psi(basis[i] k) = basis[i] psi(k) for each radical basis[i] and
    # each kernel basis vector k, one row per coordinate p of N
    minus = -field.one
    rows = []
    for i in range(1, n):
        nrows = _rows(nmodule.cols[i], dn)
        for mdx, v in enumerate(kvecs):
            combo = tracked.express(_free_left_apply(algebra, i, v))
            if combo is None:
                raise InvariantViolation("kernel is not closed under the action")
            for p, nrow in enumerate(nrows):
                row = {(ldx, p): c for ldx, c in combo.items()}
                vec_iaddmul(row, minus, {(mdx, r): c for r, c in nrow.items()})
                rows.append(row)
    solutions = kernel(field, rows,
                       [(mdx, p) for mdx in range(len(kvecs))
                        for p in range(dn)])

    # the coboundaries: restrictions to K of the maps sending slot j
    # of F to N's basis vector v
    cobs = {(j, v): {} for j in range(b0) for v in range(dn)}
    for mdx, kv in enumerate(kvecs):
        for (j, a), c in kv.items():
            for v, image in enumerate(nmodule.cols[a]):
                vec_iaddmul(cobs[(j, v)], c,
                            {(mdx, p): x for p, x in image.items()})
    image_ech = span(field, cobs.values())
    reps = [s for s in solutions if image_ech.insert(dict(s)) is not None]
    e = len(reps)
    if e > bound:
        raise TooLarge(f"extension space has dimension {e} > bound {bound}")
    if e and not isinstance(field, FiniteField):
        raise TooLarge("enumeration needs a finite coefficient field")

    return b0, kvecs, reps


def _cocycle(lam, reps):
    """The cocycle sum(lam[i] * reps[i]) as a sparse dict."""
    psi = {}
    for c, rep in zip(lam, reps):
        vec_iaddmul(psi, c, rep)
    return psi


def enumerate_extensions(mmodule: ArtinModule, nmodule: ArtinModule,
                         bound: int = 12):
    """One middle module per extension class of M by N, as a list.

    The middle for a cocycle psi is the pushout (N + F)/graph(psi) of
    the minimal cover F -> M.  The split class is the zero cocycle and
    comes first.  The class count is |k|^e with e = dim Ext^1, which is
    what makes exhaustive enumeration possible at all; infinite fields
    and dimensions above `bound` are refused.
    """
    algebra = mmodule.algebra
    field = algebra.field
    b0, kvecs, reps = _extension_classes(mmodule, nmodule, bound)
    e = len(reps)
    lam_space = itertools.product(field.elements(), repeat=e) if e else [()]
    return [_pushout_middle(algebra, nmodule, b0, kvecs,
                            _cocycle(lam, reps))
            for lam in lam_space]


def _line_middles(nmodule: ArtinModule, classes):
    """(weight, middle) for one middle per line of extension classes.

    Scaling N by c maps graph(psi) onto graph(c psi), so the middles of
    a class and of its nonzero multiples are isomorphic and every
    isomorphism invariant is constant on a line.  The split class
    comes first with weight 1, then one class per line, with first
    nonzero coordinate 1 and weight q - 1; the weights add up to q^e.
    Lines come in the order of their first class in the full walk of
    `enumerate_extensions` over a prime field: leading index from e - 1
    down to 0, and the tail in `itertools.product` order.
    """
    algebra = nmodule.algebra
    field = algebra.field
    b0, kvecs, reps = classes
    e = len(reps)
    yield 1, _pushout_middle(algebra, nmodule, b0, kvecs, {})
    for lead in range(e - 1, -1, -1):
        head = (field.zero,) * lead + (field.one,)
        for tail in itertools.product(field.elements(), repeat=e - 1 - lead):
            psi = _cocycle(head + tail, reps)
            yield (field.order - 1,
                   _pushout_middle(algebra, nmodule, b0, kvecs, psi))


def _induced_action(algebra, ech, keys, image):
    """Action columns on span(keys) / span(ech), and their basis.

    The basis is the keys that are not pivots of ech, in key order;
    image(i, k) is algebra basis[i] applied to the key k, a vector over
    the keys, and its reduction against ech gives the column of k.
    """
    pivots = set(ech.pivots)
    basis = [k for k in keys if k not in pivots]
    pos = {k: i for i, k in enumerate(basis)}
    cols = [[{pos[key]: c for key, c in ech.reduce(image(i, k)).items()}
             for k in basis] for i in range(algebra.dim)]
    return cols, basis


def _pushout_middle(algebra, nmodule, b0, kvecs, psi):
    """(N + A^b0) / graph(psi) as a module, for one cocycle psi."""
    field = algebra.field
    n = algebra.dim
    dn = nmodule.dim
    keys = [("n", p) for p in range(dn)]
    keys.extend(("f", (j, a)) for j in range(b0) for a in range(n))
    order = {k: i for i, k in enumerate(keys)}

    graph = Echelon(field, sort_key=order.__getitem__)
    for mdx, kv in enumerate(kvecs):
        row = {("f", key): c for key, c in kv.items()}
        for p in range(dn):
            c = psi.get((mdx, p))
            if c:
                row[("n", p)] = -c
        graph.insert(row)

    def image(i, k):
        if k[0] == "n":
            return {("n", q): c for q, c in nmodule.cols[i][k[1]].items()}
        j, a = k[1]
        return {("f", (j, b)): c for b, c in enumerate(algebra.mult[i][a])
                if c}

    cols, basis = _induced_action(algebra, graph, keys, image)
    if len(basis) != dn + b0 * n - len(kvecs):
        raise InvariantViolation("middle has the wrong dimension")
    return ArtinModule(algebra, cols)


def quotient_module(module: ArtinModule, vectors) -> ArtinModule:
    """The quotient by the submodule generated by the given sparse
    vectors; its basis is the module basis vectors that are not pivots
    of that submodule's echelon, labels kept."""
    algebra = module.algebra
    ech = Echelon(algebra.field)
    queue = list(vectors)
    while queue:
        vec = queue.pop()
        if ech.insert(vec) is not None:
            queue.extend(_apply(line, vec) for line in module.cols[1:])
    cols, basis = _induced_action(algebra, ech, range(module.dim),
                                  lambda i, q: module.cols[i][q])
    return ArtinModule(algebra, cols,
                       labels=tuple(module.labels[q] for q in basis))


# -- quotients of the curve ring ----------------------------------------------

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
        """Coefficient tuple of the class of elem, or None when elem is
        not in the span of the representatives and the submodule."""
        combo = self.tracked.express(self.sub.residual(elem))
        if combo is None:
            return None
        zero = self.sub.ring.field.zero
        return tuple(combo.get(i, zero) for i in range(self.tracked.dim))


class ArtinQuotient:
    """O/xO packaged with the data needed to move elements in and out:
    representative lifts, and the class map modulo xO."""

    __slots__ = ("algebra", "ring", "x", "reps", "_classes")

    def __init__(self, algebra, ring, x, reps, classes):
        self.algebra = algebra
        self.ring = ring
        self.x = x
        self.reps = reps
        self._classes = classes

    @property
    def dim(self):
        return self.algebra.dim

    def class_of(self, elem: Element):
        """Coefficient tuple of the class of a ring element."""
        vec = self._classes(elem)
        if vec is None:
            raise NotMember("element is not in the ring")
        return vec

    def lift(self, vec) -> Element:
        return linear_combination(self.algebra.field, self.ring.nbranches,
                                  vec, [rep.coeffs for rep in self.reps])

    def __repr__(self):
        return f"<quotient algebra of dimension {self.dim}>"


def curve_quotient(ring, x: Element) -> ArtinQuotient:
    """O/xO with its multiplication table.

    The dimension must come out as the total vanishing order of x (the
    one-element Herbrand identity); anything else is an invariant
    violation, not a warning.
    """
    field = ring.field
    r = ring.nbranches
    if x.degree != 0:
        raise DifferentialDegreeError("quotient by a function, not a form")
    total = unit_ideal(ring)
    if not total.contains_element(x):
        raise NotMember("multiplier is not in the ring")
    vals = x.valuations()
    if INF in vals:
        raise ZeroDivisor("multiplier vanishes on a branch")
    expected = sum(int(v) for v in vals)
    if expected == 0:
        raise InvariantViolation("quotient by a unit is the zero algebra")

    sub = total.scale(x)
    mm = maximal_ideal(ring)
    candidates = [Element.one(field, r)]
    candidates.extend(mm.rows_as_elements())
    for i in range(r):
        for j in range(mm.tail[i], sub.tail[i]):
            candidates.append(Element.monomial(field, r, i, j))

    classes = _WindowClasses(sub)
    reps = [cand for cand in candidates if classes.add(cand)]
    if len(reps) != expected:
        raise InvariantViolation(
            f"quotient dimension {len(reps)} differs from the "
            f"order sum {expected}")

    mult = [[None] * len(reps) for _ in reps]
    for i, a in enumerate(reps):
        for j in range(i, len(reps)):
            vec = classes(a * reps[j])
            if vec is None:
                raise InvariantViolation("product left the ring window")
            mult[i][j] = mult[j][i] = vec
    algebra = ArtinAlgebra(field, mult,
                           labels=tuple(format_element(rep) for rep in reps))
    return ArtinQuotient(algebra, ring, x, tuple(reps), classes)


def present_quotient(total: FracIdeal, sub: FracIdeal,
                     quotient: ArtinQuotient) -> ArtinModule:
    """M/N as a module over O/xO; requires x*M inside N."""
    if total.degree != sub.degree:
        raise DifferentialDegreeError("pair mixes functions and forms")
    if not total.contains_module(sub):
        raise NotContained("denominator is not a submodule")
    if not sub.contains_module(total.scale(quotient.x)):
        raise NotKilled("the quotient class of x does not kill M/N")

    reps = total.quotient_basis(sub)
    classes = _WindowClasses(sub)
    if not all(classes.add(rep) for rep in reps):
        raise InvariantViolation("quotient representatives collapsed")

    cols = []
    for lift in quotient.reps:
        line = [classes(lift * rep) for rep in reps]
        if None in line:
            raise InvariantViolation("action left the module window")
        cols.append([{k: c for k, c in enumerate(vec) if c} for vec in line])
    return ArtinModule(quotient.algebra, cols,
                       labels=tuple(format_element(rep) for rep in reps))


# -- the square-zero extension laboratory -------------------------------------

@dataclass(frozen=True)
class ExtLabInstance:
    """The one-branch monomial testbed: O generated by t^m..t^{2m-1},
    x = t^m, and the two quotient stages of the canonical module."""

    m: int
    p: int
    ring: object
    x: Element
    omega: FracIdeal
    square: ArtinQuotient      # O / x^2
    linear: ArtinQuotient      # O / x
    module: ArtinModule        # omega / x omega, over square
    target: ArtinModule        # omega / x^2 omega, over square


def ext_lab_instance(m: int, p: int) -> ExtLabInstance:
    from .curvering import CurveSpec, build
    from .duality import canonical_module
    if m < 2:
        raise ValueError("the lab needs multiplicity at least 2")
    field = prime_field(p)
    ring = build(CurveSpec(field, semigroup=tuple(range(m, 2 * m)),
                           label=f"power-gap ring m={m}"))
    x = Element.monomial(field, 1, 0, m)
    square = curve_quotient(ring, x * x)
    linear = curve_quotient(ring, x)
    omega = canonical_module(ring).module
    module = present_quotient(omega, omega.scale(x), square)
    target = present_quotient(omega, omega.scale(x * x), square)

    # pinned multiplication shape of O/x: all products of the non-unit
    # basis vanish (their orders already clear the window)
    for i in range(1, linear.dim):
        for j in range(1, linear.dim):
            if any(linear.algebra.mult[i][j]):
                raise InvariantViolation("O/x is not square-zero")
    if module.dim != m or target.dim != 2 * m:
        raise InvariantViolation("lab quotients have unexpected dimensions")
    _check_lab_action(module, square, m)
    return ExtLabInstance(m, p, ring, x, omega, square, linear, module,
                          target)


def _check_lab_action(module, square, m):
    """Pinned structure constants of omega/x omega on the adapted basis
    [sigma_m .. sigma_2, s]: a monomial of order i sends sigma_j to s
    exactly when i = j + m - 1, and everything else to zero."""
    one = square.algebra.field.one
    for a in range(1, square.algebra.dim):
        i = int(square.reps[a].valuation(0))
        for col, got in enumerate(module.cols[a]):
            j = m - col if col < m - 1 else None  # last column is s itself
            hits = j is not None and m <= i < 2 * m and i == j + m - 1
            if got != ({m - 1: one} if hits else {}):
                raise InvariantViolation(
                    "lab module action differs from the pinned constants")


@dataclass(frozen=True)
class ExtRouteReport:
    """dim Ext^1(M, k) computed two ways, next to the closed form."""

    m: int
    p: int
    via_resolution: int
    via_enumeration: int
    closed_form: int

    @property
    def routes_agree(self) -> bool:
        return self.via_resolution == self.via_enumeration

    @property
    def matches_closed_form(self) -> bool:
        return self.via_resolution == self.closed_form


def ext_routes(m: int, p: int, bound: int = 12) -> ExtRouteReport:
    """Both computations of dim Ext^1(omega/x omega, k).

    `via_resolution` reads the dimension off a minimal free resolution;
    `via_enumeration` is the dimension of the cocycles modulo the
    coboundaries on the minimal cover, a separate computation that
    builds no middle module.  Dimensions above `bound` raise TooLarge.
    The closed form m^2 - m - 1 counts the raw residue-pairing
    parameters m^2 - m minus one lifting normalisation; the report
    carries all three numbers so disagreement is visible, not patched.
    """
    lab = ext_lab_instance(m, p)
    k = trivial_module(lab.square.algebra)
    via_res = ext(lab.module, k, 1)
    _, _, reps = _extension_classes(lab.module, k, bound)
    return ExtRouteReport(m, p, via_res, len(reps), m * m - m - 1)


@dataclass(frozen=True)
class ClaimReport:
    ok: bool
    checked: int
    total: int
    m: int
    p: int

    def __bool__(self):
        return self.ok


def _reduces_to(mid: ArtinModule, xvec, module: ArtinModule) -> bool:
    """Whether E/xE is isomorphic to the given module."""
    q = quotient_module(mid, mid.action_matrix(xvec))
    return q.dim == module.dim and module_iso(q, module) is not None


def verify_claim4(m: int, p: int, bound: int = 12) -> ClaimReport:
    """Every self-extension middle E of omega/x omega with
    E/xE isomorphic to omega/x omega is isomorphic to omega/x^2 omega.

    Both counts are of extension classes; one middle is built per line
    of classes and weighted by the classes on it."""
    lab = ext_lab_instance(m, p)
    xvec = lab.square.class_of(lab.x)
    classes = _extension_classes(lab.module, lab.module, bound)
    total = p ** len(classes[2])
    checked = 0
    for weight, mid in _line_middles(lab.module, classes):
        if not _reduces_to(mid, xvec, lab.module):
            continue
        checked += weight
        if module_iso(mid, lab.target) is None:
            return ClaimReport(False, checked, total, m, p)
    return ClaimReport(True, checked, total, m, p)


@dataclass(frozen=True)
class WitnessReport:
    witness: ArtinModule
    total_classes: int
    passing_quotient_test: int
    covered_by_target: int
    m: int
    p: int


def witness_cor3(m: int, p: int, bound: int = 12) -> WitnessReport:
    """A middle E of (omega/x omega by k) with E/xE isomorphic to
    omega/x omega that no equivariant map from omega/x^2 omega covers.

    Counting argument behind the search: extensions realised by
    quotients of the target form a proper subspace, so witnesses are
    plentiful; still, the search is exhaustive and NoWitness is raised
    honestly if every class is covered.  The counts are of extension
    classes, walked one line at a time as in `verify_claim4`; the
    witness is the middle of the first uncovered class of the full walk.
    """
    lab = ext_lab_instance(m, p)
    xvec = lab.square.class_of(lab.x)
    k = trivial_module(lab.square.algebra)
    classes = _extension_classes(lab.module, k, bound)
    passing = 0
    covered = 0
    witness = None
    for weight, mid in _line_middles(k, classes):
        if not _reduces_to(mid, xvec, lab.module):
            continue
        passing += weight
        if surjection_exists(lab.target, mid):
            covered += weight
        elif witness is None:
            witness = mid
    if witness is None:
        raise NoWitness("every extension class is covered by the target")
    return WitnessReport(witness, p ** len(classes[2]), passing, covered,
                         m, p)


# -- torsion pairing check -----------------------------------------------------

@dataclass(frozen=True)
class ReesReport:
    ok: bool
    length_via_duals: int
    hom_dimension: int

    def __bool__(self):
        return self.ok


def rees_check(ring, torsion, r: Element) -> ReesReport:
    """Compare len(dual(G)/dual(F)) with dim Hom_{O/r}(F/G, w/rw).

    F/G must be killed by r (NotKilled otherwise); the first number is
    the length of the torsion dual of F/G, the second counts maps into
    the quotient of the dualizing module.
    """
    from .duality import canonical_module, dual
    omega = canonical_module(ring).module
    dual_sub = dual(torsion.sub)
    dual_total = dual(torsion.total)
    lhs = dual_sub.len_quotient(dual_total)
    quotient = curve_quotient(ring, r)
    tmod = present_quotient(torsion.total, torsion.sub, quotient)
    wmod = present_quotient(omega, omega.scale(r), quotient)
    rhs = len(hom_space(tmod, wmod))
    return ReesReport(lhs == rhs, lhs, rhs)

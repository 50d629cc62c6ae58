"""Finite-dimensional commutative local algebras and their modules.

Everything here is exact linear algebra over the coefficient field.
Every vector is sparse, as in `linalg`: a dict from coordinates to
nonzero scalars.  Algebras are stored by structure constants on a
basis whose first element is the unit and whose remaining elements
span the radical; an algebra element is a sparse vector over that
basis, and so are the classes of `ArtinQuotient.class_of` and the
argument of `ArtinModule.action_matrix`.  A module stores the action
of each algebra basis element as sparse columns, the images of the
module basis vectors, and every map is a tuple of sparse columns in
the same way: a hom-space element, an isomorphism, an Ext^1 cocycle
on the kernel of the minimal cover (one column per kernel basis
vector), and the map k -> M whose one column is a socle vector.  One
routine, `_combine`, forms every linear combination of maps, the
action of an algebra element among them.  Flat keys (source index,
target coordinate) appear only where an echelon needs them: the
unknowns of `_equivariant_maps`, the Hom differentials of
`_hom_differential` (the coboundaries of `_extension_classes` and the
ranks of `ext`) and the tops of `_search_hom`.  The structure
constants `mult[i][j]`, the product of basis[i] and basis[j],
are then exactly the action columns of the algebra as a module over
itself, so one routine, `_action_fault`, checks both the module
identities and associativity.  Both types verify their defining
identities at construction, so a malformed quotient fails loudly
instead of corrupting downstream counts.

Every space of maps that commute with the radical is the kernel of one
routine, `_equivariant_maps`: `hom_space`, the socle read as Hom(k, M),
and the Ext^1 cocycles on the kernel of the minimal cover.  The cover's
kernel and every syzygy step of a resolution are one transposed kernel,
`_cover_kernel`, and one routine, `_transpose`, turns columns into rows
for it, for `_equivariant_maps` and for `matlis_dual`.

The Claim 4 and Corollary 3 walks decide each line of extension classes
from its cocycle, as a rank on the image of x (`_x_image_dim`), and
build a middle module only for a line that passes.

The quotient constructors (`curve_quotient`, `present_quotient`) bridge
from the Laurent-window world through one method,
`FracIdeal.quotient_classes`: the lifts of a basis of M/N and their
class map, which writes a Laurent vector's residual modulo N over the
lifts.  Both take x·M from `fracideal.regular_multiple`, which also
checks x, and each builds it once: `curve_quotient` as the ideal xO
it divides by, `present_quotient` to test that x kills M/N.  The
quotients of a module by a span (`quotient_module` and the pushout
middles of the extension laboratory) share one induced action,
`_induced_action`, which projects images onto the non-pivot keys.
"""

from __future__ import annotations

import functools
import itertools

from .errors import (DifferentialDegreeError, InvariantViolation, NoWitness,
                     NotKilled, NotMember, TooLarge)
from .fields import FiniteField, prime_field
from .fracideal import FracIdeal, regular_multiple, unit_ideal
from .laurent import Element, format_element, linear_combination
from .linalg import Echelon, TrackedEchelon, kernel, span, vec_iaddmul
from .record import Record

# Largest free module, rank times algebra dimension, that a resolution
# step may start from.  The step's kernel runs over the next free
# module, whose rank is at most the dimension of the current kernel.
# The lab at (10, 2) starts its second step from 89 x 20 = 1780 and
# takes 1.1 s; at (11, 2), from 109 x 22 = 2398, 2.3 s (2-vCPU VM,
# Python 3.11).  Past the cap `_resolution` raises TooLarge.
MAX_RESOLUTION_SIZE = 2048

# Most coefficient tuples `_search_hom` may walk: q^k over F_q and
# (dim + 1)^k over Q, for k independent tops.  At the cap, the search
# for a surjection from k^8 onto k^2 + A over the dual numbers over F2,
# which has none, walks all 65,536 tuples in 2.3 s (2-vCPU VM,
# Python 3.11).  Past the cap the search raises TooLarge.  No CLI path
# runs `module_iso` (Claim 4 reads the socle); the one grid walk of the
# lab is the surjection search of Corollary 3's witness.
MAX_HOM_GRID = 65536

# Most middle modules one walk over extension classes may build: q^e
# for `enumerate_extensions`, and 1 + (q^e - 1)/(q - 1), one per line,
# for the Claim 4 and Corollary 3 walks of `_line_cocycles`.  Over F2 a
# line is one class, so the cap is e <= 12 there.  Those walks decide a
# line from its cocycle and build a middle only when it passes, and
# Claim 4 tests each middle by its socle: `verify_claim4(m, 2)` for
# m = 8, 9, 10, 11 and 12 (256 to 4,096 lines, half of them passing)
# takes 1.1, 3.0, 6.3, 13.6 and 36 s, most of it building the middles
# (2-vCPU VM, Python 3.11; 3.6 to 154 s with an isomorphism search per
# line).
# Corollary 3 stops at its witness, the first uncovered passing line,
# and reads its counts off dim Hom(M, k); the cap is its worst case, a
# scan that finds no witness.  Past the cap the walk raises TooLarge
# before it builds a middle.
MAX_LAB_LINES = 4096

# -- sparse columns -------------------------------------------------------------

def _apply(cols, vec):
    """The linear map with the given sparse columns applied to vec."""
    out = {}
    for k, c in vec.items():
        vec_iaddmul(out, c, cols[k])
    return out


def _sparse_lines(lines):
    """Lines of sparse vectors as tuples, zero entries dropped."""
    return tuple(tuple({k: c for k, c in vec.items() if c} for vec in line)
                 for line in lines)


def _ragged(lines, d):
    """Whether some line does not hold d vectors over range(d)."""
    coords = set(range(d))
    return any(len(line) != d or any(not vec.keys() <= coords
                                     for vec in line) for line in lines)


def _not_identity(cols, one):
    """Whether the sparse columns are not those of the identity."""
    return any(col != {v: one} for v, col in enumerate(cols))


def _action_fault(mult, cols, d):
    """Whether cols[i] applied to cols[j][v] differs from
    sum_k mult[i][j][k] * cols[k][v] for some v in range(d) and some
    ordered radical pair (i, j); with i <= j alone, basis[j] applied
    after basis[i] could disagree.  For cols = mult, associativity."""
    n = len(mult)
    for i in range(1, n):
        for j in range(1, n):
            terms = mult[i][j].items()
            for v in range(d):
                expect = {}
                for k, c in terms:
                    vec_iaddmul(expect, c, cols[k][v])
                if _apply(cols[i], cols[j][v]) != expect:
                    return True
    return False


def _transpose(cols):
    """The nonzero rows of a map given by (index, sparse column) pairs:
    row p maps each index to its column's entry at p."""
    rows = {}
    for q, col in cols:
        for p, c in col.items():
            rows.setdefault(p, {})[q] = c
    return rows


def _combine(coeffs, maps, d):
    """sum c * map over the pairs, for maps given by d sparse columns;
    the zero map for the empty family."""
    out = tuple({} for _ in range(d))
    for c, cols in zip(coeffs, maps):
        for acc, col in zip(out, cols):
            vec_iaddmul(acc, c, col)
    return out


# -- algebras -----------------------------------------------------------------

class ArtinAlgebra:
    """Structure constants of a commutative local algebra.

    `mult[i][j]` is basis[i] * basis[j] as a sparse dict over
    range(dim), so `mult[i]` is the action of basis[i] on the algebra
    by sparse columns.  The basis is unit-adapted: index 0 is the unit
    and indices 1.. span the unique maximal ideal, whose nilpotency is
    checked.
    """

    __slots__ = ("field", "dim", "mult", "labels")

    def __init__(self, field, mult, labels=None):
        self.field = field
        self.mult = _sparse_lines(mult)
        self.dim = len(self.mult)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"b{i}" for i in range(self.dim))
        self._validate()

    def _validate(self):
        n, field, mult = self.dim, self.field, self.mult
        if n < 1:
            raise InvariantViolation("algebra needs a unit")
        if _ragged(mult, n):
            raise InvariantViolation("ragged structure constants")
        if _not_identity(mult[0], field.one):
            raise InvariantViolation("basis[0] is not the unit")
        for i in range(n):
            for j in range(i + 1, n):
                if mult[i][j] != mult[j][i]:
                    raise InvariantViolation("multiplication not commutative")
        # the regular module's identities, over every ordered pair
        if _action_fault(mult, mult, n):
            raise InvariantViolation("multiplication not associative")
        # radical nilpotency: powers of span(basis[1:]) must vanish
        current = [{i: field.one} for i in range(1, n)]
        seen_dims = set()
        while current:
            ech = span(field, (_apply(mult[i], v) for v in current
                               for i in range(1, n)))
            if ech.dim in seen_dims:
                raise InvariantViolation("radical is not nilpotent")
            seen_dims.add(ech.dim)
            current = ech.rows

    def __repr__(self):
        return f"<algebra of dimension {self.dim}>"


class ArtinModule:
    """A finite module over an `ArtinAlgebra`, stored by its action.

    `cols[i][j]` is algebra basis[i] applied to module basis vector j,
    a sparse dict over range(dim) (zero entries are dropped).  The
    unit must act as the identity, and basis[i] applied to cols[j][v]
    must equal sum_k mult[i][j][k] * cols[k][v] for every i and j
    (`_action_fault`); both are checked.
    """

    __slots__ = ("algebra", "dim", "cols", "labels")

    def __init__(self, algebra, cols, labels=None):
        self.algebra = algebra
        self.cols = _sparse_lines(cols)
        self.dim = len(self.cols[0]) if self.cols else 0
        self.labels = tuple(labels) if labels is not None else tuple(
            f"v{i}" for i in range(self.dim))
        self._validate()

    def _validate(self):
        algebra, d = self.algebra, self.dim
        if len(self.cols) != algebra.dim:
            raise InvariantViolation("one action per algebra basis element")
        if _ragged(self.cols, d):
            raise InvariantViolation("ragged action column")
        if _not_identity(self.cols[0], algebra.field.one):
            raise InvariantViolation("unit does not act as identity")
        if _action_fault(algebra.mult, self.cols, d):
            raise InvariantViolation(
                "action disagrees with the structure constants")

    def action_matrix(self, avec):
        """The action of the algebra element avec, a sparse vector over
        the algebra basis, as a tuple of sparse columns."""
        return _combine(avec.values(), [self.cols[k] for k in avec],
                        self.dim)

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
    return ArtinModule(algebra, algebra.mult, labels=algebra.labels)


def matlis_dual(module: ArtinModule) -> ArtinModule:
    """The dual vector space with the transposed action."""
    cols = []
    for line in module.cols:
        rows = _transpose(enumerate(line))
        cols.append([rows.get(p, {}) for p in range(module.dim)])
    return ArtinModule(module.algebra, cols,
                       labels=tuple(f"{l}*" for l in module.labels))


class SocleData(Record):
    """The socle's dimension and a basis of sparse module vectors."""

    __slots__ = _fields = ("dimension", "basis")


def socle(module: ArtinModule) -> SocleData:
    """The subspace killed by the radical, read as Hom(k, M): the
    images of k's one basis vector, which the radical kills."""
    zero = (({},),) * (module.algebra.dim - 1)
    basis = tuple(x[0] for x in _equivariant_maps(zero, 1, module))
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
                             for k, s in algebra.mult[i][a].items()})
    return out


def _cover_kernel(field, images):
    """Kernel of the map from a free module that sends each basis
    vector (slot, algebra index), the keys of images in order, to its
    image, a sparse vector."""
    return kernel(field, _transpose(images.items()).values(), list(images))


def _module_presentation(module: ArtinModule):
    """First syzygy of the minimal cover, which sends slot j of the free
    module to the basis vector at the j-th top coordinate.  Returns the
    cover rank and the kernel basis, keyed (slot, algebra index)."""
    algebra = module.algebra
    _, coords, _ = top_data(module)
    images = {(j, a): module.cols[a][q] for j, q in enumerate(coords)
              for a in range(algebra.dim)}
    return len(coords), _cover_kernel(algebra.field, images)


def _syzygy_step(algebra, rank, kvecs):
    """Minimal generators of a submodule K of A^rank and the kernel of
    the induced cover A^(#gens) -> K."""
    field = algebra.field
    rad = Echelon(field)
    for v in kvecs:
        for i in range(1, algebra.dim):
            rad.insert(_free_left_apply(algebra, i, v))
    gens = [v for v in kvecs if rad.insert(v) is not None]

    images = {(s, a): _free_left_apply(algebra, a, g)
              for s, g in enumerate(gens) for a in range(algebra.dim)}
    return gens, _cover_kernel(field, images)


def _resolution(module: ArtinModule, length: int):
    """Betti numbers b_0..b_length of a minimal free resolution, and
    for each differential d_1..d_length the images of its source basis
    vectors, sparse over (target slot, algebra index).  A step from a
    free module larger than MAX_RESOLUTION_SIZE raises TooLarge."""
    algebra = module.algebra
    rank, kv = _module_presentation(module)
    betti = [rank]
    diffs = []
    for _ in range(length):
        if kv and rank * algebra.dim > MAX_RESOLUTION_SIZE:
            raise TooLarge(f"resolution step from a free module of size "
                           f"{rank * algebra.dim} exceeds the bound "
                           f"{MAX_RESOLUTION_SIZE}")
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


def _same_algebra(mmodule: ArtinModule, nmodule: ArtinModule):
    """Refuse a pair of modules over different algebras."""
    if mmodule.algebra is not nmodule.algebra \
            and mmodule.algebra.mult != nmodule.algebra.mult:
        raise InvariantViolation("modules live over different algebras")


def ext(mmodule: ArtinModule, nmodule: ArtinModule, i: int) -> int:
    """dim Ext^i over the algebra, from a minimal free resolution."""
    _same_algebra(mmodule, nmodule)
    if i < 0:
        raise ValueError("negative homological degree")
    field = mmodule.algebra.field
    betti, diffs = _resolution(mmodule, i + 1)

    def delta_rank(s):
        if betti[s] == 0 or betti[s + 1] == 0:
            return 0
        return span(field, _hom_differential(nmodule, diffs[s]).values()).dim

    hom_dim = betti[i] * nmodule.dim
    if i == 0:
        return hom_dim - delta_rank(0) if betti[1] else hom_dim
    rank_out = delta_rank(i) if betti[i + 1] else 0
    rank_in = delta_rank(i - 1)
    return hom_dim - rank_out - rank_in


# -- hom spaces, isomorphism, surjection --------------------------------------

def _equivariant_maps(lines, d, nmodule: ArtinModule):
    """Basis of the maps X into N with X(a v) = a X(v) for every radical
    basis element a, as tuples of d sparse columns, column q the image
    of source vector q.  lines[i - 1][q] is basis[i] applied to source
    vector q, sparse over the source.  The basis is that of one
    `kernel`, with one row per (i, q, p), p a coordinate of N, over the
    unknowns (q, p) in source-major order."""
    field, dn = nmodule.algebra.field, nmodule.dim
    minus = -field.one
    rows = []
    for line, nline in zip(lines, nmodule.cols[1:]):
        nrows = _transpose(enumerate(nline))
        for q, col in enumerate(line):
            for p in range(dn):
                row = {(r, p): c for r, c in col.items()}
                vec_iaddmul(row, minus, {(q, r): c
                                         for r, c in nrows.get(p, {}).items()})
                rows.append(row)
    maps = []
    for sol in kernel(field, rows, [(q, p) for q in range(d)
                                    for p in range(dn)]):
        cols = tuple({} for _ in range(d))
        for (q, p), c in sol.items():
            cols[q][p] = c
        maps.append(cols)
    return maps


def hom_space(mmodule: ArtinModule, nmodule: ArtinModule):
    """Basis of the equivariant maps M -> N, as a list of tuples of
    sparse columns, column q the image of M's basis vector q."""
    _same_algebra(mmodule, nmodule)
    return _equivariant_maps(mmodule.cols[1:], mmodule.dim, nmodule)


def _coeff_grid(field, nvars, degree_bound):
    """Deterministic search tuples: the whole space over a finite field,
    an integer grid large enough for polynomial identity testing over
    the rationals (per-variable degree at most degree_bound); at most
    MAX_HOM_GRID tuples."""
    if isinstance(field, FiniteField):
        size, values = field.order, field.elements()
    else:
        size = degree_bound + 1
        values = [field.of_int(v) for v in range(size)]
    if size ** nvars > MAX_HOM_GRID:
        raise TooLarge(f"coefficient grid of {size}^{nvars} tuples exceeds "
                       f"the bound {MAX_HOM_GRID}")
    return itertools.product(values, repeat=nvars)


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
    k = len(m_coords)
    for coeffs in _coeff_grid(field, len(picked), max(n_dim, 1)):
        if any(coeffs) and span(field, _combine(coeffs, tops, k)).dim == n_dim:
            return _combine(coeffs, picked, mmodule.dim)
    return None


def module_iso(mmodule: ArtinModule, nmodule: ArtinModule):
    """An equivariant isomorphism M -> N as a tuple of sparse columns,
    or None (a proof of absence)."""
    _same_algebra(mmodule, nmodule)
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
    _same_algebra(mmodule, nmodule)
    if nmodule.dim == 0:
        return True
    x = _search_hom(mmodule, nmodule, top_data(mmodule), top_data(nmodule))
    if x is None:
        return False
    if span(mmodule.algebra.field, x).dim < nmodule.dim:
        raise InvariantViolation("surjective top must lift to a surjection")
    return True


# -- extension enumeration -----------------------------------------------------

def _extension_classes(mmodule: ArtinModule, nmodule: ArtinModule):
    """Ext^1(M, N) as cocycles modulo coboundaries.

    With F -> M the minimal cover and K its kernel, a class is a map
    K -> N modulo restrictions of maps F -> N.  Returns (b0, kvecs,
    reps, tracked): the rank of F, a basis of K, cocycles whose classes
    form a basis of Ext^1, so e = len(reps), and the echelon that writes
    a vector of K over the basis indices.  The basis is independent
    untested: each `kernel` vector is the only one holding its free
    unknown.
    """
    algebra = mmodule.algebra
    field = algebra.field
    b0, kvecs = _module_presentation(mmodule)
    n = algebra.dim
    tracked = TrackedEchelon(field)
    for mdx, v in enumerate(kvecs):
        tracked.insert(v, mdx)

    # the cocycles: maps K -> N equivariant for K's action, read over
    # the kernel basis
    lines = []
    for i in range(1, n):
        line = [tracked.express(_free_left_apply(algebra, i, v))
                for v in kvecs]
        if None in line:
            raise InvariantViolation("kernel is not closed under the action")
        lines.append(line)
    solutions = _equivariant_maps(lines, len(kvecs), nmodule)

    # the coboundaries: restrictions to K of the maps F -> N, which is
    # the Hom differential of the inclusion K -> F, keyed (kernel index,
    # coordinate of N) as its echelon needs
    image_ech = span(field, _hom_differential(nmodule, kvecs).values())
    reps = [s for s in solutions if image_ech.insert(
        {(mdx, p): c for mdx, col in enumerate(s) for p, c in col.items()})
        is not None]
    return b0, kvecs, reps, tracked


def _walkable_classes(mmodule: ArtinModule, nmodule: ArtinModule,
                      per_line: bool):
    """`_extension_classes` for a walk over the q^e classes, one middle
    per class or, with `per_line`, one per line of classes.  A nonzero
    dimension over an infinite field is refused, since its classes
    cannot be walked, and so is a walk of more than MAX_LAB_LINES
    middles."""
    classes = _extension_classes(mmodule, nmodule)
    e = len(classes[2])
    if not e:
        return classes
    field = mmodule.algebra.field
    if not isinstance(field, FiniteField):
        raise TooLarge("enumeration needs a finite coefficient field")
    q = field.order
    built = 1 + (q ** e - 1) // (q - 1) if per_line else q ** e
    if built > MAX_LAB_LINES:
        raise TooLarge(f"extension walk over {built} middles exceeds the "
                       f"bound {MAX_LAB_LINES}")
    return classes


def enumerate_extensions(mmodule: ArtinModule, nmodule: ArtinModule):
    """One middle module per extension class of M by N, as a list.

    The middle for a cocycle psi is the pushout (N + F)/graph(psi) of
    the minimal cover F -> M.  The split class is the zero cocycle and
    comes first.  The class count is |k|^e with e = dim Ext^1, which is
    what makes exhaustive enumeration possible at all; infinite fields
    and more than MAX_LAB_LINES classes are refused.
    """
    _same_algebra(mmodule, nmodule)
    algebra = mmodule.algebra
    field = algebra.field
    b0, kvecs, reps, _ = _walkable_classes(mmodule, nmodule, False)
    e = len(reps)
    lam_space = itertools.product(field.elements(), repeat=e) if e else [()]
    return [_pushout_middle(algebra, nmodule, b0, kvecs,
                            _combine(lam, reps, len(kvecs)))
            for lam in lam_space]


def _line_cocycles(field, reps, d):
    """(weight, psi) for one cocycle psi per line of extension classes,
    each a tuple of d sparse columns, one per kernel basis vector.

    Scaling N by c maps graph(psi) onto graph(c psi), so the middles of
    a class and of its nonzero multiples are isomorphic and every
    isomorphism invariant is constant on a line.  The split class
    comes first with weight 1, then one class per line, with first
    nonzero coordinate 1 and weight q - 1; the weights add up to q^e.
    Lines come in the order of their first class in the full walk of
    `enumerate_extensions` over a prime field: leading index from e - 1
    down to 0, and the tail in `itertools.product` order.
    """
    e = len(reps)
    yield 1, _combine((), reps, d)
    for lead in range(e - 1, -1, -1):
        head = (field.zero,) * lead + (field.one,)
        for tail in itertools.product(field.elements(), repeat=e - 1 - lead):
            yield field.order - 1, _combine(head + tail, reps, d)


def _x_cover_rows(algebra, xvec, b0, tracked):
    """A basis of xF inside the kernel K of the minimal cover F = A^b0,
    each vector written over K's basis indices by `tracked`.  The
    element x, the sparse vector xvec, must kill the covered module,
    so that xF lies in K; a vector x (j, a) outside K raises
    InvariantViolation."""
    field = algebra.field
    coords = []
    for a in range(algebra.dim):
        xa = _apply(algebra.mult[a], xvec)
        if not xa:
            continue
        for j in range(b0):
            coord = tracked.express({(j, k): c for k, c in xa.items()})
            if coord is None:
                raise InvariantViolation("x F leaves the kernel of the cover")
            coords.append(coord)
    return span(field, coords).rows


def _x_image_dim(field, xrows, psi):
    """dim psi(xF), for xF given by `_x_cover_rows` and a cocycle psi
    given by one sparse column per kernel basis vector."""
    return span(field, (_apply(psi, row) for row in xrows)).dim


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
    """(N + A^b0) / graph(psi) as a module, for one cocycle psi.

    Its dimension is dim N + b0·dim A - dim K untested: the graph rows
    are independent, as their A^b0 parts are the basis kvecs of K."""
    field = algebra.field
    n = algebra.dim
    keys = [("n", p) for p in range(nmodule.dim)]
    keys.extend(("f", (j, a)) for j in range(b0) for a in range(n))
    order = {k: i for i, k in enumerate(keys)}

    graph = Echelon(field, sort_key=order.__getitem__)
    for kv, col in zip(kvecs, psi):
        row = {("f", key): c for key, c in kv.items()}
        row.update((("n", p), -c) for p, c in col.items())
        graph.insert(row)

    def image(i, k):
        if k[0] == "n":
            return {("n", q): c for q, c in nmodule.cols[i][k[1]].items()}
        j, a = k[1]
        return {("f", (j, b)): c for b, c in algebra.mult[i][a].items()}

    cols, _ = _induced_action(algebra, graph, keys, image)
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
        """The class of a ring element, a sparse vector over the
        algebra basis."""
        vec = self._classes(elem)
        if vec is None:
            raise NotMember("element is not in the ring")
        return vec

    def lift(self, vec) -> Element:
        """The combination of the representatives with the sparse
        coefficients vec."""
        return linear_combination(self.algebra.field, self.ring.nbranches,
                                  vec.values(),
                                  [self.reps[k].coeffs for k in vec])

    def __repr__(self):
        return f"<quotient algebra of dimension {self.dim}>"


def curve_quotient(ring, x: Element) -> ArtinQuotient:
    """O/xO with its multiplication table.

    The dimension must come out as the total vanishing order of x (the
    one-element Herbrand identity, `fracideal.herbrand`); anything else
    is an invariant violation, not a warning.  The dimension is the
    number of lifts `quotient_classes` picks, which it checks against
    len(O/xO).
    """
    if x.degree != 0:
        raise DifferentialDegreeError("quotient by a function, not a form")
    total = unit_ideal(ring)
    sub, expected = regular_multiple(total, x)
    if expected == 0:
        raise InvariantViolation("quotient by a unit is the zero algebra")
    reps, classes = total.quotient_classes(sub)
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
    algebra = ArtinAlgebra(ring.field, mult,
                           labels=tuple(format_element(rep) for rep in reps))
    return ArtinQuotient(algebra, ring, x, tuple(reps), classes)


def present_quotient(total: FracIdeal, sub: FracIdeal,
                     quotient: ArtinQuotient) -> ArtinModule:
    """M/N as a module over O/xO; requires N inside M and x*M inside N.

    N ⊆ M is tested once, by `quotient_classes` (NotContained), before
    x*M ⊆ N (NotKilled), with x*M from `regular_multiple(total, x)`."""
    if total.degree != sub.degree:
        raise DifferentialDegreeError("pair mixes functions and forms")
    reps, classes = total.quotient_classes(sub)
    if not sub.contains_module(regular_multiple(total, quotient.x)[0]):
        raise NotKilled("the quotient class of x does not kill M/N")
    cols = []
    for lift in quotient.reps:
        line = [classes(lift * rep) for rep in reps]
        if None in line:
            raise InvariantViolation("action left the module window")
        cols.append(line)
    return ArtinModule(quotient.algebra, cols,
                       labels=tuple(format_element(rep) for rep in reps))


# -- the square-zero extension laboratory -------------------------------------

class ExtLabInstance(Record):
    """The one-branch monomial testbed: O generated by t^m..t^{2m-1},
    x = t^m, and the two quotient stages of the canonical module:
    `square` is O/x^2 and `linear` is O/x (ArtinQuotient), `module` is
    omega/x omega and `target` omega/x^2 omega (ArtinModule over
    `square`)."""

    __slots__ = _fields = ("m", "p", "ring", "x", "omega", "square",
                           "linear", "module", "target")


@functools.lru_cache(maxsize=1, typed=True)
def ext_lab_instance(m: int, p: int) -> ExtLabInstance:
    """The lab at multiplicity m over F_p, built and checked once.

    The last instance built is kept, one per process: a second call
    with the same (m, p) returns that same object, and a call with
    another (m, p) replaces it.  So `ext_routes`, `verify_claim4` and
    `witness_cor3` share one lab, and an all-parts `ext-lab` builds it
    once.  The instance is shared, so it is read-only: no caller
    changes its modules or algebras.  The key is typed, so m = 3.0 is
    not the (3, p) lab; it fails as it would unkept.  TooLarge and the
    other refusals raise before the build and are never kept.
    """
    from .curvering import CurveSpec, build
    from .duality import canonical_module
    if m < 2:
        raise ValueError("the lab needs multiplicity at least 2")
    # the minimal cover of omega/x omega has rank m - 1 over O/x^2, of
    # dimension 2m (both pinned below), and every resolution of the lab
    # starts from it: refuse past MAX_RESOLUTION_SIZE, before the build
    cover = (m - 1) * 2 * m
    if cover > MAX_RESOLUTION_SIZE:
        raise TooLarge(f"lab at m = {m}: minimal cover of size {cover} "
                       f"exceeds the bound {MAX_RESOLUTION_SIZE}")
    field = prime_field(p)
    ring = build(CurveSpec(field, semigroup=tuple(range(m, 2 * m)),
                           label=f"power-gap ring m={m}"))
    x = Element.monomial(field, 1, 0, m)
    square = curve_quotient(ring, x * x)
    linear = curve_quotient(ring, x)
    omega = canonical_module(ring).module
    module = present_quotient(omega, regular_multiple(omega, x)[0], square)
    target = present_quotient(omega, regular_multiple(omega, square.x)[0],
                              square)

    # pinned multiplication shape of O/x: all products of the non-unit
    # basis vanish (their orders already clear the window)
    for i in range(1, linear.dim):
        for j in range(1, linear.dim):
            if linear.algebra.mult[i][j]:
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


class ExtRouteReport(Record):
    """dim Ext^1(M, k) computed two ways, next to the closed form."""

    __slots__ = _fields = ("m", "p", "via_resolution", "via_enumeration",
                           "closed_form")

    @property
    def routes_agree(self) -> bool:
        return self.via_resolution == self.via_enumeration

    @property
    def matches_closed_form(self) -> bool:
        return self.via_resolution == self.closed_form


def ext_routes(m: int, p: int) -> ExtRouteReport:
    """Both computations of dim Ext^1(omega/x omega, k).

    `via_resolution` reads the dimension off a minimal free resolution;
    `via_enumeration` is the dimension of the cocycles modulo the
    coboundaries on the minimal cover, a separate computation that
    builds no middle module and walks no class, so it needs no bound
    on the dimension.  The closed form m^2 - m - 1 counts the raw
    residue-pairing parameters m^2 - m minus one lifting normalisation;
    the report carries all three numbers so disagreement is visible,
    not patched.
    """
    lab = ext_lab_instance(m, p)
    k = trivial_module(lab.square.algebra)
    # the resolution first: MAX_RESOLUTION_SIZE caps it, so a lab past
    # that cap is refused before the enumeration, which has no cap
    via_res = ext(lab.module, k, 1)
    reps = _extension_classes(lab.module, k)[2]
    return ExtRouteReport(m, p, via_res, len(reps), m * m - m - 1)


class ClaimReport(Record):
    """Claim 4 at (m, p): `checked` of `total` extension classes pass
    the quotient test, every one of them with a middle isomorphic to
    the target; `verify_claim4` raises on any failure."""

    __slots__ = _fields = ("checked", "total", "m", "p")


def _passing_middles(lab: ExtLabInstance, nmodule: ArtinModule):
    """The count q^e of extension classes of M = omega/x omega by N, and
    a walk over (weight, E) for the lines of `_line_cocycles` whose
    middle E has E/xE isomorphic to M.  Each line is decided from its
    cocycle, and only the middles of passing lines are built.

    That quotient test is one rank: E/xE = M up to isomorphism exactly
    when xE has the dimension of N.  Here N is k or M.  The element x
    kills k, since the radical acts by zero on k, and it kills M, as
    `_check_lab_action` pins: t^m acts by zero on omega/x omega.  In
    0 -> N -> E -> M -> 0, x kills M, so xE maps to zero in M and
    xE lies in N.  If E/xE = M, then dim xE = dim E - dim M = dim N, so
    xE = N.  If xE = N, then E/xE = E/N, which is M.

    The rank is read off the cocycle.  With F -> M the minimal cover and
    K its kernel, E = (N + F)/graph(psi), where (0, v) = (psi(v), 0) for
    v in K.  As x kills N, x (n, f) = (0, xf); as x kills M, xf lies in
    K, so x (n, f) = (psi(xf), 0) and xE = psi(xF) inside N.  Every
    middle built is checked against this: its x-action must have rank
    dim N, or InvariantViolation is raised.
    """
    algebra = lab.square.algebra
    field = algebra.field
    xvec = lab.square.class_of(lab.x)
    b0, kvecs, reps, tracked = _walkable_classes(lab.module, nmodule, True)
    xrows = _x_cover_rows(algebra, xvec, b0, tracked)

    def walk():
        for weight, psi in _line_cocycles(field, reps, len(kvecs)):
            if _x_image_dim(field, xrows, psi) != nmodule.dim:
                continue
            mid = _pushout_middle(algebra, nmodule, b0, kvecs, psi)
            if span(field, mid.action_matrix(xvec)).dim != nmodule.dim:
                raise InvariantViolation(
                    "the cocycle and its middle disagree on dim xE")
            yield weight, mid

    return lab.p ** len(reps), walk()


def verify_claim4(m: int, p: int) -> ClaimReport:
    """Every self-extension middle E of omega/x omega with
    E/xE isomorphic to omega/x omega is isomorphic to omega/x^2 omega.

    Both counts are of extension classes; one middle is built per
    passing line of classes and weighted by the classes on it.

    Isomorphism is decided by the socle.  Over A = O/x^2, whose residue
    field is the coefficient field, length is dimension.  The injective
    hull E(k) of the residue field has the length of A (Matlis duality).
    A module X with a one-dimensional socle k is an essential extension
    of k, so the inclusion k -> E(k) extends to an injective map
    X -> E(k); if dim X = dim A as well, that map is onto.  So the
    target T = omega/x^2 omega, certified once to have a simple socle
    and dim T = dim A (InvariantViolation otherwise), is E(k).  Every
    middle E has dim M + dim N = dim T, by its construction, so E is
    isomorphic to T exactly when its socle is one-dimensional: an
    isomorphism keeps the socle, and a simple socle makes E another copy
    of E(k).  No hom space is built.

    The passing count has a closed form, checked after the walk.  The
    x-action of a middle gives a linear map Ext^1(M, M) -> End(M) = O/x,
    and f -> f_*[T] is a section of it, so it is onto.  With
    e = dim Ext^1(M, M) certified equal to dim O/x, it is an
    isomorphism, and a class passes exactly when its image is a unit of
    the local algebra O/x: q^e - q^(e-1) classes.  A walk that counts
    otherwise raises InvariantViolation.  So every passing class is
    f_*[T] for a unit f, and its middle is isomorphic to T: a passing
    middle whose socle is not simple contradicts this proof and raises
    InvariantViolation too, so a report is returned only when the claim
    holds, and it carries no verdict.
    """
    lab = ext_lab_instance(m, p)
    target = lab.target
    if socle(target).dimension != 1 or target.dim != lab.square.dim:
        raise InvariantViolation("omega/x^2 omega is not the injective hull "
                                 "of the residue field")
    total, walk = _passing_middles(lab, lab.module)
    if total != p ** lab.linear.dim:
        raise InvariantViolation("dim Ext^1(M, M) differs from dim O/x")
    checked = 0
    for weight, mid in walk:
        checked += weight
        if socle(mid).dimension != 1:
            raise InvariantViolation(
                "a passing middle is not f_*[T] for a unit f: its socle "
                "is not simple")
    if checked != total - total // p:
        raise InvariantViolation(
            f"{checked} of {total} classes pass, not q^e - q^(e-1)")
    return ClaimReport(checked, total, m, p)


class WitnessReport(Record):
    __slots__ = _fields = ("witness", "total_classes",
                           "passing_quotient_test", "covered_by_target",
                           "m", "p")


def witness_cor3(m: int, p: int) -> WitnessReport:
    """A middle E of (omega/x omega by k) with E/xE isomorphic to
    omega/x omega that no equivariant map from omega/x^2 omega covers,
    and the class counts: q^e in total, q^e - q^(e-c) passing the
    quotient test, q^c - 1 covered, for c = dim Hom(M, k).

    Write M = omega/x omega and T = omega/x^2 omega, an extension
    0 -> M -> T -> M -> 0 whose first map is x.  By the duality, M is
    the canonical module of O/xO, so End(M) = O/x.

    Passing.  As in `_passing_middles`, x maps E into k and kills k, so
    it induces a map M -> k, linear in the class; E passes exactly when
    that map is nonzero.  For f in Hom(M, k), the pushout f_*[T] induces
    f, since x induces the identity M -> M on T.  So the map from the
    classes to Hom(M, k) is onto, the failing classes are its kernel, of
    codimension c, and q^e - q^(e-c) classes pass.

    Covered.  T covers E if and only if [E] = f_*[T] for some f != 0.
    If [E] = f_*[T], E is (k + T)/{(f(v), -xv)}; the image of T maps
    onto M, and for f(v) != 0 it holds x v, which is f(v) in k, so it is
    all of E.  Conversely, let g: T -> E be onto.  The composite
    T -> E -> M kills xT, so it is an onto endomorphism u of M, an
    automorphism, a unit of End(M) = O/x.  A lift of that unit to O/x^2
    acts on T inducing u, and composing g with its inverse gives a map
    of extensions T -> E over the identity of M; on the sub M it is a
    map f: M -> k, and then [E] = f_*[T].  If f were 0, g would factor
    through T/xT = M, of dimension less than E's.  Finally f -> f_*[T]
    is injective: if f_*[T] splits, its retraction onto k composed with
    T -> E is a map h: T -> k with h(xv) = f(v), and every map T -> k
    kills xT, inside the radical times T, so f = 0.  Hence the covered
    classes are the q^c - 1 nonzero images.

    The walk of `_passing_middles` then stops at the first passing line
    whose middle the target does not cover, the class the exhaustive
    walk would name; NoWitness is raised if every passing line is
    covered.  With no witness the scan would walk every line, so the
    line cap of `_walkable_classes` still applies up front.
    """
    lab = ext_lab_instance(m, p)
    k = trivial_module(lab.square.algebra)
    c = len(hom_space(lab.module, k))
    if c != top_data(lab.module)[0]:
        raise InvariantViolation("dim Hom(M, k) differs from the top of M")
    total, walk = _passing_middles(lab, k)
    witness = next((mid for _, mid in walk
                    if not surjection_exists(lab.target, mid)), None)
    if witness is None:
        raise NoWitness("every extension class is covered by the target")
    return WitnessReport(witness, total, total - total // p ** c,
                         p ** c - 1, m, p)


# -- torsion pairing check -----------------------------------------------------

class ReesReport(Record):
    __slots__ = _fields = ("ok", "length_via_duals", "hom_dimension")

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
    wmod = present_quotient(omega, regular_multiple(omega, r)[0], quotient)
    rhs = len(hom_space(tmod, wmod))
    return ReesReport(lhs == rhs, lhs, rhs)

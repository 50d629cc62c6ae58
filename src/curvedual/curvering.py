"""One-dimensional local rings presented inside a tuple of branches.

A ring O is the subalgebra of ⊕_i k[[t_i]] generated by finitely many
vectors with zero constant term (adjoined to the diagonal constants).
Everything is computed through the image of O in the finite window
⊕_i k[t]/t^W: the closure of the generators under `laurent.clip_product`,
as a reduced echelon of exponent vectors.

The conductor exponents n_i are read off the window image by
`laurent.shed_slab`, which sheds the full monomial slab from the top of
the window; the rows it leaves are the ring basis modulo the conductor.
The scan is certified once the window is at least twice the claimed
conductor plus two: any ring element agreeing with a slab monomial that
far out can be corrected to an exact slab member by the usual
successive-approximation argument, so the scan result is the true
conductor, not a window artifact.  The window grows adaptively toward
that certificate and gives up at `window_bound` with NotFiniteColength.
"""

from __future__ import annotations

import math

from .errors import (DifferentialDegreeError, InvariantViolation, NotARing,
                     NotCoprime, NotFiniteColength, NotPrimeField, ParseError,
                     TooLarge)
from .fields import FiniteField, format_field, parse_field
from .laurent import (Element, clip_product, clip_window, format_element,
                      parse_element, shed_slab, window_key)
from .linalg import Echelon
from .record import Record

INF = math.inf


# -- presentation -------------------------------------------------------------

class CurveSpec(Record):
    """Input data for a ring build.

    `semigroup`, for one-branch monomial rings only, lists exponent
    generators; it both supplies the generators (as monomials) and
    presizes the window from the exact conductor, which is how large
    monomial rings get past the default window bound honestly.
    `generators` is stored as a tuple and `semigroup` as a tuple of ints.
    """

    __slots__ = _fields = ("field", "generators", "semigroup",
                           "window_bound", "label")

    def __init__(self, field, generators=(), semigroup=None,
                 window_bound=200, label=None):
        if semigroup is not None:
            semigroup = tuple(int(a) for a in semigroup)
        super().__init__(field, tuple(generators), semigroup, window_bound,
                         label)


def _normalize_generators(gens):
    """Subtract the diagonal constant of each generator.

    A generator whose constant terms differ across branches would make
    the constants of the subring strictly larger than the diagonal k,
    so the result would not be local: rejected.  So is a generator with
    a pole: it lies outside the branch tuple, and its powers would never
    leave the closure window.
    """
    out = []
    for g in gens:
        if g.degree != 0:
            raise DifferentialDegreeError("ring generators must be functions")
        if any(j < 0 for (_, j) in g.coeffs):
            raise NotARing("ring generators must have no poles")
        consts = {g.coefficient(i, 0) for i in range(g.nbranches)}
        if len(consts) > 1:
            raise NotARing(
                "generator constants differ across branches; "
                "the subring would contain a nontrivial idempotent")
        c = consts.pop()
        if c:
            g = g - Element.one(g.field, g.nbranches).scale(c)
        if g:
            out.append(g)
    return out


def _closure_window(field, nbranches, gens, width):
    """Echelon of the image of the ring in ⊕ k[t]/t^width.

    Worklist closure: every vector that grows the span is multiplied
    by every generator.  Generators vanish to order at least one on
    each branch they touch, so the window is exhausted after finitely
    many rounds; the span dimension bounds the work outright.
    """
    ech = Echelon(field, sort_key=window_key)
    tail = (width,) * nbranches
    gvecs = [clip_window(g.coeffs, tail) for g in gens]
    frontier = []

    def push(vec):
        if vec and ech.insert(vec) is not None:
            frontier.append(vec)

    push({(i, 0): field.one for i in range(nbranches)})
    while frontier:
        v = frontier.pop()
        for g in gvecs:
            push(clip_product(v, g, tail))
    return ech


def build(spec: CurveSpec) -> "CurveRing":
    """Close the generators, certify the conductor, package the ring.
    A window bound above MAX_WINDOW_BOUND raises TooLarge at once."""
    if spec.window_bound > MAX_WINDOW_BOUND:
        raise TooLarge(f"window bound {spec.window_bound} exceeds the bound "
                       f"{MAX_WINDOW_BOUND}")
    field = spec.field
    gens = list(spec.generators)
    if spec.semigroup is not None:
        if gens:
            raise ParseError("give either generators or a semigroup, not both")
        data = semigroup_oracle(spec.semigroup)
        gens = [Element.monomial(field, 1, 0, a) for a in spec.semigroup]
        width = 2 * max(data.conductor, 1) + 2
    else:
        width = None
    gens = _normalize_generators(gens)
    if not gens:
        raise NotFiniteColength("no generators beyond the constants")
    nbranches = gens[0].nbranches
    for g in gens:
        if g.nbranches != nbranches:
            raise NotARing("generators disagree on the number of branches")
    # on a branch no generator reaches, the ring is the constants alone,
    # so it has infinite colength whatever the window
    reached = {i for g in gens for i, _ in g.coeffs}
    for i in range(nbranches):
        if i not in reached:
            raise NotFiniteColength(
                f"no generator reaches branch {i} (counting from 0), so the "
                f"ring has infinite colength")

    if width is None:
        vals = [int(g.valuation(i)) for g in gens for i in range(nbranches)
                if g.valuation(i) != INF]
        width = min(spec.window_bound, max(8, 2 * max(vals) + 2))
    while True:
        ech = _closure_window(field, nbranches, gens, width)
        cond = shed_slab(ech, (0,) * nbranches, (width,) * nbranches)
        need = 2 * max(max(cond), 1) + 2
        if need <= width:
            break
        if spec.semigroup is not None:
            raise InvariantViolation(
                "window scan disagrees with the semigroup oracle")
        if width >= spec.window_bound:
            # a branch whose slab the scan did not reach below the top
            # gives no conductor, so no lower bound on the window either
            lacking = [str(i) for i, n in enumerate(cond) if n >= width]
            if lacking:
                raise NotFiniteColength(
                    f"no conductor below the window bound "
                    f"{spec.window_bound} on branch"
                    f"{'es' if len(lacking) > 1 else ''} "
                    f"{', '.join(lacking)} (counting from 0)")
            raise NotFiniteColength(
                f"conductor not certified within window bound "
                f"{spec.window_bound} (needs at least {need})")
        width = min(need, spec.window_bound)
    if spec.semigroup is not None and (
            tuple(cond) != (data.conductor,)
            or len(ech.rows) != data.conductor - data.delta):
        raise InvariantViolation(
            "window scan disagrees with the semigroup oracle")

    lifts = tuple(Element(field, nbranches, row, 0) for row in ech.rows)
    return CurveRing(spec, field, nbranches, tuple(gens), tuple(cond),
                     lifts, width)


# -- the ring object ----------------------------------------------------------

class CurveRing:
    """A built ring: generators, conductor, and a reduced basis of the
    ring modulo its conductor (unit row first).

    Equality and hashing use the conductor and the reduced basis, which
    are canonical for the subring itself, not for the presentation.
    """

    def __init__(self, spec, field, nbranches, gens, cond, basis, window):
        self.spec = spec
        self.field = field
        self.nbranches = nbranches
        self.gens = gens
        self.cond = cond
        self.basis = basis
        self.window = window
        self.label = spec.label

    def __eq__(self, other):
        if not isinstance(other, CurveRing):
            return NotImplemented
        return (self.field == other.field
                and self.nbranches == other.nbranches
                and self.cond == other.cond
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.nbranches, self.cond, self.basis))

    def __repr__(self):
        name = self.label or "ring"
        return (f"<{name}: {self.nbranches} branch(es), "
                f"conductor {self.cond} over {format_field(self.field)}>")

    @property
    def colength_ring(self) -> int:
        return len(self.basis)

    @property
    def colength_normalization(self) -> int:
        return sum(self.cond)

    @property
    def delta(self) -> int:
        return self.colength_normalization - self.colength_ring

    def membership(self, elem) -> bool:
        from .fracideal import unit_ideal
        if elem.degree != 0:
            return False
        return unit_ideal(self).contains_element(elem)

    def is_gorenstein(self) -> bool:
        """Whether Serre's equality len(Ō/C) = 2 len(O/C) holds; the one
        place it is written.  The bound len(Ō/C) >= 2 len(O/C) is the
        invariant table's `conductor-bound`, and `gorenstein-threshold`
        there checks this verdict against principality of the
        dualizing module."""
        return self.colength_normalization == 2 * self.colength_ring

    def is_seminormal(self) -> bool:
        return all(n <= 1 for n in self.cond)

    def seminormalization(self) -> "CurveRing":
        """The smallest intermediate ring containing every branchwise
        t: just rebuild with those monomials adjoined."""
        extra = [Element.monomial(self.field, self.nbranches, i, 1)
                 for i in range(self.nbranches)]
        label = f"seminormalization({self.label})" if self.label else None
        out = build(CurveSpec(self.field, tuple(self.gens) + tuple(extra),
                              window_bound=max(self.spec.window_bound,
                                               self.window),
                              label=label))
        if not out.is_seminormal():
            raise InvariantViolation("seminormalization is not seminormal")
        return out

    def base_change(self, e: int):
        """The same generators over the degree-e extension field.

        Returns (new ring, coefficient mapper).  Only prime fields can
        be extended here; the extension elements themselves stay an
        implementation detail of the new ring.
        """
        if not isinstance(self.field, FiniteField) or self.field.e != 1:
            raise NotPrimeField("base change starts from a prime field")
        if e == 1:
            return self, lambda elem: elem
        big = self.field.extension(e)

        def mapper(elem):
            return elem.map_coefficients(big.coerce, big)

        label = f"{self.label}@ext{e}" if self.label else None
        spec = CurveSpec(big, tuple(mapper(g) for g in self.gens),
                         semigroup=self.spec.semigroup,
                         window_bound=self.spec.window_bound, label=label)
        out = build(spec)
        if out.cond != self.cond or out.colength_ring != self.colength_ring:
            raise InvariantViolation("base change moved the conductor data")
        return out, mapper


# -- numerical semigroups ------------------------------------------------------

class SemigroupData(Record):
    """A numerical semigroup's data; `delta` is the number of gaps."""

    __slots__ = _fields = ("generators", "conductor", "delta", "symmetric",
                           "gaps")


# Largest semigroup conductor the oracle sieves for.  `report 2,4097`,
# at the cap, takes about 9 s on a 2-vCPU VM; past it the oracle raises
# TooLarge before any sieve or ring of that size is built.
MAX_SEMIGROUP_CONDUCTOR = 4096

# Largest window bound `build` accepts: the widest window the semigroup
# path presizes, 2 c + 2 at the conductor cap, so `seminormalization`,
# which rebuilds within the larger of the ring's window and its bound,
# stays in range.  On an input of infinite colength the window doubles
# up to the bound before NotFiniteColength: `report --inline 'field Q;
# branches 2; gen (t, 0)'` gives up after 0.8 s at 4,096 and 2.7-3.6 s
# at 8,194, but ran 14-17 s at 20,000 (2-vCPU VM, Python 3.11).
MAX_WINDOW_BOUND = 2 * MAX_SEMIGROUP_CONDUCTOR + 2


def semigroup_oracle(generators) -> SemigroupData:
    """Conductor, gap count and symmetry of a numerical semigroup.

    Sieve reachability with a growing bound; once a run of min(gens)
    consecutive members appears, every larger integer is a member, so
    the sieve is complete.  The first such run starts at the conductor
    c, so a sieve over [0, MAX_SEMIGROUP_CONDUCTOR + min(gens)) finds it
    iff c <= MAX_SEMIGROUP_CONDUCTOR; otherwise TooLarge is raised.
    """
    gens = sorted({int(a) for a in generators})
    if not gens or gens[0] <= 0:
        raise NotCoprime("semigroup generators must be positive")
    g = 0
    for a in gens:
        g = math.gcd(g, a)
    if g != 1:
        raise NotCoprime(f"generators share the common factor {g}")
    step = gens[0]
    too_large = TooLarge(f"semigroup conductor exceeds the bound "
                         f"{MAX_SEMIGROUP_CONDUCTOR}")
    if step > MAX_SEMIGROUP_CONDUCTOR:
        # the gaps 1..step-1 put the conductor at step or above
        raise too_large
    limit = MAX_SEMIGROUP_CONDUCTOR + step
    bound = min(2 * max(gens) + 2, limit)
    while True:
        hit = [False] * bound
        hit[0] = True
        for i in range(1, bound):
            for a in gens:
                if a <= i and hit[i - a]:
                    hit[i] = True
                    break
        run = 0
        for i in range(bound):
            run = run + 1 if hit[i] else 0
            if run >= step:
                gaps = tuple(j for j in range(i + 1) if not hit[j])
                c = gaps[-1] + 1 if gaps else 0
                return SemigroupData(tuple(gens), c, len(gaps),
                                     c == 2 * len(gaps), gaps)
        if bound == limit:
            raise too_large
        bound = min(2 * bound, limit)


# -- text format ---------------------------------------------------------------

def parse_curve_file(text: str, label: str = None) -> CurveSpec:
    """Sections, one per line: `field`, `branches`, `gen` (repeatable),
    `semigroup`.  `#` starts a comment.  Errors carry line numbers."""
    field = None
    nbranches = None
    gens = []
    semigroup = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if key != "gen" and key in seen:
                raise ParseError(f"repeated {key} section")
            seen.add(key)
            if key == "field":
                field = parse_field(rest)
            elif key == "branches":
                nbranches = int(rest)
                if nbranches < 1:
                    raise ParseError("at least one branch")
                if any(g.nbranches != nbranches for g in gens):
                    raise ParseError(f"branches {nbranches} disagrees with "
                                     f"an earlier gen")
                if semigroup is not None and nbranches != 1:
                    raise ParseError(f"a semigroup ring has one branch, "
                                     f"not {nbranches}")
            elif key == "gen":
                if field is None:
                    raise ParseError("gen before field")
                gens.append(parse_element(field, rest, nbranches=nbranches))
            elif key == "semigroup":
                semigroup = tuple(int(tok) for tok in rest.split())
                if nbranches not in (None, 1):
                    raise ParseError(f"a semigroup ring has one branch, "
                                     f"not {nbranches}")
            else:
                raise ParseError(f"unknown section {key!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if field is None:
        raise ParseError("missing field section")
    if semigroup is not None and gens:
        raise ParseError("give either gen lines or a semigroup line")
    return CurveSpec(field, tuple(gens), semigroup=semigroup, label=label)


def format_curve_file(spec: CurveSpec) -> str:
    lines = [f"field {format_field(spec.field)}"]
    if spec.semigroup is not None:
        lines.append("branches 1")
        lines.append("semigroup " + " ".join(str(a) for a in spec.semigroup))
    else:
        if spec.generators:
            lines.append(f"branches {spec.generators[0].nbranches}")
        for g in spec.generators:
            lines.append(f"gen {format_element(g)}")
    return "\n".join(lines) + "\n"

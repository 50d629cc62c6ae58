"""Dualizing modules and the one-dimensional duality toolkit.

The dualizing module of a branch ring O with conductor exponents n_i
lives between the regular forms and the forms with poles of order at
most n_i.  It is cut out of the bigger slab by residue conditions: a
form qualifies iff, for every f in a basis of O modulo its conductor,
the residues of f times the form sum to zero over the branches.  Only
the pole part of a form enters these conditions, so the module is a
finite kernel plus the full regular form slab, and the condition
matrix always has full row rank.

Its defining identities are stated once, in the ordered table
`invariant_checks`, which construction, the reporters and `harness`
(the properties of the `check` command) all read.  Each verdict is
kept on the `CanonicalModule` it was computed for, so a property runs
at most once per module however many readers ask.

The same pairing gives every dual, ω = O^⊥ among them.  For a module
M closed under O,

  ω:M = {x : Σ_i res(x_i m_i) = 0 for all m in M},

the residue-orthogonal of M (Serre, Algebraic Groups and Class Fields,
ch. IV): x·M lies in ω iff Σ res(f·x·m) vanishes for all f in O and
m in M, and f·m runs over M again.  `_residue_conditions` writes
these conditions, one per window row of M; `dual` solves them with no
generators of M and no normal forms against ω, and `canonical_module`
solves them for M = O.  The general
`FracIdeal.colon` stays for every other dividend, and each check that
compares duals runs one side through each route: biduality and length
duality in the harness, conductor duality, the torsion-free hull and
the uniqueness test.
`ω:ω = O` stays on the colon alone, where the residue route would
make it a tautology.

Everything else in this file is colon arithmetic against that module:
duals and biduals, hulls that discard torsion directions, restriction
along a finite overring, colength comparisons, section search, and the
socle test that recognizes dualizing candidates.
"""

from __future__ import annotations

import functools
import random

from .artin import curve_quotient, present_quotient, socle
from .errors import (DifferentialDegreeError, FieldTooSmall,
                     InvariantViolation, NotARing, NotDualizing, ZeroOnBranch)
from .fields import FiniteField
from .fracideal import (FracIdeal, TorsionQuotient, ZeroModule,
                        conductor_module, from_generators,
                        normalization_module, random_ideal,
                        random_ring_element, regular_multiple, unit_ideal)
from .laurent import INF, Element, linear_combination, window_key
from .linalg import kernel
from .record import Record


# -- construction --------------------------------------------------------------

class CanonicalModule(Record):
    """The dualizing module together with its construction data.

    `conditions` holds the rows of the residue matrix, one per basis
    vector of the ring modulo its conductor, keyed by `pole_monomials`,
    the (branch, exponent) labels of the admissible pole terms in
    window-key order.  The matrix rank equals the colength of the
    conductor in the ring, as `delta-over-regular` certifies.
    `verdicts` keeps each invariant-table verdict computed for this
    module, by property name; it is not a field, so the repr leaves it
    out.  Two instances are equal only when they are the same object.
    """

    _fields = ("module", "conditions", "pole_monomials", "rank")
    __slots__ = _fields + ("verdicts",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, module, conditions, pole_monomials, rank,
                 verdicts=None):
        super().__init__(module, conditions, pole_monomials, rank)
        object.__setattr__(self, "verdicts",
                           {} if verdicts is None else verdicts)


def canonical_module(ring, drop_conditions: int = 0) -> CanonicalModule:
    """Forms with conductor-bounded poles killed by every residue
    condition of the ring, O^⊥ by `_residue_conditions` on the unit
    ideal; cached on the ring object.

    Verified by two table properties, `delta-over-regular` and
    `omega-endomorphisms`.  The first is the one rank test: the kernel
    rows lie in the window [-n_i, 0) and the tail is 0, so
    len(ω/O·dt) = Σn_i - rank, delta exactly when the rank is the ring
    colength.  ω ⊇ O·dt and slab(-n) ⊇ ω need no test of their own:
    the module is built between those two slabs, and its tail only
    drops when `FracIdeal` sheds full slab columns.

    `drop_conditions` discards that many trailing conditions and skips
    both verification and the cache.  It is the fault `harness` injects
    (`INJECTIONS`) and must stay 0 in real use.
    """
    if drop_conditions == 0:
        cached = getattr(ring, "_canonical_module", None)
        if cached is not None:
            return cached
    if drop_conditions < 0:
        raise ValueError("drop_conditions must be nonnegative")
    rows, cols = _residue_conditions(unit_ideal(ring))
    if drop_conditions:
        rows = rows[:max(len(rows) - drop_conditions, 0)]
    sols = kernel(ring.field, rows, cols)
    module = FracIdeal(ring, 1, tuple(-n for n in ring.cond),
                       (0,) * ring.nbranches, sols)
    out = CanonicalModule(module, tuple(rows), tuple(reversed(cols)),
                          len(cols) - len(sols))
    if drop_conditions == 0:
        _require(ring, out, "delta-over-regular", "omega-endomorphisms")
        ring._canonical_module = out
    return out


# -- the invariant table -------------------------------------------------------

def invariant_checks(ring, data: CanonicalModule = None):
    """The deterministic duality properties of the ring, in order, as
    (name, predicate) pairs.  `data` defaults to the cached, verified
    dualizing module; the harness passes a possibly corrupted one.  A
    failing invariant makes its predicate return False, not raise; only
    a computation that a corrupted module breaks outright raises.  Each
    predicate runs at most once per `data` object: its verdict is kept
    in `data.verdicts`."""
    if data is None:
        data = canonical_module(ring)
    omega = data.module
    a = ring.colength_normalization
    b = ring.colength_ring

    def double_colon():
        # the dual of the branch tuple by residues, then back by the colon
        nbar = normalization_module(ring)
        return dual(nbar).colon(omega) == unit_ideal(ring).colon(nbar)

    def kept(name, predicate):
        def verdict():
            if name not in data.verdicts:
                data.verdicts[name] = bool(predicate())
            return data.verdicts[name]
        return name, verdict

    return tuple(kept(name, predicate) for name, predicate in (
        ("pole-profile", lambda: tuple(-p for p in omega.pole) == ring.cond),
        ("delta-over-regular",
         lambda: omega.len_quotient(normalization_module(ring, degree=1))
         == ring.delta),
        ("conductor-bound", lambda: a >= 2 * b),
        ("gorenstein-threshold",
         lambda: (a == 2 * b) == (omega.is_principal() is not None)),
        ("conductor-duality", double_colon),
        ("omega-endomorphisms",
         lambda: omega.colon(omega) == unit_ideal(ring)),
        ("seminormal-poles",
         lambda: all(-p <= 1 for p in omega.pole) == ring.is_seminormal()),
    ))


class _FailedInvariant(InvariantViolation):
    """A property of the invariant table failed; `property` names it."""

    def __init__(self, name):
        super().__init__(f"duality invariant {name} fails")
        self.property = name

    def reraise(self):
        raise self


def _require(ring, data, *names):
    """Raise `_FailedInvariant` for the first of the given table
    properties that fails."""
    checks = dict(invariant_checks(ring, data))
    for name in names:
        if not checks[name]():
            raise _FailedInvariant(name)


# -- the property harness ------------------------------------------------------

# The faults `harness` injects, by the residue conditions each drops.
INJECTIONS = {"drop-residue-condition": 1}


def harness(rings, cases, seed, inject=None):
    """Every property `check` runs, in order, as (name, predicate, ring,
    case seed) tuples.  First every ring's dualizing module is built; a
    table property failing there is one entry whose predicate raises,
    and the last.  Then each ring's `invariant_checks`, then `cases`
    seeded cases round robin over the rings.  The stream is lazy, and a
    case draws its ideal and multiplier outside the predicates, so an
    error there propagates."""
    drop = INJECTIONS[inject] if inject else 0
    datas = []
    for ring in rings:
        try:
            datas.append(canonical_module(ring, drop_conditions=drop))
        except _FailedInvariant as err:
            yield err.property, err.reraise, ring, None
            return
    for ring, data in zip(rings, datas):
        for name, predicate in invariant_checks(ring, data):
            yield name, predicate, ring, None
    for i in range(cases):
        ring, data = rings[i % len(rings)], datas[i % len(rings)]
        case_seed = (seed * 1_000_003 + i) & 0xFFFFFFFF
        for name, predicate in _seeded_checks(ring, data.module, case_seed):
            yield name, predicate, ring, case_seed


def _seeded_checks(ring, omega, case_seed):
    """Seeded cases on one random ideal I and one regular multiplier x,
    each drawn from its own stream of the case seed, so that x replays
    none of the ideal's draws.  Duals are read by residues (`dual`, once
    per case for I) and checked against the general colon by omega, or
    against a colength.

    xI is built once, by `regular_multiple`, outside the predicates.
    len(I/xI) is computed once, by the first predicate that reads it,
    and shared: herbrand compares it with the order sum of x (the
    identity `herbrand` returns both sides of), length duality with
    len(ω:xI / ω:I)."""
    ideal = random_ideal(ring, case_seed)
    dual_ideal = functools.cache(lambda: dual(ideal))
    yield "biduality", lambda: omega.colon(dual_ideal()) == ideal
    x = _regular_multiplier(ring, random.Random(f"multiplier {case_seed}"))
    sub, order_sum = regular_multiple(ideal, x)
    length = functools.cache(lambda: ideal.len_quotient(sub))
    yield "herbrand", lambda: length() == order_sum
    yield ("length-duality",
           lambda: length() == dual(sub).len_quotient(dual_ideal()))


def _regular_multiplier(ring, rng):
    """A ring element of positive, finite order on every branch: a
    random element minus its constant, so that it lies in the maximal
    ideal, or else `_socle_parameter`."""
    one = Element.one(ring.field, ring.nbranches)
    for _ in range(8):
        x = random_ring_element(ring, rng)
        x = x - one * x.coefficient(0, 0)
        if INF not in x.valuations():
            return x
    return _socle_parameter(ring)


# -- duals and hulls ------------------------------------------------------------

def dual(module: FracIdeal) -> FracIdeal:
    """ω:M, the colon of the dualizing module by M, read off M's rows as
    the residue-orthogonal {x : Σ_i res(x_i m_i) = 0 for all m in M}.

    The conditions are `_residue_conditions(M)`: below -tail_i a term
    pairs with the slab of M, and from -pole_i up every product is
    regular.  Preconditions: M is closed under the ring (every
    FracIdeal built here is), and ω is the cached, verified module O^⊥
    of `canonical_module`, which this route never reads.  Then the
    result equals
    `canonical_module(ring).module.colon(M)`; the checks named in the
    module docstring compare the two routes.
    """
    if isinstance(module, ZeroModule):
        raise ZeroOnBranch("the zero module has no dual here")
    ring = module.ring
    rows, unknowns = _residue_conditions(module)
    return FracIdeal(ring, 1 ^ module.degree,
                     tuple(-t for t in module.tail),
                     tuple(-p for p in module.pole),
                     kernel(ring.field, rows, unknowns))


def _residue_conditions(module: FracIdeal):
    """The residue conditions of M^⊥ and their unknowns: for each
    window row {(i, k): c} of M, Σ c·x_(i, -1-k) = 0, over the slots
    (i, j) with -tail_i <= j < -pole_i, highest window key first.  In
    that order `kernel` returns the fully reduced echelon rows of M^⊥,
    which `FracIdeal` takes without elimination."""
    unknowns = sorted(((i, j) for i in range(module.ring.nbranches)
                       for j in range(-module.tail[i], -module.pole[i])),
                      key=window_key, reverse=True)
    rows = [{(i, -1 - k): c for (i, k), c in row.items()}
            for row in module.ech.rows]
    return rows, unknowns


def tfs2_hull(ring, gens):
    """Hull of a generating set after discarding torsion directions.

    A generator vanishing on some branch is killed by a multiplier
    supported on the other branches, so it only spans torsion; such
    generators are dropped.  The bidual of the span of the survivors
    is returned and must equal that span (in dimension one there is no
    higher-codimension locus left to correct).  When every generator
    is torsion the zero module is returned, flagged by its type.
    """
    gens = list(gens)
    degrees = {g.degree for g in gens if g}
    if len(degrees) > 1:
        raise DifferentialDegreeError("generators mix functions and forms")
    kept = [g for g in gens if g and INF not in g.valuations()]
    if not kept:
        return ZeroModule(ring, degrees.pop() if degrees else 0)
    span = from_generators(ring, kept)
    hull = canonical_module(ring).module.colon(dual(span))
    if hull != span:
        raise InvariantViolation("bidual moved a torsion-free module")
    return hull


def shriek(module: FracIdeal, overring: FracIdeal) -> FracIdeal:
    """Sections of the module along a finite overring: the colon
    (module : overring), the largest submodule on which the overring
    acts.

    The second argument must really be a ring: contain the unit and be
    closed under its own multiplication.  When the overring is the
    full branch tuple and the module is dualizing the result is a pure
    slab, free of rank one over the branch tuple; that is asserted.
    """
    if overring.degree != 0:
        raise NotARing("an overring must consist of functions")
    one = Element.one(module.ring.field, module.ring.nbranches)
    if not overring.contains_element(one):
        raise NotARing("overring does not contain the unit")
    if overring.colon(overring) != overring:
        raise NotARing("overring is not closed under multiplication")
    out = module.colon(overring)
    if overring == normalization_module(module.ring) and out.window_dim != 0:
        raise InvariantViolation(
            "sections along the branch tuple should form a slab")
    return out


# -- colength reports ------------------------------------------------------------

class SerreReport(Record):
    __slots__ = _fields = ("colength_normalization", "twice_colength_ring",
                           "delta", "dualizing_over_regular", "gorenstein")


def serre_report(ring) -> SerreReport:
    """Colength comparison around the conductor: the colength in the
    branch tuple is at least twice the colength in the ring, with
    equality exactly when the dualizing module is principal.  Both
    statements are read from the invariant table; the dualizing
    colength over the regular forms was certified at construction."""
    _require(ring, None, "conductor-bound", "gorenstein-threshold")
    a = ring.colength_normalization
    b = 2 * ring.colength_ring
    return SerreReport(a, b, ring.delta, ring.delta, a == b)


def min_pole_profile(ring):
    """Per-branch maximal pole order inside the dualizing module;
    always the conductor exponents, and checked against them."""
    _require(ring, None, "pole-profile")
    return ring.cond


def seminormal_via_omega(ring) -> bool:
    """Seminormality read off the dualizing module: every pole simple.
    Cross-checked against the conductor-exponent criterion."""
    _require(ring, None, "pole-profile", "seminormal-poles")
    return ring.is_seminormal()


class BoundaryLengths(Record):
    __slots__ = _fields = ("over_dualizing", "colength_ring",
                           "dualizing_over_regular", "delta")


def exact_seq_lengths(ring) -> BoundaryLengths:
    """Slab distances around the dualizing module: the maximal-pole
    slab exceeds it by the ring colength and it exceeds the regular
    forms by delta.  Both read `delta-over-regular`, certified at
    construction: the slab exceeds ω by the residue matrix rank, which
    that property makes the ring colength, so the slab length is not
    computed again."""
    _require(ring, None, "delta-over-regular")
    b = ring.colength_ring
    return BoundaryLengths(b, b, ring.delta, ring.delta)


def conductor_duality(ring) -> bool:
    """Whether the conductor (ring : branch tuple) coincides with the
    double colon ((dualizing : branch tuple) : dualizing)."""
    return dict(invariant_checks(ring))["conductor-duality"]()


# -- sections --------------------------------------------------------------------

def _exact_poles(ring, sigma):
    return all(bool(sigma.coefficient(i, -n))
               for i, n in enumerate(ring.cond))


def _checked_section(ring, sigma):
    # conductor * sigma must recover the regular forms exactly
    if (conductor_module(ring).scale(sigma)
            != normalization_module(ring, degree=1)):
        raise InvariantViolation(
            "conductor multiple of the section misses the regular slab")
    return sigma


def general_section(ring, seed: int = 0, trials: int = 64) -> Element:
    """A form in the dualizing module with pole order exactly n_i on
    every branch; multiplying it by the conductor then recovers the
    regular forms, which is verified before returning.

    Over the rationals a sweep of power weights always escapes the bad
    hyperplanes (one per branch), so the search is deterministic.
    Over a finite field the weights are sampled from the seed; if no
    trial works the field may genuinely be too small, and
    FieldTooSmall tells the caller to extend it and retry.
    """
    omega = canonical_module(ring).module
    field = ring.field
    r = ring.nbranches
    rows = [e.coeffs for e in omega.rows_as_elements()]
    if all(n == 0 for n in ring.cond):
        return _checked_section(
            ring, Element.diag_monomial(field, r, 0, degree=1))
    if not isinstance(field, FiniteField):
        for k in range(1, r * max(len(rows), 1) + 2):
            weights = [field.of_int(k) ** j for j in range(len(rows))]
            sigma = linear_combination(field, r, weights, rows, degree=1)
            if _exact_poles(ring, sigma):
                return _checked_section(ring, sigma)
        raise InvariantViolation(
            "no generic section found over an infinite field")
    rng = random.Random(seed)
    for _ in range(trials):
        weights = [field.random(rng) for _ in rows]
        sigma = linear_combination(field, r, weights, rows, degree=1)
        if _exact_poles(ring, sigma):
            return _checked_section(ring, sigma)
    raise FieldTooSmall(
        f"no section with exact pole orders in {trials} trials; "
        "extend the field and retry")


def general_section_extended(ring, seed: int = 0, trials: int = 64,
                             max_degree: int = 4):
    """general_section with automatic field growth: on FieldTooSmall
    the ring is rebuilt over extension fields of degree 2 up to
    max_degree until a section appears.  Returns (ring used, section);
    when every degree fails, the last FieldTooSmall is raised, the base
    field's own when max_degree is below 2."""
    try:
        return ring, general_section(ring, seed=seed, trials=trials)
    except FieldTooSmall as exc:
        last = exc
    for e in range(2, max_degree + 1):
        bigger, _ = ring.base_change(e)
        try:
            return bigger, general_section(bigger, seed=seed, trials=trials)
        except FieldTooSmall as exc:
            last = exc
    raise last


# -- torsion duality --------------------------------------------------------------

def ext1_torsion(torsion: TorsionQuotient) -> TorsionQuotient:
    """The dual torsion pair: duals swap the inclusion and preserve the
    quotient length (asserted)."""
    out = TorsionQuotient(dual(torsion.sub), dual(torsion.total))
    if out.length != torsion.length:
        raise InvariantViolation("torsion dual changed the length")
    return out


# -- recognizing dualizing candidates ---------------------------------------------

def _socle_parameter(ring):
    """Smallest-total-order basis vector that is a regular non-unit;
    falls back to the diagonal conductor-power monomial, which always
    lies in the ring."""
    best = None
    for b in ring.basis[1:]:
        vals = b.valuations()
        if INF in vals:
            continue
        total = sum(int(v) for v in vals)
        if best is None or total < best[0]:
            best = (total, b)
    if best is not None:
        return best[1]
    return Element.diag_monomial(ring.field, ring.nbranches,
                                 max(max(ring.cond), 1))


def verify_dualizing(ring, candidate: FracIdeal,
                     parameter: Element = None) -> bool:
    """Socle test: the candidate modulo one regular parameter must have
    a one-dimensional socle over the corresponding quotient algebra.

    The verdict does not depend on the parameter; tests exercise that
    by passing a second one explicitly.
    """
    if isinstance(candidate, ZeroModule):
        raise ZeroOnBranch("the zero module cannot be dualizing")
    x = parameter if parameter is not None else _socle_parameter(ring)
    quotient = curve_quotient(ring, x)
    mod = present_quotient(candidate, regular_multiple(candidate, x)[0],
                           quotient)
    return socle(mod).dimension == 1


def uniqueness_check(ring, candidate: FracIdeal,
                     parameter: Element = None) -> bool:
    """Any two dualizing modules differ by an invertible twist: both
    colons against the reference module must be principal, ω:candidate
    read by residues and candidate:ω by the general colon."""
    if not verify_dualizing(ring, candidate, parameter):
        raise NotDualizing("socle test fails for the candidate")
    omega = canonical_module(ring).module
    left = dual(candidate).is_principal()
    right = candidate.colon(omega).is_principal()
    return left is not None and right is not None

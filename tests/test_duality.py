import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

import curvedual as cd
from curvedual import cli, duality, fracideal
from curvedual.errors import (FieldTooSmall, InvariantViolation, NotARing,
                              NotDualizing, ZeroOnBranch)
from curvedual.fracideal import (FracIdeal, ZeroModule, conductor_module,
                                 from_generators, maximal_ideal,
                                 normalization_module, random_ideal,
                                 slab_module, unit_ideal)
from curvedual.laurent import INF, Element, window_key
from curvedual.linalg import kernel


def elem(ring, text):
    return cd.parse_element(ring.field, text, nbranches=ring.nbranches)


def regular_forms(ring):
    return slab_module(ring, (0,) * ring.nbranches, degree=1)


def gap_form_module(ring, gens):
    """Independent route to the dualizing module of a monomial ring:
    the span of dt and t^(-1-g) dt over the gaps g of the semigroup."""
    data = cd.semigroup_oracle(gens)
    forms = [Element.monomial(ring.field, 1, 0, -1 - g, degree=1)
             for g in data.gaps]
    forms.append(Element.monomial(ring.field, 1, 0, 0, degree=1))
    return from_generators(ring, forms)


@pytest.mark.parametrize("gens", [(2, 3), (3, 4, 5), (3, 5, 7), (4, 6, 7),
                                  (4, 5), (5, 6, 7)])
def test_canonical_matches_gap_oracle(qq, gens):
    ring = cd.build(cd.semigroup_spec(qq, gens))
    assert cd.canonical_module(ring).module == gap_form_module(ring, gens)


def test_canonical_construction_data(r345):
    data = cd.canonical_module(r345)
    assert data.rank == r345.colength_ring == 1
    assert data.pole_monomials == ((0, -3), (0, -2), (0, -1))
    assert len(data.conditions) == len(r345.basis)
    assert data.module.pole == (-3,)
    # a pole profile of exactly the conductor, on every branch
    assert cd.min_pole_profile(r345) == (3,)


@pytest.mark.parametrize("spec", ["cusp", "node", "tacnode", "three-lines",
                                  (3, 5), (3, 4, 5)])
def test_canonical_module_missing_a_solution_fails_at_construction(
        monkeypatch, qq, spec):
    # the residue matrix rank is tested once, by delta-over-regular:
    # one kernel vector fewer reads as one rank more
    solve = duality.kernel
    monkeypatch.setattr(duality, "kernel",
                        lambda field, rows, unknowns:
                        solve(field, rows, unknowns)[:-1])
    ring = cd.build(cd.semigroup_spec(qq, spec) if isinstance(spec, tuple)
                    else cd.named_spec(qq, spec))
    with pytest.raises(InvariantViolation) as info:
        cd.canonical_module(ring)
    assert info.value.property == "delta-over-regular"


@pytest.mark.parametrize("field", [cd.rationals(), cd.prime_field(5)],
                         ids=("Q", "F5"))
def test_omega_lies_between_its_two_slabs_by_construction(field):
    # ω's window rows lie in [-n_i, 0) and its tail is at most 0, so it
    # holds the regular forms and lies in the maximal-pole slab; neither
    # containment is tested when ω is built
    rings = cd.family_rings(field, bound=8)
    rings += [cd.named_ring(field, name) for name in cd.curve_names()]
    for ring in rings:
        omega = cd.canonical_module(ring).module
        assert all(t <= 0 for t in omega.tail), ring.label
        assert all(-ring.cond[i] <= j < 0
                   for row in omega.ech.rows for i, j in row), ring.label
        poles = slab_module(ring, [-n for n in ring.cond], degree=1)
        assert omega.contains_module(regular_forms(ring))
        assert poles.contains_module(omega)


def test_canonical_negative_control(qq):
    ring = cd.build(cd.semigroup_spec(qq, (2, 3), label="control"))
    honest = cd.canonical_module(ring).module
    loose = cd.canonical_module(ring, drop_conditions=1).module
    assert loose.contains_module(honest)
    assert loose != honest
    assert loose.len_quotient(regular_forms(ring)) == ring.delta + 1
    with pytest.raises(ValueError):
        cd.canonical_module(ring, drop_conditions=-1)


def test_dual_pairing(named):
    for ring in named.values():
        omega = cd.canonical_module(ring).module
        one = unit_ideal(ring)
        assert cd.dual(one) == omega
        assert cd.dual(omega) == one
        assert omega.colon(omega) == one


def test_dual_of_zero_module(node):
    with pytest.raises(ZeroOnBranch):
        cd.dual(ZeroModule(node))


def test_biduality_on_samples(tacnode):
    # under the residue route dual(dual(m)) == m would only restate it:
    # each bidual here runs one dual by residues and one by the colon
    omega = cd.canonical_module(tacnode).module
    for seed in range(6):
        m = cd.random_ideal(tacnode, seed=seed)
        assert omega.colon(cd.dual(m)) == m
        assert cd.dual(omega.colon(m)) == m


# -- the residue route against the general colon --------------------------------

def dual_inputs(ring):
    """ω, Ō, O, m, the conductor, random ideals of seeds 0-11 and their
    duals: degree 0 and degree 1 modules, slabs and windows."""
    omega = cd.canonical_module(ring).module
    mods = [omega, normalization_module(ring), unit_ideal(ring),
            maximal_ideal(ring), conductor_module(ring)]
    ideals = [random_ideal(ring, seed) for seed in range(12)]
    return mods + ideals + [omega.colon(m) for m in ideals]


def assert_routes_agree(ring):
    omega = cd.canonical_module(ring).module
    for m in dual_inputs(ring):
        assert cd.dual(m) == omega.colon(m), (ring.label, m)


@pytest.mark.parametrize("p", [None, 5, 7], ids=("Q", "F5", "F7"))
def test_residue_dual_matches_colon_on_family(p):
    field = cd.rationals() if p is None else cd.prime_field(p)
    for ring in cd.family_rings(field, bound=8):
        assert_routes_agree(ring)


def test_no_float_arises_over_q(qq):
    """Scalars over Q stay int or Fraction: no float in the ring basis,
    ω, the duals or the colons over the family rings."""
    for ring in cd.family_rings(qq, bound=8):
        omega = cd.canonical_module(ring).module
        m = maximal_ideal(ring)
        ideal = random_ideal(ring, 1)
        mods = [omega, cd.dual(m), cd.dual(ideal), omega.colon(m),
                m.colon(m), unit_ideal(ring).colon(ideal)]
        vecs = [b.coeffs for b in ring.basis]
        vecs += [row for mod in mods for row in mod.ech.rows]
        assert {type(x) for v in vecs for x in v.values()} <= {int, Fraction}


def test_residue_dual_matches_colon_over_extension_and_large(f5):
    three_lines = cd.named_ring(f5, "three-lines")
    bigger, _ = three_lines.base_change(2)
    assert bigger.field.order == 25
    assert_routes_agree(bigger)
    assert_routes_agree(cd.build(cd.semigroup_spec(f5, (13, 17))))


def residue_dual(pick):
    """The residue route, reading the window rows that `pick` keeps."""
    def route(module):
        ring = module.ring
        unknowns = sorted(((i, j) for i in range(ring.nbranches)
                           for j in range(-module.tail[i], -module.pole[i])),
                          key=window_key)
        rows = [{(i, -1 - k): c for (i, k), c in row.items()}
                for row in pick(module.ech.rows)]
        return FracIdeal(ring, 1 ^ module.degree, [-t for t in module.tail],
                         [-p for p in module.pole],
                         kernel(ring.field, rows, unknowns))
    return route


def first_failure(argv):
    """The JSON report of a `check` run that must exit 1 quietly."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    doc = json.loads(out.getvalue())
    assert code == 1 and not err.getvalue()
    return doc


def test_harness_catches_a_dual_missing_a_condition(monkeypatch):
    # the last condition row left out
    monkeypatch.setattr(duality, "dual", residue_dual(lambda rows: rows[:-1]))
    doc = first_failure(["check", "tacnode", "--cases", "8"])
    # the dual of the branch tuple has no window row to drop, so
    # conductor duality still holds and the first random case fails
    assert doc["properties"]["conductor-duality"]["failures"] == 0
    assert doc["counterexample"]["property"] == "biduality"


@pytest.mark.parametrize("drop", ["first", "last"])
@pytest.mark.parametrize("curve", ["cusp", "node", "tacnode", "3,5"])
def test_harness_catches_a_colon_missing_a_constraint_row(monkeypatch,
                                                          curve, drop):
    # `FracIdeal.colon` solved without one of its constraint rows: the
    # solutions grow, so omega:omega exceeds O, and the dualizing module
    # fails its own verification before any other property runs
    solve = fracideal.kernel

    def dropped(field, rows, unknowns):
        rows = list(rows)
        return solve(field, rows[1:] if drop == "first" else rows[:-1],
                     unknowns)

    monkeypatch.setattr(fracideal, "kernel", dropped)
    doc = first_failure(["check", curve, "--cases", "8"])
    assert doc["counterexample"]["property"] == "omega-endomorphisms"
    assert doc["properties"] == {
        "omega-endomorphisms": {"runs": 1, "failures": 1}}


def drop_slab_term(monkeypatch):
    """Patch len(M/N) to count the window alone, without the slab
    between the two tails."""
    length = FracIdeal.len_quotient

    def window_only(self, sub):
        return length(self, sub) - sum(ts - tm for ts, tm
                                       in zip(sub.tail, self.tail))

    monkeypatch.setattr(FracIdeal, "len_quotient", window_only)


def test_harness_catches_a_length_without_its_slab_term(monkeypatch):
    # omega and the regular forms share their tail, so the table still
    # holds, and herbrand's len(I/xI) is the first to see the fault
    drop_slab_term(monkeypatch)
    doc = first_failure(["check", "cusp", "--cases", "8"])
    assert doc["counterexample"]["property"] == "herbrand"
    assert doc["properties"]["biduality"]["failures"] == 0


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("curve", ["cusp", "node", "3,5", "tacnode",
                                   "3,4,5"])
def test_first_seeded_case_has_a_multiplier_of_positive_order(
        monkeypatch, curve, field):
    # x in the maximal ideal moves I, so len(I/xI) > 0 and a length
    # without its slab term fails herbrand on the very first case
    drop_slab_term(monkeypatch)
    doc = first_failure(["check", curve, "--field", field, "--cases", "1"])
    assert doc["counterexample"]["property"] == "herbrand"
    assert doc["counterexample"]["case_seed"] == 0


def positive_finite_orders(x):
    return all(v != INF and v > 0 for v in x.valuations())


@pytest.mark.parametrize("field", [cd.rationals(), cd.prime_field(5)],
                         ids=["Q", "F5"])
def test_regular_multiplier_has_positive_finite_order(monkeypatch, field):
    rings = cd.family_rings(field, bound=6)
    rings += [cd.named_ring(field, name) for name in cd.curve_names()]
    for ring in rings:
        for seed in range(12):
            x = duality._regular_multiplier(ring, random.Random(seed))
            assert positive_finite_orders(x)
    # every random draw a constant: the socle parameter is the fallback
    monkeypatch.setattr(duality, "random_ring_element",
                        lambda ring, rng: Element.one(ring.field,
                                                      ring.nbranches))
    for ring in rings:
        x = duality._regular_multiplier(ring, random.Random(0))
        assert x == duality._socle_parameter(ring)
        assert positive_finite_orders(x)


def test_multiplier_does_not_replay_the_ideal_draw(monkeypatch, qq):
    # x and I come from two streams of the case seed: x is never the
    # multiplier the ideal's own stream would give, and the same case
    # seed gives the same x
    drawn = []
    multiple = duality.regular_multiple

    def record(ideal, x):
        drawn.append(x)
        return multiple(ideal, x)

    monkeypatch.setattr(duality, "regular_multiple", record)
    rings = [cd.named_ring(qq, "tacnode"), cd.named_ring(qq, "node"),
             cd.build(cd.semigroup_spec(qq, (3, 5)))]
    for ring in rings:
        omega = cd.canonical_module(ring).module
        for case_seed in range(50):
            for _ in range(2):
                list(duality._seeded_checks(ring, omega, case_seed))
            first, again = drawn[-2:]
            assert first == again
            replay = duality._regular_multiplier(ring,
                                                 random.Random(case_seed))
            assert first != replay, (ring, case_seed)


def test_harness_catches_a_dual_exact_only_on_monomial_rows(monkeypatch):
    # a row paired by its highest term alone: exact on monomial rows,
    # so the table holds on a monomial curve, and so does biduality on
    # the first case's ideal; its multiple xI with a two-term multiplier
    # x breaks length duality
    def top_terms(rows):
        return [dict([max(row.items(), key=lambda kc: window_key(kc[0]))])
                for row in rows]

    monkeypatch.setattr(duality, "dual", residue_dual(top_terms))
    doc = first_failure(["check", "3,5", "--cases", "8"])
    assert doc["counterexample"]["property"] == "length-duality"
    assert doc["properties"]["herbrand"]["failures"] == 0


def lowest_terms(residue_conditions):
    """`_residue_conditions` with each row paired by its lowest term
    alone: exact on monomial rows, so on ω of a monomial curve."""
    def route(module):
        rows, unknowns = residue_conditions(module)
        return ([dict([min(row.items(), key=lambda kc: window_key(kc[0]))])
                 for row in rows], unknowns)
    return route


@pytest.mark.parametrize("curve, gens, first, case_seed, biduality_seed", [
    ("cusp", (2, 3), "biduality", 1, 1),
    ("3,5", (3, 5), "length-duality", 0, 8),
    ("3,4,5", (3, 4, 5), "biduality", 0, 0),
    ("5,7", (5, 7), "length-duality", 0, 2)])
def test_check_catches_a_dual_paired_by_lowest_terms(
        monkeypatch, qq, curve, gens, first, case_seed, biduality_seed):
    # on principal ideals t^s R, whose rows are monomials, this fault is
    # exact; the random ideals are not principal, so biduality alone
    # sees it within the 25 cases, and the multiplier's two-term
    # multiples may see it first
    monkeypatch.setattr(duality, "_residue_conditions",
                        lowest_terms(duality._residue_conditions))
    doc = first_failure(["check", curve, "--cases", "25"])
    assert doc["counterexample"]["property"] == first
    assert doc["counterexample"]["case_seed"] == case_seed
    ring = cd.build(cd.semigroup_spec(qq, gens))
    omega = cd.canonical_module(ring).module
    failing = [seed for seed in range(25)
               for name, holds in duality._seeded_checks(ring, omega, seed)
               if name == "biduality" and not holds()]
    assert failing and failing[0] == biduality_seed


def test_check_builds_each_multiple_once(scale_calls):
    # one xI per seeded case: herbrand and length duality share it, and
    # a random ideal is built from its twisted generators, not scaled
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "3,5", "--cases", "20"]) == 0
    assert len(scale_calls) >= 20
    assert set(scale_calls.values()) == {1}


def test_harness_lists_the_table_then_the_seeded_cases(qq):
    rings = [cd.named_ring(qq, "cusp"), cd.named_ring(qq, "node")]
    stream = [(name, ring.label, case_seed) for name, _, ring, case_seed
              in duality.harness(rings, 3, seed=7)]
    seeded = ("biduality", "herbrand", "length-duality")
    assert stream == (
        [(name, ring.label, None) for ring in rings for name in PROPERTIES]
        + [(name, rings[i % 2].label, (7 * 1_000_003 + i) & 0xFFFFFFFF)
           for i in range(3) for name in seeded])


# (name, colength_normalization, 2*colength_ring, delta, omega/regular, gorenstein)
SERRE_CASES = [
    ("cusp", 2, 2, 1, 1, True),
    ("node", 2, 2, 1, 1, True),
    ("tacnode", 4, 4, 2, 2, True),
    ("three-lines", 6, 6, 3, 3, True),
    ("axes", 3, 2, 2, 2, False),
]


@pytest.mark.parametrize("name,a,b,delta,extra,gor", SERRE_CASES)
def test_serre_report_frozen(named, name, a, b, delta, extra, gor):
    rep = cd.serre_report(named[name])
    assert rep == cd.duality.SerreReport(a, b, delta, extra, gor)


def test_serre_report_monomial(r345):
    rep = cd.serre_report(r345)
    assert (rep.colength_normalization, rep.twice_colength_ring) == (3, 2)
    assert not rep.gorenstein
    # non-Gorenstein means the dualizing module is not principal
    assert cd.canonical_module(r345).module.is_principal() is None


def test_tfs2_hull(node):
    tt = elem(node, "(t, t)")
    torsion = elem(node, "(t, 0)")
    hull = cd.tfs2_hull(node, [tt, torsion])
    assert hull == from_generators(node, [tt])
    assert cd.tfs2_hull(node, [torsion, elem(node, "(0, t^2)")]) == ZeroModule(node)
    assert cd.tfs2_hull(node, []) == ZeroModule(node)
    with pytest.raises(cd.errors.DifferentialDegreeError):
        cd.tfs2_hull(node, [tt, elem(node, "(t, t) dt")])


def test_shriek(named):
    for ring in named.values():
        omega = cd.canonical_module(ring).module
        nbar = normalization_module(ring)
        assert cd.shriek(unit_ideal(ring), nbar) == conductor_module(ring)
        assert cd.shriek(omega, nbar) == regular_forms(ring)
        assert cd.shriek(nbar, nbar) == nbar


def test_shriek_rejects_non_rings(node):
    omega = cd.canonical_module(node).module
    with pytest.raises(NotARing):
        cd.shriek(omega, maximal_ideal(node))
    with pytest.raises(NotARing):
        cd.shriek(omega, omega)


def test_pole_profiles_and_seminormality(named):
    for ring in named.values():
        assert cd.min_pole_profile(ring) == ring.cond
        assert cd.seminormal_via_omega(ring) == ring.is_seminormal()
    assert cd.seminormal_via_omega(named["node"])
    assert cd.seminormal_via_omega(named["axes"])
    assert not cd.seminormal_via_omega(named["tacnode"])


def test_exact_seq_lengths(named, r345):
    rep = cd.exact_seq_lengths(named["tacnode"])
    assert (rep.over_dualizing, rep.colength_ring) == (2, 2)
    assert (rep.dualizing_over_regular, rep.delta) == (2, 2)
    rep = cd.exact_seq_lengths(r345)
    assert (rep.over_dualizing, rep.dualizing_over_regular) == (1, 2)
    for ring in named.values():
        rep = cd.exact_seq_lengths(ring)
        assert rep.over_dualizing == ring.colength_ring
        assert rep.dualizing_over_regular == ring.delta


def test_conductor_duality(named, r345):
    for ring in list(named.values()) + [r345]:
        assert cd.conductor_duality(ring)


def test_general_section_rational(named, r345):
    for ring in list(named.values()) + [r345]:
        sigma = cd.general_section(ring)
        assert sigma.degree == 1
        for i, n in enumerate(ring.cond):
            assert sigma.coefficient(i, -n)
        # twisting by the conductor recovers the regular forms exactly
        assert conductor_module(ring).scale(sigma) == regular_forms(ring)


def test_general_section_deterministic(node):
    assert cd.general_section(node) == cd.general_section(node)


def test_general_section_small_field(f2):
    node2 = cd.named_ring(f2, "node")
    sigma = cd.general_section(node2, seed=3)
    assert sigma.coefficient(0, -1) and sigma.coefficient(1, -1)

    # three branches need three nonzero residues summing to zero,
    # which no assignment over two elements can do
    axes2 = cd.named_ring(f2, "axes")
    with pytest.raises(FieldTooSmall):
        cd.general_section(axes2, seed=3, trials=128)
    used, sigma = cd.general_section_extended(axes2, seed=3)
    assert used.field.order == 4
    for i, n in enumerate(used.cond):
        assert sigma.coefficient(i, -n)


@pytest.mark.parametrize("max_degree", [0, 1])
def test_general_section_extended_without_extensions(f2, max_degree):
    # no extension degree to try: the base field's FieldTooSmall comes back
    axes2 = cd.named_ring(f2, "axes")
    with pytest.raises(FieldTooSmall, match="extend the field"):
        cd.general_section_extended(axes2, seed=3, max_degree=max_degree)


def test_ext1_torsion(node):
    one = unit_ideal(node)
    m = maximal_ideal(node)
    q = cd.TorsionQuotient(one, m)
    flipped = cd.ext1_torsion(q)
    assert flipped.length == q.length == 1
    assert flipped.total == cd.dual(m)
    assert flipped.sub == cd.dual(one)

    big = cd.TorsionQuotient(normalization_module(node), conductor_module(node))
    assert cd.ext1_torsion(big).length == node.colength_normalization


def test_verify_dualizing(named, r345):
    for ring in list(named.values()) + [r345]:
        omega = cd.canonical_module(ring).module
        assert cd.verify_dualizing(ring, omega)
        # the verdict must not depend on the chosen parameter
        second = Element.diag_monomial(
            ring.field, ring.nbranches, max(max(ring.cond), 1) + 1)
        assert cd.verify_dualizing(ring, omega, parameter=second)


def test_verify_dualizing_rejects(cusp, r345):
    # the branch tuple itself is too big over a singular ring
    assert not cd.verify_dualizing(cusp, normalization_module(cusp))
    # the ring itself fails whenever it is not Gorenstein
    assert not cd.verify_dualizing(r345, unit_ideal(r345))
    with pytest.raises(ZeroOnBranch):
        cd.verify_dualizing(cusp, ZeroModule(cusp))


def test_uniqueness_check(node, r345):
    for ring in (node, r345):
        omega = cd.canonical_module(ring).module
        assert cd.uniqueness_check(ring, omega)
        twist = Element.diag_monomial(ring.field, ring.nbranches,
                                      max(ring.cond))
        assert cd.uniqueness_check(ring, omega.scale(twist))
    with pytest.raises(NotDualizing):
        cd.uniqueness_check(r345, unit_ideal(r345))


# -- the invariant table, read by the library and the harness alike -----------

PROPERTIES = ("pole-profile", "delta-over-regular", "conductor-bound",
              "gorenstein-threshold", "conductor-duality",
              "omega-endomorphisms", "seminormal-poles")
# verified when the dualizing module is built, so every reporter fails
AT_CONSTRUCTION = ("delta-over-regular", "omega-endomorphisms")
REPORTERS = (cd.serre_report, cd.min_pole_profile, cd.seminormal_via_omega,
             cd.exact_seq_lengths)
READERS = {
    "pole-profile": (cd.min_pole_profile, cd.seminormal_via_omega),
    "conductor-bound": (cd.serre_report,),
    "gorenstein-threshold": (cd.serre_report,),
    "conductor-duality": (),
    "seminormal-poles": (cd.seminormal_via_omega,),
}


@pytest.mark.parametrize("field", [cd.rationals(), cd.prime_field(5)],
                         ids=("Q", "F5"))
def test_invariant_table_holds_on_family(field):
    for ring in cd.family_rings(field):
        table = duality.invariant_checks(ring)
        assert tuple(name for name, _ in table) == PROPERTIES
        for name, holds in table:
            assert holds() is True, (ring.label, name)


def test_invariant_table_catches_dropped_condition(qq):
    for name in cd.curve_names():
        ring = cd.named_ring(qq, name)
        data = cd.canonical_module(ring, drop_conditions=1)
        # stop at the first failure, as the harness does: a module that
        # is no longer closed under the ring may break a later predicate
        first = next((prop for prop, holds
                      in duality.invariant_checks(ring, data)
                      if not holds()), None)
        assert first == (None if name == "smooth"
                         else "delta-over-regular"), name


def _break(monkeypatch, broken):
    table = duality.invariant_checks

    def patched(ring, data=None):
        return tuple((name, (lambda: False) if name == broken else holds)
                     for name, holds in table(ring, data))

    monkeypatch.setattr(duality, "invariant_checks", patched)


@pytest.mark.parametrize("broken", PROPERTIES)
def test_reporters_and_harness_read_the_table(monkeypatch, qq, broken):
    _break(monkeypatch, broken)
    ring = cd.named_ring(qq, "cusp")
    if broken in AT_CONSTRUCTION:
        readers = (cd.canonical_module, cd.conductor_duality) + REPORTERS
    else:
        readers = READERS[broken]
        assert cd.conductor_duality(ring) is (broken != "conductor-duality")
        for reporter in set(REPORTERS) - set(readers):
            reporter(ring)
    for reporter in readers:
        with pytest.raises(InvariantViolation, match=broken):
            reporter(ring)

    doc = first_failure(["check", "cusp", "--cases", "0"])
    assert doc["counterexample"]["property"] == broken
    if broken in AT_CONSTRUCTION:
        # the harness's own build fails verification: a counterexample
        # that carries the verification message
        assert doc["counterexample"]["error"] == (
            f"duality invariant {broken} fails")
    else:
        assert doc["counterexample"]["error"] is None


@pytest.mark.parametrize("argv", [["check", "cusp", "--cases", "0"],
                                  ["check", "smooth", "--cases", "0",
                                   "--inject", "drop-residue-condition"]],
                         ids=("verified", "injected"))
def test_each_table_property_runs_once_per_module(monkeypatch, argv):
    # omega-endomorphisms is the one colon of a module by itself; the
    # verified module runs it at construction and the harness reads the
    # kept verdict, the unverified one runs it from the table alone
    calls = []
    colon = FracIdeal.colon

    def counting(self, other):
        calls.append(self is other)
        return colon(self, other)

    monkeypatch.setattr(FracIdeal, "colon", counting)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    doc = json.loads(out.getvalue())
    assert code == 0
    assert doc["properties"]["omega-endomorphisms"] == {"runs": 1,
                                                         "failures": 0}
    assert sum(calls) == 1


def test_library_readers_reuse_kept_verdicts(qq, monkeypatch):
    ring = cd.build(cd.semigroup_spec(qq, (3, 5)))
    data = cd.canonical_module(ring)
    assert set(data.verdicts) == {"delta-over-regular", "omega-endomorphisms"}
    cd.serre_report(ring)
    assert cd.conductor_duality(ring)
    kept = dict(data.verdicts)
    assert kept["conductor-duality"] is True

    def refuse(*args):
        raise AssertionError("a kept verdict was computed again")

    monkeypatch.setattr(FracIdeal, "colon", refuse)
    monkeypatch.setattr(FracIdeal, "len_quotient", refuse)
    assert cd.conductor_duality(ring)
    for name, holds in duality.invariant_checks(ring):
        if name in kept:
            assert holds() is True

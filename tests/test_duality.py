import contextlib
import io
import json

import pytest

import curvedual as cd
from curvedual import cli, duality
from curvedual.errors import (FieldTooSmall, InvariantViolation, NotARing,
                              NotDualizing, ZeroOnBranch)
from curvedual.fracideal import (ZeroModule, conductor_module, from_generators,
                                 maximal_ideal, normalization_module,
                                 slab_module, unit_ideal)
from curvedual.laurent import Element


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
    for seed in range(6):
        m = cd.random_ideal(tacnode, seed=seed)
        assert cd.dual(cd.dual(m)) == m


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

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", "cusp", "--cases", "0", "--format", "json"])
    doc = json.loads(out.getvalue())
    assert code == 1 and not err.getvalue()
    assert doc["counterexample"]["property"] == broken
    if broken in AT_CONSTRUCTION:
        # the harness's own build fails verification: a counterexample
        # that carries the verification message
        assert doc["counterexample"]["error"] == (
            f"duality invariant {broken} fails")
    else:
        assert doc["counterexample"]["error"] is None

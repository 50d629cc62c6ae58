"""Acceptance gate: eleven headline checks, one test each.

Every check is exact (no tolerances); the ones with wall-clock budgets
assert them.  Each test ends with a single printed summary line, so
``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
"""

import time
from functools import lru_cache

import pytest

import curvedual as cd
from curvedual.duality import SerreReport, _socle_parameter
from curvedual.errors import FieldTooSmall
from curvedual.fracideal import (TorsionQuotient, conductor_module,
                                 from_generators, random_ideal, slab_module,
                                 unit_ideal)
from curvedual.laurent import INF, Element
from curvedual.toric2 import (MODELS, AffineSemigroup2, MonomialModule2,
                              canonical_module_toric, monomial_iso, s2_hull,
                              saturation)

QQ = cd.rationals()


@lru_cache(maxsize=1)
def family():
    return tuple(cd.family_rings(QQ))


@lru_cache(maxsize=1)
def family_quotients():
    return tuple((ring, cd.curve_quotient(ring, _socle_parameter(ring)))
                 for ring in family())


@lru_cache(maxsize=1)
def random_rings():
    rings = [cd.random_ring(QQ, seed) for seed in range(10)]
    f5 = cd.prime_field(5)
    rings.extend(cd.random_ring(f5, 100 + seed) for seed in range(10))
    return tuple(rings)


def test_criterion_01_colength_bound_and_principality():
    # Over two- and three-generator semigroup rings (generators <= 12)
    # plus the named curves: the branch-tuple colength of the conductor
    # is at least twice the ring colength, with equality exactly when
    # the dualizing module is principal, exactly when the ring socle
    # modulo a regular parameter is one-dimensional.  The dualizing
    # module itself always has a one-dimensional socle, whatever the
    # ring; the dichotomy lives in the ring socle.
    start = time.perf_counter()
    quots = family_quotients()
    labels = {ring.label for ring, _ in quots}
    assert {"node", "cusp", "tacnode", "three-lines"} <= labels
    assert sum(1 for ring, _ in quots if ring.label.startswith("<")) >= 40

    equal = 0
    for ring, quotient in quots:
        rep = cd.serre_report(ring)
        assert rep.colength_normalization >= rep.twice_colength_ring
        omega = cd.canonical_module(ring).module
        principal = omega.is_principal() is not None
        ring_socle = cd.socle(cd.free_module(quotient.algebra)).dimension
        tie = rep.colength_normalization == rep.twice_colength_ring
        assert tie == rep.gorenstein == principal == (ring_socle == 1), \
            ring.label
        assert cd.verify_dualizing(ring, omega, quotient.x)
        equal += tie
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"colength sweep took {elapsed:.1f}s"
    print(f"criterion 1: PASS - {len(quots)} rings, equality on {equal}, "
          f"strict on {len(quots) - equal}, {elapsed:.2f}s")


def test_criterion_02_power_gap_rings_and_their_dualizing_modules():
    # The first power-gap ring (orders 3,4,5) is not Gorenstein and has
    # socle dimension 2; for multiplicities 3..6 the dualizing module
    # is exactly the span of t^-m..t^-2 and the regular forms, unique
    # up to a principal twist, and its quotient by t^m has the pinned
    # one-hit action t^i sigma_j = [i == j+m-1] s.
    start = time.perf_counter()
    r345 = cd.build(cd.semigroup_spec(QQ, (3, 4, 5)))
    assert cd.serre_report(r345) == SerreReport(3, 2, 2, 2, False)
    quotient = cd.curve_quotient(r345, Element.monomial(QQ, 1, 0, 3))
    assert cd.socle(cd.free_module(quotient.algebra)).dimension == 2

    for m in range(3, 7):
        ring = cd.build(cd.semigroup_spec(QQ, tuple(range(m, 2 * m))))
        omega = cd.canonical_module(ring).module
        gens = [Element.monomial(QQ, 1, 0, -j, degree=1)
                for j in range(2, m + 1)]
        gens.append(Element.monomial(QQ, 1, 0, 0, degree=1))
        assert omega == from_generators(ring, gens)
        assert cd.uniqueness_check(ring, omega.scale(
            Element.monomial(QQ, 1, 0, m)))

        # structure constants of omega/t^m omega, stated basis-free:
        # membership in t^m omega after subtracting the predicted hit
        x = Element.monomial(QQ, 1, 0, m)
        xomega = omega.scale(x)
        socle_form = Element.monomial(QQ, 1, 0, m - 1, degree=1)
        for i in range(m, 2 * m):
            ti = Element.monomial(QQ, 1, 0, i)
            for j in range(2, m + 1):
                sigma = Element.monomial(QQ, 1, 0, -j, degree=1)
                diff = ti * sigma
                if i == j + m - 1:
                    diff = diff - socle_form
                assert xomega.contains_element(diff), (m, i, j)
            assert xomega.contains_element(ti * socle_form)
        # the lab re-derives the same constants on its adapted basis
        cd.ext_lab_instance(m, 5)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"power-gap sweep took {elapsed:.1f}s"
    print(f"criterion 2: PASS - socle dim 2 at (3,4,5); dualizing modules "
          f"and action constants pinned for m=3..6, {elapsed:.2f}s")


def test_criterion_03_extension_dimensions_both_routes():
    # dim Ext^1(omega/x omega, k) by minimal resolution and by counting
    # extension classes; both agree with m^2 - m - 1.  The middle-term
    # classification is exhaustive at (3,2) and (3,3), and a middle not
    # covered by omega/x^2 omega exists at (3,2).
    start = time.perf_counter()
    expected = {(3, 2): 5, (3, 3): 5, (4, 2): 11}
    for (m, p), want in expected.items():
        rep = cd.ext_routes(m, p)
        assert rep.routes_agree and rep.matches_closed_form, (m, p)
        assert rep.via_resolution == rep.via_enumeration == want, (m, p)

    for (m, p), (checked, total) in {(3, 2): (4, 8), (3, 3): (18, 27)}.items():
        claim = cd.verify_claim4(m, p)
        assert (claim.checked, claim.total) == (checked, total), (m, p)

    witness = cd.witness_cor3(3, 2)
    assert (witness.total_classes, witness.passing_quotient_test,
            witness.covered_by_target) == (32, 24, 3)
    lab = cd.ext_lab_instance(3, 2)
    assert not cd.surjection_exists(lab.target, witness.witness)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"extension lab took {elapsed:.1f}s"
    print(f"criterion 3: PASS - routes agree at (3,2),(3,3),(4,2) = 5,5,11; "
          f"exhaustive middles verified; uncovered witness found, "
          f"{elapsed:.2f}s")


def test_criterion_04_biduality_on_random_ideals():
    # one dual by residues, the other by the general colon: twice the
    # residue route would only restate the pairing
    start = time.perf_counter()
    checked = 0
    for i, ring in enumerate(random_rings()):
        omega = cd.canonical_module(ring).module
        for j in range(10):
            module = random_ideal(ring, seed=1000 * i + j)
            assert omega.colon(cd.dual(module)) == module
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 200 and len(random_rings()) >= 20
    assert elapsed < 30.0, f"biduality sweep took {elapsed:.1f}s"
    print(f"criterion 4: PASS - omega:dual(M) == M on {checked} ideals over "
          f"{len(random_rings())} rings, {elapsed:.2f}s")


def test_criterion_05_length_duality_on_nested_pairs():
    # len(Q2/Q1) == len(dual(Q1)/dual(Q2)) on nested pairs, and the
    # torsion dual (the Ext^1 pair against the dualizing module)
    # preserves length.
    start = time.perf_counter()
    pairs = 0
    for i, ring in enumerate(random_rings()):
        x = _socle_parameter(ring)
        for j in range(5):
            total = random_ideal(ring, seed=2000 + 37 * i + j)
            other = random_ideal(ring, seed=4000 + 53 * i + j)
            for sub in (total.intersect(other), total.scale(x)):
                torsion = TorsionQuotient(total, sub)
                assert (cd.dual(sub).len_quotient(cd.dual(total))
                        == torsion.length)
                assert cd.ext1_torsion(torsion).length == torsion.length
                pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs >= 100
    assert elapsed < 20.0, f"length duality sweep took {elapsed:.1f}s"
    print(f"criterion 5: PASS - length duality and torsion-dual length on "
          f"{pairs} nested pairs, {elapsed:.2f}s")


def test_criterion_06_conductor_dualities():
    # (O : Obar) == ((omega : Obar) : omega), and the per-branch pole
    # profile of omega is exactly the conductor exponents.
    for ring in family():
        assert cd.conductor_duality(ring), ring.label
        assert cd.min_pole_profile(ring) == tuple(ring.cond), ring.label
    print(f"criterion 6: PASS - conductor double-colon and pole profile "
          f"on all {len(family())} family rings")


def test_criterion_07_seminormality_three_ways():
    for ring in family():
        by_conductor = all(n <= 1 for n in ring.cond)
        by_omega = cd.seminormal_via_omega(ring)
        by_fixed_point = ring.seminormalization() == ring
        assert by_conductor == by_omega == by_fixed_point, ring.label
    print(f"criterion 7: PASS - conductor, pole, and fixed-point readings "
          f"of seminormality agree on all {len(family())} family rings")


def test_criterion_08_general_sections():
    # A section with pole order exactly n_i on every branch exists over
    # the rationals for every family member, and multiplying the
    # conductor by it recovers the regular forms exactly.  Over F2 the
    # node succeeds as-is through the extension entry point; the
    # three-axes curve genuinely needs the field extension path.
    for ring in family():
        sigma = cd.general_section(ring)
        assert tuple(int(v) for v in sigma.valuations()) == \
            tuple(-n for n in ring.cond)
        assert conductor_module(ring).scale(sigma) == \
            slab_module(ring, (0,) * ring.nbranches, degree=1)

    f2 = cd.prime_field(2)
    node = cd.named_ring(f2, "node")
    used, sigma = cd.general_section_extended(node)
    assert used.field.order == 2
    assert conductor_module(used).scale(sigma) == \
        slab_module(used, (0, 0), degree=1)

    axes = cd.named_ring(f2, "axes")
    with pytest.raises(FieldTooSmall):
        cd.general_section(axes, trials=128)
    used, sigma = cd.general_section_extended(axes, trials=128)
    assert used.field.order == 4
    assert conductor_module(used).scale(sigma) == \
        slab_module(used, (0, 0, 0), degree=1)
    print(f"criterion 8: PASS - exact-pole sections on all {len(family())} "
          f"rational rings; F2 node direct, F2 axes via field extension")


def test_criterion_09_matlis_duality_and_torsion_pairing():
    # Over every quotient algebra from criterion 1: the dual of the
    # free module has the same length and a simple socle.  The torsion
    # pairing cross-check compares len(dual(G)/dual(F)) with the
    # dimension of Hom(F/G, omega/r omega) on >= 50 random pairs.
    for ring, quotient in family_quotients():
        injective_hull = cd.matlis_dual(cd.free_module(quotient.algebra))
        assert injective_hull.dim == quotient.algebra.dim, ring.label
        assert cd.socle(injective_hull).dimension == 1, ring.label

    small = [ring for ring in family()
             if max(ring.cond) <= 10 and ring.colength_normalization <= 12]
    cases = 0
    for i, ring in enumerate(small):
        x = _socle_parameter(ring)
        for j in range(3):
            total = random_ideal(ring, seed=7000 + 17 * i + j)
            report = cd.rees_check(
                ring, TorsionQuotient(total, total.scale(x)), x)
            assert report.ok, (ring.label, j)
            assert report.length_via_duals == report.hom_dimension
            cases += 1
    assert cases >= 50
    print(f"criterion 9: PASS - injective hulls over "
          f"{len(family_quotients())} quotients; torsion pairing on "
          f"{cases} cases")


def brute_members(gens, box=20):
    """Every sum of generators landing in [0, box]^2, by breadth-first
    closure; independent of the package's membership routine."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = (base[0] + g[0], base[1] + g[1])
            if nxt[0] <= box and nxt[1] <= box and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_criterion_10_monomial_surface_models():
    # The diagonal-mod3 model: its canonical module is the interior
    # congruence class, i.e. the coordinate-sum == 1 (mod 3) pattern
    # shifted by (1,1), and no lattice translation matches it with the
    # ring itself.  The pinched plane: not saturated, and the hull of
    # its unit module is strictly larger, namely the full quadrant.
    start = time.perf_counter()
    diag = AffineSemigroup2(MODELS["diagonal-mod3"])
    omega = canonical_module_toric(diag)
    assert omega.generators == ((1, 2), (2, 1))
    for a in range(21):
        for b in range(21):
            expect = a >= 1 and b >= 1 and (a + b) % 3 == 0
            assert omega.contains((a, b)) == expect, (a, b)
    assert monomial_iso(omega, MonomialModule2(diag, ((0, 0),))) is None

    pinched = AffineSemigroup2(MODELS["pinched-plane"])
    plane = AffineSemigroup2(MODELS["plane"])
    assert saturation(pinched) == plane
    unit = MonomialModule2(pinched, ((0, 0),))
    hull = s2_hull(unit)
    assert hull != unit and not unit.contains((1, 0))
    for a in range(21):
        for b in range(21):
            assert hull.contains((a, b)), (a, b)

    for name, gens in MODELS.items():
        model = AffineSemigroup2(gens)
        members = brute_members(gens)
        for a in range(21):
            for b in range(21):
                assert model.contains((a, b)) == ((a, b) in members), \
                    (name, a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"monomial surface checks took {elapsed:.1f}s"
    print(f"criterion 10: PASS - canonical congruence class, saturation, "
          f"hull, and window oracle on [0,20]^2, {elapsed:.2f}s")


def test_criterion_11_one_element_length_identity():
    # len(F/rF) == sum of branch orders of r, across random modules and
    # regular multipliers.
    checked = 0
    small = [ring for ring in family() if max(ring.cond) <= 10]
    for i, ring in enumerate(small):
        x = _socle_parameter(ring)
        y = Element.diag_monomial(ring.field, ring.nbranches,
                                  max(max(ring.cond), 1))
        multipliers = [x, y]
        if INF not in (x + y).valuations():
            multipliers.append(x + y)
        for j in range(4):
            module = random_ideal(ring, seed=9000 + 29 * i + j)
            for r in multipliers:
                length, order_sum = cd.herbrand(module, r)
                assert length == order_sum, (ring.label, j)
                checked += 1
    assert checked >= 100
    print(f"criterion 11: PASS - length identity on {checked} "
          f"module/multiplier pairs")

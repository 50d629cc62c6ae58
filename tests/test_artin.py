import functools
import itertools
import time

import pytest

import curvedual as cd
from curvedual import artin
from curvedual.artin import (ArtinAlgebra, ArtinModule, SocleData,
                             curve_quotient, enumerate_extensions, ext,
                             ext_lab_instance, ext_routes, free_module,
                             hom_space, matlis_dual, minimal_resolution,
                             module_iso, present_quotient, quotient_module,
                             rees_check, socle, surjection_exists,
                             trivial_module, verify_claim4, witness_cor3)
from curvedual.errors import (DifferentialDegreeError, InvariantViolation,
                              NoWitness, NotContained, NotKilled, NotMember,
                              TooLarge, ZeroDivisor)
from curvedual.fracideal import TorsionQuotient, regular_multiple, unit_ideal
from curvedual.laurent import Element
from curvedual.linalg import vec_addmul


def elem(ring, text):
    return cd.parse_element(ring.field, text, nbranches=ring.nbranches)


def dual_numbers(field):
    o = field.one
    return ArtinAlgebra(field, [[{0: o}, {1: o}], [{1: o}, {}]])


def test_algebra_validation(qq, f5):
    dual_numbers(qq)  # fine over any field
    o = f5.one
    with pytest.raises(InvariantViolation, match="unit"):
        ArtinAlgebra(f5, [[{0: o}, {}], [{}, {}]])
    with pytest.raises(InvariantViolation, match="ragged"):
        ArtinAlgebra(f5, [[{0: o}, {2: o}], [{1: o}, {}]])
    with pytest.raises(InvariantViolation, match="ragged"):
        ArtinAlgebra(f5, [[{0: o}, {1: o}], [{1: o}]])
    with pytest.raises(InvariantViolation, match="commutative"):
        ArtinAlgebra(f5, [
            [{0: o}, {1: o}, {2: o}],
            [{1: o}, {}, {0: o}],
            [{2: o}, {}, {}],
        ])
    with pytest.raises(InvariantViolation, match="associative"):
        ArtinAlgebra(f5, [
            [{0: o}, {1: o}, {2: o}],
            [{1: o}, {2: o}, {}],
            [{2: o}, {}, {2: o}],
        ])
    with pytest.raises(InvariantViolation, match="nilpotent"):
        # k[x]/(x^2 - 1) is not local
        ArtinAlgebra(f5, [[{0: o}, {1: o}], [{1: o}, {0: o}]])


def test_module_validation(qq):
    alg = dual_numbers(qq)
    o = qq.one
    with pytest.raises(InvariantViolation, match="identity"):
        ArtinModule(alg, [({},), ({},)])  # unit must act as identity
    with pytest.raises(InvariantViolation, match="one action"):
        ArtinModule(alg, [({0: o},)])  # one action per algebra basis vector
    with pytest.raises(InvariantViolation, match="ragged"):
        ArtinModule(alg, [({0: o}, {1: o}), ({1: o},)])


def test_curve_quotient_guards(cusp, node):
    with pytest.raises(DifferentialDegreeError):
        curve_quotient(cusp, elem(cusp, "t^2 dt"))
    with pytest.raises(NotMember):
        curve_quotient(cusp, elem(cusp, "t"))
    with pytest.raises(ZeroDivisor):
        curve_quotient(node, elem(node, "(t, 0)"))
    with pytest.raises(InvariantViolation, match="unit"):
        curve_quotient(cusp, elem(cusp, "1 + t^2"))


def test_curve_quotient_dimensions(cusp, node, r345):
    assert curve_quotient(cusp, elem(cusp, "t^2")).dim == 2
    assert curve_quotient(cusp, elem(cusp, "t^3")).dim == 3
    assert curve_quotient(node, elem(node, "(t, t)")).dim == 2
    assert curve_quotient(r345, elem(r345, "t^3 + t^4")).dim == 3


# ring -> (x, an element outside the ring)
QUOTIENTS = {
    "node": ("(t, t)", "(1, 0)"),
    "tacnode": ("(t, t)", "(1, 0)"),
    "three-lines": ("(t, t, 2 t)", "(1, 0, 0)"),
    "3,4,5": ("t^3", "t^2"),
}


@pytest.mark.parametrize("field", [cd.rationals(), cd.prime_field(5)],
                         ids=("Q", "F5"))
@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_class_and_lift_roundtrip(name, field):
    if name in cd.curve_names():
        ring = cd.named_ring(field, name)
    else:
        ring = cd.build(cd.semigroup_spec(field, (3, 4, 5)))
    x_text, outside = QUOTIENTS[name]
    x = elem(ring, x_text)
    q = curve_quotient(ring, x)
    assert q.class_of(Element.zero(field, ring.nbranches)) == {}
    for i, rep in enumerate(q.reps):
        vec = q.class_of(rep)
        assert vec == {i: field.one}
        assert q.class_of(q.lift(vec)) == vec
    assert q.class_of(x * x) == {}
    with pytest.raises(NotMember):
        q.class_of(elem(ring, outside))


def test_socle_detects_gorenstein(cusp, r345):
    # one socle dimension for the plane cusp
    a = curve_quotient(cusp, elem(cusp, "t^2")).algebra
    assert socle(free_module(a)).dimension == 1
    # two for the first non-Gorenstein monomial ring
    b = curve_quotient(r345, elem(r345, "t^3")).algebra
    assert socle(free_module(b)).dimension == 2
    assert socle(trivial_module(b)).dimension == 1


def test_matlis_dual(cusp, r345):
    for ring, text in ((cusp, "t^2"), (r345, "t^3")):
        alg = curve_quotient(ring, elem(ring, text)).algebra
        free = free_module(alg)
        dd = matlis_dual(matlis_dual(free))
        assert dd.dim == free.dim
        assert module_iso(dd, free) is not None
        # the dual of the algebra is the injective hull, socle always one
        assert socle(matlis_dual(free)).dimension == 1
    # self-dual exactly in the Gorenstein case
    a = curve_quotient(cusp, elem(cusp, "t^2")).algebra
    assert module_iso(matlis_dual(free_module(a)), free_module(a)) is not None
    b = curve_quotient(r345, elem(r345, "t^3")).algebra
    assert module_iso(matlis_dual(free_module(b)), free_module(b)) is None


def test_ext_against_dual_numbers(cusp):
    alg = curve_quotient(cusp, elem(cusp, "t^2")).algebra
    k = trivial_module(alg)
    assert minimal_resolution(k, 4) == (1, 1, 1, 1, 1)
    for i in range(3):
        assert ext(k, k, i) == 1
    assert ext(free_module(alg), k, 1) == 0
    assert ext(free_module(alg), k, 0) == 1


def test_hom_space_and_iso(r345):
    alg = curve_quotient(r345, elem(r345, "t^3")).algebra
    free = free_module(alg)
    k = trivial_module(alg)
    assert len(hom_space(free, free)) == free.dim
    assert len(hom_space(k, k)) == 1
    assert len(hom_space(free, k)) == 1
    assert module_iso(free, k) is None
    iso = module_iso(free, free)
    assert iso is not None
    assert surjection_exists(free, k)
    assert not surjection_exists(k, free)


@pytest.mark.parametrize("fn, left, right", [
    (module_iso, "target", "target"), (module_iso, "module", "module"),
    (surjection_exists, "target", "module"),
    (surjection_exists, "module", "trivial"),
    (surjection_exists, "trivial", "module")])
def test_top_data_once_per_module(monkeypatch, fn, left, right):
    lab = ext_lab_instance(3, 2)
    mods = {"target": lab.target, "module": lab.module,
            "trivial": trivial_module(lab.square.algebra)}
    calls = []
    real = artin._radical_span

    def counted(module):
        calls.append(module)
        return real(module)

    monkeypatch.setattr(artin, "_radical_span", counted)
    fn(mods[left], mods[right])
    assert len(calls) == 2


def test_quotient_module(cusp):
    alg = curve_quotient(cusp, elem(cusp, "t^3")).algebra  # dim 3
    free = free_module(alg)
    q = quotient_module(free, [{i: alg.field.one} for i in range(1, alg.dim)])
    assert q.dim == 1
    assert module_iso(q, trivial_module(alg)) is not None


def test_lab_instance_shape():
    lab = ext_lab_instance(3, 2)
    assert lab.module.dim == 3
    assert lab.target.dim == 6
    assert lab.square.algebra.dim == 6
    assert lab.linear.algebra.dim == 3
    # embedding dimension of the square-zero stage
    k = trivial_module(lab.linear.algebra)
    assert minimal_resolution(k, 2) == (1, 2, 4)
    with pytest.raises(ValueError):
        ext_lab_instance(1, 2)


def test_enumeration_counts_classes():
    lab = ext_lab_instance(3, 2)
    k = trivial_module(lab.square.algebra)
    e = ext(lab.module, k, 1)
    middles = enumerate_extensions(lab.module, k)
    assert len(middles) == 2 ** e
    assert all(mid.dim == lab.module.dim + 1 for mid in middles)


def test_enumeration_refuses_infinite_fields(cusp):
    alg = curve_quotient(cusp, elem(cusp, "t^2")).algebra
    k = trivial_module(alg)
    with pytest.raises(TooLarge, match="finite"):
        enumerate_extensions(k, k)


def test_ext_routes_frozen():
    rep = ext_routes(3, 2)
    assert rep.via_resolution == rep.via_enumeration == rep.closed_form == 5
    assert rep.routes_agree and rep.matches_closed_form
    # Claim 2 walks no class, so e = 19 is past the walkers' bound of 12
    # but not refused
    rep = ext_routes(5, 3)
    assert rep.via_resolution == rep.via_enumeration == rep.closed_form == 19


def test_ext_routes_at_m5():
    rep = ext_routes(5, 2)
    assert (rep.m, rep.p) == (5, 2)
    assert rep.via_resolution == rep.via_enumeration == rep.closed_form == 19
    # a class walker over the same classes still refuses that dimension
    with pytest.raises(TooLarge, match="524288 middles exceeds the bound 4096"):
        witness_cor3(5, 2)


def test_claim4_smallest_case():
    rep = verify_claim4(3, 2)
    assert rep.ok
    assert rep.checked == 4
    assert rep.total == 8


def test_witness_smallest_case():
    rep = witness_cor3(3, 2)
    assert rep.total_classes == 32
    assert rep.passing_quotient_test == 24
    assert rep.covered_by_target == 3
    assert rep.witness is not None
    # the witness really passes the quotient test but is not covered
    lab = ext_lab_instance(3, 2)
    assert not surjection_exists(lab.target, rep.witness)


def reference_witness_cor3(m, p):
    """Corollary 3 by the exhaustive walk: one surjection search per
    passing line of classes, each weighted by the classes on its line;
    the witness is the middle of the first uncovered line."""
    lab = ext_lab_instance(m, p)
    total, walk = artin._passing_middles(lab,
                                         trivial_module(lab.square.algebra))
    passing = covered = 0
    witness = None
    for weight, mid in walk:
        passing += weight
        if surjection_exists(lab.target, mid):
            covered += weight
        elif witness is None:
            witness = mid
    if witness is None:
        raise NoWitness("every extension class is covered by the target")
    return artin.WitnessReport(witness, total, passing, covered, m, p)


@pytest.mark.parametrize("m, p", [(3, 2), (3, 3), (3, 5), (4, 2)])
def test_cor3_counts_and_witness_match_the_exhaustive_walk(m, p):
    rep, ref = witness_cor3(m, p), reference_witness_cor3(m, p)
    assert (rep.total_classes, rep.passing_quotient_test,
            rep.covered_by_target) == (ref.total_classes,
                                       ref.passing_quotient_test,
                                       ref.covered_by_target)
    assert rep.witness.cols == ref.witness.cols
    assert rep.witness.labels == ref.witness.labels


@pytest.mark.parametrize("m, p", [(3, 2), (3, 3), (3, 5), (3, 7), (4, 2)])
def test_cor3_counts_have_closed_forms(m, p):
    # e = dim Ext^1(M, k) and c = dim Hom(M, k) = m - 1: the failing
    # classes have codimension c and the covered ones, with 0, dimension c
    e = m * m - m - 1
    rep = witness_cor3(m, p)
    assert (rep.total_classes, rep.passing_quotient_test,
            rep.covered_by_target) == (p ** e, p ** e - p ** (e - m + 1),
                                       p ** (m - 1) - 1)


@pytest.mark.parametrize("m, p", [(3, 2), (3, 3)])
def test_cor3_runs_one_surjection_search(monkeypatch, m, p):
    # the first passing line is already uncovered, so the scan stops there
    calls = []
    search = artin.surjection_exists

    def counted(mmodule, nmodule):
        calls.append(nmodule)
        return search(mmodule, nmodule)

    monkeypatch.setattr(artin, "surjection_exists", counted)
    witness_cor3(m, p)
    assert len(calls) == 1


def raise_least_coefficient(psi, field):
    """The cocycle psi with the coefficient of its least key raised by
    one; the split class, psi = {}, as it is."""
    psi = dict(psi)
    if psi:
        key = min(psi)
        psi[key] += field.one
        if not psi[key]:
            del psi[key]
    return psi


def test_lab_middle_from_a_changed_cocycle_is_caught(monkeypatch):
    # each middle is built from its line's cocycle with one coefficient
    # changed, while the rank that let the line pass is read from the
    # cocycle itself.  Corollary 3 at (3, 2) and (4, 2) fails the x-rank
    # cross-check first; Claim 4 first fails the middle's own action
    # check, as the changed map is no longer equivariant
    push = artin._pushout_middle

    def changed(algebra, nmodule, b0, kvecs, psi):
        return push(algebra, nmodule, b0, kvecs,
                    raise_least_coefficient(psi, algebra.field))

    monkeypatch.setattr(artin, "_pushout_middle", changed)
    for m, p in [(3, 2), (4, 2)]:
        with pytest.raises(InvariantViolation, match="disagree on dim xE"):
            witness_cor3(m, p)
    with pytest.raises(InvariantViolation, match="structure constants"):
        verify_claim4(3, 2)


@pytest.mark.parametrize("m, p", [(3, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("drop", ["first", "last"])
def test_lab_middle_missing_a_graph_row_is_caught(monkeypatch, m, p, drop):
    # the middle's dimension is not tested: it holds by construction.  A
    # middle built without one graph row is still not silent.  Without
    # the last row, the middle's own action check fails first, in both
    # walks.  Without the first, Claim 4 raises at the first passing line
    # (its socle is not simple, against the proof) and Corollary 3 fails
    # the x-rank cross-check of `_passing_middles`
    push = artin._pushout_middle

    def dropped(algebra, nmodule, b0, kvecs, psi):
        if drop == "last":
            return push(algebra, nmodule, b0, kvecs[:-1], psi)
        psi = {(mdx - 1, q): c for (mdx, q), c in psi.items() if mdx}
        return push(algebra, nmodule, b0, kvecs[1:], psi)

    monkeypatch.setattr(artin, "_pushout_middle", dropped)
    if drop == "last":
        for claim in (verify_claim4, witness_cor3):
            with pytest.raises(InvariantViolation,
                               match="structure constants"):
                claim(m, p)
        return
    with pytest.raises(InvariantViolation, match="socle is not simple"):
        verify_claim4(m, p)
    with pytest.raises(InvariantViolation, match="disagree on dim xE"):
        witness_cor3(m, p)


@pytest.mark.parametrize("m, p, checked", [(3, 2, 0), (3, 3, 10),
                                            (4, 2, 0), (4, 3, 28)])
def test_lab_walk_over_changed_cocycles_fails_the_closed_form(
        monkeypatch, m, p, checked):
    # every line's cocycle changed before both the rank and the middle
    # read it: they agree and every middle is a module, so only the
    # closed form q^e - q^(e-1) of the passing count sees the fault
    lines = artin._line_cocycles

    def changed(field, reps):
        for weight, psi in lines(field, reps):
            yield weight, raise_least_coefficient(psi, field)

    monkeypatch.setattr(artin, "_line_cocycles", changed)
    with pytest.raises(InvariantViolation,
                       match=f"^{checked} of {p ** m} classes pass"):
        verify_claim4(m, p)


def test_claim4_refuses_an_ext_dimension_off_dim_o_mod_x(monkeypatch):
    # one class fewer than dim O/x: refused before any middle is built
    classes = artin._walkable_classes

    def short(mmodule, nmodule, per_line):
        b0, kvecs, reps, tracked = classes(mmodule, nmodule, per_line)
        return b0, kvecs, reps[:-1], tracked

    def refuse(*args):
        raise AssertionError("a middle was built before the Ext check")

    monkeypatch.setattr(artin, "_walkable_classes", short)
    monkeypatch.setattr(artin, "_pushout_middle", refuse)
    with pytest.raises(InvariantViolation, match="differs from dim O/x"):
        verify_claim4(3, 2)


def test_cor3_refuses_a_hom_space_that_misses_the_top(monkeypatch):
    # dim Hom(M, k) is checked against the top of M before it counts
    homs = artin.hom_space
    monkeypatch.setattr(artin, "hom_space", lambda a, b: homs(a, b)[1:])
    with pytest.raises(InvariantViolation, match="Hom"):
        witness_cor3(3, 2)


def test_lab_past_the_resolution_cap_is_refused_before_the_build(
        monkeypatch):
    # the cover of omega/x omega at m = 33 is 32 x 66 = 2112 > 2048
    from curvedual import curvering

    def refuse(*args, **kwargs):
        raise AssertionError("an oversized lab built its ring")

    monkeypatch.setattr(curvering, "build", refuse)
    # a refusal is never kept: the second call is refused again
    for _ in range(2):
        with pytest.raises(TooLarge,
                           match="size 2112 exceeds the bound 2048"):
            ext_lab_instance(33, 2)
    assert ext_lab_instance.cache_info().currsize == 0


def test_lab_parts_share_one_kept_instance(monkeypatch):
    # the routes, Claim 4 and Corollary 3 at one (m, p) build one ring
    from curvedual import curvering

    built = []
    build = curvering.build

    def counted(spec):
        built.append(spec.semigroup)
        return build(spec)

    monkeypatch.setattr(curvering, "build", counted)
    lab = ext_lab_instance(3, 2)
    assert ext_lab_instance(3, 2) is lab
    for part in (ext_routes, verify_claim4, witness_cor3):
        part(3, 2)
    assert ext_lab_instance(3, 2) is lab
    assert built == [(3, 4, 5)]


def test_lab_keeps_one_instance_only():
    # a second (m, p) replaces the first, which a later call rebuilds
    first = ext_lab_instance(3, 2)
    second = ext_lab_instance(3, 3)
    assert second is not first and second.p == 3
    assert ext_lab_instance.cache_info().currsize == 1
    again = ext_lab_instance(3, 2)
    assert again is not first
    assert again.module.cols == first.module.cols


def test_lab_key_is_typed():
    # an untyped key would hand m = 3.0 the kept (3, 2) lab
    lab = ext_lab_instance(3, 2)
    with pytest.raises(TypeError):
        ext_lab_instance(3.0, 2)
    assert ext_lab_instance(3, 2) is lab


def test_present_quotient_guards(cusp):
    q = curve_quotient(cusp, elem(cusp, "t^2"))
    one = unit_ideal(cusp)
    with pytest.raises(NotContained):
        present_quotient(one.scale(elem(cusp, "t^2")), one, q)
    with pytest.raises(NotKilled):
        present_quotient(one, one.scale(elem(cusp, "t^4")), q)
    # t^3 O is not inside t^2 O, and t^2 (t^2 O) = t^4 O is not inside
    # t^3 O: both guards fail, and N ⊆ M is the one reported
    total, sub = one.scale(elem(cusp, "t^2")), one.scale(elem(cusp, "t^3"))
    assert not sub.contains_module(regular_multiple(total, q.x)[0])
    with pytest.raises(NotContained):
        present_quotient(total, sub, q)


def test_quotients_build_each_multiple_once(scale_calls, cusp, r345):
    # curve_quotient builds xO once, and present_quotient reuses the
    # x·M its caller built through regular_multiple
    ext_lab_instance(3, 2)
    for ring, text in ((cusp, "t^2"), (r345, "t^3")):
        x = elem(ring, text)
        one = unit_ideal(ring)
        assert cd.verify_dualizing(ring, cd.canonical_module(ring).module, x)
        pair = TorsionQuotient(one, regular_multiple(one, x)[0])
        assert rees_check(ring, pair, x).ok
    assert scale_calls and set(scale_calls.values()) == {1}


def test_rees_check(cusp, r345):
    for ring, text in ((cusp, "t^2"), (r345, "t^3")):
        x = elem(ring, text)
        one = unit_ideal(ring)
        pair = TorsionQuotient(one, one.scale(x))
        rep = rees_check(ring, pair, x)
        assert rep.ok
        assert rep.length_via_duals == rep.hom_dimension
    with pytest.raises(NotKilled):
        x = elem(cusp, "t^2")
        rees_check(cusp, TorsionQuotient(unit_ideal(cusp),
                                         unit_ideal(cusp).scale(elem(cusp, "t^4"))), x)


def test_socle_data_is_plain():
    lab = ext_lab_instance(3, 2)
    data = socle(lab.module)
    assert isinstance(data, SocleData)
    assert data.dimension == len(data.basis)


def _passes_quotient_test(mid, xvec, module):
    q = quotient_module(mid, mid.action_matrix(xvec))
    return q.dim == module.dim and module_iso(q, module) is not None


@pytest.mark.parametrize("m, p", [(3, 2), (3, 3)])
def test_line_walk_matches_full_enumeration(m, p):
    # the claim 4 and corollary 3 counts, walked over every extension
    # class one by one, against the reports that build one middle per
    # line of classes and weight it by the classes on the line
    lab = ext_lab_instance(m, p)
    xvec = lab.square.class_of(lab.x)
    k = trivial_module(lab.square.algebra)

    selfs = enumerate_extensions(lab.module, lab.module)
    passing = [mid for mid in selfs
               if _passes_quotient_test(mid, xvec, lab.module)]
    holds = all(module_iso(mid, lab.target) is not None for mid in passing)
    claim = verify_claim4(m, p)
    assert (claim.ok, claim.checked, claim.total) == (
        holds, len(passing), len(selfs))

    middles = enumerate_extensions(lab.module, k)
    passing = [mid for mid in middles
               if _passes_quotient_test(mid, xvec, lab.module)]
    uncovered = [mid for mid in passing
                 if not surjection_exists(lab.target, mid)]
    rep = witness_cor3(m, p)
    assert rep.total_classes == len(middles)
    assert rep.passing_quotient_test == len(passing)
    assert rep.covered_by_target == len(passing) - len(uncovered)
    assert rep.witness.cols == uncovered[0].cols
    assert rep.witness.labels == uncovered[0].labels


@pytest.mark.parametrize("m, p, over", [
    (3, 2, "k"), (3, 2, "M"), (3, 3, "k"), (3, 3, "M"), (3, 5, "M"),
    (4, 2, "M")])
def test_rank_decides_every_line_as_the_quotient_test(monkeypatch, m, p,
                                                      over):
    # the library decides each line from its cocycle, keeping it when
    # psi(xF) has the dimension of N; the oracle builds the line's
    # middle E, then E/xE, and searches an isomorphism onto M
    lab = ext_lab_instance(m, p)
    algebra = lab.square.algebra
    xvec = lab.square.class_of(lab.x)
    nmodule = lab.module if over == "M" else trivial_module(algebra)
    seen = []
    image_dim = artin._x_image_dim

    def recorded(field, xrows, psi):
        dim = image_dim(field, xrows, psi)
        seen.append((psi, dim == nmodule.dim))
        return dim

    monkeypatch.setattr(artin, "_x_image_dim", recorded)
    _, walk = artin._passing_middles(lab, nmodule)
    kept = list(walk)
    b0, kvecs, reps, _ = artin._extension_classes(lab.module, nmodule)
    # one decision per line, and a middle for each passing one only
    assert [psi for psi, _ in seen] == [
        psi for _, psi in artin._line_cocycles(algebra.field, reps)]
    assert len(kept) == sum(decided for _, decided in seen)
    decided = [d for _, d in seen]
    assert decided == [
        _passes_quotient_test(
            artin._pushout_middle(algebra, nmodule, b0, kvecs, psi), xvec,
            lab.module) for psi, _ in seen]
    assert any(decided) and not all(decided)


def test_lab_walks_build_no_quotient(monkeypatch):
    # the quotient test is a rank, and neither walk searches an
    # isomorphism: Claim 4 reads the socle, Corollary 3 the top
    def refuse(*args):
        raise AssertionError("a lab walk built a quotient module")

    targets = []
    iso = artin.module_iso

    def counted(mmodule, nmodule):
        targets.append(nmodule)
        return iso(mmodule, nmodule)

    monkeypatch.setattr(artin, "quotient_module", refuse)
    monkeypatch.setattr(artin, "module_iso", counted)
    claim = verify_claim4(3, 3)
    assert (claim.ok, claim.checked, claim.total) == (True, 18, 27)
    assert targets == []
    rep = witness_cor3(3, 2)
    assert (rep.total_classes, rep.passing_quotient_test,
            rep.covered_by_target) == (32, 24, 3)
    assert targets == []


@pytest.mark.parametrize("m, p, claim4, cor3", [
    (3, 2, 4, 1), (3, 3, 9, 1), (4, 2, 8, 1)])
def test_walks_build_only_passing_middles(monkeypatch, m, p, claim4, cor3):
    # the split class and the failing lines are decided from their
    # cocycles; Claim 4 builds one middle per passing line (the split
    # class fails), Corollary 3 only its witness, the first passing line
    built = []
    pushout = artin._pushout_middle

    def counted(*args):
        built.append(args[-1])
        return pushout(*args)

    monkeypatch.setattr(artin, "_pushout_middle", counted)
    rep = verify_claim4(m, p)
    assert len(built) == claim4 == rep.checked // (p - 1)
    assert {} not in built
    built.clear()
    witness_cor3(m, p)
    assert len(built) == cor3


@pytest.mark.parametrize("m, p", [(3, 2), (3, 3), (5, 2)])
def test_claim4_builds_no_hom_space(monkeypatch, m, p):
    def refuse(*args):
        raise AssertionError("Claim 4 searched a hom space")

    for name in ("hom_space", "module_iso", "_search_hom"):
        monkeypatch.setattr(artin, name, refuse)
    assert verify_claim4(m, p).ok


def test_claim4_refuses_a_target_without_a_simple_socle(monkeypatch):
    # the target is certified first, before any middle: its socle is
    # read as two-dimensional here
    real = artin.socle
    calls = []

    def doubled(module):
        data = real(module)
        calls.append(module)
        if len(calls) == 1:
            return SocleData(2, data.basis + data.basis)
        return data

    def refuse(*args):
        raise AssertionError("a middle was built before the target check")

    monkeypatch.setattr(artin, "socle", doubled)
    monkeypatch.setattr(artin, "_pushout_middle", refuse)
    with pytest.raises(InvariantViolation, match="injective hull"):
        verify_claim4(3, 2)
    assert calls[0].dim == 6


def test_claim4_fails_at_a_middle_without_a_simple_socle(monkeypatch):
    # the target's socle is read first and is simple; the first passing
    # middle's is read as two-dimensional, which the proof rules out, so
    # the claim raises there, at the second socle read
    real = artin.socle
    calls = []

    def doubled(module):
        data = real(module)
        calls.append(module)
        if len(calls) == 2:
            return SocleData(2, data.basis + data.basis)
        return data

    monkeypatch.setattr(artin, "socle", doubled)
    with pytest.raises(InvariantViolation, match="socle is not simple"):
        verify_claim4(3, 3)
    assert len(calls) == 2


@pytest.mark.parametrize("claim, dim_n", [(verify_claim4, 3),
                                          (witness_cor3, 1)])
def test_cocycle_rank_that_disagrees_with_the_middle_is_refused(
        monkeypatch, claim, dim_n):
    # a cocycle rank that passes every line, the split class first,
    # whose middle has x E = 0; N is M (dimension 3) or k
    monkeypatch.setattr(artin, "_x_image_dim",
                        lambda field, xrows, psi: dim_n)
    with pytest.raises(InvariantViolation, match="disagree"):
        claim(3, 2)


def test_cover_rows_refuse_an_element_that_does_not_kill_the_module():
    # the unit does not kill M, so 1 (j, 0) leaves the kernel of the cover
    lab = ext_lab_instance(3, 2)
    algebra = lab.square.algebra
    b0, _, _, tracked = artin._extension_classes(lab.module, lab.module)
    assert artin._x_cover_rows(algebra, lab.square.class_of(lab.x), b0,
                               tracked)
    with pytest.raises(InvariantViolation, match="kernel of the cover"):
        artin._x_cover_rows(algebra, {0: algebra.field.one}, b0, tracked)


def line_middles(nmodule, classes):
    """(weight, middle) for every line of `artin._line_cocycles`."""
    algebra = nmodule.algebra
    b0, kvecs, reps, _ = classes
    for weight, psi in artin._line_cocycles(algebra.field, reps):
        yield weight, artin._pushout_middle(algebra, nmodule, b0, kvecs, psi)


@pytest.mark.parametrize("m, p", [(3, 2), (3, 3), (3, 5), (4, 2), (5, 2)])
def test_socle_decides_isomorphism_to_the_target(m, p):
    # every line's middle, passing or not: a simple socle exactly when
    # the isomorphism search finds T = omega/x^2 omega
    lab = ext_lab_instance(m, p)
    classes = artin._extension_classes(lab.module, lab.module)
    simple = []
    for _, mid in line_middles(lab.module, classes):
        simple.append(socle(mid).dimension == 1)
        assert simple[-1] == (module_iso(mid, lab.target) is not None)
    assert any(simple) and not all(simple)


def test_lab_walks_refuse_past_the_line_cap_before_any_middle(monkeypatch):
    def refuse(*args):
        raise AssertionError("a middle was built past the line cap")

    monkeypatch.setattr(artin, "_pushout_middle", refuse)
    # e = 11 over F3: 1 + (3^11 - 1)/2 lines
    with pytest.raises(TooLarge, match="88574 middles exceeds the bound 4096"):
        witness_cor3(4, 3)
    with pytest.raises(TooLarge, match="10304 middles exceeds the bound 4096"):
        verify_claim4(3, 101)


@pytest.mark.parametrize("per_line", [False, True])
def test_line_cap_over_f2_is_dimension_12(f2, per_line):
    # over F2 a line is one class, so both walks admit e = 12 and refuse
    # e = 13; Ext^1(k^a, k) over the dual numbers has dimension a
    k = trivial_module(dual_numbers(f2))
    classes = artin._walkable_classes(dual_number_sum(f2, 12, 0), k,
                                      per_line)
    assert len(classes[2]) == 12
    with pytest.raises(TooLarge, match="8192 middles exceeds the bound 4096"):
        artin._walkable_classes(dual_number_sum(f2, 13, 0), k, per_line)


def test_line_walk_is_the_full_walk_at_first_appearances():
    # the walk yields the full walk's middles at the first class of
    # each line, in full-walk order, weighted by the classes on the line
    lab = ext_lab_instance(3, 3)
    field = lab.square.algebra.field
    classes = artin._extension_classes(lab.module, lab.module)
    e = len(classes[2])
    middles = enumerate_extensions(lab.module, lab.module)
    lines = {}
    for i, lam in enumerate(itertools.product(field.elements(), repeat=e)):
        line = frozenset(tuple(c * x for x in lam) for c in field.elements()
                         if c) if any(lam) else frozenset([lam])
        lines.setdefault(line, []).append(i)
    walk = list(line_middles(lab.module, classes))
    assert [w for w, _ in walk] == [len(ix) for ix in lines.values()]
    assert [mid.cols for _, mid in walk] == [middles[ix[0]].cols
                                             for ix in lines.values()]
    assert sum(w for w, _ in walk) == len(middles) == 3 ** e


def test_middles_are_constant_on_lines():
    # scaling N maps graph(psi) onto graph(c psi): the middles of a
    # class and of its double are isomorphic
    lab = ext_lab_instance(3, 3)
    field = lab.square.algebra.field
    middles = enumerate_extensions(lab.module, lab.module)
    e = len(artin._extension_classes(lab.module, lab.module)[2])
    lams = list(itertools.product(field.elements(), repeat=e))
    assert len(lams) == len(middles)
    index = {lam: i for i, lam in enumerate(lams)}
    for lam, mid in zip(lams, middles):
        double = tuple(c + c for c in lam)
        assert module_iso(mid, middles[index[double]]) is not None


def test_ext_routes_builds_no_middle(monkeypatch):
    def refuse(*args):
        raise AssertionError("ext_routes built a middle module")

    monkeypatch.setattr(artin, "_pushout_middle", refuse)
    rep = ext_routes(3, 2)
    assert rep.via_enumeration == 5
    rep = ext_routes(4, 2)
    assert rep.via_resolution == rep.via_enumeration == 11
    rep = ext_routes(5, 2)
    assert rep.via_resolution == rep.via_enumeration == 19


class Wired(Exception):
    """Raised by a patched shared routine of the Artinian lab."""


@pytest.mark.parametrize("routine, call", [
    ("_equivariant_maps", lambda lab, k: hom_space(lab.module, k)),
    ("_equivariant_maps", lambda lab, k: socle(lab.module)),
    # the resolution route runs first and never calls the solver, so the
    # enumeration route raises
    ("_equivariant_maps", lambda lab, k: ext_routes(3, 2)),
    ("_cover_kernel", lambda lab, k: minimal_resolution(lab.module, 2)),
    ("_cover_kernel", lambda lab, k: ext(lab.module, k, 1)),
], ids=("hom_space", "socle", "ext_routes-enumeration",
        "minimal_resolution", "ext"))
def test_lab_shares_one_solver_and_one_cover_kernel(monkeypatch, routine,
                                                    call):
    """Every commutation space goes through `_equivariant_maps` and
    every cover kernel through `_cover_kernel`: a caller with a loop of
    its own would not raise the patched routine's error."""
    def wired(*args):
        raise Wired(routine)

    lab = ext_lab_instance(3, 2)
    k = trivial_module(lab.square.algebra)
    monkeypatch.setattr(artin, routine, wired)
    with pytest.raises(Wired):
        call(lab, k)


def test_presentation_and_every_syzygy_step_use_the_cover_kernel(
        monkeypatch):
    # one cover kernel per Betti number, over that many copies of A
    lab = ext_lab_instance(3, 2)
    sizes = []
    cover = artin._cover_kernel

    def counted(field, images):
        sizes.append(len(images))
        return cover(field, images)

    monkeypatch.setattr(artin, "_cover_kernel", counted)
    betti = minimal_resolution(lab.module, 3)
    assert sizes == [b * lab.square.algebra.dim for b in betti]


def test_ext_routes_refuses_before_the_unbounded_resolution(monkeypatch):
    """The resolution runs first, under MAX_RESOLUTION_SIZE, so a lab
    past that cap is refused by it, at once, and the enumeration, which
    has no bound of its own, never runs."""
    def refuse(*args):
        raise AssertionError("ext_routes enumerated an oversized lab")

    monkeypatch.setattr(artin, "_extension_classes", refuse)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="size 3144 exceeds the bound 2048"):
        ext_routes(12, 2)
    with pytest.raises(TooLarge, match="size 7648 exceeds the bound 2048"):
        ext_routes(16, 2)
    assert time.perf_counter() - start < 2.0


def test_resolution_is_capped_by_free_module_size():
    # the second step of the lab at m = 12 starts from 131 x 24 = 3144;
    # at m = 8 it starts from 55 x 16 = 880, below the cap
    lab = ext_lab_instance(12, 2)
    k = trivial_module(lab.square.algebra)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="size 3144 exceeds the bound 2048"):
        ext(lab.module, k, 1)
    assert time.perf_counter() - start < 1.0
    assert minimal_resolution(ext_lab_instance(8, 2).module, 2) == (7, 55,
                                                                    391)


def dual_number_sum(field, nk, na):
    """k^nk + A^na over the dual numbers A = k[e]/e^2: nk copies of k,
    then na copies of A, each with basis 1, e."""
    o = field.one
    d = nk + 2 * na
    eps = [{} for _ in range(d)]
    for j in range(nk, d, 2):
        eps[j] = {j + 1: o}
    unit = tuple({q: o} for q in range(d))
    return ArtinModule(dual_numbers(field), [unit, tuple(eps)])


def test_hom_search_grid_is_capped(f2):
    # maps k^a -> k^2 + A have 2a independent tops and no surjection
    # (the image is killed by e), so the search walks all 2^(2a) tuples
    target = dual_number_sum(f2, 2, 1)
    assert not surjection_exists(dual_number_sum(f2, 5, 0), target)
    with pytest.raises(TooLarge, match="2\\^18 tuples"):
        surjection_exists(dual_number_sum(f2, 9, 0), target)
    # the trivial summands are matched, so an isomorphism exists
    assert module_iso(dual_number_sum(f2, 2, 1), target) is not None


# Lab numbers that no golden file covers, written by the code before
# ArtinModule stored sparse action columns.  Per module: the Betti
# numbers b_0..b_4 and the socle dimension.  Per pair (M, N): dim
# Ext^0..Ext^2 and the number of hom-space basis maps.  The curve
# quotients give the same numbers over Q and over F5.
PINNED = {
    'lab-3,2': (
        {
            'module': ((2, 5, 11, 23, 47), 1),
            'target': ((2, 3, 6, 12, 24), 1),
            'trivial': ((1, 3, 7, 15, 31), 1),
            'free': ((1, 0, 0, 0, 0), 2),
            'dual': ((2, 3, 6, 12, 24), 1),
        },
        {
            ('module', 'module'): (3, 3, 3, 3),
            ('module', 'target'): (3, 0, 0, 3),
            ('module', 'trivial'): (2, 5, 11, 2),
            ('module', 'free'): (4, 4, 9, 4),
            ('module', 'dual'): (3, 0, 0, 3),
            ('target', 'module'): (3, 0, 0, 3),
            ('target', 'target'): (6, 0, 0, 6),
            ('target', 'trivial'): (2, 3, 6, 2),
            ('target', 'free'): (7, 4, 9, 7),
            ('target', 'dual'): (6, 0, 0, 6),
            ('trivial', 'module'): (1, 1, 1, 1),
            ('trivial', 'target'): (1, 0, 0, 1),
            ('trivial', 'trivial'): (1, 3, 7, 1),
            ('trivial', 'free'): (2, 3, 6, 2),
            ('trivial', 'dual'): (1, 0, 0, 1),
            ('free', 'module'): (3, 0, 0, 3),
            ('free', 'target'): (6, 0, 0, 6),
            ('free', 'trivial'): (1, 0, 0, 1),
            ('free', 'free'): (6, 0, 0, 6),
            ('free', 'dual'): (6, 0, 0, 6),
            ('dual', 'module'): (3, 0, 0, 3),
            ('dual', 'target'): (6, 0, 0, 6),
            ('dual', 'trivial'): (2, 3, 6, 2),
            ('dual', 'free'): (7, 4, 9, 7),
            ('dual', 'dual'): (6, 0, 0, 6),
        }),
    'lab-3,3': (
        {
            'module': ((2, 5, 11, 23, 47), 1),
            'target': ((2, 3, 6, 12, 24), 1),
            'trivial': ((1, 3, 7, 15, 31), 1),
            'free': ((1, 0, 0, 0, 0), 2),
            'dual': ((2, 3, 6, 12, 24), 1),
        },
        {
            ('module', 'module'): (3, 3, 3, 3),
            ('module', 'trivial'): (2, 5, 11, 2),
            ('target', 'module'): (3, 0, 0, 3),
            ('target', 'trivial'): (2, 3, 6, 2),
            ('trivial', 'module'): (1, 1, 1, 1),
            ('trivial', 'trivial'): (1, 3, 7, 1),
            ('free', 'module'): (3, 0, 0, 3),
            ('free', 'trivial'): (1, 0, 0, 1),
            ('dual', 'module'): (3, 0, 0, 3),
            ('dual', 'trivial'): (2, 3, 6, 2),
        }),
    'lab-4,2': (
        {
            'module': ((3, 11, 35, 107, 323), 1),
            'target': ((3, 8, 24, 72, 216), 1),
            'trivial': ((1, 4, 13, 40, 121), 1),
            'free': ((1, 0, 0, 0, 0), 3),
            'dual': ((3, 8, 24, 72, 216), 1),
        },
        {
            ('module', 'module'): (4, 4, 4, 4),
            ('module', 'trivial'): (3, 11, 35, 3),
            ('target', 'module'): (4, 0, 0, 4),
            ('target', 'trivial'): (3, 8, 24, 3),
            ('trivial', 'module'): (1, 1, 1, 1),
            ('trivial', 'trivial'): (1, 4, 13, 1),
            ('free', 'module'): (4, 0, 0, 4),
            ('free', 'trivial'): (1, 0, 0, 1),
            ('dual', 'module'): (4, 0, 0, 4),
            ('dual', 'trivial'): (3, 8, 24, 3),
        }),
    'cusp': (
        {
            'trivial': ((1, 1, 1, 1, 1), 1),
            'free': ((1, 0, 0, 0, 0), 1),
            'dual': ((1, 0, 0, 0, 0), 1),
        },
        {
            ('trivial', 'trivial'): (1, 1, 1, 1),
            ('trivial', 'free'): (1, 0, 0, 1),
            ('trivial', 'dual'): (1, 0, 0, 1),
            ('free', 'trivial'): (1, 0, 0, 1),
            ('free', 'free'): (2, 0, 0, 2),
            ('free', 'dual'): (2, 0, 0, 2),
            ('dual', 'trivial'): (1, 0, 0, 1),
            ('dual', 'free'): (2, 0, 0, 2),
            ('dual', 'dual'): (2, 0, 0, 2),
        }),
    'tacnode': (
        {
            'trivial': ((1, 1, 1, 1, 1), 1),
            'free': ((1, 0, 0, 0, 0), 1),
            'dual': ((1, 0, 0, 0, 0), 1),
        },
        {
            ('trivial', 'trivial'): (1, 1, 1, 1),
            ('trivial', 'free'): (1, 0, 0, 1),
            ('trivial', 'dual'): (1, 0, 0, 1),
            ('free', 'trivial'): (1, 0, 0, 1),
            ('free', 'free'): (2, 0, 0, 2),
            ('free', 'dual'): (2, 0, 0, 2),
            ('dual', 'trivial'): (1, 0, 0, 1),
            ('dual', 'free'): (2, 0, 0, 2),
            ('dual', 'dual'): (2, 0, 0, 2),
        }),
    '3,4,5': (
        {
            'trivial': ((1, 2, 4, 8, 16), 1),
            'free': ((1, 0, 0, 0, 0), 2),
            'dual': ((2, 3, 6, 12, 24), 1),
        },
        {
            ('trivial', 'trivial'): (1, 2, 4, 1),
            ('trivial', 'free'): (2, 3, 6, 2),
            ('trivial', 'dual'): (1, 0, 0, 1),
            ('free', 'trivial'): (1, 0, 0, 1),
            ('free', 'free'): (3, 0, 0, 3),
            ('free', 'dual'): (3, 0, 0, 3),
            ('dual', 'trivial'): (2, 3, 6, 2),
            ('dual', 'free'): (4, 4, 9, 4),
            ('dual', 'dual'): (3, 0, 0, 3),
        }),
}

CURVE_X = {"cusp": "t^2", "tacnode": "(t, t)", "3,4,5": "t^3"}
PINNED_FIELDS = {"Q": cd.rationals(), "F5": cd.prime_field(5)}
PINNED_CASES = [case for case in PINNED if case.startswith("lab-")]
PINNED_CASES += [f"{case}-{f}" for f in PINNED_FIELDS for case in CURVE_X]


@functools.lru_cache(maxsize=None)
def _pinned_modules(case):
    """The table key of a case and the modules it names: the lab at
    "lab-m,p", or O/x for the curves of CURVE_X at "name-field"."""
    if case.startswith("lab-"):
        lab = ext_lab_instance(*map(int, case[4:].split(",")))
        alg = lab.square.algebra
        mods = {"module": lab.module, "target": lab.target}
    else:
        case, _, fname = case.rpartition("-")
        field = PINNED_FIELDS[fname]
        if case in cd.curve_names():
            ring = cd.named_ring(field, case)
        else:
            ring = cd.build(cd.semigroup_spec(field, (3, 4, 5)))
        alg = curve_quotient(ring, elem(ring, CURVE_X[case])).algebra
        mods = {}
    free = free_module(alg)
    mods.update(trivial=trivial_module(alg), free=free, dual=matlis_dual(free))
    return case, mods


@pytest.mark.parametrize("case", PINNED_CASES)
def test_pinned_lab_numbers(case):
    key, mods = _pinned_modules(case)
    per_module, per_pair = PINNED[key]
    assert list(mods) == list(per_module)
    for name, module in mods.items():
        assert (minimal_resolution(module, 4),
                socle(module).dimension) == per_module[name], name
    for (mname, nname), want in per_pair.items():
        m, n = mods[mname], mods[nname]
        got = tuple(ext(m, n, i) for i in range(3)) + (len(hom_space(m, n)),)
        assert got == want, (mname, nname)


def _compose(cols, vec):
    """The map with sparse columns cols applied to the sparse vec."""
    out = {}
    for k, c in vec.items():
        out = vec_addmul(out, c, cols[k])
    return out


@pytest.mark.parametrize("case", PINNED_CASES)
def test_hom_maps_commute_with_the_action(case):
    _, mods = _pinned_modules(case)
    for m, n in itertools.product(mods.values(), repeat=2):
        for x in hom_space(m, n):
            assert len(x) == m.dim
            for mline, nline in zip(m.cols, n.cols):
                for q, mcol in enumerate(mline):
                    assert _compose(x, mcol) == _compose(nline, x[q])


@pytest.mark.parametrize("case", PINNED_CASES)
def test_matlis_dual_is_an_involution(case):
    _, mods = _pinned_modules(case)
    for module in mods.values():
        assert matlis_dual(matlis_dual(module)).cols == module.cols


def _is_module(algebra, cols, d):
    """The module identities on dense matrices, over every pair (i, j)."""
    zero = algebra.field.zero
    mats = [[[col.get(p, zero) for col in line] for p in range(d)]
            for line in cols]
    for i, j in itertools.product(range(algebra.dim), repeat=2):
        for r, c in itertools.product(range(d), repeat=2):
            prod = sum((mats[i][r][k] * mats[j][k][c] for k in range(d)),
                       zero)
            expect = sum((s * mats[k][r][c]
                          for k, s in algebra.mult[i][j].items()), zero)
            if prod != expect:
                return False
    return True


@pytest.mark.parametrize("name, genuine", [("free", 6), ("module", 6)])
def test_module_rejects_perturbed_actions(name, genuine):
    # adding one to a single entry of a radical action column mostly
    # breaks the module identities; the few perturbations that give a
    # module again (checked on dense matrices) must be accepted
    lab = ext_lab_instance(3, 2)
    module = free_module(lab.square.algebra) if name == "free" else lab.module
    algebra, d, one = module.algebra, module.dim, module.algebra.field.one
    accepted = 0
    for i, j, p in itertools.product(range(1, algebra.dim), range(d),
                                     range(d)):
        cols = [list(line) for line in module.cols]
        cols[i][j] = vec_addmul(cols[i][j], one, {p: one})
        if _is_module(algebra, cols, d):
            ArtinModule(algebra, cols)
            accepted += 1
        else:
            with pytest.raises(InvariantViolation, match="action disagrees"):
                ArtinModule(algebra, cols)
    assert accepted == genuine
    cols = [list(line) for line in module.cols]
    cols[1][0] = {**cols[1][0], d: one}
    with pytest.raises(InvariantViolation, match="ragged"):
        ArtinModule(algebra, cols)


@pytest.mark.parametrize("fn", [
    hom_space, module_iso, surjection_exists, enumerate_extensions,
    lambda m, n: ext(m, n, 1)],
    ids=("hom_space", "module_iso", "surjection_exists",
         "enumerate_extensions", "ext"))
def test_modules_over_different_algebras_are_refused(fn):
    # O/x^2 has dimension 6 and O/x dimension 3 at (3, 2); zipping
    # their action lists would answer anyway
    lab = ext_lab_instance(3, 2)
    square, linear = lab.square.algebra, lab.linear.algebra
    for make in (trivial_module, free_module):
        with pytest.raises(InvariantViolation, match="different algebras"):
            fn(make(square), make(linear))


def _algebra_fault(field, mult):
    """The first of unit, commutative, associative and nilpotent (the
    radical span(basis[1:])) that the structure constants break,
    checked on dense tables over every triple, or None."""
    n, zero, one = len(mult), field.zero, field.one
    m = [[[mult[i][j].get(k, zero) for k in range(n)] for j in range(n)]
         for i in range(n)]
    basis = [[one if k == i else zero for k in range(n)] for i in range(n)]
    if any(m[0][j] != basis[j] for j in range(n)):
        return "unit"
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
        return "commutative"

    def times(u, j):
        return [sum((u[i] * m[i][j][k] for i in range(n)), zero)
                for k in range(n)]

    if any(times(m[i][j], k) != times(m[j][k], i)
           for i, j, k in itertools.product(range(n), repeat=3)):
        return "associative"
    # in a commutative associative algebra the radical is nilpotent iff
    # every product of n radical basis elements vanishes
    prods = {tuple(basis[i]) for i in range(1, n)}
    for _ in range(n - 1):
        prods = {tuple(times(u, i)) for u in prods for i in range(1, n)}
    if any(any(u) for u in prods):
        return "nilpotent"
    return None


def test_algebra_rejects_perturbed_structure_constants():
    # adding one to a structure constant and to its mirror entry keeps
    # the table commutative; the validator must accept exactly the
    # perturbations that give an algebra again on dense tables, and
    # name the first property that breaks otherwise
    algebra = ext_lab_instance(3, 2).square.algebra
    field, n, one = algebra.field, algebra.dim, algebra.field.one
    assert _algebra_fault(field, algebra.mult) is None
    verdicts = {}
    for i, j, k in itertools.product(range(n), range(n), range(n)):
        if i > j:
            continue
        mult = [list(line) for line in algebra.mult]
        mult[i][j] = mult[j][i] = vec_addmul(mult[i][j], one, {k: one})
        fault = _algebra_fault(field, mult)
        verdicts[fault] = verdicts.get(fault, 0) + 1
        if fault is None:
            ArtinAlgebra(field, mult)
        else:
            with pytest.raises(InvariantViolation, match=fault):
                ArtinAlgebra(field, mult)
    assert verdicts == {None: 13, "unit": 36, "associative": 77}

"""The ten result records: construction, immutability, equality,
hashing, repr and the few behaviours some of them add, pinned by
behaviour only, so the tests hold for any implementation of the records.
Also the import-path rule: `import curvedual.cli` loads neither
`dataclasses` nor `inspect`."""

import argparse
import copy
import os
import pickle
import subprocess
import sys

import pytest

import curvedual as cd
from curvedual import cli, family
from curvedual.artin import (ClaimReport, ExtLabInstance, ExtRouteReport,
                             ReesReport, SocleData, WitnessReport)
from curvedual.curvering import CurveSpec, SemigroupData
from curvedual.duality import CanonicalModule, SerreReport

# every record compared by value, with its fields in constructor order
VALUE_RECORDS = [
    (SocleData, ("dimension", "basis")),
    (ExtLabInstance, ("m", "p", "ring", "x", "omega", "square", "linear",
                      "module", "target")),
    (ExtRouteReport, ("m", "p", "via_resolution", "via_enumeration",
                      "closed_form")),
    (ClaimReport, ("checked", "total", "m", "p")),
    (WitnessReport, ("witness", "total_classes", "passing_quotient_test",
                     "covered_by_target", "m", "p")),
    (ReesReport, ("ok", "length_via_duals", "hom_dimension")),
    (CurveSpec, ("field", "generators", "semigroup", "window_bound",
                 "label")),
    (SemigroupData, ("generators", "conductor", "delta", "symmetric",
                     "gaps")),
    (SerreReport, ("colength_normalization", "twice_colength_ring", "delta",
                   "dualizing_over_regular", "gorenstein")),
]
IDS = [cls.__name__ for cls, _ in VALUE_RECORDS]


def sample_values(cls, fields, shift=0):
    """Distinct hashable values, one per field; CurveSpec gets the
    tuples its normalisation would produce anyway."""
    values = [f"{name}-{shift}" for name in fields]
    if cls is CurveSpec:
        values[1] = (shift, 1)
        values[2] = (3, 5 + shift)
        values[3] = 100 + shift
    return values


@pytest.mark.parametrize("cls,fields", VALUE_RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    values = sample_values(cls, fields)
    pos = cls(*values)
    kw = cls(**dict(zip(fields, values)))
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    for name, value in zip(fields, values):
        assert getattr(pos, name) == value
        assert getattr(kw, name) == value
    assert pos == kw == mixed
    assert hash(pos) == hash(kw) == hash(mixed)


@pytest.mark.parametrize("cls,fields", VALUE_RECORDS, ids=IDS)
def test_value_equality_and_hash(cls, fields):
    rec = cls(*sample_values(cls, fields))
    same = cls(*sample_values(cls, fields))
    assert rec == same and not rec != same
    assert hash(rec) == hash(same)
    assert len({rec, same}) == 1
    for i in range(len(fields)):
        changed = list(sample_values(cls, fields))
        changed[i] = sample_values(cls, fields, shift=1)[i]
        assert rec != cls(*changed), fields[i]
    assert rec != tuple(sample_values(cls, fields))


def test_records_of_different_classes_never_compare_equal():
    assert SerreReport(1, 2, 3, 4, True) != ExtRouteReport(1, 2, 3, 4, True)
    assert ReesReport(True, 1, 1) != ClaimReport(True, 1, 1, 3)


@pytest.mark.parametrize("cls,fields", VALUE_RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields):
    values = sample_values(cls, fields)
    expected = ", ".join(f"{n}={v!r}" for n, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({expected})"


@pytest.mark.parametrize("cls,fields", VALUE_RECORDS, ids=IDS)
def test_records_are_frozen(cls, fields):
    values = sample_values(cls, fields)
    rec = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, "other")
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert [getattr(rec, name) for name in fields] == values


@pytest.mark.parametrize("cls,fields", VALUE_RECORDS, ids=IDS)
def test_constructor_rejects_bad_arguments(cls, fields):
    values = sample_values(cls, fields)
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    if cls is not CurveSpec:  # CurveSpec has defaults past its field
        with pytest.raises(TypeError):
            cls(*values[:-1])


@pytest.mark.parametrize("cls,fields", VALUE_RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields):
    rec = cls(*sample_values(cls, fields))
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_unhashable_field_makes_the_record_unhashable():
    rec = SocleData(1, ({0: 1},))
    assert rec == SocleData(1, ({0: 1},))
    with pytest.raises(TypeError):
        hash(rec)


# -- CurveSpec ---------------------------------------------------------------

def test_curve_spec_defaults(qq):
    spec = CurveSpec(qq)
    assert spec.field is qq
    assert spec.generators == ()
    assert spec.semigroup is None
    assert spec.window_bound == 200
    assert spec.label is None
    assert spec == CurveSpec(qq, (), None, 200, None)


def test_curve_spec_normalises_generators_and_semigroup(qq):
    gens = [cd.parse_element(qq, "t^2"), cd.parse_element(qq, "t^3")]
    spec = CurveSpec(qq, gens, semigroup=["3", 5.0, 7])
    assert spec.generators == tuple(gens)
    assert isinstance(spec.generators, tuple)
    assert spec.semigroup == (3, 5, 7)
    assert all(type(a) is int for a in spec.semigroup)
    assert CurveSpec(qq, semigroup=range(3, 6)).semigroup == (3, 4, 5)
    assert spec == CurveSpec(qq, tuple(gens), (3, 5, 7))
    assert hash(spec) == hash(CurveSpec(qq, tuple(gens), (3, 5, 7)))


@pytest.mark.parametrize("curve", ["cusp", "node", "3,5", "4,6,9"])
def test_window_bound_flag_replaces_only_the_bound(curve):
    ns = argparse.Namespace(curve=curve, field="F5", window_bound=77)
    spec = cli._curve_spec(ns)
    field = cd.parse_field("F5")
    if "," in curve:
        base = family.semigroup_spec(
            field, tuple(int(a) for a in curve.split(",")))
    else:
        base = family.named_spec(field, curve)
    assert base.window_bound == 200 and spec.window_bound == 77
    for name in ("field", "generators", "semigroup", "label"):
        assert getattr(spec, name) == getattr(base, name), name
    assert spec == CurveSpec(base.field, base.generators, base.semigroup,
                             77, base.label)


# -- CanonicalModule -----------------------------------------------------------

def test_canonical_module_compares_by_identity():
    first = CanonicalModule("module", ("c",), ("p",), 1)
    second = CanonicalModule("module", ("c",), ("p",), 1)
    assert first == first and first != second
    assert len({first, second}) == 2
    kw = CanonicalModule(module="module", conditions=("c",),
                         pole_monomials=("p",), rank=1, verdicts={"x": True})
    assert (kw.module, kw.conditions, kw.pole_monomials, kw.rank,
            kw.verdicts) == ("module", ("c",), ("p",), 1, {"x": True})


def test_canonical_module_verdicts_are_private_and_left_out_of_repr():
    first = CanonicalModule("module", ("c",), ("p",), 1)
    second = CanonicalModule("module", ("c",), ("p",), 1)
    assert first.verdicts == {} and first.verdicts is not second.verdicts
    first.verdicts["gorenstein-threshold"] = True
    assert second.verdicts == {}
    assert repr(first) == ("CanonicalModule(module='module', "
                           "conditions=('c',), pole_monomials=('p',), "
                           "rank=1)")
    with pytest.raises(AttributeError):
        first.verdicts = {}
    with pytest.raises(AttributeError):
        first.rank = 2


def test_canonical_module_of_a_ring_keeps_its_verdicts(named):
    data = cd.canonical_module(named["cusp"])
    assert data is cd.canonical_module(named["cusp"])
    cd.serre_report(named["cusp"])
    assert data.verdicts and all(type(v) is bool
                                 for v in data.verdicts.values())
    assert "verdicts" not in repr(data)


# -- truthiness and derived properties -------------------------------------------

def test_report_truthiness_is_its_verdict():
    assert bool(ReesReport(True, 5, 5)) is True
    assert bool(ReesReport(False, 5, 5)) is False
    # a Claim 4 report is returned only when the claim holds, so it
    # carries no verdict
    assert not hasattr(ClaimReport(4, 8, 3, 2), "ok")
    assert "__bool__" not in vars(ClaimReport)


def test_ext_route_report_properties():
    agree = ExtRouteReport(3, 2, 5, 5, 5)
    assert agree.routes_agree and agree.matches_closed_form
    split = ExtRouteReport(3, 2, 5, 4, 5)
    assert not split.routes_agree and split.matches_closed_form
    off = ExtRouteReport(3, 2, 6, 6, 5)
    assert off.routes_agree and not off.matches_closed_form
    with pytest.raises(AttributeError):
        agree.routes_agree = False


# -- the import path ---------------------------------------------------------------

def test_cli_import_loads_no_dataclasses_or_inspect():
    """Start-up cost: every command pays for what `curvedual.cli`
    imports, and neither module does any mathematics here."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, curvedual.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"

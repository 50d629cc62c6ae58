import io
import json
import shlex
import time

import pytest

from curvedual import cli, duality, toric2
from curvedual.artin import ext_lab_instance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_report_builtin(capsys):
    code, doc, err = run_json(capsys, "report", "cusp")
    assert code == 0 and err == ""
    assert doc["schema"] == "curvedual-report/1"
    assert doc["seed"] == 0
    assert doc["delta"] == 1
    assert doc["gorenstein"] is True
    assert doc["seminormal"] is False
    assert doc["pole_profile"] == [2]
    assert doc["conductor_duality_holds"] is True
    assert doc["omega_principal_generator"] is not None
    assert doc["ring"]["conductor_exponents"] == [2]


def test_report_semigroup_shortcut(capsys):
    code, doc, _ = run_json(capsys, "report", "3,4,5")
    assert code == 0
    assert doc["ring"]["label"] == "<3,4,5>"
    assert doc["gorenstein"] is False
    assert doc["omega_principal_generator"] is None
    assert doc["colength_normalization"] == 3


def test_report_over_prime_field(capsys):
    code, doc, _ = run_json(capsys, "report", "node", "--field", "F5")
    assert code == 0
    assert doc["ring"]["field"] == "F5"
    assert doc["delta"] == 1


def test_json_is_reproducible(capsys):
    first = run(capsys, "check", "tacnode", "--format", "json",
                "--seed", "7", "--cases", "5")
    second = run(capsys, "check", "tacnode", "--format", "json",
                 "--seed", "7", "--cases", "5")
    assert first == second
    assert first[0] == 0
    doc = json.loads(first[1])
    assert doc["status"] == "pass"
    assert doc["seed"] == 7
    assert "\"schema\"" in first[1]


def test_text_format_mentions_key_facts(capsys):
    code, out, _ = run(capsys, "report", "cusp")
    assert code == 0
    assert "delta: 1" in out
    assert "gorenstein: yes" in out
    assert "seminormal: no" in out


def test_omega_output(capsys):
    code, doc, _ = run_json(capsys, "omega", "3,4,5")
    assert code == 0
    assert doc["pole_profile"] == [3]
    assert doc["residue_rank"] == 1
    assert doc["residue_columns"] == ["t_0^-3", "t_0^-2", "t_0^-1"]
    assert len(doc["residue_matrix"]) == 1
    assert doc["residue_matrix"][0]["ring_element"] == "1"
    assert doc["principal_generator"] is None

    code, doc, _ = run_json(capsys, "omega", "2,3")
    assert doc["principal_generator"] is not None


def test_check_family_default(capsys):
    code, doc, _ = run_json(capsys, "check", "--cases", "6")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["counterexample"] is None
    assert len(doc["rings"]) >= 20
    names = set(doc["properties"])
    assert {"pole-profile", "biduality", "herbrand",
            "length-duality"} <= names
    assert all(slot["failures"] == 0 for slot in doc["properties"].values())


def test_check_injection_is_caught(capsys):
    code, doc, _ = run_json(capsys, "check", "cusp", "--cases", "4",
                            "--inject", "drop-residue-condition")
    assert code == 1
    assert doc["status"] == "fail"
    ce = doc["counterexample"]
    assert ce is not None
    assert ce["property"]
    assert "curvedual check --inline" in ce["rerun"]
    assert "--inject drop-residue-condition" in ce["rerun"]
    # the dumped curve text reproduces the failure standalone
    inline = ce["curve"]
    code2, doc2, _ = run_json(capsys, "check", "--inline", inline,
                              "--cases", "4", "--inject",
                              "drop-residue-condition")
    assert code2 == 1
    assert doc2["counterexample"]["property"] == ce["property"]


def test_semigroup_rerun_line_replays_branches_one(capsys):
    # format_curve_file writes `branches 1` next to a semigroup line,
    # and the rerun line must read it back as the same ring
    code, doc, _ = run_json(capsys, "check", "3,4,5", "--cases", "2",
                            "--inject", "drop-residue-condition")
    assert code == 1
    inline = doc["counterexample"]["curve"]
    assert "branches 1; semigroup 3 4 5" in inline
    code2, doc2, _ = run_json(capsys, "check", "--inline", inline,
                              "--cases", "2", "--inject",
                              "drop-residue-condition")
    assert code2 == 1
    assert doc2["counterexample"]["property"] == \
        doc["counterexample"]["property"]
    _, direct, _ = run_json(capsys, "report", "3,4,5")
    code3, replayed, _ = run_json(capsys, "report", "--inline", inline)
    assert code3 == 0
    direct["ring"].pop("label"), replayed["ring"].pop("label")
    assert replayed == direct


def test_check_injection_never_escalates_to_input_error(capsys):
    # dropping a residue condition can leave a window span that is not
    # even multiplication-closed; a property raising on such a corrupted
    # module must surface as a recorded failure, not a usage error
    for curve in ("tacnode", "node", "three-lines", "2,3", "3,4,5"):
        code, doc, _ = run_json(capsys, "check", curve, "--cases", "2",
                                "--inject", "drop-residue-condition")
        assert code == 1, curve
        assert doc["counterexample"]["rerun"], curve


@pytest.mark.parametrize("argv", [["check"], ["check", "5,7"]],
                         ids=("family", "curve"))
def test_check_past_the_case_cap_exits_2_at_once(capsys, monkeypatch, argv):
    # refused before any ring is built, with the family or a curve
    def refuse(*args, **kwargs):
        raise AssertionError("a ring was built past the case cap")

    monkeypatch.setattr(cli, "build", refuse)
    monkeypatch.setattr(cli.family, "family_rings", refuse)
    cap = duality.MAX_CASES
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--cases", str(cap + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert err == f"error: {cap + 1} cases exceed the bound {cap}\n"


def test_check_single_case_seed_reproduces(capsys):
    code, doc, _ = run_json(capsys, "check", "node", "--cases", "3",
                            "--seed", "11")
    assert code == 0
    # derived per-case seeds are recorded nowhere on success, but the
    # documented derivation must keep runs independent of case count
    again = run_json(capsys, "check", "node", "--cases", "3", "--seed", "11")
    assert again[1] == doc


def test_ext_lab_smallest(capsys):
    code, doc, _ = run_json(capsys, "ext-lab", "--m", "3", "--p", "2",
                            "--claim2")
    assert code == 0
    assert doc["ext_dimension"]["via_resolution"] == 5
    assert doc["ext_dimension"]["via_enumeration"] == 5
    assert doc["ext_dimension"]["closed_form"] == 5
    assert doc["status"] == "pass"
    assert "claim4" not in doc


def test_ext_lab_rejects_m2(capsys):
    code, out, err = run(capsys, "ext-lab", "--m", "2", "--p", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "m = 2" in err


def test_ext_lab_too_large(capsys):
    # refused by the resolution's size cap
    code, out, err = run(capsys, "ext-lab", "--m", "12", "--p", "2",
                         "--claim2")
    assert code == 2
    assert err.startswith("error:") and "bound 2048" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, built", [
    (["--m", "4", "--p", "3", "--cor3"], 88574),
    (["--m", "4", "--p", "5", "--cor3"], 12207032),
    (["--m", "3", "--p", "101", "--claim4"], 10304),
])
def test_ext_lab_past_the_line_cap_exits_2_at_once(capsys, argv, built):
    # one middle per line of extension classes, refused before the first
    start = time.perf_counter()
    code, out, err = run(capsys, "ext-lab", *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and not out
    assert err.startswith("error: ") and "bound 4096" in err
    assert f"{built} middles" in err
    assert "Traceback" not in err


def test_ext_lab_past_the_resolution_cap_exits_2_before_the_build(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ext-lab", "--m", "128", "--p", "2",
                         "--claim2")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and not out
    assert err.startswith("error: ") and "bound 2048" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("label, code", [("F1000000000000000003", 0),
                                         ("F1000000000000000001", 2)])
def test_report_over_an_18_digit_prime_label(capsys, label, code):
    start = time.perf_counter()
    got, out, err = run(capsys, "report", "3,4", "--field", label)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert "Traceback" not in err
    assert bool(out) == (code == 0)


def test_ext_lab_within_the_line_cap(capsys):
    # e = 11 over F2 and c = dim Hom(M, k) = 3: 2^11 classes, 2^11 - 2^8
    # pass the quotient test and 2^3 - 1 are covered
    code, doc, _ = run_json(capsys, "ext-lab", "--m", "4", "--p", "2",
                            "--cor3")
    assert code == 0
    cor3 = doc["cor3"]
    assert (cor3["classes_total"], cor3["classes_passing_quotient_test"],
            cor3["classes_covered_by_target"]) == (2048, 1792, 7)


# The benchmark's ext-lab jobs: the parts at (3, 2), then Claim 4 at
# (3, 3).
LAB_JOBS = [["--m", "3", "--p", "2", "--claim2"],
            ["--m", "3", "--p", "2", "--claim4"],
            ["--m", "3", "--p", "2", "--cor3"],
            ["--m", "3", "--p", "3", "--claim4"]]


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0),
                                   (0, 3, 1, 3, 2)],
                         ids=("benchmark", "reverse", "interleaved"))
def test_ext_lab_jobs_in_one_process_print_what_they_print_alone(
        capsys, order):
    # the kept lab is shared by the jobs of one (m, p) and replaced
    # between (m, p)s; no job's bytes may depend on what ran before it
    alone = []
    for argv in LAB_JOBS:
        ext_lab_instance.cache_clear()
        alone.append(run(capsys, "ext-lab", *argv, "--format", "json"))
    ext_lab_instance.cache_clear()
    for job in order:
        assert run(capsys, "ext-lab", *LAB_JOBS[job], "--format",
                   "json") == alone[job]


def test_toric_saturate(capsys):
    code, doc, _ = run_json(capsys, "toric", "saturate", "--model",
                            "pinched-plane")
    assert code == 0
    assert doc["already_saturated"] is False
    assert doc["idempotent"] is True
    assert sorted(map(tuple, doc["saturation_generators"])) == [(0, 1), (1, 0)]

    code, doc, _ = run_json(capsys, "toric", "saturate", "--gens", "1,0 0,1")
    assert doc["already_saturated"] is True


def test_toric_omega(capsys):
    code, doc, _ = run_json(capsys, "toric", "omega", "--model",
                            "diagonal-mod3")
    assert code == 0
    assert sorted(map(tuple, doc["omega_generators"])) == [(1, 2), (2, 1)]
    assert doc["principal_translation"] is None

    code, doc, _ = run_json(capsys, "toric", "omega")
    assert doc["principal_translation"] == [1, 1]


def test_toric_hull(capsys):
    code, doc, _ = run_json(capsys, "toric", "hull", "--model",
                            "pinched-plane", "--module", "0,0")
    assert code == 0
    assert doc["enlarged"] is True
    assert doc["idempotent"] is True
    assert sorted(map(tuple, doc["hull_generators"])) == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("argv, walks", [
    # saturated: the checked staircase certifies idempotence
    (["--model", "plane", "--module", "1015,0 0,1015"], 1),
    (["--model", "plane", "--module", "2,5 5,2"], 1),
    (["--model", "diagonal-mod3"], 1),
    # unsaturated: the hull is walked again
    (["--model", "pinched-plane"], 2),
    (["--gens", "10,2 9,-3 11,12", "--module", "0,0 2,15"], 2),
])
def test_toric_hull_walks_again_only_when_unsaturated(capsys, monkeypatch,
                                                      argv, walks):
    calls = []
    walk = toric2._window_generators

    def counted(module, b1, b2, size):
        calls.append(size)
        return walk(module, b1, b2, size)

    monkeypatch.setattr(toric2, "_window_generators", counted)
    code, doc, _ = run_json(capsys, "toric", "hull", *argv)
    assert code == 0 and doc["idempotent"] is True
    assert len(calls) == walks


@pytest.mark.parametrize("argv, built", [
    (["omega", "--model", "plane"], 1),
    (["omega", "--model", "diagonal-mod3"], 1),
    (["omega", "--model", "pinched-plane"], 1),
    (["saturate", "--model", "plane"], 2),
    (["saturate", "--model", "pinched-plane"], 2),
    (["saturate", "--gens", "45,1 2,1 1,1 1,45"], 2),
])
def test_toric_builds_only_the_semigroups_it_prints(capsys, monkeypatch,
                                                    argv, built):
    # S, and for saturate its saturation: saturation is decided by
    # `is_saturated`, with no second semigroup to compare
    count = []
    init = toric2.AffineSemigroup2.__init__

    def counted(self, generators):
        count.append(1)
        init(self, generators)

    monkeypatch.setattr(toric2.AffineSemigroup2, "__init__", counted)
    run(capsys, "toric", *argv)
    assert len(count) == built


def test_toric_point_lists_may_start_with_a_minus(capsys):
    # a lone value '-2,3' is a point list, not an unknown option
    glued = run(capsys, "toric", "hull", "--gens", "1,0 0,1",
                "--module=-2,3", "--format", "json")
    assert glued[0] == 0
    assert run(capsys, "toric", "hull", "--gens", "1,0 0,1", "--module",
               "-2,3", "--format", "json") == glued
    code, doc, _ = run_json(capsys, "toric", "hull", "--gens", "-1,2;3,4",
                            "--module", "-1,2")
    assert code == 0 and doc["hull_generators"] == [[-1, 2]]
    # a value that starts with '-' and no digit is still read as an
    # option: argparse exits 2 with its usage line, no traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["toric", "hull", "--module", "-x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected one argument" in err and "Traceback" not in err
    code, _, err = run(capsys, "toric", "hull", "--module", "-2,x")
    assert code == 2 and "lattice point '-2,x'" in err


@pytest.mark.parametrize("argv, option", [
    (["toric", "saturate", "--gens", ""], "--gens"),
    (["toric", "saturate", "--gens", "  "], "--gens"),
    (["toric", "omega", "--gens", ";"], "--gens"),
    (["toric", "hull", "--module", ""], "--module"),
    (["toric", "hull", "--gens", "1,0 0,1", "--module", " ; "], "--module"),
])
def test_toric_refuses_an_empty_point_list(capsys, argv, option):
    # an empty --gens is not the default plane, and an empty --module is
    # bad input, not an internal fault
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {option} needs at least one point x,y\n"


def test_toric_rejects_unsaturated_omega(capsys):
    code, out, err = run(capsys, "toric", "omega", "--model", "pinched-plane")
    assert code == 2
    assert "saturated" in err


def test_input_error_paths(capsys, tmp_path):
    code, _, err = run(capsys, "report", "doodle")
    assert code == 2 and "unknown curve" in err
    code, _, err = run(capsys, "report", "2,4")
    assert code == 2 and "common factor" in err
    code, _, err = run(capsys, "report", "--inline", "field Q; wibble")
    assert code == 2 and "line 2" in err
    code, _, err = run(capsys, "toric", "hull", "--gens", "1,0 0,1",
                       "--module", "nonsense")
    assert code == 2 and "lattice point" in err
    missing = tmp_path / "nope.curve"
    code, _, err = run(capsys, "report", str(missing))
    assert code == 2
    assert "Traceback" not in err


def test_curve_file_and_stdin(capsys, tmp_path, monkeypatch):
    text = "field Q\nbranches 2\ngen (t, 0)\ngen (0, t)\n"
    path = tmp_path / "mynode.curve"
    path.write_text(text, encoding="utf-8")
    code, doc, _ = run_json(capsys, "report", str(path))
    assert code == 0
    assert doc["ring"]["label"] == "mynode.curve"
    assert doc["delta"] == 1

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, doc, _ = run_json(capsys, "report", "-")
    assert code == 0
    assert doc["delta"] == 1


def test_window_bound_flag(capsys):
    code, _, err = run(capsys, "report", "--inline",
                       "field Q; gen t^11; gen t^12")
    assert code == 2 and "window bound" in err
    code, doc, _ = run_json(capsys, "report", "--inline",
                            "field Q; gen t^11; gen t^12",
                            "--window-bound", "300")
    assert code == 0
    assert doc["ring"]["conductor_exponents"] == [110]


def test_window_bound_past_its_cap_exits_2_at_once(capsys):
    # infinite colength on branches every generator reaches: the window
    # would double up to the bound (3.3 s at 8,194 on a 2-vCPU VM); past
    # the cap 8,194 the build refuses at once, before any closure
    inline = "field Q; branches 2; gen (t, t)"
    start = time.perf_counter()
    code, out, err = run(capsys, "report", "--inline", inline,
                         "--window-bound", "8195")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "window bound 8195 exceeds the bound 8194" in err
    code, out, err = run(capsys, "report", "--inline", inline,
                         "--window-bound", "20")
    assert code == 2 and err == ("error: no conductor below the window "
                                 "bound 20 on branches 0, 1 (counting "
                                 "from 0)\n")


@pytest.mark.parametrize("inline, branch", [
    ("field Q; branches 3; gen (t^2, t^3, 0)",
     "no generator reaches branch 2 (counting from 0)"),
    ("field Q; branches 2; gen (t, 0)",
     "no generator reaches branch 1 (counting from 0)"),
    ("field Q; gen t^" + "1" * 50,
     "no conductor below the window bound 200 on branch 0 (counting "
     "from 0)"),
    ("field Q; branches 2; gen (t, t)",
     "no conductor below the window bound 200 on branches 0, 1 "
     "(counting from 0)"),
], ids=("unreached-third", "unreached-second", "order-past-the-window",
        "diagonal"))
def test_infinite_colength_names_the_branch(capsys, inline, branch):
    # none of these scans sheds a slab, so no window would certify a
    # conductor and none is asked for; a branch no generator reaches is
    # refused before any closure, at once even under the widest bound
    code, out, err = run(capsys, "report", "--inline", inline)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert branch in err and "needs at least" not in err
    if "reaches" in branch:
        start = time.perf_counter()
        code, _, err = run(capsys, "report", "--inline", inline,
                           "--window-bound", "8194")
        assert code == 2 and branch in err
        assert time.perf_counter() - start < 0.5


def test_window_too_narrow_for_a_found_conductor_asks_for_more(capsys):
    # the scan sheds the slab at 110, so it names the window 2·110 + 2
    # that would certify it
    code, _, err = run(capsys, "report", "--inline",
                       "field Q; gen t^11; gen t^12")
    assert code == 2 and err == ("error: conductor not certified within "
                                 "window bound 200 (needs at least 222)\n")


def test_report_needs_curve(capsys):
    code, _, err = run(capsys, "report")
    assert code == 2
    assert "curve" in err


def test_rerun_line_under_a_window_bound_reproduces_the_counterexample(
        capsys):
    # the conductor 110 needs a window past the default bound 200, so
    # the printed line must carry the bound it was found under
    code, doc, _ = run_json(capsys, "check", "--inline",
                            "field Q; gen t^11; gen t^12", "--window-bound",
                            "300", "--inject", "drop-residue-condition",
                            "--cases", "1")
    assert code == 1
    ce = doc["counterexample"]
    assert "--window-bound 300" in ce["rerun"]
    code2, again, err = run_json(capsys, *shlex.split(ce["rerun"])[1:])
    assert code2 == 1 and err == ""
    assert again["counterexample"] == ce


# Inputs a subcommand would drop, each refused with exit 2: (argv, True
# for an argparse usage error, the option the message names).  Two
# options that exclude each other, or an option the subcommand does not
# take, are usage errors; the rest are `error:` lines.
DROPPED = {
    "ext-lab-field": (["ext-lab", "--m", "3", "--p", "2", "--claim2",
                       "--field", "F5"], True, "--field"),
    "ext-lab-window-bound": (["ext-lab", "--m", "3", "--p", "2", "--claim2",
                              "--window-bound", "5"], True, "--window-bound"),
    "ext-lab-window-bound-0": (["ext-lab", "--m", "3", "--p", "2",
                                "--window-bound", "0"], True,
                               "--window-bound"),
    "toric-field-window-bound": (["toric", "saturate", "--model", "plane",
                                  "--field", "F5", "--window-bound", "5"],
                                 True, "--field F5 --window-bound 5"),
    "toric-model-gens": (["toric", "saturate", "--model", "diagonal-mod3",
                          "--gens", "1,0 0,1"], True, "--gens"),
    "toric-saturate-module": (["toric", "saturate", "--module", "1,1 5,5"],
                              False, "--module"),
    "toric-omega-module": (["toric", "omega", "--module", "1,1 5,5"],
                           False, "--module"),
    "report-curve-inline": (["report", "cusp", "--inline",
                             "field Q; semigroup 3 4"], True, "--inline"),
    "report-inline-field": (["report", "--inline", "field Q; semigroup 3 4",
                             "--field", "F5"], False, "--field"),
    "check-family-window-bound": (["check", "--cases", "1",
                                   "--window-bound", "5"], False,
                                  "--window-bound"),
}


@pytest.mark.parametrize("argv, usage, named", DROPPED.values(),
                         ids=DROPPED)
def test_an_input_the_subcommand_would_drop_is_refused(capsys, argv, usage,
                                                       named):
    if usage:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        code, (out, err) = exc.value.code, capsys.readouterr()
    else:
        code, out, err = run(capsys, *argv)
        assert err.startswith("error: ")
    assert code == 2 and not out
    assert named in err.splitlines()[-1]
    assert "Traceback" not in err


def test_field_with_a_curve_file_or_stdin_is_refused(capsys, tmp_path,
                                                      monkeypatch):
    path = tmp_path / "cusp.curve"
    path.write_text("field Q\nsemigroup 2 3\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
    for source in (str(path), "-"):
        code, out, err = run(capsys, "report", source, "--field", "F5")
        assert code == 2 and not out
        assert err.startswith("error: --field")


@pytest.mark.parametrize("command", ["ext-lab", "toric"])
def test_help_lists_only_the_options_the_subcommand_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--seed" in out
    assert "--field" not in out and "--window-bound" not in out


def test_options_that_are_read_keep_their_bytes(capsys):
    # a given bound that the build does not need changes no byte, and
    # --gens alone is the semigroup with the ring as its module
    field = run(capsys, "report", "3,5", "--field", "F5", "--format", "json")
    bound = run(capsys, "report", "3,5", "--field", "F5", "--window-bound",
                "300", "--format", "json")
    assert bound == field and bound[0] == 0
    assert json.loads(bound[1])["ring"]["field"] == "F5"
    alone = run(capsys, "toric", "hull", "--gens", "1,0 0,1")
    assert alone == run(capsys, "toric", "hull", "--gens", "1,0 0,1",
                        "--module", "0,0")
    assert alone[0] == 0


MALFORMED = [
    ["toric", "saturate", "--gens", "a,b"],
    ["toric", "saturate", "--gens", "1,2,3"],
    ["toric", "saturate", "--gens", "1.5,2"],
    ["toric", "hull", "--module", "x,y"],
    ["toric", "hull", "--module", "1,"],
    ["report", "--inline", "field Q; branches 1; gen 1/0*t"],
    ["report", "--inline", "field Q; branches 1; gen 1/0 t + t^2"],
    ["omega", "--inline", "field Q; branches 1; gen 3/0*t^2"],
    ["check", "--inline", "field Q; branches 1; gen 1/0*t", "--cases", "1"],
    ["report", "--inline", "field F5; branches 1; gen 1/2*t"],
    ["report", "--inline", "field Q; branches 1; gen t^-1"],
    ["report", "--inline", "field Q; branches 2; gen (t^2, t^-3)"],
    ["report", "--inline", "field Q; branches x; gen t"],
    ["report", "--inline", "field Q; semigroup a"],
    ["report", "--inline", "field Fx; gen t^2"],
    ["report", "--inline", "field F4; gen t^2"],
    ["report", "--inline", "field Q; branches 1; gen (t^2"],
    ["report", "--inline", "field Q; branches 1; gen t^x"],
    ["report", "--field", "F1", "cusp"],
    ["report", "0,3"],
    ["check", "cusp", "--cases", "-1"],
    ["report", "--window-bound", "0", "cusp"],
    ["report", "--window-bound", "-5", "--inline",
     "field Q; branches 1; gen t^2 + t^3"],
    ["report", "--inline", "field F5; branches 1; gen t^2 + 3 t^3; field F7"],
    ["report", "--inline", "field F5; branches 1; gen t^2 + 3 t^3; field Q"],
    ["report", "--inline", "field Q; semigroup 2 3; semigroup 3 4"],
    ["report", "--inline", "field Q; gen (t^2, t); branches 1"],
    ["report", "--inline", "field Q; gen (t, 0); gen (0, t); branches 1"],
    ["report", "--inline", "field Q; branches 1; branches 1; gen t^2 + t^3"],
    ["report", "--inline", "field Q; branches 2; semigroup 2 3"],
    ["report", "--inline", "field Q; semigroup 2 3; branches 2"],
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_exits_2_without_traceback(capsys, argv):
    # exit 1 is kept for a failed property, never for bad input
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["report", "99999999999,2"],
    ["report", "3001,3002"],
    ["report", "--inline", "field Q; semigroup 99999999999 2"],
    ["report", "--inline", "field Q; semigroup 3001 3002"],
])
def test_semigroup_past_the_conductor_cap_exits_2_at_once(capsys, argv):
    # conductors 99999999998 and about 9e6: the sieve stops at its cap
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert err.startswith("error: ") and "bound 4096" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, bound", [
    # the module's minimality test: (3, 99999999999) lies at level 1e11
    (["toric", "hull", "--model", "plane", "--module", "0,0 3,99999999999"],
     "bound 8192"),
    # the semigroup's minimality test runs the same search
    (["toric", "saturate", "--gens", "1,0 0,1 99999999999999999999,1"],
     "bound 8192"),
    # a walk over the square of width 6017
    (["toric", "hull", "--model", "plane", "--module", "3000,0 0,3000"],
     "bound 2048"),
    # a staircase of 5001 columns
    (["toric", "saturate", "--gens", "1,0 1,1 1,5000"], "bound 2048"),
])
def test_toric_past_a_search_cap_exits_2_at_once(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert err.startswith("error: ") and bound in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gens, kept", [
    # a group of index 10^9, but a staircase of two columns
    ("1,0 0,1000000000", 2),
    # a fat parallelogram, 2,024 group points in a box of 2,209: a
    # staircase of 2,025 columns that keeps 89 points
    ("45,1 2,1 1,1 1,45", 89),
])
def test_toric_saturate_within_the_staircase_cap(capsys, gens, kept):
    start = time.perf_counter()
    code, doc, _ = run_json(capsys, "toric", "saturate", "--gens", gens)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert len(doc["saturation_generators"]) == kept
    assert doc["idempotent"] is True


def test_parser_is_built_once_and_reused(capsys):
    """A bad argv (exit 2) leaves the one cached parser as it was: a good
    argv after it prints the bytes it prints alone."""
    good = ["report", "7,9", "--field", "F5", "--format", "json"]
    cli._build_parser.cache_clear()
    assert cli.main(good) == 0
    alone = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "7,9", "--cases", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(good) == 0
    assert capsys.readouterr().out == alone
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().misses == 1

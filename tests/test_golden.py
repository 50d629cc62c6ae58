"""Byte-for-byte regression of `--format json` output.

The files under tests/golden/ were written by the CLI before the
elimination kernel was pivot-indexed; every later change to the
linear algebra must leave these bytes alone.  The ext-lab files were
written while the lab still built one middle per extension class, so
they pin the counts and the witness of the one-middle-per-line walk.
Three more ext-lab files pin the lab at m = 4, where O/x^2 has
dimension 8: the two Ext routes at p = 2 and Claim 4 at p = 2 and
p = 3.  They were written while algebra elements were still dense
coefficient tuples and the algebra checked associativity by its own
loop.  Two files pin Corollary 3, its counts and its witness, at (3, 5)
and (4, 2); they were written while `witness_cor3` still ran a
surjection search on every passing line of classes.  Two more pin
Claim 4 at (5, 2) and (3, 7); they were written while the walk still
built a middle for every line and searched an isomorphism onto the
target for each passing one.
The toric files were written while `s2_hull` still filtered a full
grid of edge coordinates and minimalized every hull point of its
window; the lattice walk must give the same bytes.  They cover
`saturate`, `omega` and `hull` on the three named models, the hard
semigroup 1,7 3,2 7,2 7,7 and a semigroup of det 40.  Two more hull
files, on 3,4 3,0 7,5 8,3 and 1,-2 1,8 6,-1 6,4, need the corner window
to double; they were written while the rim was still certified point by
point against the extracted module.  One more hull file, on 10,2 9,-3
11,12 with the module 0,0 2,15, was written while each ray
localization still walked every multiple of the ray's gcd between two
bounds, a long range on this semigroup, instead of one residue lookup.
Two more hull files were written while the walk still tested every
group point of its square, before it walked residue classes: the plane
with the module 1015,0 0,1015, whose square is the widest the walk
allows, and 4,0 6,0 0,5 1,1 with the module 0,0 -2,1, which has two
generators on its first ray and a module point with a negative
coordinate.
The pinched plane is not saturated, so its `omega` exits 2 with nothing
on stdout.
The two extra `check` files pin the failure path (an injected fault,
exit 1, counterexample `delta-over-regular` with a null error) and the
family path; they were written before the harness and the library's
reporters came to share one invariant table.  Two more `check` files pin
the random cases (biduality, Herbrand, length duality) with their run
counts, over F5 on three branches and on the semigroup ring <5,7>;
they were written while every dual was still a general colon.  The
`omega` files of the three generator curves (one branch, two and three
branches) were written before the ring closure, the module products
and the class maps came to share one clipped product and one slab
scan.  Two files pin answers at scale over Q: `check 13,17 --cases 5`
and `report 17,19`.  They were written while every elimination over Q
still ran in `Fraction`s and inserted module rows in the given order,
which took about 12 s for the check; they now take under a second.  A
changed byte at scale fails here; a swell that comes back fails the
row-rewrite count in test_fracideal.py and shows here as a slow run.
`omega 29,31` prints 4.6 MB of JSON, too large for a file here, so its
output is pinned by sha256 digests, JSON and text; they were written
while every entry of the residue matrix was still formatted on its own.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from curvedual import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "report-quartic-branch.json": ["report", "inputs/quartic-branch.curve"],
    "report-semigroup-345-f5.json": ["report", "inputs/semigroup-345-f5.curve"],
    "report-tacnode.json": ["report", "inputs/tacnode.curve"],
    "report-three-lines.json": ["report", "inputs/three-lines.curve"],
    "report-7-9-Q.json": ["report", "7,9", "--field", "Q"],
    "report-7-9-F5.json": ["report", "7,9", "--field", "F5"],
    "omega-7-9-Q.json": ["omega", "7,9", "--field", "Q"],
    "omega-7-9-F5.json": ["omega", "7,9", "--field", "F5"],
    "omega-quartic-branch.json": ["omega", "inputs/quartic-branch.curve"],
    "omega-tacnode.json": ["omega", "inputs/tacnode.curve"],
    "omega-three-lines.json": ["omega", "inputs/three-lines.curve"],
    "check-tacnode-cases8-seed2.json": ["check", "tacnode", "--cases", "8",
                                        "--seed", "2"],
    "check-tacnode-inject-drop-residue-condition.json": [
        "check", "tacnode", "--inject", "drop-residue-condition"],
    "check-family-cases1-seed3.json": ["check", "--cases", "1",
                                       "--seed", "3"],
    "check-three-lines-F5-cases8.json": ["check", "three-lines", "--field",
                                         "F5", "--cases", "8"],
    "check-5-7-cases6.json": ["check", "5,7", "--cases", "6"],
    "check-13-17-Q-cases5.json": ["check", "13,17", "--cases", "5",
                                  "--field", "Q"],
    "report-17-19-Q.json": ["report", "17,19", "--field", "Q"],
    "ext-lab-3-2.json": ["ext-lab", "--m", "3", "--p", "2"],
    "ext-lab-3-3-claim4.json": ["ext-lab", "--m", "3", "--p", "3",
                                "--claim4"],
    "ext-lab-3-3-cor3.json": ["ext-lab", "--m", "3", "--p", "3", "--cor3"],
    "ext-lab-3-5-cor3.json": ["ext-lab", "--m", "3", "--p", "5", "--cor3"],
    "ext-lab-4-2-cor3.json": ["ext-lab", "--m", "4", "--p", "2", "--cor3"],
    "ext-lab-4-2-claim2.json": ["ext-lab", "--m", "4", "--p", "2",
                                "--claim2"],
    "ext-lab-4-2-claim4.json": ["ext-lab", "--m", "4", "--p", "2",
                                "--claim4"],
    "ext-lab-4-3-claim4.json": ["ext-lab", "--m", "4", "--p", "3",
                                "--claim4"],
    "ext-lab-5-2-claim4.json": ["ext-lab", "--m", "5", "--p", "2",
                                "--claim4"],
    "ext-lab-3-7-claim4.json": ["ext-lab", "--m", "3", "--p", "7",
                                "--claim4"],
    "toric-hull-gens-17-32-72-77.json": ["toric", "hull", "--gens",
                                         "1,7 3,2 7,2 7,7", "--module",
                                         "0,0"],
    "toric-hull-gens-10-140.json": ["toric", "hull", "--gens", "1,0 1,40",
                                    "--module", "0,0"],
    "toric-hull-gens-3-4-3-0-7-5-8-3.json": ["toric", "hull", "--gens",
                                             "3,4 3,0 7,5 8,3", "--module",
                                             "0,0"],
    "toric-hull-gens-1-m2-1-8-6-m1-6-4.json": ["toric", "hull", "--gens",
                                               "1,-2 1,8 6,-1 6,4",
                                               "--module=-5,-6"],
    "toric-hull-gens-10-2-9-m3-11-12-mod-0-0-2-15.json": [
        "toric", "hull", "--gens", "10,2 9,-3 11,12", "--module", "0,0 2,15"],
    "toric-hull-plane-mod-1015-0-0-1015.json": [
        "toric", "hull", "--model", "plane", "--module", "1015,0 0,1015"],
    "toric-hull-gens-4-0-6-0-0-5-1-1-mod-0-0-m2-1.json": [
        "toric", "hull", "--gens", "4,0 6,0 0,5 1,1", "--module", "0,0 -2,1"],
}
for _model in ("plane", "diagonal-mod3", "pinched-plane"):
    for _sub in ("saturate", "omega", "hull"):
        CASES[f"toric-{_sub}-{_model}.json"] = ["toric", _sub,
                                               "--model", _model]

# Exit codes other than 0.
EXIT_CODES = {"toric-omega-pinched-plane.json": 2,
              "check-tacnode-inject-drop-residue-condition.json": 1}


def run_json(argv):
    """(exit code, stdout bytes) of one CLI call with JSON output."""
    argv = [str(ROOT / a) if a.startswith("inputs/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_bytes_match_golden(name):
    code, got = run_json(CASES[name])
    assert code == EXIT_CODES.get(name, 0)
    assert got == (GOLDEN / name).read_bytes()


# sha256 of the stdout of `omega 29,31`, per --format.
OMEGA_29_31 = {
    "json": "3db5073434e8e6032ee295c06df27fb08311dd0ebe0a2534bec11e54be672ca1",
    "text": "fae87c5241b64a65679b8ed0fbf5fb4240092bbf03b7fb38da242c7aeb06f723",
}


@pytest.mark.parametrize("fmt", sorted(OMEGA_29_31))
def test_omega_at_scale_matches_its_digest(fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["omega", "29,31", "--format", fmt])
    assert code == 0
    got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert got == OMEGA_29_31[fmt]

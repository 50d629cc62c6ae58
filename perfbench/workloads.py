"""Seeded job lists for the three benchmark workloads.

A job is a dict:

- ``argv``: the argument list given to ``curvedual.cli.main`` (without
  ``--format json``, which the pass runner always appends), or
- ``derive``: ``{"from": index, "rule": "rerun" | "saturation"}`` for a
  job whose argv is read from the output of an earlier job of the pass;
- ``cmd``: the subcommand, for the per-command time sums;
- ``field``: ``"Q"``, ``"Fp"`` or ``None``, for the per-field time sums;
- ``expect``: what the oracle in ``oracles.py`` checks the output against;
- ``scale``: optional key of the scaling record the job's time goes to.

Every input comes from the generators below and the workload seed; the
seed is also passed through as ``--seed`` on every job.  Nothing here
imports curvedual.
"""

from __future__ import annotations

import math
import random

PRIMES = (5, 7, 11)

# Builtin curve names of the CLI, and whether dropping a residue
# condition can break each one: the smooth line has conductor 0, so its
# residue matrix has no condition to drop and the injection is a no-op.
BUILTIN_INJECTABLE = {
    "axes": True, "cusp": True, "node": True, "smooth": False,
    "tacnode": True, "three-lines": True,
}

# Multi-branch curves: fixed exponent templates, seeded nonzero
# coefficient c.  Each template gives a finite-colength ring for every
# c that _coefficient draws, over Q and over each of PRIMES.
TWO_BRANCH_MID = "branches 2; gen (t^4, t^2); gen (t^5, {c} t^3)"
TWO_BRANCH_SMALL = "branches 2; gen (t^3, t^2); gen (t^4, {c} t^3)"
THREE_BRANCH_A = ("branches 3; gen (t^3, t^5, 0); gen (t^4, 0, t^5); "
                  "gen (0, t^4, {c} t^3)")
THREE_BRANCH_B = ("branches 3; gen (t^4, t^3, t^5); gen (t^5, {c} t^4, 0); "
                  "gen (0, t^5, t^4)")

# What `report` must print for the templates it runs on, the same for
# every coefficient and field drawn: (conductor exponent on each branch,
# colength of the ring in its conductor).  The two-branch templates are
# plane curves with monomial branches, (t^4, t^5) and (t^2, c t^3) for
# TWO_BRANCH_MID: there the branch semigroups <4,5> and <2,3> give
# conductors 12 and 2 (delta 6 and 1), the branches meet with
# multiplicity min(4*3, 5*2) = 10, so the conductor exponents are
# 12+10 and 2+10, and delta (the ring's colength, as plane curves are
# Gorenstein) is 6+1+10.  TWO_BRANCH_SMALL likewise gives <3,4>, <2,3>
# and min(3*3, 4*2) = 8.  THREE_BRANCH_B is a space curve with no such
# formula; its values are curvedual's own output when this table was
# written.  THREE_BRANCH_A is left out: its invariants depend on c, and
# it only runs under `check`.
CURVE_INVARIANTS = {
    TWO_BRANCH_MID: ([12 + 10, 2 + 10], 6 + 1 + 10),
    TWO_BRANCH_SMALL: ([6 + 8, 2 + 8], 3 + 1 + 8),
    THREE_BRANCH_B: ([15, 12, 16], 16),
}

# Every job is kept short (tens of milliseconds, a few at 0.1-0.3 s) so
# that a run repeats each one often.  On a shared host the speed of a
# core flips between a fast and a slow state every few tens of
# milliseconds, and the share of slow time drifts over seconds to
# minutes: a job's fastest of many short runs keeps to the fast state,
# while a job of seconds always averages in whatever share of slow
# time its run happens to get.
TOP_RUNG = (7, 9)  # conductor 48, the top of the sweep
LADDER_CONDUCTORS = (12, 24, 36, 42)
HARNESS_CONDUCTORS = (12, 20, 24)


def conductor(pair):
    a, b = pair
    return (a - 1) * (b - 1)


def pairs_with_conductor(c, max_b=60):
    """Coprime pairs 3 <= a < b <= max_b whose semigroup has conductor c.

    Pairs with equal conductor have the same ring colength, so they cost
    about the same; drawing a band by its exact conductor keeps the
    seed from moving the workload's size.
    """
    out = []
    for a in range(3, max_b):
        if c % (a - 1):
            continue
        b = c // (a - 1) + 1
        if a < b <= max_b and math.gcd(a, b) == 1:
            out.append((a, b))
    return out


def _fieldname(p):
    return "Q" if p is None else f"F{p}"


def _field_tag(p):
    return "Q" if p is None else "Fp"


def _coefficient(rng, p):
    """A small coefficient that is nonzero over Q and over F_p."""
    return rng.randint(1, 6 if p is None else min(6, p - 1))


def _semigroup_job(cmd, pair, p, seed, extra=()):
    argv = [cmd, f"{pair[0]},{pair[1]}", "--field", _fieldname(p),
            "--seed", str(seed), *extra]
    return {"argv": argv, "cmd": cmd, "field": _field_tag(p),
            "expect": {"kind": f"{cmd}-semigroup", "gens": list(pair)}}


def _inline_job(cmd, template, rng, p, seed, extra=()):
    text = f"field {_fieldname(p)}; " + template.format(c=_coefficient(rng, p))
    argv = [cmd, "--inline", text, "--seed", str(seed), *extra]
    return {"argv": argv, "cmd": cmd, "field": _field_tag(p)}


def conductor_sweep(seed):
    """Few, larger objects: `report` up a conductor ladder to (7,9),
    `omega` on the two top rungs, and seeded multi-branch reports."""
    rng = random.Random(f"conductor-sweep:{seed}")
    p = rng.choice(PRIMES)
    ladder = [rng.choice(pairs_with_conductor(c)) for c in LADDER_CONDUCTORS]
    ladder.append(TOP_RUNG)
    jobs = []
    for pair in ladder:
        for field in (None, p):
            job = _semigroup_job("report", pair, field, seed)
            job["scale"] = {"conductor": conductor(pair), "pair": list(pair),
                            "field": _fieldname(field)}
            jobs.append(job)
    for pair in ladder[-2:]:
        job = _semigroup_job("omega", pair, None, seed)
        job["scale"] = {"conductor": conductor(pair), "pair": list(pair),
                        "field": "Q"}
        jobs.append(job)
    for template, field in ((TWO_BRANCH_MID, p), (TWO_BRANCH_SMALL, None),
                            (THREE_BRANCH_B, p)):
        job = _inline_job("report", template, rng, field, seed)
        cond, ring = CURVE_INVARIANTS[template]
        job["expect"] = {"kind": "report-curve", "conductor_exponents": cond,
                         "colength_ring": ring}
        jobs.append(job)
    return jobs


def property_harness(seed):
    """Many small objects and the failure path: `check` over the builtin
    family and on each builtin curve, three semigroup rings, two
    multi-branch curves, and the fault injection on every builtin name
    with its printed rerun line."""
    rng = random.Random(f"property-harness:{seed}")
    p = rng.choice(PRIMES)
    s = str(seed)
    jobs = [{"argv": ["check", "--field", "Q", "--cases", "1", "--seed", s],
             "cmd": "check", "field": "Q", "expect": {"kind": "check"}}]
    for name in BUILTIN_INJECTABLE:
        for field in (None, p):
            jobs.append({"argv": ["check", name, "--field", _fieldname(field),
                                  "--cases", "8", "--seed", s],
                         "cmd": "check", "field": _field_tag(field),
                         "expect": {"kind": "check"}})
    for c in HARNESS_CONDUCTORS:
        pair = rng.choice(pairs_with_conductor(c))
        for field in (None, p):
            job = _semigroup_job("check", pair, field, seed,
                                 extra=("--cases", "2"))
            job["expect"] = {"kind": "check"}
            jobs.append(job)
    for template, field in ((THREE_BRANCH_A, None), (THREE_BRANCH_B, p)):
        job = _inline_job("check", template, rng, field, seed,
                          extra=("--cases", "1"))
        job["expect"] = {"kind": "check"}
        jobs.append(job)
    for name, injectable in BUILTIN_INJECTABLE.items():
        jobs.append({"argv": ["check", name, "--inject",
                              "drop-residue-condition", "--seed", s],
                     "cmd": "check", "field": "Q",
                     "expect": {"kind": "inject", "fails": injectable}})
        if injectable:
            jobs.append({"derive": {"from": len(jobs) - 1, "rule": "rerun"},
                         "cmd": "check", "field": "Q",
                         "expect": {"kind": "inject", "fails": True}})
    return jobs


# Plane semigroups with coordinates <= 7, drawn once from random points
# and kept when their S2 hull over the ring itself took 55-80 ms; the
# seed picks three of them per pass, so it cannot move the pass much.
PLANE_POOL = (
    "0,1 0,3 1,3 6,6", "0,3 5,7 7,5 7,6", "1,5 2,7 6,0", "1,4 5,7 7,1",
    "2,6 2,7 6,4", "0,7 1,7 6,6", "0,1 2,4 3,6 5,5", "2,5 3,3 3,5 4,5",
    "1,6 2,6 3,7 5,1",
)
# The Ext lab in parts, each a separate job: both Ext routes, the claim 4
# rigidity sweep over the q^e pushout middles, and the Corollary 3
# witness at (3, 2); the claim 4 sweep again at (3, 3).  Whole labs
# take seconds from (3, 3) on.
EXT_LABS = ((3, 2, "claim2"), (3, 2, "claim4"), (3, 2, "cor3"),
            (3, 3, "claim4"))


def finite_labs(seed):
    """The finite algebra and the plane models: the Ext lab in parts at
    (3, 2) and (3, 3), `toric saturate|hull` on the named models and on
    seeded plane semigroups, and `toric omega` on every saturation."""
    rng = random.Random(f"finite-labs:{seed}")
    s = str(seed)
    jobs = []
    for m, p, mode in EXT_LABS:
        jobs.append({"argv": ["ext-lab", "--m", str(m), "--p", str(p),
                              "--seed", s, f"--{mode}"],
                     "cmd": "ext-lab", "field": "Fp",
                     "expect": {"kind": "ext-lab", "m": m, "mode": mode},
                     "scale": {"m": m, "p": p, "mode": mode}})
    sources = [["--model", name]
               for name in ("plane", "diagonal-mod3", "pinched-plane")]
    sources += [["--gens", g] for g in rng.sample(PLANE_POOL, 3)]
    for src in sources:
        jobs.append({"argv": ["toric", "saturate", *src, "--seed", s],
                     "cmd": "toric", "field": None,
                     "expect": {"kind": "toric-saturate"}})
        jobs.append({"derive": {"from": len(jobs) - 1, "rule": "saturation"},
                     "cmd": "toric", "field": None,
                     "expect": {"kind": "toric-omega"}})
        # module: for the models, the ring plus one seeded point of the
        # group, which may lie outside the semigroup (diagonal-mod3's
        # group is x+y = 0 mod 3); for the pool, the ring itself.
        module = "0,0"
        if src[0] == "--model":
            a = rng.randint(1, 3)
            b = (-a) % 3 if src[1] == "diagonal-mod3" else rng.randint(0, 2)
            module += f" {a},{b}"
        jobs.append({"argv": ["toric", "hull", *src, "--module", module,
                              "--seed", s],
                     "cmd": "toric", "field": None,
                     "expect": {"kind": "toric-hull"}})
    return jobs


WORKLOADS = {
    "conductor-sweep": conductor_sweep,
    "property-harness": property_harness,
    "finite-labs": finite_labs,
}

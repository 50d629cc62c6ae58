"""Output checks that do not use curvedual.

Semigroup rings are checked against this module's own sieve of the
numerical semigroup; multi-branch reports against the fixed invariants
of their templates (``workloads.CURVE_INVARIANTS``); the Ext lab
against the closed form m^2 - m - 1; plane semigroups against a cone
test and the Hermite form of the generated lattice.  ``check(job, rc, stdout, seed)`` returns a
list of problems, empty when the output is right.
"""

from __future__ import annotations

import json
import math

SCHEMA = "curvedual-report/1"


def semigroup_sieve(gens):
    """(conductor, elements below it) of the numerical semigroup <gens>."""
    if math.gcd(*gens) != 1:
        raise ValueError(f"generators {gens} have a common factor")
    # Schur: the conductor is at most (min - 1)(max - 1)
    limit = (min(gens) - 1) * (max(gens) - 1) + 1
    member = [False] * (limit + 1)
    member[0] = True
    for n in range(1, limit + 1):
        member[n] = any(n >= a and member[n - a] for a in gens)
    cond = max((n + 1 for n in range(limit + 1) if not member[n]), default=0)
    return cond, sum(member[:cond])


# -- plane semigroups -----------------------------------------------------------

def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _rays(gens):
    """The two extremal generators of a pointed plane cone, clockwise
    one first."""
    lo = hi = gens[0]
    for g in gens[1:]:
        if _cross(lo, g) < 0:
            lo = g
        if _cross(hi, g) > 0:
            hi = g
    return lo, hi


def _in_cone(pt, rays, strict=False):
    a, b = _cross(rays[0], pt), _cross(pt, rays[1])
    return (a > 0 and b > 0) if strict else (a >= 0 and b >= 0)


def _lattice(gens):
    """Hermite form (a, b, d) of the lattice Z(a, b) + Z(0, d)."""
    a = b = d = 0
    for u, w in gens:
        if u == 0:
            d = math.gcd(d, w)
            continue
        if a == 0:
            a, b = u, w
            continue
        g = math.gcd(a, u)
        x, y = _bezout(a, u)
        d = math.gcd(d, (u // g) * b - (a // g) * w)
        a, b = g, x * b + y * w
    if a < 0:
        a, b = -a, -b
    if d:
        b %= d
    return a, b, d


def _bezout(a, b):
    """x, y with a*x + b*y == gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        x0, y0 = -x0, -y0
    return x0, y0


def _in_lattice(pt, hnf):
    a, b, d = hnf
    if pt[0] % a:
        return False
    rest = pt[1] - (pt[0] // a) * b
    return rest % d == 0 if d else rest == 0


# -- per-command checks ------------------------------------------------------------

def _report_semigroup(out, job):
    c, below = semigroup_sieve(job["expect"]["gens"])
    gaps = c - below
    want = {
        ("ring", "conductor_exponents"): [c],
        ("colength_normalization",): c,
        ("colength_ring",): below,
        ("delta",): gaps,
        ("dualizing_over_regular",): gaps,
        ("gorenstein",): c == 2 * below,
        ("seminormal",): c <= 1,
        ("pole_profile",): [c],
        ("conductor_duality_holds",): True,
    }
    problems = [_expect(out, path, value) for path, value in want.items()]
    if (out.get("omega_principal_generator") is not None) != (c == 2 * below):
        problems.append("principal generator disagrees with symmetry")
    return problems


def _report_curve(out, job):
    expect = job["expect"]
    cond = expect["conductor_exponents"]
    norm, ring = sum(cond), expect["colength_ring"]
    want = {
        ("ring", "branches"): len(cond),
        ("ring", "conductor_exponents"): cond,
        ("colength_ring",): ring,
        ("colength_normalization",): norm,
        ("delta",): norm - ring,
        ("dualizing_over_regular",): norm - ring,
        ("gorenstein",): norm == 2 * ring,
        ("seminormal",): all(x <= 1 for x in cond),
        ("pole_profile",): cond,
        ("conductor_duality_holds",): True,
    }
    problems = [_expect(out, path, value) for path, value in want.items()]
    if (out.get("omega_principal_generator") is not None) != (norm == 2 * ring):
        problems.append("principal generator disagrees with gorenstein")
    return problems


def _omega_semigroup(out, job):
    c, below = semigroup_sieve(job["expect"]["gens"])
    return [
        _expect(out, ("residue_rank",), below),
        _expect(out, ("pole_profile",), [c]),
        _expect(out, ("ring", "conductor_exponents"), [c]),
        None if len(out["residue_matrix"]) == below
        else "residue matrix row count is not the ring colength",
        None if len(out["residue_columns"]) == c
        else "residue column count is not the conductor",
    ]


def _check(out, job):
    problems = [_expect(out, ("status",), "pass"),
                _expect(out, ("counterexample",), None)]
    for name, slot in out.get("properties", {}).items():
        if slot["failures"]:
            problems.append(f"property {name} failed {slot['failures']} times")
    return problems


def _inject(out, job):
    if not job["expect"]["fails"]:
        return [_expect(out, ("status",), "pass")]
    cex = out.get("counterexample") or {}
    rerun = cex.get("rerun") or ""
    return [_expect(out, ("status",), "fail"),
            None if rerun.startswith("curvedual check ")
            else "counterexample carries no rerun line"]


def _ext_lab(out, job):
    """A lab job runs one part (`claim2`, `claim4` or `cor3`) and prints
    that part's payload and no other; a missing payload is a problem."""
    m, mode = job["expect"]["m"], job["expect"]["mode"]
    problems = [_expect(out, ("status",), "pass")]
    for part in ("claim2", "claim4", "cor3"):
        key = "ext_dimension" if part == "claim2" else part
        if mode != part:
            if key in out:
                problems.append(f"{key} computed outside its mode")
        elif part == "claim2":
            problems += [
                _expect(out, ("ext_dimension", "via_resolution"), m * m - m - 1),
                _expect(out, ("ext_dimension", "routes_agree"), True)]
        elif part == "claim4":
            problems.append(_expect(out, ("claim4", "holds"), True))
        else:
            cor3 = out.get("cor3") or {}
            if not cor3.get("witness"):
                problems.append("cor3 witness missing")
            elif not (0 < cor3["classes_passing_quotient_test"]
                      <= cor3["classes_total"]):
                problems.append("cor3 class counts out of order")
    return problems


def _toric_saturate(out, job):
    gens = [tuple(g) for g in out["semigroup_generators"]]
    rays, hnf = _rays(gens), _lattice(gens)
    problems = [_expect(out, ("idempotent",), True)]
    for g in map(tuple, out["saturation_generators"]):
        if not (_in_cone(g, rays) and _in_lattice(g, hnf)):
            problems.append(f"saturation generator {g} outside cone or group")
    return problems


def _toric_omega(out, job):
    gens = [tuple(g) for g in out["semigroup_generators"]]
    rays, hnf = _rays(gens), _lattice(gens)
    problems = []
    if not out["omega_generators"]:
        problems.append("canonical module has no generators")
    for g in map(tuple, out["omega_generators"]):
        if not (_in_cone(g, rays, strict=True) and _in_lattice(g, hnf)):
            problems.append(f"omega generator {g} is not an interior point")
    return problems


def _toric_hull(out, job):
    return [_expect(out, ("idempotent",), True),
            None if isinstance(out.get("enlarged"), bool)
            else "hull does not say whether it grew"]


CHECKS = {
    "report-semigroup": _report_semigroup,
    "report-curve": _report_curve,
    "omega-semigroup": _omega_semigroup,
    "check": _check,
    "inject": _inject,
    "ext-lab": _ext_lab,
    "toric-saturate": _toric_saturate,
    "toric-omega": _toric_omega,
    "toric-hull": _toric_hull,
}


def _expect(out, path, value):
    got = out
    for key in path:
        if not isinstance(got, dict) or key not in got:
            return f"{'.'.join(path)} missing"
        got = got[key]
    if got != value:
        return f"{'.'.join(path)} is {got!r}, expected {value!r}"
    return None


def expected_exit(job):
    expect = job["expect"]
    return 1 if expect["kind"] == "inject" and expect["fails"] else 0


def check(job, rc, stdout, seed):
    """Problems with one job's exit code and JSON output."""
    if rc != expected_exit(job):
        return [f"exit code {rc}, expected {expected_exit(job)}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    problems = [_expect(out, ("schema",), SCHEMA), _expect(out, ("seed",), seed),
                _expect(out, ("command",), job["cmd"])]
    try:
        problems.extend(CHECKS[job["expect"]["kind"]](out, job))
    except (KeyError, TypeError, ValueError) as err:
        problems.append(f"malformed output: {err!r}")
    return [p for p in problems if p]

"""Command line front end: invariant reports, the dualizing-module
printer, the property harness with fault injection, the finite-algebra
extension lab, and the plane-semigroup driver.

`check` runs the properties `duality.harness` lists, counts them and
renders the first failure as a counterexample with a rerun line.

Exit codes: 0 success, 1 property violation, 2 input or feasibility
error.  Each subcommand takes only the options it reads, and an input
it would drop is refused with exit 2.  With --format json the output is a schema-versioned document
with sorted keys, no timestamps, and the seed always present, so equal
input and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import duality, family, toric2
from .artin import ext_routes, verify_claim4, witness_cor3
from .curvering import (CurveSpec, build, format_curve_file,
                        parse_curve_file)
from .errors import AlgebraError, ParseError
from .fields import format_field, parse_field
from .laurent import format_element

SCHEMA = "curvedual-report/1"


# -- rendering ---------------------------------------------------------------

def _fmt_scalar(value):
    if value is None:
        return "none"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def _lines(value, key=None, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        out = [] if key is None else [f"{pad}{key}:"]
        inner = indent if key is None else indent + 1
        for k in sorted(value):
            out.extend(_lines(value[k], k, inner))
        return out
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            body = " ".join(_fmt_scalar(v) for v in value) if value else "(none)"
            head = "" if key is None else f"{key}: "
            return [f"{pad}{head}{body}"]
        out = [] if key is None else [f"{pad}{key}:"]
        inner = indent if key is None else indent + 1
        for v in value:
            chunk = _lines(v, None, inner)
            out.extend(chunk)
            if len(chunk) > 1:
                out.append("")
        if out and out[-1] == "":
            out.pop()
        return out
    head = "" if key is None else f"{key}: "
    return [f"{pad}{head}{_fmt_scalar(value)}"]


def _emit(ns, payload):
    """Print the payload under the header every command shares."""
    payload.update(schema=SCHEMA, command=ns.command, seed=ns.seed)
    if ns.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(_lines(payload)))


# -- input plumbing ----------------------------------------------------------

def _curve_spec(ns):
    """Resolve the curve argument: inline text, a file path, '-' for
    stdin, a comma list of semigroup exponents, or a builtin name; None
    when there is none.  A curve text names its own field, so --field
    goes only with a name or exponents.  A --window-bound that is given
    replaces the bound of whatever spec the source gave."""
    inline, target = getattr(ns, "inline", None), ns.curve
    if inline is not None:
        text, label = inline.replace(";", "\n"), "inline"
    elif target is None:
        return None
    elif target == "-":
        text, label = sys.stdin.read(), "stdin"
    elif os.path.exists(target):
        with open(target, encoding="utf-8") as handle:
            text, label = handle.read(), os.path.basename(target)
    else:
        text = None
    if text is None:
        field = parse_field(ns.field or "Q")
        if re.fullmatch(r"\d+(,\d+)+", target):
            exponents = tuple(int(a) for a in target.split(","))
            spec = family.semigroup_spec(field, exponents)
        else:
            spec = family.named_spec(field, target)
    elif ns.field is not None:
        raise ParseError("--field goes with a builtin name or exponents; "
                         "a curve text names its own field")
    else:
        spec = parse_curve_file(text, label=label)
    bound = ns.window_bound
    if bound is None:
        return spec
    if bound < 1:
        raise ParseError(f"--window-bound must be at least 1, not {bound}")
    return CurveSpec(spec.field, spec.generators, spec.semigroup, bound,
                     spec.label)


def _ring(ns):
    spec = _curve_spec(ns)
    if spec is None:
        raise AlgebraError(f"{ns.command} needs a curve argument or --inline")
    return build(spec)


def _inline_text(spec):
    return format_curve_file(spec).strip().replace("\n", "; ")


def _ring_payload(ring):
    return {
        "label": ring.label,
        "field": format_field(ring.field),
        "branches": ring.nbranches,
        "conductor_exponents": list(ring.cond),
    }


# -- report ------------------------------------------------------------------

def cmd_report(ns):
    """Every fact comes from a reader backed by the invariant table, so
    a failing property raises `InvariantViolation` (exit 2), except
    conductor duality, which is printed as its own verdict."""
    ring = _ring(ns)
    serre = duality.serre_report(ring)
    principal = duality.canonical_module(ring).module.is_principal()
    payload = {
        "ring": _ring_payload(ring),
        "colength_ring": ring.colength_ring,
        "colength_normalization": serre.colength_normalization,
        "delta": serre.delta,
        "gorenstein": serre.gorenstein,
        "seminormal": duality.seminormal_via_omega(ring),
        "pole_profile": list(duality.min_pole_profile(ring)),
        "dualizing_over_regular": serre.dualizing_over_regular,
        "omega_principal_generator":
            format_element(principal) if principal is not None else None,
        "conductor_duality_holds": duality.conductor_duality(ring),
    }
    _emit(ns, payload)
    return 0


# -- omega -------------------------------------------------------------------

def cmd_omega(ns):
    ring = _ring(ns)
    data = duality.canonical_module(ring)
    module = data.module
    cols = [f"t_{i}^{j}" for (i, j) in data.pole_monomials]
    # the rows are sparse, so the dense matrix is mostly zeros: format
    # each distinct scalar once
    fmt, zero = functools.cache(ring.field.format), ring.field.zero
    matrix = []
    for row, label in zip(data.conditions, ring.basis):
        matrix.append({
            "ring_element": format_element(label),
            "residues": [fmt(row.get(key, zero))
                         for key in data.pole_monomials],
        })
    principal = module.is_principal()
    payload = {
        "ring": _ring_payload(ring),
        "pole_profile": list(duality.min_pole_profile(ring)),
        "window_generators":
            [format_element(g) for g in module.rows_as_elements()],
        "regular_tail_from": list(module.tail),
        "principal_generator":
            format_element(principal) if principal is not None else None,
        "residue_columns": cols,
        "residue_matrix": matrix,
        "residue_rank": data.rank,
    }
    _emit(ns, payload)
    return 0


# -- check -------------------------------------------------------------------

def _rerun_hint(ns, spec):
    parts = ["curvedual", "check", "--inline", repr(_inline_text(spec)),
             "--seed", str(ns.seed), "--cases", str(ns.cases)]
    if ns.window_bound is not None:
        parts.extend(["--window-bound", str(ns.window_bound)])
    if ns.inject:
        parts.extend(["--inject", ns.inject])
    return " ".join(parts)


def cmd_check(ns):
    duality.require_case_count(ns.cases)
    spec = _curve_spec(ns)
    if spec is not None:
        rings = [build(spec)]
    elif ns.window_bound is not None:
        raise ParseError("--window-bound goes with a curve; the family "
                         "rings keep their own windows")
    else:
        rings = family.family_rings(parse_field(ns.field or "Q"), bound=8)
    properties = {}
    counterexample = None
    for name, predicate, ring, case_seed in duality.harness(
            rings, ns.cases, ns.seed, ns.inject):
        # a corrupted computation that raises fails with its message
        try:
            ok, error = bool(predicate()), None
        except AlgebraError as err:
            ok, error = False, str(err)
        slot = properties.setdefault(name, {"runs": 0, "failures": 0})
        slot["runs"] += 1
        if not ok:
            slot["failures"] += 1
            counterexample = {
                "property": name,
                "error": error,
                "ring": _ring_payload(ring),
                "curve": _inline_text(ring.spec),
                "case_seed": case_seed,
                "rerun": _rerun_hint(ns, ring.spec),
            }
            break

    payload = {
        "cases": ns.cases,
        "inject": ns.inject,
        "rings": [ring.label for ring in rings],
        "properties": properties,
        "status": "fail" if counterexample else "pass",
        "counterexample": counterexample,
    }
    _emit(ns, payload)
    return 1 if counterexample else 0


# -- ext lab -----------------------------------------------------------------

def _matrix_payload(module):
    """A module's action as dense matrices (rows of formatted entries);
    the one place a module is rendered densely."""
    fmt, zero = module.algebra.field.format, module.algebra.field.zero
    coords = range(module.dim)
    return {
        "module_labels": list(module.labels),
        "action_matrices": {
            label: [[fmt(col.get(p, zero)) for col in line] for p in coords]
            for label, line in zip(module.algebra.labels, module.cols)
        },
    }


def cmd_ext_lab(ns):
    if ns.m < 3:
        raise AlgebraError("the lab needs m >= 3 (m = 2 has no gap pair)")
    run_all = not (ns.claim2 or ns.claim4 or ns.cor3)
    payload = {
        "m": ns.m,
        "p": ns.p,
    }
    ok = True
    if run_all or ns.claim2:
        routes = ext_routes(ns.m, ns.p)
        payload["ext_dimension"] = {
            "via_resolution": routes.via_resolution,
            "via_enumeration": routes.via_enumeration,
            "closed_form": routes.closed_form,
            "routes_agree": routes.routes_agree,
            "matches_closed_form": routes.matches_closed_form,
        }
        ok = ok and routes.routes_agree
    if run_all or ns.claim4:
        # verify_claim4 returns only when the claim holds
        claim = verify_claim4(ns.m, ns.p)
        payload["claim4"] = {
            "holds": True,
            "middles_checked": claim.checked,
            "middles_total": claim.total,
        }
    if run_all or ns.cor3:
        witness = witness_cor3(ns.m, ns.p)
        payload["cor3"] = {
            "witness": _matrix_payload(witness.witness),
            "classes_total": witness.total_classes,
            "classes_passing_quotient_test": witness.passing_quotient_test,
            "classes_covered_by_target": witness.covered_by_target,
        }
    payload["status"] = "pass" if ok else "fail"
    _emit(ns, payload)
    return 0 if ok else 1


# -- toric -------------------------------------------------------------------

def _parse_points(text, option):
    pts = []
    for chunk in text.replace(";", " ").split():
        parts = chunk.split(",")
        try:
            x, y = (int(part) for part in parts)
        except ValueError:
            raise ParseError(f"bad lattice point {chunk!r}; use x,y") from None
        pts.append((x, y))
    if not pts:
        raise ParseError(f"{option} needs at least one point x,y")
    return pts


def cmd_toric(ns):
    if ns.module is not None and ns.toric_cmd != "hull":
        raise ParseError("--module goes only with toric hull")
    model = None if ns.gens is not None else ns.model or "plane"
    S = (toric2.model(model) if model
         else toric2.AffineSemigroup2(_parse_points(ns.gens, "--gens")))
    payload = {
        "subcommand": ns.toric_cmd,
        "model": model,
        "semigroup_generators": [list(g) for g in S.generators],
    }
    if ns.toric_cmd == "saturate":
        sat = toric2.saturation(S)
        payload["saturation_generators"] = [list(g) for g in sat.generators]
        payload["already_saturated"] = toric2.is_saturated(S)
        payload["idempotent"] = toric2.is_saturated(sat)
    elif ns.toric_cmd == "omega":
        omega = toric2.canonical_module_toric(S)
        structure = toric2.MonomialModule2(S, [(0, 0)])
        iso = toric2.monomial_iso(structure, omega)
        payload["omega_generators"] = [list(g) for g in omega.generators]
        payload["principal_translation"] = list(iso) if iso else None
    else:
        points = "0,0" if ns.module is None else ns.module
        module = toric2.MonomialModule2(S, _parse_points(points, "--module"))
        hull = toric2.s2_hull(module)
        payload["module_generators"] = [list(g) for g in module.generators]
        payload["hull_generators"] = [list(g) for g in hull.generators]
        payload["enlarged"] = hull != module
        # on a saturated S, s2_hull checked the hull against the
        # staircase from the module's corner, which is then the hull's
        # own; elsewhere the hull is walked again
        payload["idempotent"] = (hull.corner() == module.corner()
                                 if toric2.is_saturated(S)
                                 else toric2.s2_hull(hull) == hull)
    _emit(ns, payload)
    return 0


# -- argument wiring -----------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built once per process: building it costs
    about a millisecond, mostly terminal-size probes in `add_argument`,
    and parsing leaves it unchanged.  Each subcommand takes only the
    options it reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0, metavar="N")

    curve = argparse.ArgumentParser(add_help=False, parents=[common])
    source = curve.add_mutually_exclusive_group()
    source.add_argument(
        "curve", nargs="?",
        help="file path, '-', builtin name, or a,b,c exponents")
    source.add_argument("--inline",
                        help="curve file text; ';' starts a new line")
    curve.add_argument("--field", metavar="K",
                       help="field of a builtin name, exponents or the "
                            "family: Q (default) or F<p>")
    curve.add_argument("--window-bound", type=int, metavar="N",
                       help="closure window bound of the curve (default 200)")

    parser = argparse.ArgumentParser(
        prog="curvedual",
        description="invariants and duality checks for branch curve rings")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("report", parents=[curve],
                   help="full invariant report for one curve"
                   ).set_defaults(func=cmd_report)
    sub.add_parser("omega", parents=[curve],
                   help="dualizing module generators and residue matrix"
                   ).set_defaults(func=cmd_omega)

    chk = sub.add_parser("check", parents=[curve],
                         help="property harness over a curve or the family")
    chk.add_argument("--cases", type=int, default=25, metavar="N")
    chk.add_argument("--inject", choices=duality.INJECTIONS,
                     help="negative control: break the construction and "
                          "demand the harness notices")
    chk.set_defaults(func=cmd_check)

    lab = sub.add_parser("ext-lab", parents=[common],
                         help="extension laboratory over the power-gap rings")
    lab.add_argument("--m", type=int, required=True)
    lab.add_argument("--p", type=int, required=True)
    lab.add_argument("--claim2", action="store_true",
                     help="only the two Ext-dimension routes")
    lab.add_argument("--claim4", action="store_true",
                     help="only the self-extension rigidity sweep")
    lab.add_argument("--cor3", action="store_true",
                     help="only the uncovered-extension witness")
    lab.set_defaults(func=cmd_ext_lab)

    tor = sub.add_parser("toric", parents=[common],
                         help="plane semigroup saturation, hulls, omega")
    tor.add_argument("toric_cmd", choices=("saturate", "omega", "hull"))
    semigroup = tor.add_mutually_exclusive_group()
    semigroup.add_argument("--model", choices=sorted(toric2.MODELS),
                           help="named semigroup (default plane)")
    semigroup.add_argument("--gens",
                           help="semigroup generators 'x,y x,y ...'")
    tor.add_argument("--module",
                     help="module generators, hull only (default the ring)")
    # a value such as '-2,3' is a point list, not an option: argparse
    # reads a lone value that starts with '-' as an option unless it
    # matches this pattern, which by default takes only plain numbers
    tor._negative_number_matcher = re.compile(r"-\d")
    tor.set_defaults(func=cmd_toric)
    return parser


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (AlgebraError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

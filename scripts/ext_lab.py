#!/usr/bin/env python3
"""Sweep the extension laboratory over the power-gap rings.

For each (multiplicity m, prime p) pair this prints dim Ext^1 of the
dualizing quotient against the residue field, computed once through a
minimal resolution and once as the dimension of the cocycles modulo
the coboundaries on the minimal cover (the "enumeration" column; no
middle module is built), next to the closed form m^2 - m - 1.
Optionally re-checks the middle-term classification over every
extension class, one middle per line of classes, and hunts for an
uncovered middle.

    PYTHONPATH=src python scripts/ext_lab.py --m 3 4 --p 2 3 --claims
"""

import argparse

import curvedual as cd
from curvedual.errors import NoWitness, TooLarge


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, nargs="+", default=[3, 4])
    ap.add_argument("--p", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--claims", action="store_true",
                    help="also run the middle-term classification and "
                         "the uncovered-witness search")
    ns = ap.parse_args()

    print(f"{'m':>3} {'p':>3} {'resolution':>11} {'enumeration':>12} "
          f"{'closed form':>12}")
    # one loop over (m, p), so each pair's parts share the one lab the
    # library keeps; the claim lines print after the whole table
    claim_lines = []
    for m in ns.m:
        for p in ns.p:
            print(routes_line(m, p))
            if ns.claims:
                claim_lines.extend(claims_lines(m, p))
    if ns.claims:
        print()
        print("\n".join(claim_lines))


def routes_line(m, p):
    try:
        rep = cd.ext_routes(m, p)
    except TooLarge as err:
        return f"{m:>3} {p:>3}  skipped: {err}"
    flag = "" if rep.routes_agree and rep.matches_closed_form \
        else "  <-- disagreement"
    return (f"{m:>3} {p:>3} {rep.via_resolution:>11} "
            f"{rep.via_enumeration:>12} {rep.closed_form:>12}{flag}")


def claims_lines(m, p):
    try:
        claim = cd.verify_claim4(m, p)
    except TooLarge as err:
        return [f"claim sweep (m={m}, p={p}) skipped: {err}"]
    lines = [f"classes (m={m}, p={p}): {claim.checked} of "
             f"{claim.total} pass the quotient test; classification "
             f"{'holds' if claim.ok else 'FAILS'}"]
    try:
        witness = cd.witness_cor3(m, p)
    except TooLarge as err:
        return lines + [f"  uncovered witness skipped: {err}"]
    except NoWitness as err:  # at m = 2, which has no gap pair
        return lines + [f"  no uncovered witness: {err}"]
    return lines + [f"  uncovered witness: {witness.passing_quotient_test} "
                    f"candidates, {witness.covered_by_target} covered, "
                    f"witness of dimension {witness.witness.dim} found"]


if __name__ == "__main__":
    main()

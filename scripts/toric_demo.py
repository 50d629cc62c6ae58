#!/usr/bin/env python3
"""Window pictures of the plane monomial models.

Draws the chosen semigroup on [0, box]^2 and overlays what saturation
adds, what the hull of the unit module adds, and where the canonical
module sits (when the model is saturated).  Legend: '#' member,
'+' added by saturation, 'o' added by the hull, 'w' canonical point,
'.' outside.
"""

import argparse

from curvedual.toric2 import (MODELS, AffineSemigroup2, MonomialModule2,
                              canonical_module_toric, is_saturated, s2_hull,
                              saturation)


def grid(box, cell):
    for b in range(box, -1, -1):
        print(" ".join(cell(a, b) for a in range(box + 1)))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", choices=sorted(MODELS), default="pinched-plane")
    ap.add_argument("--box", type=int, default=8)
    ns = ap.parse_args()

    S = AffineSemigroup2(MODELS[ns.model])
    print(f"model {ns.model}: generators {list(S.generators)}\n")

    sat = saturation(S)
    print("membership ('#') and saturation gain ('+'):")
    grid(ns.box, lambda a, b: "#" if S.contains((a, b))
         else "+" if sat.contains((a, b)) else ".")
    if is_saturated(S):
        print("already saturated\n")
    else:
        print(f"saturation generators: {list(sat.generators)}\n")

    unit = MonomialModule2(S, ((0, 0),))
    hull = s2_hull(unit)
    if hull == unit:
        print("the unit module is its own hull\n")
    else:
        print("hull gain over the unit module ('o'):")
        grid(ns.box, lambda a, b: "#" if unit.contains((a, b))
             else "o" if hull.contains((a, b)) else ".")
        print(f"hull generators: {list(hull.generators)}\n")

    if not is_saturated(S):
        print("canonical module: undefined here (model not saturated); "
              "run again on its saturation")
        return
    omega = canonical_module_toric(S)
    print("canonical module ('w') inside the semigroup ('#'):")
    grid(ns.box, lambda a, b: "w" if omega.contains((a, b))
         else "#" if S.contains((a, b)) else ".")
    print(f"canonical generators: {list(omega.generators)}")


if __name__ == "__main__":
    main()

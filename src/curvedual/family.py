"""Ready-made curve rings: named singularities, semigroup sweeps, and
seeded random instances for the property suites."""

from __future__ import annotations

import math
import random

from .curvering import CurveRing, CurveSpec, build
from .errors import ParseError
from .laurent import parse_element


def semigroup_spec(field, exponents, label=None) -> CurveSpec:
    label = label or "<" + ",".join(str(a) for a in exponents) + ">"
    return CurveSpec(field, semigroup=tuple(exponents), label=label)


def monomial_spec(field, m: int) -> CurveSpec:
    """One branch, exponents m..2m-1: every order from m on is hit, so
    the conductor is m and all m-1 gaps sit below it."""
    return semigroup_spec(field, range(m, 2 * m), label=f"power-gap m={m}")


def _gens_spec(field, texts, nbranches, label) -> CurveSpec:
    gens = tuple(parse_element(field, s, nbranches=nbranches) for s in texts)
    return CurveSpec(field, generators=gens, label=label)


_NAMED = {
    "smooth": lambda f: semigroup_spec(f, (1,), label="smooth"),
    "cusp": lambda f: semigroup_spec(f, (2, 3), label="cusp"),
    "node": lambda f: _gens_spec(f, ["(t, 0)", "(0, t)"], 2, "node"),
    "tacnode": lambda f: _gens_spec(f, ["(t, t)", "(t^2, 0)"], 2, "tacnode"),
    "three-lines": lambda f: _gens_spec(
        f, ["(t, 0, t)", "(0, t, t)"], 3, "three-lines"),
    "axes": lambda f: _gens_spec(
        f, ["(t, 0, 0)", "(0, t, 0)", "(0, 0, t)"], 3, "axes"),
}


def curve_names():
    return sorted(_NAMED)


def named_spec(field, name: str) -> CurveSpec:
    try:
        recipe = _NAMED[name]
    except KeyError:
        raise ParseError(
            f"unknown curve {name!r}; choose from {curve_names()}") from None
    return recipe(field)


def named_ring(field, name: str) -> CurveRing:
    return build(named_spec(field, name))


def coprime_pairs(bound: int = 12):
    return [(a, b) for a in range(2, bound) for b in range(a + 1, bound + 1)
            if math.gcd(a, b) == 1]


TRIPLES = ((3, 4, 5), (3, 5, 7), (4, 5, 6), (4, 6, 7), (5, 6, 7), (4, 7, 9))


def family_specs(field, bound: int = 12):
    """The acceptance family: two- and three-generator semigroup rings
    with generators up to the bound, plus every named curve."""
    specs = [semigroup_spec(field, pair) for pair in coprime_pairs(bound)]
    specs.extend(semigroup_spec(field, t) for t in TRIPLES)
    specs.extend(named_spec(field, name) for name in curve_names())
    return specs


def family_rings(field, bound: int = 12):
    return [build(spec) for spec in family_specs(field, bound)]


_RANDOM_PAIRS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7),
                 (4, 5), (4, 7), (5, 6), (5, 7)]


def random_spec(field, seed: int) -> CurveSpec:
    """A deterministic valid ring from a seed, cycling three shapes:
    one-branch semigroup rings, two transverse branches with a scaled
    tangent, and three concurrent lines with a scaled slope."""
    rng = random.Random(seed)
    shape = seed % 3
    if shape == 0:
        pair = _RANDOM_PAIRS[rng.randrange(len(_RANDOM_PAIRS))]
        return semigroup_spec(field, pair, label=f"random-{seed}")
    # the slope must stay nonzero mod p; over Q and p >= 5 it is 1..4
    top = min(4, field.char - 1) if field.char else 4
    c = field.of_int(rng.randint(1, top))
    if shape == 1:
        k = rng.randint(1, 3)
        return _gens_spec(
            field, [f"(t, {c} t)", f"(0, t^{k})"], 2, f"random-{seed}")
    return _gens_spec(
        field, [f"(t, 0, {c} t)", "(0, t, t)"], 3, f"random-{seed}")


def random_ring(field, seed: int) -> CurveRing:
    return build(random_spec(field, seed))

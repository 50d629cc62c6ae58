import math
import random

import pytest

import curvedual as cd
from curvedual.family import TRIPLES, coprime_pairs, random_ring, random_spec


def test_coprime_pairs():
    pairs = coprime_pairs(12)
    assert (2, 3) in pairs and (11, 12) in pairs
    assert all(a < b and math.gcd(a, b) == 1 for a, b in pairs)
    assert len(pairs) == 34


def test_family_is_large_and_labelled(qq):
    specs = cd.family_specs(qq)
    assert len(specs) >= 40
    labels = [s.label for s in specs]
    assert len(set(labels)) == len(labels)
    assert "axes" in labels and "<2,3>" in labels
    for trip in TRIPLES:
        assert "<" + ",".join(map(str, trip)) + ">" in labels


def test_family_builds_everywhere(qq, f5):
    for field in (qq, f5):
        rings = cd.family_rings(field, bound=6)
        assert all(r.field == field for r in rings)
        assert all(r.colength_normalization >= 0 for r in rings)


def test_random_spec_deterministic(qq, f5):
    for field in (qq, f5):
        for seed in range(9):
            a = random_spec(field, seed)
            b = random_spec(field, seed)
            assert a == b
            assert a.label
    rings = {random_ring(qq, seed).cond for seed in range(9)}
    assert len(rings) > 1


def test_random_spec_shapes(qq):
    # the three residues of the seed pick the three shapes
    assert random_spec(qq, 0).semigroup is not None
    assert random_spec(qq, 1).generators[0].nbranches == 2
    assert random_spec(qq, 2).generators[0].nbranches == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_ring_builds_over_small_prime_fields(p):
    # the slope of the multi-branch shapes must be nonzero mod p
    field = cd.prime_field(p)
    for seed in range(60):
        ring = random_ring(field, seed)
        assert ring.field == field
        assert ring.colength_normalization >= 0


def test_random_spec_draws_unchanged_over_q_and_large_primes(qq):
    # the slope bound only bites below p = 5
    for field in (qq, cd.prime_field(5), cd.prime_field(7)):
        for seed in (1, 2, 4, 5, 7, 8):
            gens = random_spec(field, seed).generators
            slope = gens[0].coefficient(gens[0].nbranches - 1, 1)
            rng = random.Random(seed)
            assert slope == field.of_int(rng.randint(1, 4))

"""An independent oracle for monomial modules of numerical semigroup
rings: value sets, with no linear algebra.

Over the semigroup ring k[[S]] = k[[t^s : s in S]], the module E + S
generated by the monomials t^e, e in E, has value set E + S, and every
answer about such modules is a monomial module read off value sets:
the canonical module has the values {j : -1 - j not in S} (as forms
t^j dt), the colon N : M has {x : x + v(M) inside v(N)}, so the dual
K - M does too with N the canonical module, a length is a count of
values, and a module is principal iff its value set has exactly one
minimal generator (Herzog-Kunz, LNM 238; Jäger, Arch. Math. 29;
Barucci-Dobbs-Fontana, Mem. AMS 598).  Generator sets with two or more
minimal generators make the modules non-principal.
"""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

import curvedual as cd
from curvedual.duality import canonical_module, dual
from curvedual.fracideal import from_generators
from curvedual.laurent import Element

SEMIGROUPS = [(3, 4, 5), (3, 5), (4, 5, 6), (5, 7), (2, 5), (7, 9),
              (13, 17)]
FIELDS = {"Q": cd.rationals(), "F5": cd.prime_field(5),
          "F7": cd.prime_field(7)}


class ValueSet:
    """A set of integers with no member below lo and every integer
    from hi on; between the two, member decides."""

    def __init__(self, member, lo, hi):
        self.member, self.lo, self.hi = member, lo, hi

    def __contains__(self, n):
        return n >= self.hi or (n >= self.lo and self.member(n))


def semigroup(gens):
    """The numerical semigroup generated by gens, sieved until a run
    of min(gens) consecutive members shows the conductor."""
    step = min(gens)
    hit, run, n = [], 0, 0
    while run < step:
        hit.append(n == 0 or any(n >= a and hit[n - a] for a in gens))
        run = run + 1 if hit[n] else 0
        n += 1
    conductor = n - step
    return ValueSet(lambda k: hit[k], 0, conductor)


def relative_ideal(exps, s):
    """E + S: everything from min(E) plus the conductor of S is in."""
    lo = min(exps)
    return ValueSet(lambda n: any(n - e in s for e in exps), lo, lo + s.hi)


def canonical(s):
    """{j : -1 - j not in S}; its least member is minus the conductor."""
    return ValueSet(lambda j: -1 - j not in s, -s.hi, 0)


def colon(n, m):
    """{x : x + m inside n}, for a set m that contains m.lo."""

    def member(x):
        return all(x + v in n for v in range(m.lo, max(m.hi, n.hi - x))
                   if v in m)

    return ValueSet(member, n.lo - m.lo, n.hi - m.lo)


def minimal_generators(v, s):
    """Members of v that are no member of v plus a nonzero element of
    S; none lies at or beyond v.hi + min(S minus 0)."""
    step = next(a for a in range(1, s.hi + 2) if a in s)
    return [x for x in range(v.lo, v.hi + step) if x in v and not any(
        x - a in v for a in range(1, x - v.lo + 1) if a in s)]


def library_values(module):
    """The value set of a one-branch module: the orders of its window
    rows, and every integer from its tail on."""
    orders = {row.valuation(0) for row in module.rows_as_elements()}
    assert len(orders) == module.window_dim
    tail = module.tail[0]
    return ValueSet(orders.__contains__, module.pole[0], tail)


def assert_same_values(module, want):
    got = library_values(module)
    window = range(min(got.lo, want.lo), max(got.hi, want.hi))
    assert [n for n in window if n in got] == [n for n in window if n in want]


@functools.lru_cache(maxsize=None)
def ring_of(gens, fname):
    return cd.build(cd.semigroup_spec(FIELDS[fname], gens))


def monomial_module(ring, exps):
    return from_generators(ring, [Element.monomial(ring.field, 1, 0, e)
                                  for e in sorted(exps)])


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("gens", SEMIGROUPS)
def test_canonical_module_values(gens, fname):
    module = canonical_module(ring_of(gens, fname)).module
    assert module.degree == 1
    assert_same_values(module, canonical(semigroup(gens)))


EXPONENTS = st.sets(st.integers(-4, 16), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(gens=st.sampled_from(SEMIGROUPS),
       fname=st.sampled_from(sorted(FIELDS)), e=EXPONENTS, f=EXPONENTS)
@example(gens=(5, 7), fname="Q", e={0, 1}, f={0, 2, 3})
@example(gens=(13, 17), fname="F5", e={-2, 4, 9}, f={0, 1})
def test_monomial_modules_against_value_sets(gens, fname, e, f):
    ring = ring_of(gens, fname)
    s = semigroup(gens)
    vm, vn = relative_ideal(e, s), relative_ideal(f, s)
    m, n = monomial_module(ring, e), monomial_module(ring, f)
    assert_same_values(m, vm)
    assert_same_values(n, vn)

    assert_same_values(n.colon(m), colon(vn, vm))
    assert_same_values(m.colon(n), colon(vm, vn))
    assert_same_values(dual(m), colon(canonical(s), vm))

    total = monomial_module(ring, e | f)
    vt = relative_ideal(e | f, s)
    for sub, vsub in ((m, vm), (n, vn)):
        assert total.len_quotient(sub) == sum(
            1 for x in range(vt.lo, vsub.hi) if x in vt and x not in vsub)

    for module, values in ((m, vm), (n, vn), (total, vt)):
        principal = len(minimal_generators(values, s)) == 1
        assert (module.is_principal() is not None) == principal

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import curvedual as cd
from curvedual.errors import NotPrimeField
from curvedual.fields import (_INTERN_MAX, PRIME_TEST_BOUND, FiniteField,
                              format_field, is_prime)


def field_elems(field, size=40, seed=7):
    rng = random.Random(seed)
    return [field.random(rng) for _ in range(size)]


@pytest.mark.parametrize("make", [
    lambda: cd.rationals(),
    lambda: cd.prime_field(2),
    lambda: cd.prime_field(5),
    lambda: FiniteField(2, 2),
    lambda: FiniteField(3, 2),
])
def test_field_axioms(make):
    field = make()
    xs = field_elems(field)
    zero, one = field.zero, field.one
    for x in xs:
        assert x + zero == x
        assert x * one == x
        assert x - x == zero
        assert x * zero == zero
        if x:
            assert x / x == one
    for x, y, z in zip(xs, xs[1:], xs[2:]):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_finite_field_enumeration():
    f5 = cd.prime_field(5)
    elems = list(f5.elements())
    assert len(elems) == 5 == f5.order
    assert len(set(elems)) == 5

    f4 = FiniteField(2, 2)
    elems4 = list(f4.elements())
    assert len(elems4) == 4
    # multiplicative group is cyclic of order 3
    nonzero = [x for x in elems4 if x]
    for x in nonzero:
        assert x ** 3 == f4.one


def test_f4_has_cube_roots_of_unity():
    f4 = FiniteField(2, 2)
    roots = [x for x in f4.elements() if x * x + x + f4.one == f4.zero]
    assert len(roots) == 2  # the two primitive elements


def test_rationals_cannot_enumerate():
    with pytest.raises(NotPrimeField):
        list(cd.rationals().elements())


def test_parse_field_labels():
    assert cd.parse_field("Q") == cd.rationals()
    assert cd.parse_field("F5") == cd.prime_field(5)
    assert format_field(cd.parse_field("F7")) == "F7"
    with pytest.raises(NotPrimeField):
        cd.parse_field("F6")
    with pytest.raises(NotPrimeField):
        cd.parse_field("R")


def test_prime_field_rejects_composite():
    with pytest.raises(NotPrimeField):
        cd.prime_field(6)


def test_primality_is_exact_below_its_bound():
    # against trial division, and at 18 digits, where trial division
    # would run for minutes
    small = [n for n in range(-3, 5000) if n >= 2 and
             all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(-3, 5000) if is_prime(n)] == small
    assert is_prime(10 ** 18 + 3) and not is_prime(10 ** 18 + 1)
    assert FiniteField(10 ** 18 + 3).p == 10 ** 18 + 3
    # a strong pseudoprime to every base up to 37
    assert not is_prime(399165290221 * 798330580441)
    assert not is_prime(PRIME_TEST_BOUND - 1)
    with pytest.raises(NotPrimeField, match="primality bound"):
        cd.prime_field(PRIME_TEST_BOUND)


def test_extension_only_from_prime_field():
    f9 = cd.prime_field(3).extension(2)
    assert f9.order == 9
    with pytest.raises(NotPrimeField):
        f9.extension(2)


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 4))
def test_rational_parse_format_roundtrip(x):
    qq = cd.rationals()
    assert qq.parse(qq.format(x)) == x


@given(st.integers(), st.sampled_from([2, 3, 5, 7]))
def test_prime_field_of_int_is_reduction(n, p):
    fp = cd.prime_field(p)
    assert fp.of_int(n) == fp.of_int(n % p)
    assert fp.format(fp.of_int(n)) == str(n % p)


def test_coerce_and_embed():
    f3 = cd.prime_field(3)
    f9 = f3.extension(2)
    two = f3.of_int(2)
    lifted = f9.coerce(two)
    assert lifted == f9.of_int(2)
    assert f9.coerce(lifted) is lifted
    with pytest.raises(TypeError):
        cd.prime_field(5).coerce(two)
    assert cd.rationals().coerce(3) == Fraction(3)


# -- the scalar form over Q: int when integral, Fraction otherwise -------------

def test_rational_constructors_return_ints_for_integral_values():
    qq = cd.rationals()
    cases = [(qq.zero, 0), (qq.one, 1), (qq.of_int(-7), -7),
             (qq.coerce(True), 1), (qq.coerce(False), 0), (qq.coerce(12), 12),
             (qq.coerce(Fraction(6, 3)), 2), (qq.parse("4/2"), 2),
             (qq.parse("-5"), -5), (qq.inverse(1), 1), (qq.inverse(-1), -1),
             (qq.inverse(Fraction(-1, 3)), -3)]
    for got, want in cases:
        assert type(got) is int and got == want
    for got, want in [(qq.coerce(Fraction(1, 2)), Fraction(1, 2)),
                      (qq.parse("-3/4"), Fraction(-3, 4)),
                      (qq.inverse(2), Fraction(1, 2))]:
        assert type(got) is Fraction and got == want
    with pytest.raises(TypeError):
        qq.coerce(0.5)


def test_rational_random_keeps_its_draws():
    """`random` draws what it drew when it returned Fractions only."""
    qq = cd.rationals()
    rng, ref = random.Random(5), random.Random(5)
    for _ in range(200):
        x = qq.random(rng)
        want = Fraction(ref.randint(-4, 4), ref.randint(1, 3))
        assert x == want
        assert type(x) is (int if want.denominator == 1 else Fraction)
    assert rng.getstate() == ref.getstate()


@given(st.one_of(st.integers(-50, 50),
                 st.fractions(min_value=-50, max_value=50,
                              max_denominator=50)).filter(bool))
def test_rational_inverse(x):
    qq = cd.rationals()
    inv = qq.inverse(x)
    assert inv * x == 1
    assert type(inv) is (int if Fraction(inv).denominator == 1 else Fraction)


@given(st.sampled_from([2, 3, 5, 7]), st.integers())
def test_finite_field_inverse_is_inv(p, n):
    fp = cd.prime_field(p)
    x = fp.of_int(n)
    if x:
        assert fp.inverse(x) is x.inv()
    f9 = cd.prime_field(3).extension(2)
    y = f9.random_nonzero(random.Random(n))
    assert f9.inverse(y) * y == f9.one


# -- the int fast path of the prime fields -------------------------------------

PRIMES = [2, 3, 5, 7, 11, 65537, 1000003]


def ref_inv(v, p):
    """Inverse by Fermat on the coefficient, as the tuple path takes it."""
    return pow(v, p - 2, p)


@given(st.sampled_from(PRIMES), st.integers(), st.integers())
def test_prime_field_ops_match_tuple_arithmetic(p, m, n):
    fp = FiniteField(p)
    a, b = m % p, n % p
    x, y = fp.of_int(m), fp.of_int(n)
    assert x.coeffs == (a,) and y.coeffs == (b,)
    assert (x + y).coeffs == ((a + b) % p,)
    assert (x - y).coeffs == ((a - b) % p,)
    assert (x * y).coeffs == ((a * b) % p,)
    assert (-x).coeffs == ((-a) % p,)
    assert bool(x) == any((a,))
    assert (x == y) == (a == b)
    assert hash(x) == hash((p, 1, (a,)))
    assert x.field is fp and (x + y).field is fp and (-x).field is fp
    if b:
        assert y.inv().coeffs == (ref_inv(b, p),)
        assert (x / y).coeffs == ((a * ref_inv(b, p)) % p,)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inv()
        with pytest.raises(ZeroDivisionError):
            x / y
    assert fp.format(x) == str(a)


@given(st.sampled_from(PRIMES), st.integers(), st.integers())
def test_equal_prime_fields_mix(p, m, n):
    f, g = FiniteField(p), FiniteField(p)
    assert f is not g and f == g
    x, y = f.of_int(m), g.of_int(n)
    for got, want in ((x + y, m + n), (x - y, m - n), (x * y, m * n)):
        assert got == f.of_int(want) and got == g.of_int(want)
        assert got.field is f
    assert x == g.of_int(m) and hash(x) == hash(g.of_int(m))
    assert len({x, g.of_int(m)}) == 1


def test_mixed_fields_raise():
    f5, f7 = FiniteField(5), FiniteField(7)
    x, y = f5.of_int(2), f7.of_int(3)
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(x, y)
        with pytest.raises(TypeError):
            op(x, Fraction(2))
        with pytest.raises(TypeError):
            op(Fraction(2), x)
    assert x != y and x != Fraction(2)


def test_large_prime_builds_no_table():
    fp = FiniteField(1000003)
    assert len(fp._elements) <= 2
    x = fp.of_int(999999)
    assert (x * x).coeffs == (999999 * 999999 % 1000003,)
    for n in range(2 * _INTERN_MAX):
        fp.of_int(n * 7919)
    assert len(fp._elements) == _INTERN_MAX
    assert fp.of_int(-1) + fp.one == fp.zero


def test_prime_field_elements_are_interned():
    f7 = FiniteField(7)
    assert f7.of_int(3) is f7.of_int(10) is f7.of_int(1) + f7.of_int(2)
    assert list(f7.elements()) == [f7.of_int(v) for v in range(7)]
    assert f7.zero is f7.of_int(0) and f7.one is f7.of_int(1)


@pytest.mark.parametrize("field", [FiniteField(5), FiniteField(7),
                                   FiniteField(5, 2)], ids=format_field)
def test_negative_powers_are_inverse_powers(field):
    for x in field.elements():
        if not x:
            for k in (1, 2, 5):
                with pytest.raises(ZeroDivisionError):
                    x ** -k
            continue
        for k in range(1, 2 * field.order + 2):
            assert x ** -k == (x ** k).inv()

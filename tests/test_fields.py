from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prismring.fields import GF, QQ, Field, NonInvertibleError, is_prime
from prismring.groebner import _prime_stream
from prismring.poly import Polynomial


def test_primality_enforced():
    # 3215031751 = 151 * 21291601 is a strong pseudoprime to bases 2, 3, 5, 7
    for bad in (1, 4, 6, 9, 100, 3215031751):
        with pytest.raises(ValueError):
            Field(bad)
    GF(2)
    GF(101)
    GF(2**61 - 1)
    GF(2**64 - 59)


def test_primality_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n in range(10**4) if by_trial_division(n)
    ]


def test_prime_stream_starts_unchanged():
    stream = _prime_stream()
    assert [next(stream) for _ in range(6)] == [
        1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717
    ]


def test_inverse_law_exhaustive_small_primes():
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    for p in primes:
        F = GF(p)
        for a in range(1, p):
            assert F.mul(a, F.inv(a)) == 1


def test_coerce_rational_into_prime_field():
    assert GF(7).coerce(Fraction(1, 5)) == 3
    with pytest.raises(NonInvertibleError):
        GF(5).coerce(Fraction(1, 5))


@pytest.mark.parametrize("p", [2, 11, 32003, 2**31 - 1, 2**61 - 1])
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(-(2**70), 2**70), k=st.integers(1, 2**40))
def test_coerce_int_fast_path_agrees_with_fractions(p, n, k):
    """A plain int takes the fast path ``n % p``; the Fraction route gives
    the same residue, and a denominator divisible by p still raises."""
    F = GF(p)
    assert F.coerce(n) == F.coerce(Fraction(n)) == n % p
    assert type(F.coerce(n)) is int
    if k % p:
        assert F.coerce(Fraction(n, k)) == n * pow(k, -1, p) % p
    assume(n % p)
    with pytest.raises(NonInvertibleError):
        F.coerce(Fraction(n, k * p))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(f=st.fractions(max_denominator=10**30))
def test_coerce_reads_a_fraction_without_copying(f):
    """Over QQ a Fraction crosses ``coerce``, and a polynomial's
    construction, as the same object; over GF(p) its residue is read off
    its numerator and denominator."""
    assert QQ.coerce(f) is f
    assert Polynomial(("x",), {(1,): f}).terms.get((1,), f) is f
    for p in (2, 11, 32003, 2**61 - 1):
        if f.denominator % p:
            assert GF(p).coerce(f) == f.numerator * pow(f.denominator, -1, p) % p
        else:
            with pytest.raises(NonInvertibleError):
                GF(p).coerce(f)


def test_coerce_builds_fractions_from_other_types():
    assert QQ.coerce("1/5") == Fraction(1, 5) and type(QQ.coerce(2)) is Fraction
    assert GF(7).coerce("1/5") == 3 and GF(7).coerce(True) == 1
    with pytest.raises(NonInvertibleError):
        GF(5).coerce("2/15")


def test_rational_ops_are_fractions():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    assert QQ.is_zero(Fraction(0))

from fractions import Fraction

import pytest

from prismring.fields import GF, QQ, Field, NonInvertibleError, is_prime
from prismring.groebner import _prime_stream


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


def test_rational_ops_are_fractions():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    assert QQ.is_zero(Fraction(0))

"""Coefficient fields for exact polynomial arithmetic: QQ and GF(p)."""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the first 13 primes as bases decides primality for
# every n < 3.3e24 (Sorenson and Webster, 2015); the first 12 reach 3.18e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for every n < 3.3e24.

    Larger n are strong probable primes to all 13 bases.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Either the rationals or a prime field GF(p).

    Coefficients are plain ``Fraction`` over the rationals and plain ``int``
    in ``range(p)`` over GF(p).
    """

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p != 0 and not is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p == 0

    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def coerce(self, value):
        """Coerce an int or Fraction into this field.

        Over QQ a ``Fraction`` is returned as it is (Fractions are
        immutable), and only other types build a new one. Over GF(p) a
        rational a/b maps to a * b^-1 mod p, read off the Fraction's
        numerator and denominator without copying it; raises
        ``NonInvertibleError`` when p divides b.
        """
        p = self.p
        if p == 0:
            return value if type(value) is Fraction else Fraction(value)
        if type(value) is int:  # the common case, without a Fraction
            return value % p
        if type(value) is not Fraction:
            value = Fraction(value)
        den = value.denominator % p
        if den == 0:
            raise NonInvertibleError(
                f"denominator {value.denominator} is not invertible mod {p}"
            )
        return (value.numerator * pow(den, -1, p)) % p

    def add(self, a, b):
        if self.p == 0:
            return a + b
        return (a + b) % self.p

    def sub(self, a, b):
        if self.p == 0:
            return a - b
        return (a - b) % self.p

    def mul(self, a, b):
        if self.p == 0:
            return a * b
        return (a * b) % self.p

    def neg(self, a):
        if self.p == 0:
            return -a
        return (-a) % self.p

    def inv(self, a):
        if self.p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return 1 / Fraction(a)
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0 if self.p == 0 else a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"


class NonInvertibleError(ZeroDivisionError):
    """A rational constant cannot be specialized into GF(p)."""


QQ = Field(0)


def GF(p: int) -> Field:
    if p == 0:
        return QQ
    return Field(p)

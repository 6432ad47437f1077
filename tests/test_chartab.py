import math

import pytest

from prismring.catalog import catalog
from prismring.chartab import (
    INCONCLUSIVE,
    NO_POSITIVE_CHAR_PIVOTAL,
    NotCommutativeError,
    character_table,
    column_zero_property,
    lifting_verdict,
)

from conftest import random_valid_rings

GOLDEN = (1 + math.sqrt(5)) / 2


def test_fibonacci_columns(fib):
    table = character_table(fib)
    cols = {tuple(round(x.real, 10) for x in table.column(j)) for j in range(2)}
    assert (1.0, round(GOLDEN, 10)) in cols
    assert (1.0, round(1 - GOLDEN, 10)) in cols
    assert table.residual < 1e-10


def test_noncommutative_rejected():
    with pytest.raises(NotCommutativeError):
        character_table(catalog("VecS3"))


def test_reconstruction_property_all_commutative_catalog():
    for name in ("trivial", "Z2", "Fib", "Ising", "RepS3", "F210", "F660"):
        ring = catalog(name)
        table = character_table(ring, tol=1e-9)
        mats = [ring.matrix(i).astype(float) for i in range(ring.rank)]
        for j in range(ring.rank):
            u = [table.values[i][j] for i in range(ring.rank)]
            for i in range(ring.rank):
                res = max(
                    abs(sum(mats[i][a][b] * u[b] for b in range(ring.rank)) - u[i] * u[a])
                    for a in range(ring.rank)
                )
                assert res < 1e-8, (name, i, j)


def test_dual_rows_are_conjugate():
    for name in ("Z2", "Fib", "Ising", "RepS3", "F210", "F660"):
        ring = catalog(name)
        table = character_table(ring)
        for i in range(ring.rank):
            for j in range(ring.rank):
                a = table.values[ring.star[i]][j]
                b = table.values[i][j].conjugate()
                assert abs(a - b) < 1e-8


def test_determinism_bit_for_bit(f210):
    t1 = character_table(f210)
    t2 = character_table(f210)
    assert t1.values == t2.values
    assert t1.residual == t2.residual


def test_column_zero_examples(f210, fib):
    assert column_zero_property(character_table(f210))
    assert not column_zero_property(character_table(fib))
    assert column_zero_property(character_table(catalog("trivial")))


def test_perron_column_first(f210):
    table = character_table(f210)
    assert [round(x.real) for x in table.column(0)] == [1, 5, 5, 5, 6, 7, 7]


def test_lifting_f210(f210):
    table = character_table(f210)
    v = lifting_verdict(f210, table, char0_excluded=True)
    assert v.column_zero_ok and v.prime_cover_ok
    assert v.conclusion == NO_POSITIVE_CHAR_PIVOTAL
    assert v.prime_witnesses == ((2, "6_1"), (3, "6_1"), (5, "5_1"), (7, "7_1"))
    v0 = lifting_verdict(f210, table, char0_excluded=False)
    assert v0.conclusion == INCONCLUSIVE


def test_lifting_prime_cover_fails_for_z2():
    ring = catalog("Z2")
    table = character_table(ring)
    v = lifting_verdict(ring, table, char0_excluded=True)
    assert not v.prime_cover_ok
    assert v.conclusion == INCONCLUSIVE


def test_lifting_requires_integral(fib):
    table = character_table(fib)
    with pytest.raises(ValueError):
        lifting_verdict(fib, table, char0_excluded=True)


def test_column_zero_property_agrees_with_the_float_rule():
    """The exact rank test against |chi| < 1e-6 on the table's floats."""
    rings = [catalog(n) for n in ("trivial", "Z2", "Fib", "Ising", "RepS3", "F210", "F660")]
    rings += [ring for ring in random_valid_rings(count=20) if ring.is_commutative()]
    assert len(rings) == 27
    seen = set()
    for ring in rings:
        table = character_table(ring)
        r = ring.rank
        by_float = all(
            any(abs(table.values[i][j]) < 1e-6 for i in range(r)) for j in range(1, r)
        )
        assert column_zero_property(table) == by_float, ring.name
        seen.add(by_float)
    assert seen == {True, False}

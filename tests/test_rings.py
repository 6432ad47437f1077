import json

import pytest

from prismring.catalog import CATALOG_NAMES, catalog
from prismring.localizer import localization_sets, two_parallel
from prismring.rings import (
    RingFormatError,
    build_ring,
    fpdim_data,
    parse_ring,
    serialize_ring,
    verify_axioms,
)
from prismring.spectra import one_witness_check, zero_witness_check
from prismring.tpegen import tetra_canonical, tpe_equation


def test_parse_f210_document(f210):
    doc = serialize_ring(f210)
    ring = parse_ring(doc)
    assert ring.rank == 7
    assert ring.star == tuple(range(7))  # every basis element self-dual


def test_parse_rank_one():
    ring = parse_ring('{"name": "t", "rank": 1, "labels": ["1"], "N": [[[1]]]}')
    assert ring.rank == 1 and ring.star == (0,)
    assert verify_axioms(ring).passed


def test_parse_f660_star_swaps_dimension_five_pair(f660):
    assert f660.star == (0, 2, 1, 3, 4, 5, 6, 7)


def test_round_trip_is_identity():
    for name in CATALOG_NAMES:
        ring = catalog(name)
        doc = serialize_ring(ring)
        again = parse_ring(doc)
        assert again == ring
        assert serialize_ring(again) == doc


def test_malformed_documents_rejected():
    with pytest.raises(RingFormatError):
        parse_ring("not json")
    with pytest.raises(RingFormatError):
        parse_ring('{"name": "x", "rank": 2, "labels": ["1"], "N": [[[1]]]}')
    with pytest.raises(RingFormatError):
        parse_ring(
            '{"name": "x", "rank": 1, "labels": ["1"], "N": [[[1, 0]]]}'
        )
    with pytest.raises(RingFormatError):
        build_ring("x", ["1", "a"], [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])


def test_unambiguous_dual_required():
    # second row has no unit in the product with anything
    N = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
    with pytest.raises(RingFormatError):
        build_ring("bad", ["1", "a"], N)


def test_axioms_pass_on_catalog():
    for name in CATALOG_NAMES:
        assert verify_axioms(catalog(name)).passed, name


def test_tampered_coefficient_breaks_associativity(f210):
    N = [[list(row) for row in block] for block in f210.N]
    N[1][1][1] += 1
    ring = build_ring("broken", f210.labels, N)
    report = verify_axioms(ring)
    assert not report.passed
    fail = {c.name: c for c in report.failures()}
    assert "associativity" in fail or "frobenius_reciprocity" in fail
    assoc = next(c for c in report.checks if c.name == "associativity")
    if not assoc.passed:
        assert len(assoc.witness) == 4
        assert assoc.values[0] != assoc.values[1]


def test_frobenius_reciprocity_holds_coefficientwise():
    for name in CATALOG_NAMES:
        ring = catalog(name)
        star = ring.star
        r = ring.rank
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    assert ring.N[i][j][k] == ring.N[star[i]][k][j]
                    assert ring.N[i][j][k] == ring.N[k][star[j]][i]


def test_star_is_involution_fixing_unit():
    for name in CATALOG_NAMES:
        ring = catalog(name)
        assert ring.star[0] == 0
        assert all(ring.star[ring.star[i]] == i for i in range(ring.rank))


def test_fpdim_f210(f210):
    fp = fpdim_data(f210)
    assert fp.integral
    assert fp.dims == (1, 5, 5, 5, 6, 7, 7)
    assert fp.global_fpdim == 210
    assert fp.type_partition == ((1, 1), (5, 3), (6, 1), (7, 2))


def test_fpdim_f660(f660):
    fp = fpdim_data(f660)
    assert fp.integral
    assert fp.global_fpdim == 660
    assert fp.type_partition == ((1, 1), (5, 2), (10, 2), (11, 1), (12, 2))


def test_fpdim_fibonacci_golden_ratio(fib):
    fp = fpdim_data(fib)
    assert not fp.integral
    golden = (1 + 5 ** 0.5) / 2
    assert abs(fp.dims[1] - golden) < 1e-9
    assert fp.dims[0] == 1.0


def test_fpdim_sum_of_squares():
    for name in CATALOG_NAMES:
        fp = fpdim_data(catalog(name))
        total = sum(d * d for d in fp.dims)
        if fp.integral:
            assert total == fp.global_fpdim
        else:
            assert abs(total - fp.global_fpdim) < 1e-9 * fp.global_fpdim


def test_eigen_equation_exact_when_integral(f210):
    fp = fpdim_data(f210)
    d = fp.dims
    r = f210.rank
    for i in range(r):
        for j in range(r):
            assert sum(f210.N[i][j][k] * d[k] for k in range(r)) == d[i] * d[j]


def test_serializer_key_order():
    doc = serialize_ring(catalog("Z2"))
    parsed = json.loads(doc)
    assert list(parsed) == ["name", "rank", "labels", "N"]


# every entry point that takes labels or indices resolves them through
# FusionRing.resolve, so an index outside 0..rank-1 fails there, early
INDEX_CALLS = {
    "resolve": lambda r, i: r.resolve(i),
    "tpe_equation": lambda r, i: tpe_equation(r, (i,) * 9),
    "tetra_canonical": lambda r, i: tetra_canonical(r, (i,) * 6),
    "localization_sets": localization_sets,
    "two_parallel": lambda r, i: two_parallel(r, "5_1", i),
    "zero_witness_check": lambda r, i: zero_witness_check(r, (i,) * 9),
    "one_witness_check_i0": lambda r, i: one_witness_check(r, ("5_1",) * 9, i),
}


@pytest.mark.parametrize("bad", [-1, 7])
@pytest.mark.parametrize("call", INDEX_CALLS.values(), ids=INDEX_CALLS.keys())
def test_out_of_range_index_is_key_error(f210, call, bad):
    with pytest.raises(KeyError, match=f"index {bad} out of range for rank 7"):
        call(f210, bad)


def test_resolve_rejects_a_non_integer(f210):
    with pytest.raises(TypeError):
        f210.resolve(1.0)  # not truncated to 1

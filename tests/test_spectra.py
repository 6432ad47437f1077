import hashlib
import itertools
import json
import random
import re

import pytest

from prismring import spectra
from prismring.catalog import catalog
from prismring.rings import build_ring
from prismring.spectra import (
    _tables,
    criterion_search,
    one_witness_check,
    pe_spectrum,
    zero_witness_check,
)

from conftest import F660_NONET, oracle_search, oracle_spectrum, random_valid_rings


def test_spectrum_examples(f660, fib):
    ix = [f660.index(x) for x in ("b2", "b2", "b4", "b5", "b3", "b3")]
    assert pe_spectrum(f660, *ix).indices == ()
    triv = catalog("trivial")
    assert pe_spectrum(triv, 0, 0, 0, 0, 0, 0).labels == ("1",)
    assert pe_spectrum(fib, 1, 1, 1, 1, 1, 1).labels == ("1", "tau")


def test_spectrum_matches_oracle_on_f660(f660):
    rng = random.Random(1)
    for _ in range(300):
        args = [rng.randrange(f660.rank) for _ in range(6)]
        assert list(pe_spectrum(f660, *args).indices) == oracle_spectrum(f660, *args)


def test_reference_nonet_passes_zero_check(f660):
    res = zero_witness_check(f660, F660_NONET)
    assert res.passed
    assert dict(res.witness.routes) == {"lhs-fsymbol-1": 1, "lhs-fsymbol-2": 3}
    assert all(v > 0 for _, v in res.witness.premises)


def test_zero_check_reports_failing_premise(f660):
    all_unit = zero_witness_check(f660, ("b1",) * 9)
    assert not all_unit.passed  # its spectrum is {b1}, never empty
    res = zero_witness_check(f660, ("b2",) + ("b1",) * 8)
    assert not res.passed
    assert res.reason.startswith("premise")
    assert "N(" in res.reason


def test_fibonacci_has_no_zero_witness_event_by_brute_force(fib):
    for t in itertools.product(range(2), repeat=9):
        assert not zero_witness_check(fib, t).passed


def test_one_check_trivial_ring_fails():
    triv = catalog("trivial")
    res = one_witness_check(triv, (0,) * 9, 0)
    assert not res.passed
    assert "N(i2,i1;i3)" in res.reason


def test_ising_has_no_one_witness_by_brute_force(ising):
    for t in itertools.product(range(3), repeat=9):
        spec = pe_spectrum(ising, t[3], t[4], t[5], t[6], t[7], t[8])
        for i0 in spec.indices:
            assert not one_witness_check(ising, t, i0).passed


def test_search_finds_f660_witness(f660):
    w = criterion_search(f660, "zero")
    assert w is not None
    assert w.nonet == F660_NONET  # lexicographically first = reference tuple
    recheck = zero_witness_check(f660, w.nonet)
    assert recheck.passed


def test_one_kind_also_excludes_f660(f660):
    w = criterion_search(f660, "one")
    assert w is not None
    recheck = one_witness_check(f660, w.nonet, w.spectrum_label)
    assert recheck.passed


def test_negative_controls():
    for name in ("trivial", "Z2", "Fib", "Ising", "RepS3"):
        ring = catalog(name)
        assert criterion_search(ring, "zero") is None, name
        assert criterion_search(ring, "one") is None, name


# (ring, kind): (first-hit checks, first nonet, witnesses, all-witness checks)
SEARCH_WORK = {
    ("F660", "zero"): (1, "b2 b4 b5 b2 b2 b4 b5 b3 b3", 24, 120),
    ("F660", "one"): (3, "b2 b4 b4 b2 b2 b5 b5 b3 b3", 24, 840),
    ("F210", "zero"): (0, None, 0, 0),
    ("F210", "one"): (0, None, 0, 0),
}


def test_search_is_lexicographic_and_pinned(monkeypatch):
    calls = []

    def counted(check):
        def wrapper(*args):
            calls.append(args)
            return check(*args)
        return wrapper

    for name in ("zero_witness_check", "one_witness_check"):
        monkeypatch.setattr(spectra, name, counted(getattr(spectra, name)))
    for (name, kind), (first_checks, nonet, count, all_checks) in SEARCH_WORK.items():
        ring = catalog(name)
        calls.clear()
        first = criterion_search(ring, kind)
        assert len(calls) == first_checks, (name, kind)
        assert (first and " ".join(first.nonet)) == nonet, (name, kind)
        calls.clear()
        found = criterion_search(ring, kind, all_witnesses=True)
        assert (len(found), len(calls)) == (count, all_checks), (name, kind)
        assert first == (found[0] if found else None)
        keys = [tuple(ring.index(lab) for lab in w.nonet) for w in found]
        assert keys == sorted(keys)


def test_search_agrees_with_oracle_on_small_rings(ising, rep_s3):
    rings = [catalog("trivial"), catalog("Z2"), catalog("Fib"), ising, rep_s3]
    for ring in rings:
        for kind in ("zero", "one"):
            expect = oracle_search(ring, kind)
            got = criterion_search(ring, kind)
            if expect is None:
                assert got is None
            else:
                t, i0 = expect
                assert got is not None
                assert got.nonet == tuple(ring.labels[i] for i in t)
                if kind == "one":
                    assert got.spectrum_label == ring.labels[i0]


def test_search_agrees_with_oracle_on_random_rings():
    for ring in random_valid_rings(count=8, seed=5):
        for kind in ("zero", "one"):
            expect = oracle_search(ring, kind)
            got = criterion_search(ring, kind)
            assert (expect is None) == (got is None), (ring.name, kind)
            if expect is not None:
                t, _ = expect
                assert got.nonet == tuple(ring.labels[i] for i in t)


def test_pruning_soundness_sampled(f660):
    """Any tuple the search's support pruning would skip fails a premise."""
    rng = random.Random(99)
    N = f660.N
    r = f660.rank

    def skipped(t):
        i1, i2, i3, i4, i5, i6, i7, i8, i9 = t
        if N[i2][i1][i3] != 1:
            return True
        return not (
            N[i5][i4][i2]
            and N[i4][i1][i6]
            and N[i5][i6][i3]
            and N[i2][i7][i8]
            and N[i7][i9][i1]
            and N[i8][i9][i3]
        )

    for _ in range(10_000):
        t = tuple(rng.randrange(r) for _ in range(9))
        if skipped(t):
            assert not zero_witness_check(f660, t).passed


def test_tables_cache_is_bounded():
    rings = random_valid_rings(count=25)
    assert len(rings) > _tables.cache_info().maxsize
    for ring in rings:
        criterion_search(ring, "zero")
        assert _tables.cache_info().currsize <= _tables.cache_info().maxsize
    assert _tables.cache_info().currsize == _tables.cache_info().maxsize


def _digest(rows):
    blob = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# (ring, kind): (witnesses, sha256[:16] of their as_dict() list)
WITNESS_DIGESTS = {
    ("F660", "zero"): (24, "8e85e9951ac41e1e"),
    ("F660", "one"): (24, "18a13d5cad75ae4f"),
    ("F210", "zero"): (0, None),
    ("F210", "one"): (0, None),
}


@pytest.mark.parametrize("name,kind", sorted(WITNESS_DIGESTS))
def test_all_witness_lists_are_pinned(name, kind):
    found = criterion_search(catalog(name), kind, all_witnesses=True)
    count, digest = WITNESS_DIGESTS[name, kind]
    assert len(found) == count
    if found:
        assert _digest([w.as_dict() for w in found]) == digest


def _criteria_corpus():
    """(ring, nonet, i0, passed, reason, witness) over seeded random nonets.

    Every nonet gets the zero check and, for each element i0 of its
    spectrum, the one check. Half the nonets are drawn so that five of
    the six premises hold. Three rank-4 tensors that break the fusion
    axioms (the checks read only the coefficients) reach the failures
    that no catalog ring reaches: the second left-hand and the third
    right-hand one-dimensionality condition.
    """
    rng = random.Random(34)
    rings = [catalog(n) for n in ("trivial", "Fib", "Ising", "RepS3", "F660")]
    for t in range(3):
        N = [[[int(j == i) if k == 0 else rng.choice((0, 0, 1, 1, 2)) for k in range(4)]
              for j in range(4)] for i in range(4)]
        rings.append(build_ring(f"T{t}", "abcd", N))
    rows = []
    for ring in rings:
        r, N = ring.rank, ring.N

        def pick(a, b):
            sup = [k for k in range(r) if N[a][b][k]]
            return rng.choice(sup) if sup else rng.randrange(r)

        for n in range(600):
            if n % 2:
                nonet = tuple(rng.randrange(r) for _ in range(9))
            else:
                i7, i9, i4, i5 = (rng.randrange(r) for _ in range(4))
                i1 = pick(i7, i9)
                i6 = pick(i4, i1)
                i2 = pick(i5, i4)
                i3 = pick(i5, i6)
                i8 = pick(i2, i7)
                nonet = (i1, i2, i3, i4, i5, i6, i7, i8, i9)
            checks = [(None, zero_witness_check(ring, nonet))]
            for i0 in pe_spectrum(ring, *nonet[3:]).indices:
                checks.append((i0, one_witness_check(ring, nonet, i0)))
            for i0, res in checks:
                witness = res.witness.as_dict() if res.witness else None
                rows.append([ring.name, list(nonet), i0, res.passed, res.reason, witness])
    return rows


# every failure reason the two checks give, as a pattern over its text
CHECK_REASONS = (
    r"premise N\(i\d,i\d;i\d\) = 0",
    r"spectrum not empty: \[.+\]",
    r"pair coefficient N\(i2,i1;i3\) = \d+ != 1",
    r"first one-dimensionality condition fails",
    r"second one-dimensionality condition fails",
    r"spectrum is \[.+\], not exactly the given element",
    r"spectrum multiplicities are not all 1",
    r"pair coefficient N\(i2,i1;i3\) = \d+ != 0",
    r"rhs-fsymbol-1 one-dimensionality condition fails",
    r"rhs-fsymbol-2 one-dimensionality condition fails",
    r"rhs-fsymbol-3 one-dimensionality condition fails",
)


def test_check_results_on_a_seeded_corpus_are_pinned():
    rows = _criteria_corpus()
    reasons = {row[4] for row in rows if not row[3]}
    for pattern in CHECK_REASONS:
        assert any(re.fullmatch(pattern, x) for x in reasons), pattern
    assert all(any(re.fullmatch(p, x) for p in CHECK_REASONS) for x in reasons)
    assert {(row[2] is None, row[3]) for row in rows} == {
        (True, True), (True, False), (False, True), (False, False)
    }
    assert (len(rows), _digest(rows)) == (9845, "e193b4beb348b899")

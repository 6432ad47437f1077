import hashlib
import random

import numpy as np
import pytest

from prismring import localizer
from prismring.catalog import catalog
from prismring.fields import GF, QQ, NonInvertibleError
from prismring.groebner import (
    GroebnerResourceError,
    _mulmod,
    _prime_stream,
    buchberger,
    ideal_equal,
    normal_forms,
    specialize,
)
from prismring.localizer import (
    EXCLUDED,
    NOT_EXCLUDED,
    LocalizationError,
    _link_quotient,
    default_sprime_pair,
    extra_link,
    generate_Ek,
    generate_full,
    localization_sets,
    maximal_sprime_candidates,
    two_parallel,
)
from prismring.poly import Polynomial, parse_polynomial

from conftest import E1_TEXT, E1_VARS, E2_TEXT, E2_VARS, LINK_TEXT

SPRIME_K = ("1", "5_1", "5_3")
SPRIME_L = ("1", "5_2", "5_3")


def test_support_sets(f210):
    assert localization_sets(f210, "5_1").support_labels == ("1", "5_1", "5_3", "7_1", "7_2")
    assert localization_sets(f210, "5_3").support_labels == ("1", "5_2", "5_3", "7_1", "7_2")


def test_six_dim_object_supports_everything(f210):
    # its square contains every basis element exactly once, so the
    # hypotheses hold with full support
    loc = localization_sets(f210, "6_1")
    assert loc.support_labels == f210.labels


def test_hypothesis_violations():
    ising = catalog("Ising")
    with pytest.raises(LocalizationError):
        localization_sets(ising, "eps")  # eps.eps = 1 does not contain eps
    f660 = catalog("F660")
    with pytest.raises(LocalizationError):
        localization_sets(f660, "b2")  # not self-dual
    with pytest.raises(LocalizationError):
        localization_sets(f660, "b4")  # b4.b4 contains b4 three times


def test_sprime_validation(f210):
    with pytest.raises(LocalizationError):
        generate_Ek(f210, "5_1", ("5_1", "5_3"))  # missing unit
    with pytest.raises(LocalizationError):
        generate_Ek(f210, "5_1", ("1", "5_1", "5_2"))  # leaves the support
    loc = localization_sets(f210, "6_1")
    with pytest.raises(LocalizationError):
        # 7_1,7_1 -> 6_1 has multiplicity 2 inside the support of 6_1
        loc.with_chosen(("1", "6_1", "7_1"))


def test_maximal_sprime_candidates(f210):
    cands = maximal_sprime_candidates(f210, "5_1")
    assert all("1" in c for c in cands)
    assert any(set(SPRIME_K) <= set(c) for c in cands)
    seen = {frozenset(c) for c in cands}
    assert len(seen) == len(cands)


def test_ek_shape(ek):
    assert len(ek.variables) == 10
    assert len(ek.polys) == 12
    assert "x_5_1[5_1,5_3]" not in ek.variables  # zero-forced coefficient
    for p in ek.polys:
        assert p.used_variables() <= set(ek.variables)


def test_ek_matches_reference_system(ek):
    alias = ek.alias_table("u", "v")
    assert list(alias.values()) == ["u0", "u1", "u2", "v0", "v1", "v2", "v3", "v4", "v5", "v6"]
    mine = [p.rename(E1_VARS, alias) for p in ek.polys]
    reference = [parse_polynomial(t, E1_VARS) for t in E1_TEXT]
    assert ideal_equal(mine, reference)


def test_el_matches_reference_system(el):
    alias = el.alias_table("w", "z")
    mine = [p.rename(E2_VARS, alias) for p in el.polys]
    reference = [parse_polynomial(t, E2_VARS) for t in E2_TEXT]
    assert ideal_equal(mine, reference)


def test_extra_link_exact(f210, ek, el):
    link = extra_link(f210, "5_1", "5_3")
    alias = {**ek.alias_table("u", "v"), **el.alias_table("w", "z")}
    named = link.rename(tuple(alias[v] for v in link.vars), alias)
    expect = parse_polynomial(LINK_TEXT, named.vars)
    assert named == expect


def test_extra_link_support_intersection(f210):
    sk = set(localization_sets(f210, "5_1").support_labels)
    sl = set(localization_sets(f210, "5_3").support_labels)
    assert sk & sl == {"1", "5_3", "7_1", "7_2"}


def test_extra_link_errors(f210):
    with pytest.raises(LocalizationError):
        extra_link(f210, "5_1", "5_1")
    with pytest.raises(LocalizationError):
        extra_link(f210, "5_1", "5_2")  # 5_2 not in the support of 5_1


def test_default_sprime_pair(f210):
    sk, sl = default_sprime_pair(f210, "5_1", "5_3")
    assert tuple(f210.labels[i] for i in sk) == SPRIME_K
    assert tuple(f210.labels[i] for i in sl) == SPRIME_L


def test_generated_ideal_stable_under_sprime_reordering(f210, ek):
    shuffled = generate_Ek(f210, "5_1", ("5_3", "1", "5_1"))
    assert shuffled.variables == ek.variables
    assert ideal_equal(list(shuffled.polys), list(ek.polys))


def test_full_system_contains_reduced_instances(f210, ek, gb_ek):
    full = generate_full(f210, "5_1", SPRIME_K)
    assert set(ek.variables) <= set(full.variables)
    # instances expressible in the reduced variables span the same ideal
    restricted = [
        p for p in full.polys if p.used_variables() <= set(ek.variables)
    ]
    assert restricted
    ek_monic = {frozenset(p.monic().terms.items()) for p in ek.polys}
    full_monic = {
        frozenset(p.rename(ek.variables).monic().terms.items()) for p in restricted
    }
    # every reduced equation appears among the restricted instances
    assert ek_monic <= full_monic
    # and every restricted instance lies in the reduced ideal
    for p in restricted:
        assert gb_ek.normal_form(p.rename(ek.variables)).is_zero()


def test_full_system_unit_instances_reduce_to_orthogonality(f210, ek):
    full = generate_full(f210, "5_1", SPRIME_K)
    ortho = {
        frozenset(p.monic().terms.items())
        for p, prov in zip(ek.polys, ek.provenance)
        if prov[0] == "orthogonality"
    }
    covered = {
        frozenset(p.rename(ek.variables).monic().terms.items())
        for p in full.polys
        if p.used_variables() <= set(ek.variables)
    }
    assert ortho <= covered


def test_localization_rejects_non_integral(fib):
    with pytest.raises(LocalizationError):
        generate_Ek(fib, "tau", ("1", "tau"))


# ------------------------------------------ the linked quotient A_k (x) A_l / im(L)


def _gb(field, texts, vars):
    polys = specialize(field, [parse_polynomial(t, vars) for t in texts])
    return buchberger(polys, field=field)


def _union_basis(gb_k, gb_l, link):
    union = [g.rename(link.vars) for g in gb_k.polys + gb_l.polys] + [link]
    return buchberger(union, field=link.field)


@pytest.mark.parametrize(
    "field", [QQ, GF(32003), GF(2**40 + 15)], ids=["QQ", "GF32003", "GF2^40+15"]
)
@pytest.mark.parametrize(
    "k_vars, k_texts, link, unit",
    [
        (("x",), ["x^2 - 1"], "x*y - 1", False),  # vanishes at x = y = 1
        (("x",), ["x^2 - 1"], "x*y - 2", True),  # xy is +-1 at every point
        # vanishes at x = -1, y = 1; residues near 2^40 overflow int64 products
        (("x",), ["x^2 - 1"], "3*x*y + x - y + 5", False),
        (("x",), ["x^2 - 1", "x - 2"], "x*y - 1", True),  # trivial gb_k: empty staircase
        # a unit, but z is free: an infinite staircase is left to Buchberger
        (("x", "z"), ["x^2 - 1"], "x*y - 2", False),
    ],
)
def test_link_is_unit_on_tiny_algebras(field, k_vars, k_texts, link, unit):
    """``unit`` is the outcome the quotient step reports: corank 0."""
    gb_k = _gb(field, k_texts, k_vars)
    gb_l = _gb(field, ["y^2 - 1"], ("y",))
    (f,) = specialize(field, [parse_polynomial(link, k_vars + ("y",))])
    corank, basis, counts = _link_quotient(gb_k, gb_l, f)
    if gb_k.staircase() is None:
        assert (corank, basis, counts) == (None, None, None)
        return
    assert counts["rank"] + corank == counts["dim"]
    assert (corank == 0) is unit
    final = _union_basis(gb_k, gb_l, f)
    assert corank == final.quotient_dimension()
    if basis is None:  # QQ, singular mod p: left to Buchberger
        assert field == QQ and corank
    else:
        assert [str(g) for g in basis] == [str(g) for g in final.polys]


def test_link_is_unit_agrees_with_combined_buchberger():
    """Reference: the linked basis equals Buchberger's on the union of both
    bases and the link, and the corank is its quotient dimension. GF(7)
    makes coranks 0, 1, 2 and 4 all occur."""
    F = GF(7)
    rng = random.Random(7)
    seen = set()
    for _ in range(30):
        c = [rng.randrange(7) for _ in range(8)]
        gb_k = _gb(F, [f"a^2 - {c[0]}*b - {c[1]}", f"b^2 - {c[2]}*a - {c[3]}"], ("a", "b"))
        gb_l = _gb(F, [f"x^2 - {c[4]}*y", f"y^2 - {c[5]}*x - 1"], ("x", "y"))
        allv = ("a", "b", "x", "y")
        (link,) = specialize(F, [parse_polynomial(f"a*x - {c[6]}*b*y + {c[7]}", allv)])
        corank, basis, _ = _link_quotient(gb_k, gb_l, link)
        final = _union_basis(gb_k, gb_l, link)
        assert [str(g) for g in basis] == [str(g) for g in final.polys]
        assert corank == final.quotient_dimension()
        seen.add(corank)
    assert seen == {0, 1, 2, 4}


def test_mulmod_does_not_overflow_int64():
    p = 2**31 - 1  # the largest prime still on int64
    rng = np.random.default_rng(7)
    a = rng.integers(p - 2**20, p, (14, 196), dtype=np.int64)
    b = rng.integers(p - 2**20, p, (196, 14), dtype=np.int64)
    exact = a.astype(object).dot(b.astype(object)) % p
    assert (_mulmod(a, b, p) == exact).all()
    assert (_mulmod(a[0], b, p) == exact[0]).all()
    # (p - 1)^2 = 1 mod p, so the product is n mod p; past 2^16 inner terms
    # the 16-bit split alone overflows
    n = 70_000
    ones = np.full((1, n), p - 1, dtype=np.int64)
    assert _mulmod(ones, ones.T, p).tolist() == [[n]]
    # one int64 product when k (p - 1)^2 < 2^63, k inner terms: k = 2 is
    # the last such k for this p, k = 3 takes the split
    assert 2 * (p - 1) ** 2 < 2**63 <= 3 * (p - 1) ** 2
    for k in (1, 2, 3):
        a = np.full((3, k), p - 1, dtype=np.int64)
        b = np.full((k, 2), p - 1, dtype=np.int64)
        exact = a.astype(object).dot(b.astype(object)) % p
        assert (_mulmod(a, b, p) == exact).all() and exact[0, 0] == k
    q = 2**40 + 15  # object dtype
    big = np.full((1, n), q - 1, dtype=object)
    assert _mulmod(big, big.T, q).tolist() == [[n]]


def test_two_parallel_gf32003_decided_without_final_basis(f210):
    rep = two_parallel(f210, "5_1", "5_3", field=GF(32003))
    assert rep.verdict == EXCLUDED
    assert rep.final_basis == ("1",)
    assert rep.certified
    assert rep.corank == 0
    assert "gb_final" not in rep.timings


def test_two_parallel_gf11_by_fglm(f210):
    rep = two_parallel(f210, "5_1", "5_3", field=GF(11))
    assert rep.verdict == NOT_EXCLUDED
    assert len(rep.final_basis) == 23
    digest = hashlib.sha256("\n".join(rep.final_basis).encode()).hexdigest()[:16]
    assert digest == "0e3c0d90ee1e3817"
    assert rep.corank == 4
    assert rep.certified
    assert "gb_final" not in rep.timings
    assert rep.stats == GF11_ENGINE_STATS


@pytest.mark.parametrize("stage", ["gb_k", "gb_l", "gb_final"])
def test_two_parallel_budget_error_names_its_stage(f210, monkeypatch, stage):
    """A budget error inside one of the bases of ``two_parallel`` is
    prefixed with that basis's name. The third basis runs only when the
    link step gives no basis, so that is forced here."""
    calls = []

    def capped(polys, **kw):
        calls.append(None)
        if len(calls) == ("gb_k", "gb_l", "gb_final").index(stage) + 1:
            kw["pair_budget"] = 1
        return buchberger(polys, **kw)

    monkeypatch.setattr(localizer, "buchberger", capped)
    monkeypatch.setattr(localizer, "_link_quotient", lambda *args: (None, None, None))
    with pytest.raises(GroebnerResourceError, match=rf"^{stage}: S-pair budget exceeded \(1\) "):
        two_parallel(f210, "5_1", "5_3", field=GF(11))


# F4 counters of gb_k and gb_l for two_parallel(F210, 5_1, 5_3) over GF(11),
# each run stopped by the border certificate after 8 of its 12 rounds, and
# the link step's: 14 x 14 staircases, corank 4, 91 border monomials a
# side, 4 staircase monomials and 23 leading monomials taken by FGLM
GF11_ENGINE_STATS = {
    "k": {"spairs": 251, "term_ops": 60_531, "matrices": 8, "max_matrix_cells": 17_865,
          "pairs_left": 88},
    "l": {"spairs": 247, "term_ops": 60_032, "matrices": 8, "max_matrix_cells": 16_859,
          "pairs_left": 95},
    "link": {"dim": 196, "rank": 192, "border": 182, "fglm_candidates": 27},
}


def _first_prime_of(polys):
    """The polynomials mod the first prime of the modular stream into which
    they specialize, as the link step takes a rational basis."""
    for p in _prime_stream():
        try:
            return specialize(GF(p), polys)
        except NonInvertibleError:
            continue


@pytest.mark.parametrize(
    "p", [11, 32003, 2**40 + 15, None], ids=["GF11", "GF32003", "GF2^40+15", "QQ"]
)
@pytest.mark.parametrize("side", ["k", "l"])
def test_border_matrices_match_normal_forms(p, side, ek, el, gb_ek):
    """Column j of the matrix of x_v, built from the border, is the normal
    form of x_v * stair[j] on the staircase. Over GF(p) the run stopped at
    the border certificate and kept its matrices; over QQ the rational
    basis is taken mod the first prime into which it specializes, as the
    link step does. The border is larger than the set of leading
    monomials, so the walk also takes its second branch."""
    system = {"k": ek, "l": el}[side]
    if p is None:
        gb = gb_ek if side == "k" else buchberger(system.polys)
        polys = _first_prime_of(gb.polys)
        assert gb.quotient is None
    else:
        gb = buchberger(specialize(GF(p), system.polys), field=GF(p))
        polys = gb.polys
        assert gb.quotient is not None and gb.stats["pairs_left"] > 0
    F = polys[0].field
    stair = gb.staircase()
    xs, border = gb.multiplication_matrices(F)
    assert border > len(polys)
    row = {s: i for i, s in enumerate(stair)}
    n = len(gb.vars)
    for v in range(n):
        shifted = [
            Polynomial(gb.vars, {tuple(e + (i == v) for i, e in enumerate(s)): 1}, F, gb.order)
            for s in stair
        ]
        want = np.zeros((len(stair), len(stair)), dtype=object)
        for j, r in enumerate(normal_forms(shifted, polys, gb.order)):
            for e, c in r.terms.items():
                want[row[e], j] = c
        assert (xs[v] == want).all()

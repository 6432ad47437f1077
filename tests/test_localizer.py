import hashlib
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from prismring import groebner, localizer
from prismring.catalog import CATALOG_NAMES, catalog
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
from prismring.rings import fpdim_data

from conftest import E1_TEXT, E1_VARS, E2_TEXT, E2_VARS, LINK_TEXT, random_valid_rings

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
    # every triple of {1, 5_1, 7_1} is multiplicity-free, but the
    # square-expansion family reads x(7_2,7_1,7_1) and N(7_1,7_1;7_2) = 2
    with pytest.raises(LocalizationError, match=r"N\(7_1,7_1;7_2\) = 2"):
        localization_sets(f210, "5_1").with_chosen(("1", "5_1", "7_1"))


def test_maximal_sprime_candidates(f210):
    cands = maximal_sprime_candidates(f210, "5_1")
    assert cands == (SPRIME_K,)
    assert maximal_sprime_candidates(f210, "6_1") == (("1", "5_1", "5_2", "5_3", "6_1"),)
    for k in f210.labels:
        try:
            loc = localization_sets(f210, k)
        except LocalizationError:
            continue
        for cand in maximal_sprime_candidates(f210, k):
            loc.with_chosen(cand)


def test_unit_label_has_no_localization_system(f210):
    for call in (localization_sets, maximal_sprime_candidates):
        with pytest.raises(LocalizationError, match="'1' is the unit label"):
            call(f210, "1")


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


@pytest.mark.parametrize(
    "subsets", [{}, {"sprime_k": ("1", "5_1"), "sprime_l": ("1", "5_1")}],
    ids=["default", "explicit"],
)
def test_two_parallel_rejects_equal_labels(f210, subsets):
    """k == l is refused before any subset or system is built."""
    with pytest.raises(LocalizationError, match="^the two subsystem labels must differ$"):
        two_parallel(f210, "5_1", "5_1", field=GF(11), **subsets)


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


def _localization_inputs():
    """Every validated (ring, k, chosen subset) of the integral catalog rings
    and ``random_valid_rings(count=20)``: each k that ``localization_sets``
    accepts, with each subset that ``with_chosen`` accepts."""
    rings = [catalog(name) for name in CATALOG_NAMES] + random_valid_rings(count=20)
    inputs = []
    for ring in rings:
        if not fpdim_data(ring).integral:
            continue
        for k in range(ring.rank):
            try:
                loc = localization_sets(ring, k)
            except LocalizationError:
                continue
            rest = [a for a in loc.support if a != ring.unit_index]
            for size in range(len(rest) + 1):
                for subset in itertools.combinations(rest, size):
                    try:
                        inputs.append(loc.with_chosen((ring.unit_index,) + subset))
                    except LocalizationError:
                        pass
    return inputs


def test_every_reduced_system_is_a_slice_of_the_full_system():
    """On every input, each monic E_k polynomial is a monic polynomial of
    the full system: E_k is its b = c slice, with orthogonality the
    triple product at c = 1."""
    inputs = _localization_inputs()
    assert len(inputs) == 40
    for loc in inputs:
        ek = generate_Ek(loc.ring, loc.k, loc.chosen)
        full = generate_full(loc.ring, loc.k, loc.chosen)
        assert set(ek.variables) <= set(full.variables)
        full_monic = {
            frozenset(p.rename(ek.variables).monic().terms.items())
            for p in full.polys
            if p.used_variables() <= set(ek.variables)
        }
        ek_monic = {frozenset(p.monic().terms.items()) for p in ek.polys}
        assert ek_monic <= full_monic, (loc.ring.name, loc.k_label, loc.chosen_labels)


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
    "field",
    [QQ, GF(11), GF(32003), GF(2**31 - 1), GF(2**40 + 15)],
    ids=["QQ", "GF11", "GF32003", "GF2^31-1", "GF2^40+15"],
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
    makes coranks 0, 1, 2 and 4 all occur. The second links have a term of
    degree 2 on each side and terms in the variables of one side only,
    which checks the layout of L^T built in one product, also over
    GF(2^40 + 15), whose residues are Python ints; with no constant term
    they vanish at the origin, a common zero of both systems when c[1] =
    c[3] = 0, so both fields give links that are not units."""
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
    for p in (7, 2**40 + 15):
        F = GF(p)
        seen = set()
        for _ in range(12):
            c = [rng.randrange(3) for _ in range(4)] + [rng.randrange(1, 7) for _ in range(6)]
            gb_k = _gb(F, [f"a^2 - {c[0]}*b - {c[1]}", f"b^2 - {c[2]}*a"], ("a", "b"))
            gb_l = _gb(F, [f"x^2 - {c[4]}*y", f"y^2 - {c[5]}*x - {c[3]}"], ("x", "y"))
            text = f"a^2*x - {c[6]}*b*y^2 + {c[7]}*a*b + {c[8]}*y + {c[9]}*b*x"
            (link,) = specialize(F, [parse_polynomial(text, allv)])
            corank, basis, _ = _link_quotient(gb_k, gb_l, link)
            final = _union_basis(gb_k, gb_l, link)
            assert [str(g) for g in basis] == [str(g) for g in final.polys]
            assert corank == final.quotient_dimension()
            seen.add(corank)
        assert 0 in seen and len(seen) > 1, seen


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


@pytest.mark.parametrize(
    "p, verdict, corank, size, digest, link",
    [
        (13, EXCLUDED, 0, 1, "6b86b273ff34fce1",
         {"dim": 196, "rank": 196, "border": 182, "fglm_candidates": 1}),
        (17, NOT_EXCLUDED, 4, 23, "bb76be8f91eef148",
         {"dim": 196, "rank": 192, "border": 182, "fglm_candidates": 27}),
    ],
    ids=["GF13", "GF17"],
)
def test_two_parallel_either_side_of_the_int16_link_bound(f210, p, verdict, corank, size,
                                                          digest, link):
    """The link step's 196 x 196 RREF runs in int16 at p = 13 (196 * 12^2 =
    28,224 <= 2^15 - 13) and in int64 at p = 17 (196 * 16^2 = 50,176).
    The values were measured with every RREF in int64."""
    rep = two_parallel(f210, "5_1", "5_3", field=GF(p))
    assert (rep.verdict, rep.corank, len(rep.final_basis)) == (verdict, corank, size)
    assert hashlib.sha256("\n".join(rep.final_basis).encode()).hexdigest()[:16] == digest
    assert rep.stats["link"] == link
    assert rep.certified
    assert "gb_final" not in rep.timings


@pytest.mark.parametrize("sprimes", [(None, None), (SPRIME_K, SPRIME_L)], ids=["default", "given"])
def test_two_parallel_computes_fpdim_data_once(f210, sprimes):
    """The subset choice, both subsystems and the link share one
    ``fpdim_data`` of the ring: with the cache cleared, the pass misses it
    once, and generating a system again misses it no more."""
    fpdim_data.cache_clear()
    rep = two_parallel(f210, "5_1", "5_3", field=GF(32003), sprime_k=sprimes[0],
                       sprime_l=sprimes[1])
    assert rep.verdict == EXCLUDED
    assert fpdim_data.cache_info().misses == 1
    assert generate_Ek(f210, "5_1", SPRIME_K).polys == rep.k_system.polys
    assert extra_link(f210, "5_1", "5_3") == rep.link
    assert fpdim_data.cache_info().misses == 1


@pytest.mark.parametrize("stage",["gb_k", "gb_l", "gb_final"])
def test_two_parallel_budget_error_names_its_stage(f210, monkeypatch, stage):
    """A budget error inside one of the bases of ``two_parallel`` is
    prefixed with that basis's name. The second basis runs only when no
    automorphism carries E_k onto E_l, and the third only when the link
    step gives no basis, so both are forced here."""
    calls = []

    def capped(polys, **kw):
        calls.append(None)
        if len(calls) == ("gb_k", "gb_l", "gb_final").index(stage) + 1:
            kw["pair_budget"] = 1
        return buchberger(polys, **kw)

    monkeypatch.setattr(localizer, "buchberger", capped)
    monkeypatch.setattr(localizer, "_subsystem_map", lambda *args: None)
    monkeypatch.setattr(localizer, "_link_quotient", lambda *args: (None, None, None))
    with pytest.raises(GroebnerResourceError, match=rf"^{stage}: S-pair budget exceeded \(1\) "):
        two_parallel(f210, "5_1", "5_3", field=GF(11))


def test_two_parallel_link_error_names_its_stage(f210, monkeypatch):
    """A resource error of the link step, here its staircase enumeration
    over QQ, is prefixed ``link:`` like a basis's error."""
    monkeypatch.setattr(groebner, "_STAIRCASE_LIMIT", 5)
    with pytest.raises(GroebnerResourceError, match="^link: staircase enumeration limit hit$"):
        two_parallel(f210, "5_1", "5_3")


@pytest.mark.parametrize("field", [GF(11), QQ], ids=["GF11", "QQ"])
def test_link_step_walks_one_border_per_distinct_basis(f210, ek, el, gb_ek, monkeypatch, field):
    """gb_l renamed from gb_k takes gb_k's multiplication matrices: over QQ
    the link step walks one border, not two; over GF(11) both bases hand
    over the border certificate's matrices and it walks none."""
    gb_k = gb_ek if field.is_rational else buchberger(specialize(field, ek.polys), field=field)
    gb_l = localizer._orbit_basis(gb_k, ek, el)
    allv = localizer._combined_ring_vars(ek, el)
    (link,) = specialize(field, [extra_link(f210, "5_1", "5_3").rename(allv)])
    calls = []
    walk = groebner._border_walk

    def spy(*args, **kw):
        calls.append(None)
        return walk(*args, **kw)

    monkeypatch.setattr(groebner, "_border_walk", spy)
    corank, _, counts = _link_quotient(gb_k, gb_l, link)
    assert len(calls) == (1 if field.is_rational else 0)
    assert corank == (0 if field.is_rational else 4)
    assert (counts["dim"], counts["border"]) == (196, 182)


# F4 counters of gb_k for two_parallel(F210, 5_1, 5_3) over GF(11), its run
# stopped by the border certificate after 8 of its 12 rounds; gb_l is gb_k
# renamed by the 3-cycle 5_1 -> 5_3 -> 5_2 -> 5_1; and the link step's
# counters: 14 x 14 staircases, corank 4, 91 border monomials a side, 4
# staircase monomials and 23 leading monomials taken by FGLM
F210_CYCLE = {"1": "1", "5_1": "5_3", "5_2": "5_1", "5_3": "5_2", "6_1": "6_1", "7_1": "7_1",
              "7_2": "7_2"}
GF11_ENGINE_STATS = {
    "k": {"spairs": 251, "term_ops": 57_314, "matrices": 8, "max_matrix_cells": 17_865,
          "pairs_left": 88, "steps": 0},
    "l": {"from": "k", "labels": F210_CYCLE},
    "link": {"dim": 196, "rank": 192, "border": 182, "fglm_candidates": 27},
}


def _outcome(rep):
    return (rep.verdict, rep.corank, rep.final_basis, rep.gb_k_size, rep.gb_l_size,
            rep.stats["link"], rep.certified)


@pytest.mark.parametrize(
    "p", [11, 13, 17, 32003, 2**31 - 1, None],
    ids=["GF11", "GF13", "GF17", "GF32003", "GF2^31-1", "QQ"],
)
def test_orbit_reuse_changes_no_result(f210, monkeypatch, p):
    """gb_l renamed from gb_k gives the report that computing gb_l gives:
    the same verdict, corank, final basis, basis sizes, link counters and
    certificate."""
    field = QQ if p is None else GF(p)
    reused = two_parallel(f210, "5_1", "5_3", field=field)
    assert reused.stats["l"] == {"from": "k", "labels": F210_CYCLE}
    monkeypatch.setattr(localizer, "_subsystem_map", lambda *args: None)
    computed = two_parallel(f210, "5_1", "5_3", field=field)
    assert "from" not in computed.stats["l"]
    assert _outcome(reused) == _outcome(computed)


@pytest.mark.parametrize(
    "name, count",
    [("trivial", 1), ("Z2", 1), ("Fib", 1), ("Ising", 1), ("RepS3", 1), ("VecS3", 6),
     ("F210", 6), ("F660", 8)],
)
def test_automorphisms_match_brute_force(name, count):
    """The backtracking search yields, in lexicographic order, exactly the
    label permutations that fix the unit and keep every N[a][b][c]."""
    ring = catalog(name)
    N, unit, n = ring.N, ring.unit_index, len(ring.labels)
    rest = [a for a in range(n) if a != unit]
    brute = []
    for images in itertools.permutations(rest):
        s = list(range(n))
        for a, t in zip(rest, images):
            s[a] = t
        if all(N[s[a]][s[b]][s[c]] == N[a][b][c]
               for a in range(n) for b in range(n) for c in range(n)):
            brute.append(tuple(s))
    found = list(localizer._automorphisms(ring))
    assert found == sorted(brute)
    assert len(found) == count


def test_orbit_basis_needs_the_exact_system(f210, ek, el, monkeypatch):
    """gb_k renamed by the 3-cycle is a reduced basis of E_l on a
    permutation of its variables, with gb_k's exponents and quotient; a
    system that differs by one polynomial, or a label map that does not
    take E_k's variables onto E_l's, gets no renamed basis."""
    gb_k = buchberger(specialize(GF(11), ek.polys), field=GF(11))
    gb = localizer._orbit_basis(gb_k, ek, el)
    assert gb.stats == {"from": "k", "labels": F210_CYCLE}
    assert sorted(gb.vars) == sorted(el.variables) and gb.vars != el.variables
    assert [g.terms for g in gb] == [g.terms for g in gb_k]
    assert gb.quotient is gb_k.quotient
    gb.self_check()
    want = set(specialize(GF(11), el.polys))
    assert {g.rename(el.variables) for g in gb.generators} == want
    assert localizer._orbit_basis(gb_k, ek, replace(el, polys=el.polys[1:])) is None
    # the 3-cycle and 6_1 <-> 7_1, which is not an automorphism of F210
    monkeypatch.setattr(localizer, "_subsystem_map", lambda *args: (0, 3, 1, 2, 5, 4, 6))
    assert localizer._orbit_basis(gb_k, ek, el) is None


def test_two_parallel_without_automorphism_computes_gb_l(f210):
    """No automorphism takes 5_1's subset {1, 5_1, 5_3} onto {1, 5_3}, so
    gb_l is computed, by two S-pair steps and no matrix; its staircase is
    infinite, so gb_final runs."""
    rep = two_parallel(f210, "5_1", "5_3", field=GF(11), sprime_l=("1", "5_3"))
    assert rep.stats["l"] == {"spairs": 2, "term_ops": 131, "matrices": 0,
                              "max_matrix_cells": 0, "pairs_left": 0, "steps": 2}
    assert "gb_final" in rep.timings and "final" in rep.stats
    assert rep.corank == 84


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

"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion wall times. Tolerances and runtime budgets are pinned here.
"""

import math
import random
import time

from prismring.catalog import catalog
from prismring.chartab import (
    NO_POSITIVE_CHAR_PIVOTAL,
    character_table,
    column_zero_property,
    lifting_verdict,
)
from prismring.groebner import buchberger, ideal_equal, ideal_is_trivial
from prismring.localizer import extra_link, generate_Ek, two_parallel
from prismring.poly import parse_polynomial
from prismring.spectra import criterion_search, pe_spectrum, zero_witness_check
from prismring.tpegen import _rotate, localization_idmap, tpe_equation, tpe_system

from conftest import (
    E1_TEXT,
    E1_VARS,
    E2_TEXT,
    E2_VARS,
    F660_NONET,
    LINK_TEXT,
    oracle_search,
    random_valid_rings,
)


def _ok(num, name, t0, budget_s, detail=""):
    dt = time.time() - t0
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({dt:.1f}s)"
    print(f"[acceptance] criterion {num} ({name}): PASS in {dt:.1f}s {detail}".rstrip())


def test_criterion_1_f660_exclusion(f660):
    t0 = time.time()
    witness = criterion_search(f660, "zero")
    assert witness is not None
    res = zero_witness_check(f660, F660_NONET)
    assert res.passed
    ix = [f660.index(x) for x in F660_NONET]
    assert pe_spectrum(f660, *ix[3:9]).indices == ()  # exact, no tolerance
    assert f660.N[ix[1]][ix[0]][ix[2]] == 1
    assert dict(res.witness.routes)["lhs-fsymbol-1"] == 1
    assert dict(res.witness.routes)["lhs-fsymbol-2"] == 3
    _ok(1, "F660 zero-spectrum exclusion", t0, 60,
        f"witness {witness.nonet}")


def test_criterion_2_f210_two_parallel(f210):
    t0 = time.time()
    rep = two_parallel(f210, "5_1", "5_3")
    assert rep.verdict == "excluded"
    assert rep.final_basis == ("1",)
    assert rep.certified
    assert rep.corank == 0
    assert "gb_final" not in rep.timings
    _ok(2, "F210 linked-subsystem exclusion", t0, 1800,
        f"timings {dict((k, round(v, 1)) for k, v in rep.timings.items())}")


def test_criterion_3_subsystem_fidelity(f210):
    t0 = time.time()
    ek = generate_Ek(f210, "5_1", ("1", "5_1", "5_3"))
    el = generate_Ek(f210, "5_3", ("1", "5_2", "5_3"))
    assert len(ek.variables) == 10 and len(ek.polys) == 12
    assert len(el.variables) == 10 and len(el.polys) == 12
    ak = ek.alias_table("u", "v")
    assert ideal_equal(
        [p.rename(E1_VARS, ak) for p in ek.polys],
        [parse_polynomial(t, E1_VARS) for t in E1_TEXT],
    )
    al = el.alias_table("w", "z")
    assert ideal_equal(
        [p.rename(E2_VARS, al) for p in el.polys],
        [parse_polynomial(t, E2_VARS) for t in E2_TEXT],
    )
    link = extra_link(f210, "5_1", "5_3")
    alias = {**ak, **al}
    named = link.rename(tuple(alias[v] for v in link.vars), alias)
    assert named == parse_polynomial(LINK_TEXT, named.vars)
    _ok(3, "subsystem and link fidelity", t0, 10)


def test_criterion_4_solution_count(f210):
    t0 = time.time()
    ek = generate_Ek(f210, "5_1", ("1", "5_1", "5_3"))
    gb = buchberger(ek.polys)
    count = gb.quotient_dimension()
    assert count == 14, f"staircase count is {count}, expected 14"
    _ok(4, "solution count over the rationals", t0, 300, f"count {count}")


def test_criterion_5_character_table(f210):
    t0 = time.time()
    table = character_table(f210)
    a = -2 * math.cos(2 * math.pi / 7)   # about -1.2469796
    b = -2 * math.cos(4 * math.pi / 7)
    c = -2 * math.cos(6 * math.pi / 7)
    p5 = 2 * math.cos(2 * math.pi / 5)   # about 0.6180340
    q5 = 2 * math.cos(4 * math.pi / 5)   # about -1.6180340
    assert abs(a + 1.2469796) < 1e-6 and abs(p5 - 0.6180340) < 1e-6
    assert abs(q5 + 1.6180340) < 1e-6
    expected_cols = [
        (1, 5, 5, 5, 6, 7, 7),
        (1, -1, -1, -1, 0, 1, 1),
        (1, a, b, c, -1, 0, 0),
        (1, b, c, a, -1, 0, 0),
        (1, c, a, b, -1, 0, 0),
        (1, 0, 0, 0, 1, p5, q5),
        (1, 0, 0, 0, 1, q5, p5),
    ]
    got = [table.column(j) for j in range(7)]
    assert max(abs(x - y) for x, y in zip(got[0], expected_cols[0])) < 1e-8
    remaining = list(range(1, 7))
    for exp in expected_cols[1:]:
        hit = None
        for j in remaining:
            if max(abs(got[j][i] - exp[i]) for i in range(7)) < 1e-8:
                hit = j
                break
        assert hit is not None, f"no column matches {exp}"
        remaining.remove(hit)
    assert column_zero_property(table)
    verdict = lifting_verdict(f210, table, char0_excluded=True)
    assert verdict.conclusion == NO_POSITIVE_CHAR_PIVOTAL
    _ok(5, "F210 character table and lifting", t0, 1,
        f"residual {table.residual:.1e}")


def test_criterion_6_negative_controls():
    t0 = time.time()
    names = ("trivial", "Z2", "Fib", "Ising", "RepS3")
    for name in names:
        ring = catalog(name)
        for kind in ("zero", "one"):
            assert criterion_search(ring, kind) is None, (name, kind)
            assert oracle_search(ring, kind) is None, (name, kind)
    _ok(6, "negative controls", t0, 30, f"rings {names}")


def test_criterion_7_groebner_soundness():
    t0 = time.time()
    XY = ("x", "y")
    XYZ = ("x", "y", "z")
    corpus = [
        [parse_polynomial(s, XY) for s in ("x + 1", "x^2")],
        [parse_polynomial(s, XY) for s in ("x^2 + y^2 - 1", "x - y")],
        [parse_polynomial(s, ("d",)) for s in ("d^2 - d - 1",)],
        [parse_polynomial(s, XYZ) for s in ("x*y - z", "y*z - x", "z*x - y")],
        [
            parse_polynomial(s, XYZ)
            for s in ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1")
        ],
        [parse_polynomial(s, E1_VARS) for s in E1_TEXT],
    ]
    for system in corpus:
        buchberger(system).self_check()
    rng = random.Random(13)
    for system in corpus[:5]:
        reference = [str(g) for g in buchberger(system).polys]
        for _ in range(100):
            shuffled = list(system)
            rng.shuffle(shuffled)
            assert [str(g) for g in buchberger(shuffled).polys] == reference
    for system in corpus:
        if len(system[0].vars) > 6:
            continue
        t_grev = ideal_is_trivial(buchberger(system, order="grevlex"))
        t_lex = ideal_is_trivial(
            buchberger([p.with_order("lex") for p in system], order="lex")
        )
        assert t_grev == t_lex
    _ok(7, "basis engine soundness suite", t0, 300)


def test_criterion_8_tpe_localization_consistency(f210, ek, el):
    t0 = time.time()
    K, L = "5_1", "5_3"
    idmap = localization_idmap(f210, K, ("1", K, L), L, ("1", "5_2", L))

    from prismring.localizer import generate_full

    full = generate_full(f210, K, ("1", K, L))
    families = {
        "triple-product": lambda a, b, c: (a, b, c, K, K, K, K, K, K),
        "product-expansion": lambda a, b, c: (K, K, a, b, K, K, c, K, K),
    }
    for family, mk in families.items():
        by_args = {
            prov[1:]: p
            for p, prov in zip(full.polys, full.provenance)
            if prov[0] == family
        }
        for args, want in by_args.items():
            eq = tpe_equation(f210, mk(*args), idmap=idmap)
            assert len(eq.polys) == 1
            assert eq.polys[0].rename(want.vars).monic() == want.monic(), (family, args)

    link = extra_link(f210, K, L)
    eq = tpe_equation(f210, (K, K, L, K, L, L, K, L, L), idmap=idmap)
    assert eq.polys[0].rename(link.vars).monic() == link.monic()

    cfg = tuple(f210.index(x) for x in (K, K, L, K, L, L, K, L, L))
    forms = {
        tuple(sorted(str(p.monic()) for p in tpe_equation(f210, c, idmap=idmap).polys))
        for c in (cfg, _rotate(cfg), _rotate(_rotate(cfg)))
    }
    assert len(forms) == 1
    _ok(8, "prism equations reproduce localization systems", t0, 10)


def test_criterion_9_fibonacci_tpe_solvable(fib):
    t0 = time.time()
    system = tpe_system(fib, ("1", "tau"))
    rel = parse_polynomial("d_tau^2 - d_tau - 1", system.variables)
    gb = buchberger(list(system.polys) + [rel])
    assert not ideal_is_trivial(gb)
    _ok(9, "Fibonacci prism system solvable", t0, 60,
        f"{len(system.polys)} equations, basis size {len(gb)}")


def test_criterion_10_search_matches_oracle(ising, rep_s3):
    t0 = time.time()
    rings = [catalog("trivial"), catalog("Z2"), catalog("Fib"), ising, rep_s3]
    rings += random_valid_rings(count=20)
    assert len(rings) == 25
    for ring in rings:
        for kind in ("zero", "one"):
            expect = oracle_search(ring, kind)
            got = criterion_search(ring, kind)
            assert (expect is None) == (got is None), (ring.name, kind)
            if expect is not None:
                tup, i0 = expect
                assert got.nonet == tuple(ring.labels[i] for i in tup)
                if kind == "one":
                    assert got.spectrum_label == ring.labels[i0]
    _ok(10, "pruned search equals naive enumeration", t0, 300,
        f"{len(rings)} rings")

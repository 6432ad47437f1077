import itertools

import pytest

from prismring.catalog import CATALOG_NAMES, catalog
from prismring.groebner import buchberger, ideal_is_trivial
from prismring.localizer import (
    LocalizationError,
    extra_link,
    generate_full,
    maximal_sprime_candidates,
)
from prismring.poly import parse_polynomial
from prismring.tpegen import (
    EDGE_PERMS,
    FACES,
    IdmapDomainError,
    InadmissibleConfigError,
    MultiplicityError,
    SelfDualityError,
    TpeError,
    _rotate,
    localization_idmap,
    localization_system,
    orbit,
    tetra_canonical,
    tpe_equation,
    tpe_system,
)

K, L = "5_1", "5_3"
SPRIME_K = ("1", "5_1", "5_3")
SPRIME_L = ("1", "5_2", "5_3")


@pytest.fixture(scope="session")
def idmap(f210):
    return localization_idmap(f210, K, SPRIME_K, L, SPRIME_L)


def test_edge_permutations_form_a_twelve_element_group():
    assert len(set(EDGE_PERMS)) == 12
    perms = set(EDGE_PERMS)
    for p in EDGE_PERMS:
        for q in EDGE_PERMS:
            assert tuple(p[q[i]] for i in range(6)) in perms
        assert tuple(sorted(p)) == tuple(range(6))
    has_order = {1: 0, 2: 0, 3: 0}
    for p in EDGE_PERMS:
        order = 1
        cur = p
        ident = tuple(range(6))
        while cur != ident:
            cur = tuple(p[cur[i]] for i in range(6))
            order += 1
        has_order[order] += 1
    assert has_order == {1: 1, 2: 3, 3: 8}  # the alternating group on 4 points


def test_edge_permutations_preserve_faces():
    face_sets = {frozenset(f) for f in FACES}
    for p in EDGE_PERMS:
        for f in FACES:
            assert frozenset(p[e] for e in f) in face_sets


def test_canonical_constant_on_orbits(fib):
    for edges in itertools.product(range(2), repeat=6):
        try:
            canon, _ = tetra_canonical(fib, edges)
        except TpeError:
            continue
        for img in orbit(edges):
            assert tetra_canonical(fib, img)[0] == canon


def test_orbit_sizes_divide_twelve():
    sizes = set()
    for edges in itertools.product(range(3), repeat=6):
        sizes.add(len(orbit(edges)))
    assert sizes <= {1, 2, 3, 4, 6, 12}


def test_cyclic_relabelings_share_canonical(f210):
    a, b, c, k = "5_1", "5_2", "5_3", "6_1"
    t1 = tetra_canonical(f210, (a, b, c, k, k, k))
    t2 = tetra_canonical(f210, (c, a, b, k, k, k))
    assert t1[0] == t2[0]
    same = tetra_canonical(f210, (k,) * 6)
    assert same[0] == (k,) * 6
    assert len(orbit(tuple(f210.index(x) for x in (k,) * 6))) == 1


def test_multiplicity_and_duality_errors(f210, f660):
    with pytest.raises(MultiplicityError):
        tetra_canonical(f210, ("7_1", "7_1", "6_1", "6_1", "6_1", "6_1"))
    with pytest.raises(SelfDualityError):
        tetra_canonical(f660, ("b2",) * 6)


def test_all_unit_config_is_tautology(f210, idmap):
    eq = tpe_equation(f210, ("1",) * 9, idmap=idmap)
    assert eq.tautology and eq.polys == ()


def test_inadmissible_config_rejected(f210):
    # vertex triple (5_1, 5_2, 1): fusion coefficient 0
    with pytest.raises(InadmissibleConfigError):
        tpe_equation(f210, ("5_2", "1", "1", "5_1", "1", "1", "1", "1", "1"))


def test_fibonacci_all_tau_equation(fib):
    eq = tpe_equation(fib, ("tau",) * 9)
    assert len(eq.polys) == 1
    p = eq.polys[0]
    assert set(p.vars) == {"d_tau", "t[tau,tau,tau,tau,tau,tau]"}
    assert p.total_degree() == 7  # d^4 t^3 term present


def test_idmap_domain_miss(f210, idmap):
    # admissible config whose tetra scalars lie outside the subsystems
    with pytest.raises(IdmapDomainError):
        tpe_equation(f210, ("6_1",) * 9, idmap=idmap)


def _monic_strings(polys):
    return {str(p.monic()) for p in polys}


def test_triple_product_family_matches_localizer(f210, idmap):
    full = generate_full(f210, K, SPRIME_K)
    by_args = {
        prov[1:]: p for p, prov in zip(full.polys, full.provenance)
        if prov[0] == "triple-product"
    }
    for a in SPRIME_K:
        for b in SPRIME_K:
            for c in SPRIME_K:
                cfg = (a, b, c, K, K, K, K, K, K)
                eq = tpe_equation(f210, cfg, idmap=idmap)
                if (a, b, c) not in by_args:
                    continue  # deduplicated instance
                want = by_args[(a, b, c)]
                assert len(eq.polys) == 1
                got = eq.polys[0].rename(want.vars)
                assert got.monic() == want.monic(), (a, b, c)


def test_product_expansion_family_matches_localizer(f210, idmap):
    full = generate_full(f210, K, SPRIME_K)
    by_args = {
        prov[1:]: p for p, prov in zip(full.polys, full.provenance)
        if prov[0] == "product-expansion"
    }
    for a in SPRIME_K:
        for b in SPRIME_K:
            for c in SPRIME_K:
                cfg = (K, K, a, b, K, K, c, K, K)
                eq = tpe_equation(f210, cfg, idmap=idmap)
                if (a, b, c) not in by_args:
                    continue
                want = by_args[(a, b, c)]
                assert len(eq.polys) == 1
                got = eq.polys[0].rename(want.vars)
                assert got.monic() == want.monic(), (a, b, c)


def test_link_config_matches_extra_link(f210, idmap):
    link = extra_link(f210, K, L)
    eq = tpe_equation(f210, (K, K, L, K, L, L, K, L, L), idmap=idmap)
    assert len(eq.polys) == 1
    got = eq.polys[0].rename(link.vars)
    assert got.monic() == link.monic()


def test_rotated_configs_give_identical_equations(f210, fib, idmap):
    configs = [
        tuple(f210.index(x) for x in (K, K, L, K, L, L, K, L, L)),
        tuple(f210.index(x) for x in ("5_3", "5_3", "5_3", K, K, K, K, K, K)),
    ]
    for cfg in configs:
        eqs = [
            tpe_equation(f210, c, idmap=idmap)
            for c in (cfg, _rotate(cfg), _rotate(_rotate(cfg)))
        ]
        forms = {tuple(_monic_strings(e.polys)) for e in eqs}
        assert len(forms) == 1
    for cfg in itertools.product(range(2), repeat=9):
        try:
            base = tpe_equation(fib, cfg)
        except TpeError:
            continue
        rot = tpe_equation(fib, _rotate(cfg))
        assert _monic_strings(base.polys) == _monic_strings(rot.polys)


def test_trivial_ring_has_empty_system():
    triv = catalog("trivial")
    sys = tpe_system(triv, ("1",))
    assert sys.polys == ()


def test_fibonacci_system_dedupes_and_solves(fib):
    sys = tpe_system(fib, ("1", "tau"))
    assert len(sys.polys) < 3 ** 9
    d = parse_polynomial("d_tau^2 - d_tau - 1", sys.variables)
    gb = buchberger(list(sys.polys) + [d])
    assert not ideal_is_trivial(gb)


def test_oversized_system_is_a_typed_error(f210):
    with pytest.raises(TpeError, match="87 variables; at most 64"):
        tpe_system(f210, ("1", "5_1", "5_2", "5_3"))


def test_every_maximal_candidate_gives_a_prism_system():
    """The localization family takes the first maximal chosen subset, with
    no fallback: on the catalog, every candidate's prism configurations
    stay multiplicity-free, and the six of them give nonempty systems."""
    built = []
    for name in CATALOG_NAMES:
        ring = catalog(name)
        for k in ring.labels:
            try:
                cands = maximal_sprime_candidates(ring, k)
            except LocalizationError:
                continue
            built += [(name, k) for c in cands if localization_system(ring, k, c).polys]
    assert built == [("Fib", "tau"), ("RepS3", "t"), ("F210", "5_1"), ("F210", "5_2"),
                     ("F210", "5_3"), ("F210", "6_1")]

import hashlib
import random
from fractions import Fraction
from math import gcd, inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismring import groebner
from prismring.catalog import catalog
from prismring.fields import GF, QQ, NonInvertibleError, is_prime
from prismring.groebner import (
    GroebnerBasis,
    GroebnerResourceError,
    _Basis,
    _border_certificate,
    _border_matrices,
    _Budget,
    _certify_qq,
    _dense_echelon,
    _MAXE,
    _gm_update,
    _int_dicts_from_frac,
    _make_elt,
    _monic,
    _PANEL,
    _PackCtx,
    _prime_stream,
    _reduce,
    _residue_dtype,
    _rref_mod_p,
    _sparse_echelon,
    _staircase,
    buchberger,
    ideal_equal,
    ideal_is_trivial,
    normal_form,
    normal_forms,
    specialize,
    spolynomial,
)
from prismring.poly import (
    GREVLEX,
    LEX,
    MAX_VARS,
    Polynomial,
    format_polynomial,
    monomial_divides,
    monomial_lcm,
    order_key,
    parse_polynomial,
)
from prismring.tpegen import tpe_system

from conftest import E1_TEXT, E1_VARS, oracle_normal_form


def P(text, vars, field=QQ, order="grevlex"):
    return parse_polynomial(text, vars, field, order)


def small_corpus():
    """Systems with at most 6 variables used across engine properties."""
    XY = ("x", "y")
    XYZ = ("x", "y", "z")
    return [
        [P("x + 1", XY), P("x^2", XY)],
        [P("x^2 + y^2 - 1", XY), P("x - y", XY)],
        [P("d^2 - d - 1", ("d",))],
        [P("x*y - z", XYZ), P("y*z - x", XYZ), P("z*x - y", XYZ)],
        [P("x + y + z", XYZ), P("x*y + y*z + z*x", XYZ), P("x*y*z - 1", XYZ)],
    ]


def test_unit_found():
    XY = ("x", "y")
    gb = buchberger([P("x + 1", XY), P("x^2", XY)])
    assert [format_polynomial(g) for g in gb.polys] == ["1"]
    assert ideal_is_trivial(gb)


def test_single_generator_is_monic_self():
    gb = buchberger([P("d^2 - d - 1", ("d",))])
    assert [format_polynomial(g) for g in gb.polys] == ["d^2 - d - 1"]
    assert not ideal_is_trivial(gb)


def test_lex_elimination():
    XY = ("x", "y")
    gb = buchberger(
        [P("x^2 + y^2 - 1", XY, order="lex"), P("x - y", XY, order="lex")],
        order="lex",
    )
    assert {format_polynomial(g) for g in gb.polys} == {"x - y", "y^2 - 1/2"}


def test_normal_form_examples():
    XY = ("x", "y")
    assert format_polynomial(
        normal_form(P("x^2", XY, order="lex"), [P("x - y", XY, order="lex")], "lex")
    ) == "y^2"
    gb = buchberger([P("x^2 + y^2 - 1", XY), P("x - y", XY)])
    for g in gb.generators:
        assert gb.normal_form(g).is_zero()
    one = Polynomial.constant(XY, 1)
    assert normal_form(one, [P("x", XY)]) == one


def test_normal_form_idempotent():
    XY = ("x", "y")
    basis = [P("x^2 - y", XY), P("y^2 - 1", XY)]
    f = P("x^5 + x^3*y + 7", XY)
    r1 = normal_form(f, basis)
    assert normal_form(r1, basis) == r1


def test_trivial_ideal_examples():
    XY = ("x", "y")
    assert ideal_is_trivial(buchberger([P("x + 1", XY), P("x^2", XY)]))
    assert not ideal_is_trivial(buchberger([P("d^2 - d - 1", ("d",))]))
    zero_ideal = buchberger([Polynomial.zero(XY)])
    assert not ideal_is_trivial(zero_ideal)
    assert len(zero_ideal) == 0


def test_ideal_equal_examples():
    XY = ("x", "y")
    x = P("x", XY)
    assert ideal_equal([x], [x.scale(2)])
    assert not ideal_equal([x], [P("x^2", XY)])
    with pytest.raises(ValueError):
        ideal_equal([x], [P("x", ("x", "z"))])


def test_quotient_dimension_examples(monkeypatch):
    x1 = Polynomial.variable(("x",), "x")
    assert buchberger([x1 * x1 - 1]).quotient_dimension() == 2
    XY = ("x", "y")
    assert buchberger([P("x*y", XY)]).quotient_dimension() == float("inf")
    # a staircase past the enumeration limit fails loudly
    monkeypatch.setattr(groebner, "_STAIRCASE_LIMIT", 1)
    with pytest.raises(GroebnerResourceError):
        buchberger([x1 * x1 - 1]).quotient_dimension()


def test_specialize_examples():
    V = ("x",)
    c = Polynomial.constant(V, "1/5")
    assert specialize(GF(7), [c])[0].constant_value() == 3
    with pytest.raises(NonInvertibleError):
        specialize(GF(5), [c])
    E1 = [P(t, E1_VARS) for t in E1_TEXT]
    specialized = specialize(GF(11), E1)
    assert all(q.field == GF(11) for q in specialized)


def test_permutation_stability():
    rng = random.Random(7)
    for system in small_corpus():
        reference = None
        for _ in range(10):
            shuffled = list(system)
            rng.shuffle(shuffled)
            gb = buchberger(shuffled)
            got = [format_polynomial(g) for g in gb.polys]
            if reference is None:
                reference = got
            assert got == reference


def test_triviality_order_invariant_on_corpus():
    for system in small_corpus():
        assert len(system[0].vars) <= 6
        t_grevlex = ideal_is_trivial(buchberger(system, order="grevlex"))
        lex_sys = [p.with_order("lex") for p in system]
        t_lex = ideal_is_trivial(buchberger(lex_sys, order="lex"))
        assert t_grevlex == t_lex


def test_self_check_passes_on_corpus():
    for system in small_corpus():
        buchberger(system).self_check()


def test_gf_engine_agrees_with_specialized_rationals():
    XYZ = ("x", "y", "z")
    sys_q = [P("x*y - z", XYZ), P("y*z - x", XYZ), P("z*x - y", XYZ)]
    gb_q = buchberger(sys_q)
    F = GF(32003)
    gb_p = buchberger(specialize(F, sys_q), field=F)
    lm_q = sorted(gb_q.leading_monomials())
    lm_p = sorted(gb_p.leading_monomials())
    assert lm_q == lm_p


def test_pair_budget_enforced():
    XYZ = ("x", "y", "z")
    sys_q = [P("x + y + z", XYZ), P("x*y + y*z + z*x", XYZ), P("x*y*z - 1", XYZ)]
    with pytest.raises(GroebnerResourceError):
        buchberger(sys_q, pair_budget=1)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_gf_budgets_enforced(order):
    F = GF(32003)
    XYZ = ("x", "y", "z")
    texts = ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1")
    system = [P(t, XYZ, F, order) for t in texts]
    work = buchberger(system, order, F).stats
    assert work["spairs"] > 1 and work["matrices"] > 1
    # the message gives the work done when the limit was hit: the first
    # round's one matrix, then the second round's first pair
    with pytest.raises(GroebnerResourceError, match=r"^S-pair budget exceeded \(1\) "
                       r"at spairs=2, term_ops=\d+, matrices=1$"):
        buchberger(system, order, F, pair_budget=1)
    # a matrix is charged before it is reduced: the largest one is refused
    with pytest.raises(GroebnerResourceError, match=r"^term-operation budget exceeded "
                       r"\(\d+\) at spairs=\d+, term_ops=\d+, matrices=\d+$"):
        buchberger(system, order, F, term_budget=work["max_matrix_cells"] - 1)
    buchberger(system, order, F, pair_budget=work["spairs"], term_budget=work["term_ops"])


@pytest.fixture(scope="module")
def e1():
    return [P(t, E1_VARS) for t in E1_TEXT]


@pytest.fixture(scope="module")
def gb_e1(e1, ek, gb_ek):
    """The session basis of E_k under E1's variable names."""
    alias = ek.alias_table("u", "v")
    # same variables in the same order, and the generators agree up to
    # scaling and order, which the engine normalises away
    assert tuple(alias[v] for v in ek.variables) == E1_VARS
    assert {p.rename(E1_VARS, alias).monic() for p in ek.polys} == {p.monic() for p in e1}
    polys = [g.rename(E1_VARS, alias) for g in gb_ek.polys]
    return GroebnerBasis(polys, E1_VARS, QQ, gb_ek.order, e1, gb_ek.stats)


def test_modular_path_used_for_swelling_system(gb_e1):
    gb = gb_e1
    assert gb.stats.get("mode") == "modular"
    assert len(gb.stats.get("primes", [])) == 6
    assert len(gb) == 31
    assert gb.quotient_dimension() == 14
    text = "\n".join(format_polynomial(g) for g in gb.polys)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "7abb78f0ad1758f4"
    # the abandoned direct ZZ attempt's 83 S-pairs, six GF(p) runs of 251
    # each and the certificate's 112 closure pairs; the attempt's 491,771
    # term ops are in the total, and every S-polynomial step is charged
    assert (gb.stats["spairs"], gb.stats["term_ops"]) == (1701, 950_699)
    # 8 F4 matrices per prime, each run stopped by the border certificate
    # with 88 pairs left
    assert (gb.stats["matrices"], gb.stats["max_matrix_cells"]) == (48, 18_315)
    assert gb.stats["pairs_left"] == 6 * 88


def test_direct_attempt_is_charged_to_the_caller(e1):
    """The direct ZZ attempt that swells on E1 is charged to the caller's
    budget: its 83 S-pairs and the modular run's 1618 must both fit."""
    with pytest.raises(GroebnerResourceError, match="^S-pair budget exceeded"):
        buchberger(e1, pair_budget=1700)
    gb = buchberger(e1, pair_budget=1701)
    assert gb.stats["spairs"] == 1701
    # so is an attempt stopped by its cap: the modular run's first pair is
    # then the 52nd
    with pytest.raises(GroebnerResourceError, match=r"^S-pair budget exceeded \(50\) "
                       r"at spairs=52,"):
        buchberger(e1, pair_budget=50)
    text = "\n".join(format_polynomial(g) for g in gb.polys)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "7abb78f0ad1758f4"


def test_budget_error_names_the_prime(e1):
    """The direct ZZ attempt spends 83 S-pairs of 200, so the first prime's
    F4 run hits the cap, and the message names that prime."""
    first = next(_prime_stream())
    with pytest.raises(GroebnerResourceError, match=r"^S-pair budget exceeded \(200\) "
                       rf"at spairs=201, .* in the F4 run mod {first}$"):
        buchberger(e1, pair_budget=200)


# ------------------------------------------------------- pinned engine work


F4_STATS = ("spairs", "term_ops", "matrices", "max_matrix_cells", "pairs_left")


@pytest.mark.parametrize(
    "p, work",
    [(1073741789, (251, 62_479, 8, 18_315, 88)), (11, (251, 60_531, 8, 17_865, 88))],
    ids=["GF1073741789", "GF11"],
)
def test_gf_engine_work_on_ek(ek, p, work):
    F = GF(p)
    gb = buchberger(specialize(F, ek.polys), field=F)
    assert len(gb) == 31
    assert gb.stats == dict(zip(F4_STATS, work))


def test_direct_zz_engine_work_on_corpus():
    got = [buchberger(system).stats for system in small_corpus()]
    assert got == [
        {"mode": "direct", "spairs": 1, "term_ops": 3},
        {"mode": "direct", "spairs": 1, "term_ops": 5},
        {"mode": "direct", "spairs": 0, "term_ops": 0},
        {"mode": "direct", "spairs": 8, "term_ops": 38},
        {"mode": "direct", "spairs": 2, "term_ops": 13},
    ]


def test_lex_engine_work_on_corpus():
    F = GF(32003)
    zz, gf = [], []
    for system in small_corpus():
        lex = [p.with_order(LEX) for p in system]
        zz.append(buchberger(lex, order=LEX).stats)
        gf.append(buchberger(specialize(F, lex), order=LEX, field=F).stats)
    work = [(1, 3), (1, 5), (0, 0), (5, 10), (2, 11)]
    assert zz == [{"mode": "direct", "spairs": s, "term_ops": t} for s, t in work]
    # F4 charges what each matrix allocates, and interreduction its steps;
    # no run reaches the dense kernel, so none is stopped early
    f4 = [(1, 7, 1, 7, 0), (1, 8, 1, 8, 0), (0, 0, 0, 0, 0), (5, 30, 4, 16, 0),
          (2, 22, 2, 11, 0)]
    assert gf == [dict(zip(F4_STATS, w)) for w in f4]


def test_f4_charges_what_the_kernels_allocate(monkeypatch, ek):
    """Each F4 matrix is charged, before a kernel runs, its pair rows x
    columns (the dense kernel's residue array) plus its pivot rows' terms.
    Charged (pivot rows + pair rows) x columns instead, the 3-label prism
    system of F210 over GF(11) ran past the default term budget of 10^8
    (417,066,467 cells, in rounds of every lowest-degree pair); charged
    this way it finishes under it, with a 90-element basis, 4,146,671 term
    ops and 522,840 cells at most."""
    charges = []
    for name in ("_sparse_echelon", "_dense_echelon"):
        def spy(rows, piv, cols, pmod, kernel=getattr(groebner, name)):
            charges.append(len(rows) * len(cols) + sum(len(r.terms) for r in piv.values()))
            return kernel(rows, piv, cols, pmod)

        monkeypatch.setattr(groebner, name, spy)
    F = GF(11)
    stats = buchberger(specialize(F, ek.polys), field=F).stats
    assert stats["matrices"] == len(charges)
    assert stats["max_matrix_cells"] == max(charges)
    assert sum(charges) <= stats["term_ops"]


@pytest.mark.parametrize("p", [32003, 101, 1073741789])
def test_three_label_prism_system_is_trivial(f210, p):
    """The stress target: 27 variables and 27 equations, trivial over GF(p)."""
    system = tpe_system(f210, ["1", "5_1", "5_3"]).polys
    assert len(system) == len(system[0].vars) == 27
    F = GF(p)
    gb = buchberger(specialize(F, system), field=F)
    assert [format_polynomial(g) for g in gb.polys] == ["1"]
    if p == 32003:
        assert gb.stats == dict(zip(F4_STATS, (972, 920_785, 27, 105_190, 0)))


def test_exponent_overflow_is_loud():
    XY = ("x", "y")
    # under lex, reducing x^2 by x - y^20000 leaves y^40000, above _MAXE
    lex = [P("x - y^20000", XY, order=LEX), P("x^2 - 1", XY, order=LEX)]
    with pytest.raises(ValueError):
        buchberger(lex, order=LEX)
    # the S-pair's lcm x*y^5000 shifts x*y + y^30000 to y^34999, above _MAXE
    with pytest.raises(ValueError):
        buchberger([P("x*y + y^30000", XY, order=LEX), P("y^5000 + 1", XY, order=LEX)],
                   order=LEX)
    # normal_form checks every step: y^40000 and y^90000 do not pack, and
    # y^90000 would otherwise carry into x's digit; y^32766 still packs
    for power in ("x^2", "x^3"):
        with pytest.raises(ValueError):
            normal_form(P(power, XY, order=LEX), [lex[0]], LEX)
    assert normal_form(P("x^2", XY, order=LEX), [P("x - y^16383", XY, order=LEX)],
                       LEX) == P("y^32766", XY, order=LEX)


# ------------------------------------------------------------ pair update


def test_gm_update_pair_dict():
    ctx = _PackCtx(2, GREVLEX)

    def run(*exps):
        lms, live, pairs, added = [], [], {}, []
        for e in exps:
            lms.append(ctx.pack(e))
            added.append(_gm_update(pairs, lms, live, ctx))
        return pairs, added, live

    x2y, xy2 = ctx.pack((2, 1)), ctx.pack((1, 2))
    # x^2, y^2 are coprime, so no pair; xy then pairs with both, lcm cached
    pairs, added, live = run((2, 0), (0, 2), (1, 1))
    assert added == [{}, {}, {(0, 2): x2y, (1, 2): xy2}]
    assert pairs == {(0, 2): x2y, (1, 2): xy2}
    assert live == [0, 1, 2]
    # xy divides lcm(x^2 y, x y^2) = x^2 y^2 strictly: (0, 1) is removed;
    # xy also divides both older leading monomials, which leave ``live``
    pairs, added, live = run((2, 1), (1, 2), (1, 1))
    assert added[1] == {(0, 1): ctx.pack((2, 2))}
    assert pairs == {(0, 2): x2y, (1, 2): xy2}
    assert live == [2]
    # y divides lcm(x^2, xy) = x^2 y, but so does lcm(x^2, y): (0, 1) stays
    pairs, _, live = run((2, 0), (1, 1), (0, 1))
    assert pairs == {(0, 1): x2y, (1, 2): ctx.pack((1, 1))}
    assert live == [0, 2]
    x2 = ctx.pack((2, 0))
    # x kills x^2; x^2 y then pairs with y (lcm x^2 y, as it would with x^2
    # and with x), the first live member of that group, and not with x^2
    pairs, added, live = run((2, 0), (0, 1), (1, 0), (2, 1))
    assert added == [{}, {}, {(0, 2): x2}, {(1, 3): x2y}]
    assert pairs == {(0, 2): x2, (1, 3): x2y}
    assert live == [1, 2, 3]
    # the B-criterion still weighs a pair of a dead element: y^2 divides
    # lcm(x^2 y, x y^2) = x^2 y^2, which equals lcm(x^2 y, y^2) with x^2 y
    # dead since x^2 came, so (0, 1) stays
    pairs, added, live = run((2, 1), (1, 2), (2, 0), (0, 2))
    assert added[2:] == [{(0, 2): x2y}, {(1, 3): ctx.pack((1, 2))}]
    assert pairs == {(0, 1): ctx.pack((2, 2)), (0, 2): x2y, (1, 3): ctx.pack((1, 2))}
    assert live == [2, 3]


# ------------------------------------------------------ modular certificate


def certify(candidate, generators, order=GREVLEX):
    """Run the exact QQ certificate on polynomial lists under ``order``."""
    ctx = _PackCtx(len(generators[0].vars), order)

    def pack(p):
        return {ctx.pack(e): Fraction(c) for e, c in p.terms.items()}

    gens = [_int_dicts_from_frac(pack(g)) for g in generators]
    return _certify_qq([pack(c) for c in candidate], gens, ctx, _Budget(10**6, 10**9))


def test_certificate_accepts_modular_basis(e1, gb_e1):
    assert certify(gb_e1.polys, e1)


@pytest.mark.parametrize("order, basis", [
    (GREVLEX, ["x^2 - y", "x*y - 1", "y^2 - x"]),
    (LEX, ["y^3 - 1", "x - y^2"]),
])
def test_certificate_accepts_reduced_basis(order, basis):
    XY = ("x", "y")
    gens = [P("x*y - 1", XY, order=order), P("y^2 - x", XY, order=order)]
    assert certify([P(t, XY, order=order) for t in basis], gens, order)


def test_certificate_rejects_candidate_missing_a_generator():
    XY = ("x", "y")
    # a single polynomial is closed under S-polynomials; y^2 - 1 is not in its ideal
    for order in (GREVLEX, LEX):
        cand = [P("x^2 - y", XY, order=order)]
        assert not certify(cand, cand + [P("y^2 - 1", XY, order=order)], order)


def test_certificate_rejects_candidate_not_closed():
    XY = ("x", "y")
    # both generators reduce to zero, but S(xy - 1, y^2 - x) does not
    for order in (GREVLEX, LEX):
        gens = [P("x*y - 1", XY, order=order), P("y^2 - x", XY, order=order)]
        assert not certify(gens, gens, order)


# ------------------------------------------------------ property tests

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=60
)
XYZ = ("x", "y", "z")
_EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
_QQ_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)
_GF_COEFFS = st.integers(1, 32002)


def _polys(field, coeffs, min_size=1, max_size=3):
    terms = st.dictionaries(_EXPS, coeffs, min_size=min_size, max_size=max_size)
    return terms.map(lambda t: Polynomial(XYZ, t, field))


FIELDS = [
    (QQ, _QQ_COEFFS),
    (GF(32003), _GF_COEFFS),
]


@pytest.mark.parametrize("field, coeffs", FIELDS, ids=["QQ", "GF32003"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_normal_form_matches_division_oracle(field, coeffs, data):
    divisors = data.draw(st.lists(_polys(field, coeffs), min_size=1, max_size=3))
    f = data.draw(_polys(field, coeffs, min_size=0, max_size=6))
    assert normal_form(f, divisors) == oracle_normal_form(f, divisors, "grevlex")
    # the batched reducer agrees with one call per polynomial
    fs = data.draw(st.lists(_polys(field, coeffs, min_size=0, max_size=6), max_size=4))
    assert normal_forms(fs, divisors) == [normal_form(g, divisors) for g in fs]


@pytest.mark.parametrize("field, coeffs", FIELDS, ids=["QQ", "GF32003"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_basis_is_generator_order_free_and_self_checks(field, coeffs, data):
    system = data.draw(st.lists(_polys(field, coeffs), min_size=1, max_size=3))
    gb = buchberger(system, field=field)
    assert gb.polys == buchberger(system[::-1], field=field).polys
    gb.self_check()


@st.composite
def _packable_pair(draw):
    """A variable count and two exponent vectors of total degree <= _MAXE."""
    n = draw(st.integers(1, MAX_VARS))

    def exps():
        left, out = _MAXE, []
        for _ in range(n):
            out.append(draw(st.integers(0, left)))
            left -= out[-1]
        return tuple(draw(st.permutations(out)))

    return n, exps(), exps()


@pytest.mark.parametrize("order", [GREVLEX, LEX])
@PROPERTY_SETTINGS
@given(case=_packable_pair())
def test_packed_lcm_is_digitwise_max(order, case):
    n, ea, eb = case
    ctx = _PackCtx(n, order)
    a, b = ctx.pack(ea), ctx.pack(eb)
    top = tuple(map(max, ea, eb))
    if sum(top) > _MAXE and order == GREVLEX:
        with pytest.raises(ValueError):
            ctx.lcm(a, b)
        return
    big = ctx.lcm(a, b)
    assert big == ctx.pack(top)
    assert ctx.divides(a, big) and ctx.divides(b, big)
    assert ctx.lcm(b, a) == big


@pytest.mark.parametrize("order", [GREVLEX, LEX])
@PROPERTY_SETTINGS
@given(case=_packable_pair())
def test_pure_var_names_the_one_nonzero_exponent(order, case):
    n, e, _ = case
    ctx = _PackCtx(n, order)
    support = [i for i, x in enumerate(e) if x]
    assert ctx.pure_var(ctx.pack(e)) == (support[0] if len(support) == 1 else None)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
@PROPERTY_SETTINGS
@given(lms=st.lists(_EXPS, max_size=5), pure=st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_staircase_is_the_complement_of_the_monomial_ideal(order, lms, pure):
    """The packed walk gives the monomials no leading monomial divides, in
    ascending order; when x, y and z all have a pure power they lie in the
    box of those powers. Without z's power the staircase is infinite, and
    with the constant monomial it is empty."""
    ctx = _PackCtx(3, order)
    key = order_key(order)
    lms = [m for m in lms if m[0] or m[1]] + [(pure[0], 0, 0), (0, pure[1], 0)]
    assert _staircase([ctx.pack(m) for m in lms], ctx, 100) is None
    lms.append((0, 0, pure[2]))
    box = [(a, b, c) for a in range(pure[0]) for b in range(pure[1]) for c in range(pure[2])]
    want = sorted((m for m in box if not any(monomial_divides(lm, m) for lm in lms)), key=key)
    got = _staircase([ctx.pack(m) for m in lms], ctx, 100)
    assert [ctx.unpack(m) for m in got] == want
    assert _staircase([ctx.pack(m) for m in lms + [(0, 0, 0)]], ctx, 100) == []


# ------------------------------------------------- reducer against an oracle


def _plain_reduce(r, basis, ctx, pmod, full):
    """The reducer written out from its definition: ``max(r)`` on every
    step, and the divisor by a first-match scan. Returns (remainder, term
    ops)."""
    aside, ops = {}, 0
    while r:
        lt = max(r)
        red = next((b for b in basis if ctx.divides(b.lm, lt)), None)
        if red is None:
            if not full:
                break
            aside[lt] = r.pop(lt)
            continue
        g = gcd(red.lc, r[lt])
        scale, mult = red.lc // g, r[lt] // g
        ops += len(red.terms)
        if scale != 1:
            for d in (r, aside):
                for e in d:
                    d[e] *= scale
                ops += len(d)
        for e, cg in red.terms:
            ee = e + lt - red.lm
            v = r.get(ee, 0) - mult * cg
            if pmod:
                v %= pmod
            if v:
                r[ee] = v
            else:
                r.pop(ee, None)
    r.update(aside)
    return r, ops


_SMALL_EXPS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
_ZZ_COEFFS = st.integers(-9, 9).filter(bool)


@pytest.mark.parametrize("full", [False, True], ids=["lead", "full"])
@pytest.mark.parametrize("order", [GREVLEX, LEX])
@pytest.mark.parametrize("pmod", [32003, 0], ids=["GF32003", "ZZ"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_reduce_matches_plain_scan(pmod, order, full, data):
    """``_reduce`` gives the plain scan's remainders and term-op charges
    over a basis that grows by appending, as in ``_core``'s S-pair loop.
    The same dicts are reduced again after each append, so a later element
    can become a monomial's divisor. Over ZZ the elements are not monic, so
    the steps scale (fraction-free)."""
    ctx = _PackCtx(3, order)
    coeffs = _GF_COEFFS if pmod else _ZZ_COEFFS

    def packed(min_size, max_size):
        d = data.draw(st.dictionaries(_SMALL_EXPS, coeffs, min_size=min_size,
                                      max_size=max_size))
        return {ctx.pack(e): c for e, c in d.items()}

    probes = [packed(0, 8) for _ in range(data.draw(st.integers(1, 3)))]
    basis, budget = [], _Budget(10**9, 10**12)
    for rounds_left in range(data.draw(st.integers(1, 6)), -1, -1):
        for r in probes:
            want = _plain_reduce(dict(r), basis, ctx, pmod, full)
            before = budget.ops
            got = _reduce(dict(r), basis, budget, ctx, pmod, full)
            assert (got, budget.ops - before) == want
        if rounds_left:
            d = packed(1, 4)
            basis.append(_make_elt(_monic(d, pmod) if pmod else d, ctx))


# ------------------------------------------------------------ F4 engine


def naive_buchberger(system, order):
    """Textbook Buchberger over the system's field, from the public
    ``spolynomial`` and ``normal_form``: every pair, smallest lcm first, no
    criteria; then minimalized, interreduced and monic, sorted by leading
    monomial."""
    key = order_key(order)

    def lm(p):
        return p.leading_monomial(order)

    def lcm(pair):
        return key(monomial_lcm(*(lm(basis[k]) for k in pair)))

    basis = [p for p in system if not p.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(min(range(len(pairs)), key=lambda k: lcm(pairs[k])))
        r = normal_form(spolynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r)
    minimal = []
    for g in sorted(basis, key=lambda p: key(lm(p))):
        if not any(monomial_divides(lm(h), lm(g)) for h in minimal):
            minimal.append(g)
    return [
        normal_form(g, [h for h in minimal if h is not g], order).monic(order)
        for g in minimal
    ]


F4_PRIMES = [11, 32003, 2**31 - 1, 2**40 + 15]  # 2^31 - 1: largest int64 prime


@pytest.mark.parametrize("p", F4_PRIMES)
@pytest.mark.parametrize("order", [GREVLEX, LEX])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_f4_matches_naive_buchberger(order, p, data):
    """F4 is correct for any non-empty selection of pairs, so rounds of at
    most one or two pairs give the reduced basis too."""
    F = GF(p)
    terms = st.dictionaries(_EXPS, st.integers(1, p - 1), min_size=1, max_size=3)
    system = data.draw(st.lists(terms, min_size=1, max_size=3))
    system = [Polynomial(XYZ, t, F, order) for t in system]
    cap = data.draw(st.sampled_from([1, 2, groebner._ROUND_PAIRS]), label="round cap")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_ROUND_PAIRS", cap)
        gb = buchberger(system, order, F)
    assert gb.polys == naive_buchberger(system, order)


def test_f4_rounds_take_at_most_the_cap(monkeypatch, ek):
    """No F4 round of E_k takes more pairs than ``_ROUND_PAIRS``, some
    round takes exactly that many, and the border certificate still stops
    the run with pairs left."""
    rounds = []

    def spy(batch, *args, f4_matrix=groebner._f4_matrix):
        rounds.append(len(batch))
        return f4_matrix(batch, *args)

    monkeypatch.setattr(groebner, "_f4_matrix", spy)
    F = GF(11)
    gb = buchberger(specialize(F, ek.polys), field=F)
    assert max(rounds) == groebner._ROUND_PAIRS
    assert len(rounds) == gb.stats["matrices"] and sum(rounds) == gb.stats["spairs"]
    assert gb.stats["pairs_left"] > 0


@pytest.mark.parametrize("system", ["ek", "prism"])
def test_uncapped_rounds_give_the_same_basis(monkeypatch, f210, ek, system):
    """Rounds of every lowest-degree pair give the same reduced basis over
    GF(32003) as capped rounds, for E_k and the 3-label prism system."""
    polys = ek.polys if system == "ek" else tpe_system(f210, ["1", "5_1", "5_3"]).polys
    F = GF(32003)
    polys = specialize(F, polys)
    capped = buchberger(polys, field=F)
    monkeypatch.setattr(groebner, "_ROUND_PAIRS", inf)
    uncapped = buchberger(polys, field=F)
    assert capped.polys == uncapped.polys
    assert uncapped.stats["spairs"] > capped.stats["spairs"]


# ---------------------------------------------------- border certificate


def test_border_certificate_refuses_incomplete_bases():
    """Seeds x^2, y^2, x^2 + y: minimalization keeps x^2 and y^2, whose
    multiplication matrices commute, and drops x^2 + y, which reduces to
    y, not 0. <x^2, y^2> is not the input ideal <x^2, y>, so the
    certificate must refuse; with x^2 + y^2 as the third seed it holds.
    It also refuses a basis whose matrices do not commute."""
    p = 32003
    ctx = _PackCtx(2, GREVLEX)
    x2, y2, y = (ctx.pack(e) for e in ((2, 0), (0, 2), (0, 1)))

    def state(third):
        gb = _Basis(ctx, graded=True)
        assert not gb.seed([{x2: 1}, {y2: 1}, third])
        return gb

    budget = _Budget(10**6, 10**8)
    gb = state({x2: 1, y: 1})
    assert [gb.lms[i] for i in gb.minimal()] == [y2, x2]
    kept = gb.reduced(gb.minimal(), budget, p)
    xs, _ = _border_matrices(kept, _staircase([y2, x2], ctx, 10), ctx, p)
    assert (xs[0] @ xs[1] % p == xs[1] @ xs[0] % p).all()
    assert _border_certificate(gb, 3, budget, p, 10**6) is None
    basis, _ = _border_certificate(state({x2: 1, y2: 1}), 3, budget, p, 10**6)
    assert basis == [{y2: 1}, {x2: 1}]
    # x^2, xy - 1, y^2: no seed is dropped, but the S-pair of the first two
    # gives x, so the ideal is the whole ring, and the matrices on the
    # staircase 1, y, x do not commute
    gb = state({ctx.pack((1, 1)): 1, ctx.pack((0, 0)): p - 1})
    assert _border_certificate(gb, 3, budget, p, 10**6) is None
    XY = ("x", "y")
    F = GF(p)
    gb = buchberger([P(t, XY, F) for t in ("x^2", "y^2", "x^2 + y")], field=F)
    assert [format_polynomial(g) for g in gb] == ["y", "x^2"]


def small_bases_systems():
    """The fixed systems of the small-bases benchmark workload: the five
    systems of ``small_corpus`` and four prism systems."""
    prism = [("Fib", ("1", "tau")), ("RepS3", ("1", "t")), ("RepS3", ("1", "s", "t")),
             ("F210", ("1", "5_1"))]
    return small_corpus() + [tpe_system(catalog(r), labels).polys for r, labels in prism]


_FORCED = [(order, f"small{i}", 32003) for order in (GREVLEX, LEX) for i in range(9)]
# E_k under lex takes minutes, so it runs under grevlex only
_FORCED += [(GREVLEX, "ek", 11), (GREVLEX, "ek", 2**40 + 15)]


@pytest.mark.parametrize(
    "order, system, p", _FORCED, ids=[f"{o}-{s}-GF{p}" for o, s, p in _FORCED]
)
def test_forced_border_certificate_keeps_every_basis(monkeypatch, ek, order, system, p):
    """With ``_SPARSE_CELLS`` at 0 the certificate is tried after every
    round that adds elements and leaves pairs; at infinity every matrix
    goes to the dict kernel and no run stops early. Both give the same
    basis, and a stopped run keeps the staircase and multiplication
    matrices of the full run's basis. RepS3's prism system on 1, t is the
    case a certificate without the dropped-seed check gets wrong."""
    polys = ek.polys if system == "ek" else small_bases_systems()[int(system[5:])]
    F = GF(p)
    polys = [q.with_order(order) for q in specialize(F, polys)]
    monkeypatch.setattr(groebner, "_SPARSE_CELLS", inf)
    full = buchberger(polys, order, F)
    assert full.stats["pairs_left"] == 0 and full.quotient is None
    monkeypatch.setattr(groebner, "_SPARSE_CELLS", 0)
    forced = buchberger(polys, order, F)
    assert forced.polys == full.polys
    if system in ("small6", "ek"):
        assert forced.stats["pairs_left"] > 0
    if forced.stats["pairs_left"]:
        assert forced.staircase() == full.staircase()
        got, want = forced.multiplication_matrices(F), full.multiplication_matrices(F)
        assert got[1] == want[1]
        assert all((a == b).all() for a, b in zip(got[0], want[0]))


def _matrix(ctx, basis, rows):
    """Kernel input: the pivot rows, by first divisor, for every column
    of ``rows`` and of the pivot rows themselves, and every column."""
    cols, piv = set(), {}
    for r in rows:
        cols.update(r)
    todo = list(cols)
    for m in todo:
        red = next((b for b in basis if ctx.divides(b.lm, m)), None)
        if red is not None:
            piv[m] = red
            for e, _ in red.terms:
                if e + m - red.lm not in cols:
                    cols.add(e + m - red.lm)
                    todo.append(e + m - red.lm)
    return piv, cols


@pytest.mark.parametrize("p", [32003, 2**31 - 1, 2**40 + 15])
@pytest.mark.parametrize("order", [GREVLEX, LEX])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_dense_and_sparse_kernels_agree(order, p, data):
    """Both kernels return the reduced echelon form of the rows modulo the
    pivot rows, which is unique: the same monic rows, in the same order."""
    ctx = _PackCtx(3, order)
    coeffs = st.integers(1, p - 1)

    def packed(min_size, max_size):
        d = data.draw(st.dictionaries(_SMALL_EXPS, coeffs, min_size=min_size,
                                      max_size=max_size))
        return {ctx.pack(e): c for e, c in d.items()}

    basis = [_make_elt(_monic(packed(1, 3), p), ctx)
             for _ in range(data.draw(st.integers(0, 3)))]
    rows = [packed(1, 6) for _ in range(data.draw(st.integers(1, 6)))]
    piv, cols = _matrix(ctx, basis, rows)
    dense = _dense_echelon([dict(r) for r in rows], piv, cols, p)
    sparse = _sparse_echelon([dict(r) for r in rows], piv, cols, p)
    assert dense == sparse
    for r in sparse:
        assert r[max(r)] == 1 and not set(r) & set(piv)
    lms = [max(r) for r in sparse]
    assert lms == sorted(set(lms))


@pytest.mark.parametrize("p", [2**31 - 1, 2**40 + 15])
def test_dense_kernel_exact_when_updates_pile_up(p):
    """Nine pivot rows x^i*y^(8-i) - 1 all add (p - 1)^2 to the constant
    column of the row sum(x^i*y^(8-i)) * (p - 1) + z: past int64 unless the
    dense kernel reduces mod p on the way."""
    ctx = _PackCtx(3, GREVLEX)
    one, z = ctx.pack((0, 0, 0)), ctx.pack((0, 0, 1))
    lms = [ctx.pack((i, 8 - i, 0)) for i in range(9)]
    basis = [_make_elt({m: 1, one: p - 1}, ctx) for m in lms]
    row = {m: p - 1 for m in lms} | {z: 1}
    piv, cols = _matrix(ctx, basis, [row])
    want = [{z: 1, one: -9 % p}]
    assert _sparse_echelon([dict(row)], piv, cols, p) == want
    assert _dense_echelon([dict(row)], piv, cols, p) == want


def test_dense_kernel_one_term_reducer():
    """A pivot row with no tail (x, shifted onto x and x*y) only clears its
    column; the pivot row y + 4 also updates the constant column."""
    ctx = _PackCtx(2, GREVLEX)
    one, x, y = ctx.pack((0, 0)), ctx.pack((1, 0)), ctx.pack((0, 1))
    xy = ctx.pack((1, 1))
    basis = [_make_elt({x: 1}, ctx), _make_elt({y: 1, one: 4}, ctx)]
    rows = [{x: 3, y: 2}, {xy: 5, x: 1, one: 1}, {y: 6, one: 7}]
    piv, cols = _matrix(ctx, basis, rows)
    assert piv[x] is piv[xy] is basis[0] and piv[y] is basis[1]
    p = 11
    want = [{one: 1}]
    assert _sparse_echelon([dict(r) for r in rows], piv, cols, p) == want
    assert _dense_echelon([dict(r) for r in rows], piv, cols, p) == want


def _single_pivot_rref(a, p):
    """Reference: Gauss-Jordan one column at a time over all rows."""
    a = a.copy()
    piv = []
    for col in range(a.shape[1]):
        r = len(piv)
        nz = [i for i in range(r, len(a)) if a[i, col]]
        if not nz:
            continue
        a[[r, nz[0]]] = a[[nz[0], r]]
        a[r] = a[r] * pow(int(a[r, col]), -1, p) % p
        for i in range(len(a)):
            if i != r and a[i, col]:
                a[i] = (a[i] - a[i, col] * a[r]) % p
        piv.append(col)
    return a[: len(piv)], piv


def test_rref_reduce_on_read_bound():
    """``_rref_mod_p`` reduces mod p only where it reads while _PANEL steps
    of (p - 1)^2 cannot pass 2^63: 2^29 - 3 is the largest such prime and
    2^29 + 11 the next one, so both are among the primes tested below."""
    lo, hi = 2**29 - 3, 2**29 + 11
    assert is_prime(lo) and is_prime(hi)
    assert not any(is_prime(q) for q in range(lo + 1, hi))
    assert _PANEL * (lo - 1) ** 2 < 2**63 <= _PANEL * (hi - 1) ** 2


@pytest.mark.parametrize("p", [11, 32003, 2**29 - 3, 2**29 + 11, 2**31 - 1, 2**40 + 15])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_blocked_rref_matches_single_pivot(p, data):
    """The panel-blocked reduced echelon form equals the column-at-a-time
    one, which is unique: zero, rank-deficient, tall and wide matrices,
    with zero columns, up to three panels and a part wide."""
    n = data.draw(st.integers(0, 40), label="rows")
    m = data.draw(st.integers(0, 3 * _PANEL + 5), label="columns")
    rank = data.draw(st.integers(0, min(n, m)), label="rank at most")
    zero = data.draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m), label="zero columns")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = [[rng.randrange(p) for _ in range(rank)] for _ in range(n)]
    y = [[0 if j in zero else rng.randrange(p) for j in range(m)] for _ in range(rank)]
    a = np.array(
        [[sum(u * v for u, v in zip(row, col)) % p for col in zip(*y)] if y else [0] * m
         for row in x],
        dtype=_residue_dtype(p),
    ).reshape(n, m)
    want, want_piv = _single_pivot_rref(a, p)
    got, got_piv = _rref_mod_p(a.copy(), p)
    assert got_piv == want_piv
    assert got.shape == want.shape and (got == want).all()

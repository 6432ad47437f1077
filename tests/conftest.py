"""Shared fixtures: catalog rings, reference system lists, naive oracles."""

import itertools
import random

import pytest

from prismring.catalog import catalog
from prismring.poly import Polynomial, monomial_div, monomial_divides
from prismring.rings import build_ring, verify_axioms

# Reference form of the two reduced localization subsystems of the rank-7
# FPdim-210 ring (u/v and w/z short variable names) and the linking equation.
E1_TEXT = [
    "u0+7/5*u1+7/5*u2-4/125",
    "5*v0+5*v1+7*v3+7*v5+1/5",
    "25*v0^2+25*v1^2+35*v3^2+35*v5^2-4/5",
    "5*v0^3+5*v1^3+7*v3^3+7*v5^3-v0^2+1/125",
    "5*v0*v1^2+5*v1*v2^2+7*v3*v4^2+7*v5*v6^2+1/125",
    "5*u0*v1-v1^2+7*u1*v3+7*u2*v5+1/125",
    "5*v1+5*v2+7*v4+7*v6+1/5",
    "25*v0*v1+25*v1*v2+35*v3*v4+35*v5*v6+1/5",
    "5*v0^2*v1+5*v1^2*v2+7*v3^2*v4+7*v5^2*v6-v1^2+1/125",
    "25*v1^2+25*v2^2+35*v4^2+35*v6^2-4/5",
    "5*v1^3+5*v2^3+7*v4^3+7*v6^3-u0+1/125",
    "5*u0*v2-v2^2+7*u1*v4+7*u2*v6+1/125",
]
E2_TEXT = [
    "w0+7/5*w1+7/5*w2-4/125",
    "5*z0+5*z1+7*z3+7*z5+1/5",
    "25*z0^2+25*z1^2+35*z3^2+35*z5^2-4/5",
    "5*z0^3+5*z1^3+7*z3^3+7*z5^3-w0+1/125",
    "5*w0*z0-z0^2+7*w1*z3+7*w2*z5+1/125",
    "5*z0*z1^2+5*z1*z2^2+7*z3*z4^2+7*z5*z6^2-z1^2+1/125",
    "5*z1+5*z2+7*z4+7*z6+1/5",
    "25*z0*z1+25*z1*z2+35*z3*z4+35*z5*z6+1/5",
    "5*z0^2*z1+5*z1^2*z2+7*z3^2*z4+7*z5^2*z6+1/125",
    "5*w0*z1-z1^2+7*w1*z4+7*w2*z6+1/125",
    "25*z1^2+25*z2^2+35*z4^2+35*z6^2-4/5",
    "5*z1^3+5*z2^3+7*z4^3+7*z6^3-z2^2+1/125",
]
LINK_TEXT = "5*u0*z2+7*u1*z4+7*u2*z6-u0+1/125"

E1_VARS = ("u0", "u1", "u2", "v0", "v1", "v2", "v3", "v4", "v5", "v6")
E2_VARS = ("w0", "w1", "w2", "z0", "z1", "z2", "z3", "z4", "z5", "z6")

# witness tuple for the rank-8 FPdim-660 ring, by label
F660_NONET = ("b2", "b4", "b5", "b2", "b2", "b4", "b5", "b3", "b3")


@pytest.fixture(scope="session")
def f210():
    return catalog("F210")


@pytest.fixture(scope="session")
def ek(f210):
    from prismring.localizer import generate_Ek

    return generate_Ek(f210, "5_1", ("1", "5_1", "5_3"))


@pytest.fixture(scope="session")
def el(f210):
    from prismring.localizer import generate_Ek

    return generate_Ek(f210, "5_3", ("1", "5_2", "5_3"))


@pytest.fixture(scope="session")
def gb_ek(ek):
    from prismring.groebner import buchberger

    return buchberger(ek.polys)


@pytest.fixture(scope="session")
def f660():
    return catalog("F660")


@pytest.fixture(scope="session")
def fib():
    return catalog("Fib")


@pytest.fixture(scope="session")
def ising():
    return catalog("Ising")


@pytest.fixture(scope="session")
def rep_s3():
    return catalog("RepS3")


# ---------------------------------------------------------- naive oracles


def oracle_spectrum(ring, i4, i5, i6, i7, i8, i9):
    star = ring.star
    return [
        k
        for k in range(ring.rank)
        if ring.N[i4][i7][k] > 0
        and ring.N[star[i5]][i8][k] > 0
        and ring.N[i6][star[i9]][k] > 0
    ]


def _dot(ring, a, b, c, d):
    return sum(x * y for x, y in zip(ring.N[a][b], ring.N[c][d]))


def oracle_zero_pass(ring, t):
    """Direct transcription of the zero-spectrum conditions; no pruning."""
    i1, i2, i3, i4, i5, i6, i7, i8, i9 = t
    N = ring.N
    star = ring.star
    if not (
        N[i4][i1][i6] and N[i5][i4][i2] and N[i5][i6][i3]
        and N[i7][i9][i1] and N[i2][i7][i8] and N[i8][i9][i3]
    ):
        return False
    if sum(
        N[i4][i7][k] * N[star[i5]][i8][k] * N[i6][star[i9]][k]
        for k in range(ring.rank)
    ) != 0:
        return False
    if N[i2][i1][i3] != 1:
        return False
    ok_a = (
        _dot(ring, i5, i4, i3, star[i1]) == 1
        or _dot(ring, i2, star[i4], i3, star[i6]) == 1
        or _dot(ring, star[i5], i2, i6, star[i1]) == 1
    )
    if not ok_a:
        return False
    return (
        _dot(ring, i2, i7, i3, star[i9]) == 1
        or _dot(ring, i8, star[i7], i3, star[i1]) == 1
        or _dot(ring, star[i2], i8, i1, star[i9]) == 1
    )


def oracle_one_pass(ring, t, i0):
    i1, i2, i3, i4, i5, i6, i7, i8, i9 = t
    N = ring.N
    star = ring.star
    if not (
        N[i4][i1][i6] and N[i5][i4][i2] and N[i5][i6][i3]
        and N[i7][i9][i1] and N[i2][i7][i8] and N[i8][i9][i3]
    ):
        return False
    if sum(
        N[i4][i7][k] * N[star[i5]][i8][k] * N[i6][star[i9]][k]
        for k in range(ring.rank)
    ) != 1:
        return False
    if not (
        N[i4][i7][i0] == 1 and N[star[i5]][i8][i0] == 1 and N[i6][star[i9]][i0] == 1
    ):
        return False
    if N[i2][i1][i3] != 0:
        return False
    if not (
        _dot(ring, i5, i4, i8, star[i7]) == 1
        or _dot(ring, i2, star[i4], i8, star[i0]) == 1
        or _dot(ring, star[i5], i2, i0, star[i7]) == 1
    ):
        return False
    if not (
        _dot(ring, i5, i0, i3, star[i9]) == 1
        or _dot(ring, i8, star[i0], i3, star[i6]) == 1
        or _dot(ring, star[i5], i8, i6, star[i9]) == 1
    ):
        return False
    return (
        _dot(ring, i4, i7, i6, star[i9]) == 1
        or _dot(ring, i0, star[i7], i6, star[i1]) == 1
        or _dot(ring, star[i4], i0, i1, star[i9]) == 1
    )


def oracle_search(ring, kind, first_only=True):
    """Plain nested-loop enumeration in lexicographic tuple order."""
    r = ring.rank
    hits = []
    for t in itertools.product(range(r), repeat=9):
        if kind == "zero":
            good = oracle_zero_pass(ring, t)
            i0 = None
        else:
            spec = oracle_spectrum(ring, t[3], t[4], t[5], t[6], t[7], t[8])
            good = len(spec) == 1 and oracle_one_pass(ring, t, spec[0])
            i0 = spec[0] if spec else None
        if good:
            if first_only:
                return (t, i0)
            hits.append((t, i0))
    return None if first_only else hits


def oracle_normal_form(f, basis, order):
    """Textbook division: the largest term left is cancelled by the first
    divisor whose leading monomial divides it, or moved to the remainder."""
    basis = [b for b in basis if not b.is_zero()]
    field = f.field
    rem = Polynomial.zero(f.vars, field, order)
    while not f.is_zero():
        lm = f.leading_monomial(order)
        lc = f.leading_coefficient(order)
        for b in basis:
            blm = b.leading_monomial(order)
            if monomial_divides(blm, lm):
                q = {monomial_div(lm, blm): field.div(lc, b.leading_coefficient(order))}
                f = f - Polynomial(f.vars, q, field, order) * b
                break
        else:
            lead = Polynomial(f.vars, {lm: lc}, field, order)
            rem = rem + lead
            f = f - lead
    return rem


# ------------------------------------------------ random valid small rings


def _rank2_candidates():
    out = []
    for m in range(3):
        N = [
            [[1, 0], [0, 1]],
            [[0, 1], [1, m]],
        ]
        out.append(("r2_m%d" % m, ["1", "a"], N))
    return out


def _rank3_candidates(max_coeff=3):
    """All rank-3 tables with entries <= max_coeff passing every axiom."""
    out = []
    rng = range(max_coeff + 1)
    # self-dual case: star = identity; free entries up to full symmetry
    for n111 in rng:
        for n112 in rng:
            for n122 in rng:
                for n222 in rng:
                    for n120 in (0, 1):  # N(a,b;1): 0 here (a* = a), kept 0
                        if n120:
                            continue
                        sym = {
                            (1, 1, 1): n111, (1, 1, 2): n112, (1, 2, 1): n112,
                            (2, 1, 1): n112, (1, 2, 2): n122, (2, 1, 2): n122,
                            (2, 2, 1): n122, (2, 2, 2): n222,
                        }
                        N = [[[0] * 3 for _ in range(3)] for _ in range(3)]
                        for i in range(3):
                            N[0][i][i] = 1
                            if i:
                                N[i][0][i] = 1
                                N[i][i][0] = 1
                        for (i, j, k), v in sym.items():
                            N[i][j][k] = v
                        try:
                            ring = build_ring("cand", ["1", "a", "b"], N)
                        except Exception:
                            continue
                        if verify_axioms(ring).passed:
                            out.append((f"r3sd_{n111}{n112}{n122}{n222}", ["1", "a", "b"], N))
    # dual pair case: star swaps the two non-unit elements
    for naa in rng:
        for nab in rng:
            N = [[[0] * 3 for _ in range(3)] for _ in range(3)]
            for i in range(3):
                N[0][i][i] = 1
                if i:
                    N[i][0][i] = 1
            # duality: a* = b
            N[1][2][0] = 1
            N[2][1][0] = 1
            # a.a = naa*b ; a.b = 1 + nab*a + nab*b (Frobenius-symmetric guess)
            N[1][1][2] = naa
            N[2][2][1] = naa
            N[1][2][1] = nab
            N[1][2][2] = nab
            N[2][1][1] = nab
            N[2][1][2] = nab
            N[1][1][1] = nab  # forced by reciprocity with a.b coefficients
            N[2][2][2] = nab
            try:
                ring = build_ring("cand", ["1", "a", "b"], N)
            except Exception:
                continue
            if verify_axioms(ring).passed:
                out.append((f"r3dp_{naa}{nab}", ["1", "a", "b"], N))
    return out


def random_valid_rings(count=20, seed=20260808):
    """Deterministic sample of valid fusion rings of rank <= 3."""
    pool = [("r1", ["1"], [[[1]]])] + _rank2_candidates() + _rank3_candidates()
    uniq = {}
    for name, labels, N in pool:
        key = str(N)
        uniq.setdefault(key, (name, labels, N))
    pool = sorted(uniq.values())
    rng = random.Random(seed)
    picks = rng.sample(pool, min(count, len(pool)))
    return [build_ring(name, labels, N) for name, labels, N in picks]

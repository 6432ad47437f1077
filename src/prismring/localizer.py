"""Localization polynomial systems attached to a self-dual simple object.

For a self-dual basis element k with multiplicity-free self-dual square,
the categorification constraints localize to a small polynomial system in
variables y(i,b) (pairing scalars) and x(i,b) (triple scalars), with unit
arguments forced to explicit constants. This module generates the reduced
subsystem, the full three-argument system, the equation linking two
subsystems, and runs the two-subsystem exclusion pipeline: Groebner
bases of the two subsystems, then linear algebra on the product of their
quotient algebras, which gives the verdict and, by FGLM, the basis of the
linked system.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from math import inf

import numpy as np

from .fields import GF, Field, NonInvertibleError, QQ
from .groebner import (
    GroebnerBasis,
    _mulmod,
    _prime_stream,
    _residue_dtype,
    _rref_mod_p,
    buchberger,
    normal_form,  # unused here; perfbench/spans.py patches it by name
    specialize,
)
from .poly import GREVLEX, Polynomial, grevlex_key, monomial_divides, order_key
from .rings import FpData, FusionRing, fpdim_data


class LocalizationError(ValueError):
    """Hypothesis violation or invalid subsystem choice."""


@dataclass(frozen=True)
class LocalizationInput:
    """Validated localization data for one basis element.

    ``support`` is the set of a with N[k][k][a] = 1 (all self-dual, k
    among them); ``chosen`` is the user-selected subset on which every
    triple is multiplicity-free, or None when not yet chosen.
    """

    ring: FusionRing
    k: int
    support: tuple  # ascending indices
    chosen: tuple | None = None

    @property
    def k_label(self) -> str:
        return self.ring.labels[self.k]

    @property
    def support_labels(self) -> tuple:
        return tuple(self.ring.labels[i] for i in self.support)

    @property
    def chosen_labels(self) -> tuple:
        if self.chosen is None:
            return ()
        return tuple(self.ring.labels[i] for i in self.chosen)

    def with_chosen(self, subset) -> "LocalizationInput":
        """This input with ``subset`` (labels or indices) validated as chosen."""
        ring = self.ring
        idx = tuple(sorted(map(ring.resolve, subset)))
        if len(set(idx)) != len(idx):
            raise LocalizationError("chosen subset has repeated labels")
        if ring.unit_index not in idx:
            raise LocalizationError("chosen subset must contain the unit")
        if not set(idx) <= set(self.support):
            bad = sorted(set(idx) - set(self.support))
            raise LocalizationError(
                f"chosen subset leaves the support: {[ring.labels[i] for i in bad]}"
            )
        offender = _triples_free(ring, idx)
        if offender is not None:
            a, b, c = offender
            raise LocalizationError(
                "chosen subset is not multiplicity-free: "
                f"N({ring.labels[b]},{ring.labels[c]};{ring.labels[a]}) > 1"
            )
        return LocalizationInput(ring, self.k, self.support, idx)


def localization_sets(ring: FusionRing, k) -> LocalizationInput:
    """Compute the support set for k and validate the localization hypotheses.

    Errors: k not self-dual; some N[k][k][a] exceeding 1; a support
    element that is not self-dual; k itself outside the support.
    """
    k = ring.resolve(k)
    star = ring.star
    labels = ring.labels
    if star[k] != k:
        raise LocalizationError(f"{labels[k]!r} is not self-dual")
    row = ring.N[k][k]
    for a, v in enumerate(row):
        if v > 1:
            raise LocalizationError(
                f"square of {labels[k]!r} has multiplicity {v} at {labels[a]!r}"
            )
    support = tuple(a for a, v in enumerate(row) if v == 1)
    for a in support:
        if star[a] != a:
            raise LocalizationError(
                f"support element {labels[a]!r} is not self-dual"
            )
    if k not in support:
        raise LocalizationError(
            f"{labels[k]!r} does not appear in its own square"
        )
    return LocalizationInput(ring=ring, k=k, support=support)


def _triples_free(ring, subset) -> tuple | None:
    """First offending (a,b,c) with N[b][c][a] > 1, or None."""
    for a in subset:
        for b in subset:
            for c in subset:
                if ring.N[b][c][a] > 1:
                    return (a, b, c)
    return None


def maximal_sprime_candidates(ring: FusionRing, k) -> tuple:
    """All maximal valid chosen subsets (as label tuples), unit included."""
    loc = localization_sets(ring, k)
    pool = [a for a in loc.support if a != ring.unit_index]
    valid = []
    for bits in range(1 << len(pool)):
        subset = (ring.unit_index,) + tuple(
            pool[i] for i in range(len(pool)) if bits >> i & 1
        )
        if _triples_free(ring, subset) is None:
            valid.append(frozenset(subset))
    maximal = [s for s in valid if not any(s < t for t in valid)]
    out = [tuple(sorted(s)) for s in maximal]
    out.sort()
    return tuple(tuple(ring.labels[i] for i in s) for s in out)


# ------------------------------------------------- variable naming / atoms


def y_var_name(tag: str, a: str, b: str) -> str:
    return f"y_{tag}[{a},{b}]"


def x_var_name(tag: str, multiset) -> str:
    """Canonical x-variable name for a sorted label multiset of size 3.

    Multisets with a repeated label render in two-argument form (single
    label first), matching the reduced subsystem's variables; all-distinct
    multisets keep three arguments.
    """
    a, b, c = multiset
    if a == b == c:
        return f"x_{tag}[{a},{a}]"
    if a == b:
        return f"x_{tag}[{c},{a}]"
    if b == c:
        return f"x_{tag}[{a},{b}]"
    return f"x_{tag}[{a},{b},{c}]"


class _Namer:
    """Atom builder for one subsystem: constants and variable monomials.

    Atoms are (coefficient, {var: power}) pairs or None for a forced zero.
    The unit and elimination rules apply the forced side constraints:
    y with a unit argument is 1/d_k; x with a unit argument is diagonal
    1/(d_b d_k); x whose triple has zero fusion coefficient vanishes; x
    with the distinguished label doubled collapses to a y square.
    """

    def __init__(self, ring: FusionRing, fp: FpData, k: int):
        self.ring = ring
        self.fp = fp
        self.k = k
        self.tag = ring.labels[k]
        self.dk = fp.dims[k]

    def y(self, i: int, b: int):
        if i == self.ring.unit_index or b == self.ring.unit_index:
            return (Fraction(1, self.dk), {})
        la, lb = sorted((i, b))
        name = y_var_name(self.tag, self.ring.labels[la], self.ring.labels[lb])
        return (Fraction(1), {name: 1})

    def x(self, triple):
        """Atom for the x scalar of an index multiset of size 3."""
        ms = tuple(sorted(triple))
        unit = self.ring.unit_index
        if unit in ms:
            rest = [t for t in ms if t != unit] or [unit, unit]
            if len(rest) == 1:
                rest = [rest[0], unit]
            if rest[0] == rest[1]:
                return (Fraction(1, self.fp.dims[rest[0]] * self.dk), {})
            return None
        a, b, c = ms
        if self.ring.N[b][c][a] == 0:
            return None
        if ms.count(self.k) >= 2:
            other = next((t for t in ms if t != self.k), self.k)
            coeff, mono = self.y(other, self.k)
            return (coeff * coeff, {name: 2 * p for name, p in mono.items()})
        labels = tuple(self.ring.labels[t] for t in ms)
        return (Fraction(1), {x_var_name(self.tag, labels): 1})


def _mul_atoms(*atoms):
    coeff = Fraction(1)
    mono = {}
    for atom in atoms:
        if atom is None:
            return None
        c, m = atom
        coeff *= c
        for name, p in m.items():
            mono[name] = mono.get(name, 0) + p
    return (coeff, mono)


class _PolyBuilder:
    """Accumulate (coeff, monomial) atoms into a Polynomial over fixed vars."""

    def __init__(self, variables):
        self.variables = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.terms = {}

    def add(self, atom, scale=Fraction(1)):
        if atom is None:
            return
        coeff, mono = atom
        coeff *= scale
        if not coeff:
            return
        exp = [0] * len(self.variables)
        for name, p in mono.items():
            if name not in self.index:
                raise LocalizationError(
                    f"equation references eliminated variable {name!r}"
                )
            exp[self.index[name]] = p
        key = tuple(exp)
        v = self.terms.get(key, Fraction(0)) + coeff
        if v:
            self.terms[key] = v
        else:
            self.terms.pop(key, None)

    def build(self) -> Polynomial:
        return Polynomial(self.variables, self.terms, QQ, GREVLEX)


@dataclass(frozen=True)
class LocalSystem:
    """A generated localization system with per-equation provenance."""

    ring_name: str
    tag: str
    support: tuple  # labels
    chosen: tuple  # labels
    variables: tuple
    polys: tuple
    provenance: tuple  # (family, arg labels...) per polynomial

    def alias_table(self, x_prefix: str = "u", y_prefix: str = "v") -> dict:
        """Short aliases in enumeration order: x variables then y variables."""
        table = {}
        xi = yi = 0
        for name in self.variables:
            if name.startswith("x_"):
                table[name] = f"{x_prefix}{xi}"
                xi += 1
            else:
                table[name] = f"{y_prefix}{yi}"
                yi += 1
        return table


def _require_integral(ring) -> FpData:
    fp = fpdim_data(ring)
    if not fp.integral:
        raise LocalizationError(
            "localization needs exact integer dimensions; ring is not integral"
        )
    return fp


def _subsystem(ring, k, sprime):
    """Validated input, dimensions and atom builder of the (k, chosen) subsystem."""
    fp = _require_integral(ring)
    loc = localization_sets(ring, k).with_chosen(sprime)
    return loc, fp, _Namer(ring, fp, loc.k)


def _y_variables(loc) -> tuple:
    """Names of the y variables without a unit argument, sorted by (b, a)."""
    labels, unit = loc.ring.labels, loc.ring.unit_index
    keys = sorted(
        {tuple(sorted((i, b))) for i in loc.support for b in loc.chosen if i != unit and b != unit},
        key=lambda ab: (ab[1], ab[0]),
    )
    return tuple(y_var_name(loc.k_label, labels[a], labels[b]) for a, b in keys)


def _local_system(loc, variables, equations, dedupe=False) -> LocalSystem:
    """The LocalSystem of ``equations``, (family, index args, builder) triples.

    Zero polynomials are dropped; with ``dedupe`` set, so is every
    polynomial equal to an earlier one up to scaling.
    """
    labels = loc.ring.labels
    polys, provenance, seen = [], [], set()
    for family, args, builder in equations:
        poly = builder.build()
        if poly.is_zero():
            continue
        if dedupe:
            key = frozenset(poly.monic().terms.items())
            if key in seen:
                continue
            seen.add(key)
        polys.append(poly)
        provenance.append((family,) + tuple(labels[t] for t in args))
    return LocalSystem(
        ring_name=loc.ring.name,
        tag=loc.k_label,
        support=loc.support_labels,
        chosen=loc.chosen_labels,
        variables=variables,
        polys=tuple(polys),
        provenance=tuple(provenance),
    )


def _subsystem_variables(loc) -> tuple:
    """Canonical variable list for the reduced subsystem."""
    ring, k, unit = loc.ring, loc.k, loc.ring.unit_index
    # x(k,b) with b != k stays a genuine variable; only x(a,k) collapses to
    # a y square, and b = k is excluded
    x_keys = {
        tuple(sorted((i, b, b)))
        for b in loc.chosen
        if b not in (unit, k)
        for i in loc.support
        if i != unit and ring.N[b][b][i] == 1
    }
    x_names = tuple(
        x_var_name(loc.k_label, tuple(ring.labels[t] for t in ms)) for ms in sorted(x_keys)
    )
    return x_names + _y_variables(loc)


def generate_Ek(ring: FusionRing, k, sprime) -> LocalSystem:
    """Reduced localization subsystem for (k, chosen subset).

    Emits the orthogonality family for ordered pairs (a >= b, a not the
    unit), the triple-product family over non-unit pairs, and the
    square-expansion family for b outside {unit, k}, after substituting
    every constant, zero, and symmetry constraint. Variables are exactly
    the surviving y and x scalars.
    """
    loc, fp, namer = _subsystem(ring, k, sprime)
    k, support, chosen = loc.k, loc.support, loc.chosen
    unit = ring.unit_index
    dims = fp.dims
    variables = _subsystem_variables(loc)
    equations = []

    # orthogonality: d_b sum_i d_i y(i,a) y(i,b) = delta(a,b)
    for a in chosen:
        if a == unit:
            continue
        for b in chosen:
            if b > a:
                continue
            builder = _PolyBuilder(variables)
            for i in support:
                atom = _mul_atoms(namer.y(i, a), namer.y(i, b))
                builder.add(atom, Fraction(dims[i] * dims[b]))
            if a == b:
                builder.add((Fraction(-1), {}))
            equations.append(("orthogonality", (a, b), builder))

    # triple product: sum_i d_i y(i,a) y(i,b)^2 = x(a,b)
    for a in chosen:
        if a == unit:
            continue
        for b in chosen:
            if b == unit:
                continue
            builder = _PolyBuilder(variables)
            for i in support:
                yb = namer.y(i, b)
                atom = _mul_atoms(namer.y(i, a), yb, yb)
                builder.add(atom, Fraction(dims[i]))
            lhs = namer.x((a, b, b))
            if lhs is not None:
                builder.add((-lhs[0], lhs[1]))
            equations.append(("triple-product", (a, b), builder))

    # square expansion: sum_i d_i y(i,a) x(i,b) = y(a,b)^2
    for b in chosen:
        if b in (unit, k):
            continue
        for a in chosen:
            builder = _PolyBuilder(variables)
            for i in support:
                atom = _mul_atoms(namer.y(i, a), namer.x((i, b, b)))
                builder.add(atom, Fraction(dims[i]))
            yab = namer.y(a, b)
            builder.add(_mul_atoms(yab, yab, (Fraction(-1), {})))
            equations.append(("square-expansion", (a, b), builder))

    return _local_system(loc, variables, equations)


def generate_full(ring: FusionRing, k, sprime) -> LocalSystem:
    """Full three-argument localization system over the chosen subset.

    All (a,b,c) instances of the triple-product and product-expansion
    families with the side constraints substituted; tautologies are
    dropped and duplicate equations deduplicated. Restricting to b = c
    recovers the reduced subsystem's ideal.
    """
    loc, fp, namer = _subsystem(ring, k, sprime)
    support, chosen = loc.support, loc.chosen
    dims = fp.dims

    x_keys = set()
    for b in chosen:
        for c in chosen:
            for a in chosen:
                x_keys.add(tuple(sorted((a, b, c))))
            for i in support:
                x_keys.add(tuple(sorted((i, b, c))))
    surviving = []
    for ms in sorted(x_keys):
        atom = namer.x(ms)
        if atom is not None and atom[1] and next(iter(atom[1])).startswith("x_"):
            surviving.append(next(iter(atom[1])))
    variables = tuple(dict.fromkeys(surviving)) + _y_variables(loc)
    equations = []

    for a in chosen:
        for b in chosen:
            for c in chosen:
                builder = _PolyBuilder(variables)
                for i in support:
                    atom = _mul_atoms(namer.y(i, a), namer.y(i, b), namer.y(i, c))
                    builder.add(atom, Fraction(dims[i]))
                lhs = namer.x((a, b, c))
                if lhs is not None:
                    builder.add((-lhs[0], lhs[1]))
                equations.append(("triple-product", (a, b, c), builder))

                builder = _PolyBuilder(variables)
                for i in support:
                    atom = _mul_atoms(namer.y(i, a), namer.x((i, b, c)))
                    builder.add(atom, Fraction(dims[i]))
                builder.add(_mul_atoms(namer.y(a, b), namer.y(a, c), (Fraction(-1), {})))
                equations.append(("product-expansion", (a, b, c), builder))

    return _local_system(loc, variables, equations, dedupe=True)


def extra_link(ring: FusionRing, k, l) -> Polynomial:
    """The equation linking subsystems k and l over their joint variables.

    x_k(l,l) equals the weighted sum over the support intersection of
    y_l(i,l) x_k(i,l); constants substituted. The polynomial lives over
    the concatenated variable lists of the two reduced subsystems.
    """
    fp = _require_integral(ring)
    k, l = ring.resolve(k), ring.resolve(l)
    if k == l:
        raise LocalizationError("the two subsystem labels must differ")
    loc_k = localization_sets(ring, k)
    loc_l = localization_sets(ring, l)
    if l not in loc_k.support:
        raise LocalizationError(
            f"{ring.labels[l]!r} is not in the support of {ring.labels[k]!r}"
        )
    namer_k = _Namer(ring, fp, k)
    namer_l = _Namer(ring, fp, l)
    sk = set(loc_k.support)
    sl = set(loc_l.support)
    both = sorted(sk & sl)
    dims = fp.dims

    atoms = []
    for i in both:
        atom = _mul_atoms(namer_l.y(i, l), namer_k.x((i, l, l)))
        if atom is not None:
            atoms.append((Fraction(dims[i]) * atom[0], atom[1]))
    lhs = namer_k.x((l, l, l))

    used = set()
    for _, mono in atoms:
        used |= set(mono)
    if lhs is not None:
        used |= set(lhs[1])
    variables = tuple(sorted(used))
    builder = _PolyBuilder(variables)
    for coeff, mono in atoms:
        builder.add((coeff, mono))
    if lhs is not None:
        builder.add((-lhs[0], lhs[1]))
    return builder.build()


# ------------------------------------------------------------ two-parallel


EXCLUDED = "excluded"
NOT_EXCLUDED = "not-excluded"


@dataclass
class TwoParallelReport:
    verdict: str
    field: Field
    k_system: LocalSystem
    l_system: LocalSystem
    link: Polynomial
    gb_k_size: int
    gb_l_size: int
    final_basis: tuple  # canonical strings
    certified: bool
    timings: dict
    # each basis's engine counters: "k", "l" and, when it runs, "final"; and
    # "link", the link step's (dim, rank, border, fglm_candidates)
    stats: dict
    corank: int | None = None  # dim of the linked quotient; None when infinite


def default_sprime_pair(ring: FusionRing, k, l):
    """Default subsets: {1,k,l} for k; {1,l,m} with m the smallest-
    dimension valid third element of l's support."""
    fp = _require_integral(ring)
    loc_k = localization_sets(ring, k)
    loc_l = localization_sets(ring, l)
    k, l, unit = loc_k.k, loc_l.k, ring.unit_index
    sk = loc_k.with_chosen((unit, k, l))
    candidates = [
        m
        for m in loc_l.support
        if m not in (unit, l)
        and _triples_free(ring, (unit, l, m)) is None
    ]
    if not candidates:
        sl = loc_l.with_chosen((unit, l))
    else:
        m = min(candidates, key=lambda t: (fp.dims[t], t))
        sl = loc_l.with_chosen((unit, l, m))
    return sk.chosen, sl.chosen


def _combined_ring_vars(sys_k: LocalSystem, sys_l: LocalSystem):
    overlap = set(sys_k.variables) & set(sys_l.variables)
    if overlap:
        raise LocalizationError(f"subsystem variables collide: {sorted(overlap)}")
    return sys_k.variables + sys_l.variables


def _shift(m, v, d):
    """The monomial m times x_v^d (d = 1 or -1)."""
    return m[:v] + (m[v] + d,) + m[v + 1 :]


def _multiplication_matrices(polys, stair, order, p):
    """Matrices of multiplication by each variable on a finite staircase.

    ``polys`` is a reduced basis over GF(p), ``stair`` its staircase sorted
    ascending in ``order``; column j of the matrix of x_v is the normal
    form of x_v*stair[j] on the staircase. Returns the matrices and the
    number of border vectors built.

    The border monomials b = x_v*s, s in the staircase, b outside it, are
    taken in increasing order (FGLM's construction, no division). A leading
    monomial b of an element g has the vector -tail(g). Any other b has a
    variable x_w with b/x_w outside the staircase, so on the border: its
    normal form has only terms t below b/x_w, and the vector of b is the
    sum of its coefficients times the vectors of x_w*t, all below b, so the
    columns of M_w filled so far suffice.
    """
    dtype = _residue_dtype(p)
    n, size = len(polys[0].vars), len(stair)
    row = {s: i for i, s in enumerate(stair)}
    lead = {g.leading_monomial(order): g for g in polys}
    xs = [np.zeros((size, size), dtype) for _ in range(n)]
    border = set()
    for s, j in row.items():
        for v in range(n):
            b = _shift(s, v, 1)
            if b in row:
                xs[v][row[b], j] = 1
            else:
                border.add(b)
    vec = {}  # border monomial -> its normal form, on the staircase
    for b in sorted(border, key=order_key(order)):
        if b in lead:
            u = np.zeros(size, dtype)
            for e, c in lead[b].terms.items():
                if e != b:
                    u[row[e]] = -c % p
        else:
            w = next(w for w in range(n) if b[w] and _shift(b, w, -1) not in row)
            u = _mulmod(xs[w], vec[_shift(b, w, -1)], p)
        vec[b] = u
        for v in range(n):
            if b[v] and _shift(b, v, -1) in row:
                xs[v][:, row[_shift(b, v, -1)]] = u
    return xs, len(border)


def _link_quotient(gb_k: GroebnerBasis, gb_l: GroebnerBasis, link: Polynomial):
    """Corank of the link on A_k (x) A_l and, where it can, the linked basis.

    The bases live in disjoint variables, so the quotient by their sum is
    A = A_k (x) A_l, spanned by the products of the two staircases, and the
    linked quotient R/(I_k + I_l + link) is A/im(L), where L is the matrix
    of multiplication by the link (over gb_k.vars + gb_l.vars). A link term
    c*m_k*m_l acts as c*(M_k (x) M_l), from the multiplication matrices of
    m_k and m_l on their staircases. Everything is reduced over one prime
    p: the field's own, or over QQ the first prime into which both bases
    and the link specialize.

    The multiplication matrices of the variables come from the border of
    each staircase (``_multiplication_matrices``), and the matrix of a link
    monomial is the product of its variables' matrices. These are ring
    operations on the monic bases, with no division, so over QQ the
    matrices mod p are the images of the rational ones, and corank 0 mod p
    proves the link a unit over QQ.

    The reduced echelon form R of L^T spans im(L), so w - w[piv] @ R
    reduces a vector modulo im(L). The reduced grevlex basis of the linked
    ideal then comes from FGLM (Faugere-Gianni-Lazard-Mora, JSC 16(4),
    1993): candidate monomials x_v*s, s in the new staircase, are taken in
    increasing grevlex order, multiples of leading monomials found so far
    are skipped, and each candidate's vector is its predecessor's times
    M_v, reduced modulo im(L) and then against the accepted vectors. A
    dependent vector gives the basis element m - sum c_i s_i.

    Returns ``(corank, basis, counts)``: the corank of L mod p, the basis as
    polynomials over ``link.field``, which is ``None`` over QQ when L is
    singular mod p, and the step's work: ``dim`` and ``rank`` of L, the
    ``border`` vectors built and the ``fglm_candidates`` whose vectors were
    reduced. ``(None, None, None)`` when a staircase is infinite.
    """
    stairs = (gb_k.staircase(), gb_l.staircase())
    if None in stairs:
        return None, None, None
    for F in [link.field] if link.field.p else map(GF, _prime_stream()):
        try:
            parts = [specialize(F, f) for f in (gb_k.polys, gb_l.polys, [link])]
            break
        except NonInvertibleError:
            continue
    p = F.p
    dtype = _residue_dtype(p)
    cut = len(gb_k.vars)
    link_terms = parts[2][0].terms

    xk, bk = _multiplication_matrices(parts[0], stairs[0], gb_k.order, p)
    xl, bl = _multiplication_matrices(parts[1], stairs[1], gb_l.order, p)
    nk, nl = len(stairs[0]), len(stairs[1])

    def power(xs, e, size):
        m = np.eye(size, dtype=dtype)
        for x, d in zip(xs, e):
            for _ in range(d):
                m = _mulmod(m, x, p)
        return m

    a = np.zeros((nk * nl, nk * nl), dtype)
    for e, c in link_terms.items():
        mk, ml = power(xk, e[:cut], nk), power(xl, e[cut:], nl)
        a = (a + c * (np.kron(mk, ml) % p)) % p
    xs = xk + xl

    ech, piv = _rref_mod_p(a.T.copy(), p)  # its rows span im(L)
    free = np.setdiff1d(np.arange(nk * nl), piv)
    corank = len(free)
    counts = {"dim": nk * nl, "rank": len(piv), "border": bk + bl, "fglm_candidates": 0}
    if corank and not link.field.p:
        return corank, None, counts

    n = len(link.vars)
    one = (0,) * n
    start = np.zeros((nk, nl), dtype)
    if nk and nl:
        start[0, 0] = 1  # the staircases are sorted, so 1 comes first
    pred = {one: None}  # candidate -> (staircase monomial, variable)
    vecs = {}  # staircase monomial -> its vector reduced modulo im(L)
    stair, lms, basis = [], [], []
    rows = []  # accepted vectors: (pivot, row, row as a combination of stair)
    heap = [(grevlex_key(one), one)]
    while heap:
        _, m = heapq.heappop(heap)
        if any(monomial_divides(lm, m) for lm in lms):
            continue
        counts["fglm_candidates"] += 1
        if pred[m] is None:
            w = start
        else:
            s, v = pred[m]
            w = vecs[s]  # times x_v: M_v (x) I or I (x) M_v on the nk x nl reshape
            w = _mulmod(xs[v], w, p) if v < cut else _mulmod(w, xs[v].T, p)
        w = w.ravel()
        w = (w - _mulmod(w[piv], ech, p)) % p
        u, comb = w[free], np.zeros(corank, dtype)
        for col, e, t in rows:
            f = u[col]
            if f:
                u = (u - f * e) % p
                comb = (comb + f * t) % p
        nz = np.flatnonzero(u)
        if not nz.size:
            terms = {m: 1}
            terms.update({stair[j]: (-int(comb[j])) % p for j in np.flatnonzero(comb)})
            basis.append(Polynomial(link.vars, terms, link.field, GREVLEX))
            lms.append(m)
            continue
        inv = pow(int(u[nz[0]]), -1, p)
        t = (-comb) * inv % p
        t[len(stair)] = inv
        rows.append((nz[0], u * inv % p, t))
        stair.append(m)
        vecs[m] = w.reshape(nk, nl)
        for v in range(n):
            c = _shift(m, v, 1)
            if c not in pred:
                pred[c] = (m, v)
                heapq.heappush(heap, (grevlex_key(c), c))
    return corank, basis, counts


def two_parallel(
    ring: FusionRing,
    k,
    l,
    field: Field = QQ,
    sprime_k=None,
    sprime_l=None,
) -> TwoParallelReport:
    """Run the two-subsystem exclusion pipeline.

    Computes the reduced bases of both subsystems separately; the ring is
    excluded iff the linking equation is a unit modulo their sum. Both
    the verdict and the ``not-excluded`` basis come from the joint quotient
    A_k (x) A_l (``_link_quotient``): the corank of the link's matrix, and
    the reduced basis of the linked ideal by FGLM. Buchberger reduces the
    union of both bases and the link (``gb_final``) only when a staircase
    is infinite, or over QQ when the matrix is singular mod p; a rational
    verdict of that run rests on the modular basis computation and is
    reported uncertified.
    """
    timings = {}
    k, l = ring.resolve(k), ring.resolve(l)
    if sprime_k is None or sprime_l is None:
        dk, dl = default_sprime_pair(ring, k, l)
        sprime_k = sprime_k or dk
        sprime_l = sprime_l or dl

    if l not in map(ring.resolve, sprime_k):
        raise LocalizationError("the linking label must belong to the first chosen subset")
    if l not in map(ring.resolve, sprime_l):
        raise LocalizationError("the linking label must belong to its own chosen subset")

    t0 = time.perf_counter()
    sys_k = generate_Ek(ring, k, sprime_k)
    sys_l = generate_Ek(ring, l, sprime_l)
    link = extra_link(ring, k, l)
    timings["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gb_k = buchberger(specialize(field, sys_k.polys), field=field)
    timings["gb_k"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    gb_l = buchberger(specialize(field, sys_l.polys), field=field)
    timings["gb_l"] = time.perf_counter() - t0

    allv = _combined_ring_vars(sys_k, sys_l)
    (link_in,) = specialize(field, [link.rename(allv)])

    t0 = time.perf_counter()
    corank, basis, counts = _link_quotient(gb_k, gb_l, link_in)
    timings["certificate"] = time.perf_counter() - t0

    stats = {"k": gb_k.stats, "l": gb_l.stats}
    if counts is not None:
        stats["link"] = counts
    if basis is None:
        combined = [g.rename(allv) for g in gb_k.polys + gb_l.polys] + [link_in]
        t0 = time.perf_counter()
        final = buchberger(combined, field=field)
        timings["gb_final"] = time.perf_counter() - t0
        basis = final.polys
        stats["final"] = final.stats
        dim = final.quotient_dimension()
        corank = None if dim == inf else dim
    final_basis = tuple(str(g) for g in basis)

    return TwoParallelReport(
        verdict=EXCLUDED if corank == 0 else NOT_EXCLUDED,
        field=field,
        k_system=sys_k,
        l_system=sys_l,
        link=link,
        gb_k_size=len(gb_k),
        gb_l_size=len(gb_l),
        final_basis=final_basis,
        # a rational gb_final rests on the modular basis computation
        certified=not field.is_rational or "gb_final" not in timings,
        timings=timings,
        corank=corank,
        stats=stats,
    )

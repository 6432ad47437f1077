"""Localization polynomial systems attached to a self-dual simple object.

For a self-dual basis element k with multiplicity-free self-dual square,
the categorification constraints localize to a small polynomial system in
variables y(i,b) (pairing scalars) and x(i,b) (triple scalars), with unit
arguments forced to explicit constants. This module generates the reduced
subsystem, the full three-argument system, the equation linking two
subsystems, and runs the two-subsystem exclusion pipeline: Groebner
bases of the two subsystems, then linear algebra on the product of their
quotient algebras, which gives the verdict and the multiplication
matrices of the linked quotient, from which ``groebner.fglm`` reads the
basis of the linked system.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import inf

import numpy as np

from .fields import GF, Field, NonInvertibleError, QQ
from .groebner import (
    GroebnerBasis,
    GroebnerResourceError,
    _mulmod,
    _prime_stream,
    _residue_dtype,
    _rref_mod_p,
    buchberger,
    fglm,
    normal_form,  # unused here; perfbench/spans.py patches it by name
    specialize,
)
from .poly import GREVLEX, Polynomial
from .rings import FusionRing, fpdim_data


class LocalizationError(ValueError):
    """Hypothesis violation or invalid subsystem choice."""


@dataclass(frozen=True)
class LocalizationInput:
    """Validated localization data for one basis element.

    ``support`` is the set of a with N[k][k][a] = 1 (all self-dual, k
    among them); ``chosen`` is the user-selected subset on which every
    triple is multiplicity-free, and whose every b has N[b][b][i] <= 1 for
    i in the support, or None when not yet chosen.
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
        offender = _squares_free(ring, idx, self.support)
        if offender is not None:
            i, b = offender
            raise LocalizationError(
                "chosen subset is not multiplicity-free on the support: "
                f"N({ring.labels[b]},{ring.labels[b]};{ring.labels[i]}) = {ring.N[b][b][i]}"
            )
        return LocalizationInput(ring, self.k, self.support, idx)


def localization_sets(ring: FusionRing, k) -> LocalizationInput:
    """Compute the support set for k and validate the localization hypotheses.

    Errors: k the unit; k not self-dual; some N[k][k][a] exceeding 1; a
    support element that is not self-dual; k itself outside the support.
    """
    k = ring.resolve(k)
    star = ring.star
    labels = ring.labels
    if k == ring.unit_index:
        raise LocalizationError(
            f"{labels[k]!r} is the unit label, which has no localization system"
        )
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


def _squares_free(ring, subset, support) -> tuple | None:
    """First (i, b) with b in ``subset``, i in ``support`` and N[b][b][i] > 1,
    or None: the square-expansion family reads x(i,b,b) for every such pair."""
    for b in subset:
        for i in support:
            if ring.N[b][b][i] > 1:
                return (i, b)
    return None


def maximal_sprime_candidates(ring: FusionRing, k) -> tuple:
    """All maximal chosen subsets that ``with_chosen`` accepts (as label
    tuples), unit included."""
    loc = localization_sets(ring, k)
    pool = [
        a for a in loc.support
        if a != ring.unit_index and _squares_free(ring, (a,), loc.support) is None
    ]
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


def _var_name(ring, tag: str, key: tuple) -> str:
    """Name of the variable of a sorted index pair (y) or triple (x)."""
    labels = tuple(ring.labels[t] for t in key)
    return x_var_name(tag, labels) if len(key) == 3 else y_var_name(tag, *labels)


def _integral_dims(ring: FusionRing) -> tuple:
    """The ring's FP dimensions, which localization needs to be integers."""
    fp = fpdim_data(ring)
    if not fp.integral:
        raise LocalizationError(
            "localization needs exact integer dimensions; ring is not integral. "
            "The prism family (prism tpe --family localization) keeps symbolic "
            "dimensions d_<label>"
        )
    return fp.dims


class _Namer:
    """Atom builder for one subsystem: constants, variable monomials and
    the two equation families.

    Atoms are (coefficient, {var: power}) pairs or None for a forced zero.
    The unit and elimination rules apply the forced side constraints:
    y with a unit argument is 1/d_k; x with a unit argument is diagonal
    1/(d_b d_k); x whose triple has zero fusion coefficient vanishes; x
    with the distinguished label doubled collapses to a y square. ``x`` is
    the one place that decides which multisets keep an x variable.
    """

    def __init__(self, loc: LocalizationInput):
        self.loc = loc
        self.ring = loc.ring
        self.k = loc.k
        self.tag = loc.k_label
        self.dims = _integral_dims(loc.ring)
        self.dk = self.dims[loc.k]

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
                return (Fraction(1, self.dims[rest[0]] * self.dk), {})
            return None
        a, b, c = ms
        if self.ring.N[b][c][a] == 0:
            return None
        if ms.count(self.k) >= 2:
            other = next((t for t in ms if t != self.k), self.k)
            coeff, mono = self.y(other, self.k)
            return (coeff * coeff, {name: 2 * p for name, p in mono.items()})
        return (Fraction(1), {_var_name(self.ring, self.tag, ms): 1})

    def keeps_x(self, ms) -> bool:
        """Whether ``x`` maps the sorted multiset ms to its own variable."""
        return self.x(ms) == (1, {_var_name(self.ring, self.tag, ms): 1})

    def triple_product(self, a, b, c):
        """sum_i d_i y(i,a) y(i,b) y(i,c) = x(a,b,c), as (atom, weight)
        pairs of its left side minus its right side."""
        y, dims = self.y, self.dims
        lhs = [(_mul_atoms(y(i, a), y(i, b), y(i, c)), dims[i]) for i in self.loc.support]
        return lhs + [(self.x((a, b, c)), -1)]

    def product_expansion(self, a, b, c):
        """sum_i d_i y(i,a) x(i,b,c) = y(a,b) y(a,c), as ``triple_product``."""
        y, dims = self.y, self.dims
        lhs = [(_mul_atoms(y(i, a), self.x((i, b, c))), dims[i]) for i in self.loc.support]
        return lhs + [(_mul_atoms(y(a, b), y(a, c)), -1)]


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
    """A generated localization system, its validated input ``loc`` and
    per-equation provenance."""

    loc: LocalizationInput
    variables: tuple
    polys: tuple
    provenance: tuple  # (family, arg labels...) per polynomial

    @property
    def tag(self) -> str:
        return self.loc.k_label

    @property
    def support(self) -> tuple:
        return self.loc.support_labels

    @property
    def chosen(self) -> tuple:
        return self.loc.chosen_labels

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


def _subsystem(ring, k, sprime) -> _Namer:
    """Atom builder of the validated (k, chosen) subsystem."""
    _integral_dims(ring)  # before the labels: a non-integral ring has no system
    return _Namer(localization_sets(ring, k).with_chosen(sprime))


def _keys(namer: _Namer, pairs) -> list:
    """Index keys of a system's variables, in its order: the sorted
    multisets (i, b, c), i in the support and (b, c) in ``pairs``, that
    keep an x variable, then the y pairs without a unit argument, sorted
    by (b, a)."""
    loc, unit = namer.loc, namer.ring.unit_index
    triples = {tuple(sorted((i, b, c))) for i in loc.support for b, c in pairs}
    y_keys = {tuple(sorted((i, b))) for i in loc.support for b in loc.chosen if unit not in (i, b)}
    return sorted(filter(namer.keeps_x, triples)) + sorted(y_keys, key=lambda ab: (ab[1], ab[0]))


def _subsystem_keys(namer: _Namer) -> list:
    """``_keys`` of the reduced subsystem, the b = c slice."""
    return _keys(namer, [(b, b) for b in namer.loc.chosen])


def _local_system(namer: _Namer, keys, instances, dedupe=False) -> LocalSystem:
    """The LocalSystem of ``instances`` over the variables of ``keys``.

    An instance is (family, index args, form, (a, b, c), scale): the
    equation ``form`` (``namer.triple_product`` or
    ``namer.product_expansion``) at (a, b, c), times ``scale``. Zero
    polynomials are dropped; with ``dedupe`` set, so is every polynomial
    equal to an earlier one up to scaling.
    """
    loc = namer.loc
    labels = loc.ring.labels
    variables = tuple(_var_name(loc.ring, loc.k_label, key) for key in keys)
    polys, provenance, seen = [], [], set()
    for family, args, form, abc, scale in instances:
        builder = _PolyBuilder(variables)
        for atom, weight in form(*abc):
            builder.add(atom, Fraction(weight * scale))
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
    return LocalSystem(loc, variables, tuple(polys), tuple(provenance))


def generate_Ek(ring: FusionRing, k, sprime) -> LocalSystem:
    """Reduced localization subsystem for (k, chosen subset): the b = c
    slice of ``generate_full``'s system.

    Three families, each an instance of the full system's equations with
    every constant, zero and symmetry constraint substituted:
    orthogonality(a, b) for a not the unit and b <= a, the triple product
    at (a, b, 1) times d_b d_k, which reads d_b sum_i d_i y(i,a) y(i,b) =
    delta(a,b); triple-product(a, b) for non-unit a and b, the triple
    product at (a, b, b); and square-expansion(a, b) for b outside
    {unit, k}, the product expansion at (a, b, b). Variables are exactly
    the surviving y and x scalars.
    """
    namer = _subsystem(ring, k, sprime)
    k, chosen, dims = namer.k, namer.loc.chosen, namer.dims
    unit = ring.unit_index
    tp, pe = namer.triple_product, namer.product_expansion
    instances = [
        ("orthogonality", (a, b), tp, (a, b, unit), dims[b] * namer.dk)
        for a in chosen if a != unit for b in chosen if b <= a
    ]
    instances += [
        ("triple-product", (a, b), tp, (a, b, b), 1)
        for a in chosen if a != unit for b in chosen if b != unit
    ]
    instances += [
        ("square-expansion", (a, b), pe, (a, b, b), 1)
        for b in chosen if b not in (unit, k) for a in chosen
    ]
    return _local_system(namer, _subsystem_keys(namer), instances)


def generate_full(ring: FusionRing, k, sprime) -> LocalSystem:
    """Full three-argument localization system over the chosen subset.

    Every (a, b, c) instance of the two families, the triple product
    sum_i d_i y(i,a) y(i,b) y(i,c) = x(a,b,c) and the product expansion
    sum_i d_i y(i,a) x(i,b,c) = y(a,b) y(a,c), with the side constraints
    substituted; tautologies are dropped and duplicate equations
    deduplicated. ``generate_Ek`` builds the reduced subsystem from the
    b = c instances.
    """
    namer = _subsystem(ring, k, sprime)
    chosen = namer.loc.chosen
    pairs = [(b, c) for b in chosen for c in chosen]
    forms = (("triple-product", namer.triple_product),
             ("product-expansion", namer.product_expansion))
    instances = [
        (family, (a, b, c), form, (a, b, c), 1)
        for a in chosen for b, c in pairs for family, form in forms
    ]
    return _local_system(namer, _keys(namer, pairs), instances, dedupe=True)


def extra_link(ring: FusionRing, k, l) -> Polynomial:
    """The equation linking subsystems k and l over their joint variables.

    x_k(l,l) equals the weighted sum over the support intersection of
    y_l(i,l) x_k(i,l); constants substituted. The polynomial lives over
    the concatenated variable lists of the two reduced subsystems.
    """
    dims = _integral_dims(ring)
    k, l = ring.resolve(k), ring.resolve(l)
    if k == l:
        raise LocalizationError("the two subsystem labels must differ")
    loc_k = localization_sets(ring, k)
    loc_l = localization_sets(ring, l)
    if l not in loc_k.support:
        raise LocalizationError(
            f"{ring.labels[l]!r} is not in the support of {ring.labels[k]!r}"
        )
    namer_k, namer_l = _Namer(loc_k), _Namer(loc_l)
    both = sorted(set(loc_k.support) & set(loc_l.support))
    atoms = [(_mul_atoms(namer_l.y(i, l), namer_k.x((i, l, l))), dims[i]) for i in both]
    atoms = [(atom, w) for atom, w in atoms + [(namer_k.x((l, l, l)), -1)] if atom is not None]
    builder = _PolyBuilder(sorted({name for (_, mono), _ in atoms for name in mono}))
    for atom, weight in atoms:
        builder.add(atom, Fraction(weight))
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
    gb_l_size: int  # under reuse, the size of gb_k renamed
    final_basis: tuple  # canonical strings
    certified: bool
    # seconds of "generate", "gb_k", "gb_l", "link" and, when it runs, "gb_final"
    timings: dict
    # each basis's engine counters: "k", "l" and, when it runs, "final"; and
    # "link", the link step's (dim, rank, border, fglm_candidates). When gb_l
    # is gb_k renamed, "l" is {"from": "k", "labels": the label map}, and
    # "border" still counts the border monomials of both staircases
    stats: dict
    corank: int | None = None  # dim of the linked quotient; None when infinite


def default_sprime_pair(ring: FusionRing, k, l):
    """Default subsets: {1,k,l} for k; {1,l,m} with m the smallest-
    dimension valid third element of l's support."""
    dims = _integral_dims(ring)
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
        m = min(candidates, key=lambda t: (dims[t], t))
        sl = loc_l.with_chosen((unit, l, m))
    return sk.chosen, sl.chosen


def _combined_ring_vars(sys_k: LocalSystem, sys_l: LocalSystem):
    overlap = set(sys_k.variables) & set(sys_l.variables)
    if overlap:
        raise LocalizationError(f"subsystem variables collide: {sorted(overlap)}")
    return sys_k.variables + sys_l.variables


def _automorphisms(ring: FusionRing, images=None):
    """Each permutation s of the ring's label indices that fixes the unit
    and keeps every fusion coefficient, N[s[a]][s[b]][s[c]] = N[a][b][c],
    as a tuple of images, in lexicographic order. ``images[a]``, when given,
    lists in ascending order the indices that a may take.

    Labels are placed in index order, and a candidate image is kept only
    when every coefficient among the labels placed so far agrees.
    """
    N, unit, n = ring.N, ring.unit_index, len(ring.labels)
    images = images or [range(n)] * n
    s, used = [None] * n, set()

    def fits(a):
        done = range(a + 1)
        return all(
            N[s[a]][s[b]][s[c]] == N[a][b][c]
            and N[s[b]][s[a]][s[c]] == N[b][a][c]
            and N[s[b]][s[c]][s[a]] == N[b][c][a]
            for b in done
            for c in done
        )

    def place(a):
        if a == n:
            yield tuple(s)
            return
        for t in images[a]:
            if t in used or (a == unit) != (t == unit):
                continue
            s[a] = t
            if fits(a):
                used.add(t)
                yield from place(a + 1)
                used.discard(t)

    yield from place(0)


def _subsystem_map(loc_k: LocalizationInput, loc_l: LocalizationInput):
    """The first automorphism (see ``_automorphisms``) that takes k to l
    and k's chosen subset onto l's, or None."""
    ring = loc_k.ring
    n = len(ring.labels)
    inside = sorted(loc_l.chosen)
    outside = [t for t in range(n) if t not in loc_l.chosen]
    images = [inside if a in loc_k.chosen else outside for a in range(n)]
    images[loc_k.k] = [loc_l.k]
    return next(_automorphisms(ring, images), None)


def _orbit_basis(gb_k: GroebnerBasis, sys_k: LocalSystem, sys_l: LocalSystem):
    """gb_k renamed into a basis of E_l, or None when no automorphism
    carries E_k onto E_l.

    The automorphism s is ``_subsystem_map``'s. A variable of E_k is named
    from an index multiset; its new name is the one E_l gives the multiset's
    image under s. The renamed basis is kept only when the renaming takes
    ``sys_k.polys`` exactly onto the set ``sys_l.polys``, which proves that
    it is the reduced basis of E_l for grevlex on the renamed variables
    (a permutation of ``sys_l.variables``). Its exponent tuples, field and
    ``quotient`` are gb_k's; its ``stats`` are ``{"from": "k", "labels":
    s as a label map}``.
    """
    ring = sys_k.loc.ring
    s = _subsystem_map(sys_k.loc, sys_l.loc)
    if s is None:
        return None
    names = {}
    for key in _subsystem_keys(_Namer(sys_k.loc)):
        image = tuple(sorted(s[t] for t in key))
        names[_var_name(ring, sys_k.tag, key)] = _var_name(ring, sys_l.tag, image)
    if sorted(names.values()) != sorted(sys_l.variables):
        return None
    if {f.rename(sys_l.variables, names) for f in sys_k.polys} != set(sys_l.polys):
        return None
    vars = tuple(names[v] for v in gb_k.vars)

    def renamed(polys):
        return [Polynomial._trusted(vars, dict(g.terms), g.field, g.order) for g in polys]

    labels = ring.labels
    stats = {"from": "k", "labels": {labels[a]: labels[t] for a, t in enumerate(s)}}
    gb = GroebnerBasis(renamed(gb_k.polys), vars, gb_k.field, gb_k.order,
                       renamed(gb_k.generators), stats)
    gb.quotient = gb_k.quotient
    return gb


def _link_quotient(gb_k: GroebnerBasis, gb_l: GroebnerBasis, link: Polynomial):
    """Corank of the link on A_k (x) A_l and, where it can, the linked basis.

    The bases live in disjoint variables, so the quotient by their sum is
    A = A_k (x) A_l, spanned by the products of the two staircases, and the
    linked quotient R/(I_k + I_l + link) is A/im(L), where L is the matrix
    of multiplication by the link, whose variables are gb_k.vars followed by
    those of gb_l in any order: the l-side matrices are taken by name, so
    gb_l may be a basis on a permutation of its system's variables. A link
    term c*m_k*m_l acts as c*(M_k (x) M_l), from the multiplication
    matrices of m_k and m_l on their staircases. Everything is reduced over
    one prime p: the field's own, or over QQ the first prime into which
    both bases and the link specialize.

    The multiplication matrices of the variables come from the border of
    each staircase (``GroebnerBasis.multiplication_matrices``); over GF(p),
    a basis whose run the border certificate stopped hands over the
    certificate's matrices, so they are not built twice. A gb_l with gb_k's
    terms (gb_k renamed) takes gb_k's matrices, by position, over any field.
    The matrix of a link monomial is the product of its variables' matrices.
    These are ring operations on the monic bases, with no division, so over
    QQ the matrices mod p are the images of the rational ones, and corank 0
    mod p proves the link a unit over QQ.

    L^T is built by one product: the c M_k of every term, stacked, times
    the stacked M_l, summed over the terms by one ``_mulmod``, and laid out
    as the RREF reads it by one reshape and transpose. For F210 over GF(11)
    (5 link terms) the link step took 7.0 ms, against 10.0 ms with one
    ``np.kron`` per term, each summed into the 196 x 196 matrix mod p, and
    a transposed copy (process-time medians of 30 interleaved rounds;
    2-vCPU VM, Python 3.11, numpy 2.4).

    The reduced echelon form R of L^T spans im(L), so a vector w of A has
    the coordinates w[free] - w[piv] @ R[:, free] in A/im(L), on the unit
    vectors of the c = corank columns off the pivots. im(L) is an ideal of
    A, so each variable acts on A/im(L): x_v takes the unit vector at
    (r, s) to column r of M_v (x) e_s, or to e_r (x) column s of M_v, and
    one product with R[:, free] projects these images, for every variable,
    and 1 onto A/im(L). ``groebner.fglm`` on the c x c matrices gives the
    reduced grevlex basis of the linked ideal.

    Returns ``(corank, basis, counts)``: the corank of L mod p, the basis as
    polynomials over ``link.field``, which is ``None`` over QQ when L is
    singular mod p, and the step's work: ``dim`` and ``rank`` of L, the
    ``border`` vectors built and the ``fglm_candidates`` whose vectors were
    reduced. ``(None, None, None)`` when a staircase is infinite.
    """
    same = [g.terms for g in gb_l] == [g.terms for g in gb_k]  # gb_l is gb_k renamed
    for F in [link.field] if link.field.p else map(GF, _prime_stream()):
        try:
            side_k = gb_k.multiplication_matrices(F)
            sides = [side_k, side_k if same else gb_l.multiplication_matrices(F)]
            (link_p,) = [link] if link.field.p else specialize(F, [link])
            break
        except NonInvertibleError:
            continue
    if None in sides:
        return None, None, None
    (xk, bk), (xl, bl) = sides
    p = F.p
    dtype = _residue_dtype(p)
    cut = len(gb_k.vars)
    by_name = dict(zip(gb_l.vars, xl))
    xl = [by_name[v] for v in link.vars[cut:]]
    nk, nl = len(xk[0]), len(xl[0])

    def power(xs, e, size):
        m = np.eye(size, dtype=dtype)
        for x, d in zip(xs, e):
            for _ in range(d):
                m = _mulmod(m, x, p)
        return m

    # L^T[(r, s), (i, j)] = sum over the terms c*m_k*m_l of
    # c M_k[i, r] M_l[j, s]: one product of the stacked matrices, its rows
    # indexed (r, i) and its columns (s, j)
    terms = link_p.terms.items()
    mk = np.zeros((len(terms), nk, nk), dtype)
    ml = np.zeros((len(terms), nl, nl), dtype)
    for t, (e, c) in enumerate(terms):
        mk[t] = c * power(xk, e[:cut], nk) % p
        ml[t] = power(xl, e[cut:], nl)
    lt = _mulmod(mk.transpose(2, 1, 0).reshape(nk * nk, len(terms)),
                 ml.transpose(0, 2, 1).reshape(len(terms), nl * nl), p)
    lt = lt.reshape(nk, nk, nl, nl).transpose(0, 2, 1, 3).reshape(nk * nl, nk * nl)

    ech, piv = _rref_mod_p(lt, p)  # its rows span im(L)
    free = np.setdiff1d(np.arange(nk * nl), piv)
    corank = len(free)
    counts = {"dim": nk * nl, "rank": len(piv), "border": bk + bl, "fglm_candidates": 0}
    if corank and not link.field.p:
        return corank, None, counts

    n = len(xk) + len(xl)
    stack_k, stack_l = np.stack(xk), np.stack(xl)
    # images[v, j]: x_v times the unit vector at free[j] = (r, s) of A
    images = np.zeros((n, corank, nk, nl), dtype)
    for j, (r, s) in enumerate(zip(*np.divmod(free, nl))):
        images[:cut, j, :, s] = stack_k[:, :, r]
        images[cut:, j, r, :] = stack_l[:, :, s]
    one = np.zeros((1, nk * nl), dtype)
    one[:, :1] = 1  # the staircases are sorted, so 1 comes first
    w = np.concatenate([images.reshape(n * corank, nk * nl), one])
    w = (w[:, free] - _mulmod(w[:, piv], ech[:, free], p)) % p
    mats = w[:-1].reshape(n, corank, corank).transpose(0, 2, 1)  # rows to columns
    basis, counts["fglm_candidates"] = fglm(w[-1], mats, link.vars, link.field, p)
    return corank, basis, counts


@contextmanager
def _stage(name, timings):
    """Time one stage of ``two_parallel`` into ``timings[name]``, and
    prefix a resource error raised inside it with ``name``."""
    t0 = time.perf_counter()
    try:
        yield
    except GroebnerResourceError as exc:
        raise GroebnerResourceError(f"{name}: {exc}") from exc
    timings[name] = time.perf_counter() - t0


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
    excluded iff the linking equation is a unit modulo their sum. When a
    label automorphism takes (k, its subset) to (l, its subset) and renames
    E_k exactly into E_l, gb_l is gb_k renamed (``_orbit_basis``) rather
    than a second engine run; ``stats["l"]`` then records the label map.
    Both the verdict and the ``not-excluded`` basis come from the joint
    quotient A_k (x) A_l (``_link_quotient``): the corank c of the link's matrix,
    and the reduced basis of the linked ideal by FGLM on the c x c
    multiplication matrices of the linked quotient. Buchberger reduces the
    union of both bases and the link (``gb_final``) only when a staircase
    is infinite, or over QQ when the matrix is singular mod p; a rational
    verdict of that run rests on the modular basis computation and is
    reported uncertified. Each stage is timed under its name, and a
    resource error raised in it is prefixed with that name: ``generate``,
    ``gb_k``, ``gb_l``, ``link`` or ``gb_final``. ``fpdim_data`` is
    memoized, so the subset choice, both subsystems and the link share one
    computation of the ring's dimensions.
    """
    timings = {}
    k, l = ring.resolve(k), ring.resolve(l)
    if k == l:
        raise LocalizationError("the two subsystem labels must differ")
    if sprime_k is None or sprime_l is None:
        dk, dl = default_sprime_pair(ring, k, l)
        sprime_k = sprime_k or dk
        sprime_l = sprime_l or dl

    if l not in map(ring.resolve, sprime_k):
        raise LocalizationError("the linking label must belong to the first chosen subset")
    if l not in map(ring.resolve, sprime_l):
        raise LocalizationError("the linking label must belong to its own chosen subset")

    with _stage("generate", timings):
        sys_k = generate_Ek(ring, k, sprime_k)
        sys_l = generate_Ek(ring, l, sprime_l)
        link = extra_link(ring, k, l)

    with _stage("gb_k", timings):
        gb_k = buchberger(specialize(field, sys_k.polys), field=field)
    with _stage("gb_l", timings):
        gb_l = _orbit_basis(gb_k, sys_k, sys_l)
        if gb_l is None:
            gb_l = buchberger(specialize(field, sys_l.polys), field=field)

    allv = _combined_ring_vars(sys_k, sys_l)
    (link_in,) = specialize(field, [link.rename(allv)])

    with _stage("link", timings):
        corank, basis, counts = _link_quotient(gb_k, gb_l, link_in)

    stats = {"k": gb_k.stats, "l": gb_l.stats}
    if counts is not None:
        stats["link"] = counts
    certified = True
    if basis is None:
        combined = [g.rename(allv) for g in gb_k.polys + gb_l.polys] + [link_in]
        with _stage("gb_final", timings):
            final = buchberger(combined, field=field)
        basis = final.polys
        stats["final"] = final.stats
        dim = final.quotient_dimension()
        corank = None if dim == inf else dim
        # a rational gb_final rests on the modular basis computation
        certified = not field.is_rational
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
        certified=certified,
        timings=timings,
        corank=corank,
        stats=stats,
    )

"""Triangular-prism equation generator over tetrahedron scalars.

Scope: multiplicity-free fusion rings whose involved labels are all
self-dual, with both Frobenius-Schur rotation indicators assumed to be 1.
In that regime a fully labeled tetrahedron is a single scalar and the
prism evaluates two ways into an equation between products of such
scalars, with dimension coefficients. The orientation-preserving symmetry
group of the tetrahedron (12 even vertex permutations) acts on edge
labelings; scalars are named by the least tuple of their orbit under the
default identification, or mapped onto localization x/y variables by the
subsystem identification map.

Tetra scalars with a unit edge are constants: admissibility forces the
remaining edge pairs at the unit edge's endpoints to match, and the value
is the inverse square root of the product of those two dimensions. Exact
bookkeeping keeps half-integer dimension exponents; terms of an equation
are grouped by the square-free part of their radical and each group is
emitted as its own polynomial (a single one in all the standard families).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ
from .localizer import localization_sets, x_var_name, y_var_name
from .poly import GREVLEX, MAX_VARS, Polynomial
from .rings import FusionRing, FpData, fpdim_data

# tetrahedron: vertices 0..3, edges by vertex pair; faces are vertex stars
EDGE_VERTS = ((0, 3), (0, 2), (0, 1), (1, 3), (1, 2), (2, 3))
FACES = ((0, 1, 2), (2, 3, 4), (1, 4, 5), (0, 3, 5))


def _edge_perms():
    edge_index = {frozenset(v): i for i, v in enumerate(EDGE_VERTS)}
    perms = []
    for p in itertools.permutations(range(4)):
        inversions = sum(
            1 for a in range(4) for b in range(a + 1, 4) if p[a] > p[b]
        )
        if inversions % 2:
            continue
        perms.append(
            tuple(edge_index[frozenset((p[u], p[v]))] for u, v in EDGE_VERTS)
        )
    return tuple(perms)


EDGE_PERMS = _edge_perms()  # 12 permutations, one per even vertex permutation


class TpeError(ValueError):
    pass


class MultiplicityError(TpeError):
    """A face or vertex triple has fusion coefficient 2 or more."""


class SelfDualityError(TpeError):
    """An involved label is not self-dual."""


class InadmissibleConfigError(TpeError):
    """A prism vertex triple has fusion coefficient zero."""


class IdmapDomainError(TpeError):
    """A tetra scalar has no name under the chosen identification map."""


def orbit(edges):
    """All 12 images of an edge 6-tuple under the rotation group."""
    out = set()
    for perm in EDGE_PERMS:
        img = [None] * 6
        for i, t in enumerate(edges):
            img[perm[i]] = t
        out.add(tuple(img))
    return out


def _check_self_dual(ring, idx):
    for i in idx:
        if ring.star[i] != i:
            raise SelfDualityError(f"label {ring.labels[i]!r} is not self-dual")


def _face_value(ring, edges, face):
    a, b, c = (edges[e] for e in face)
    return ring.N[a][b][c]


def tetra_admissible(ring: FusionRing, edges) -> bool:
    """True when all four face triples have fusion coefficient exactly 1.

    Raises on multiplicity 2+ or a non-self-dual label; a zero face means
    the scalar vanishes.
    """
    idx = tuple(map(ring.resolve, edges))
    _check_self_dual(ring, idx)
    ok = True
    for face in FACES:
        v = _face_value(ring, idx, face)
        if v > 1:
            labels = tuple(ring.labels[idx[e]] for e in face)
            raise MultiplicityError(f"face {labels} has multiplicity {v}")
        if v == 0:
            ok = False
    return ok


def tetra_canonical(ring: FusionRing, edges):
    """Canonical edge tuple (least orbit element) plus admissibility flag."""
    idx = tuple(map(ring.resolve, edges))
    adm = tetra_admissible(ring, idx)
    canon = min(orbit(idx))
    return tuple(ring.labels[i] for i in canon), adm


# --------------------------------------------------------------- id maps


class SymmetricIdmap:
    """Name each tetra scalar by its least orbit representative.

    This presumes a gauge in which the scalar is invariant under the full
    rotation group; the localization map below avoids that assumption.
    """

    def __init__(self, ring: FusionRing):
        self.ring = ring

    def atom(self, canon_idx):
        name = "t[" + ",".join(self.ring.labels[i] for i in canon_idx) + "]"
        return ("plain", name)


class LocalizationIdmap:
    """Map tetra scalars onto the x/y variables of localization subsystems.

    For each registered subsystem (distinguished label kk with support S
    and chosen subset S'): the opposite-edge pattern {i,b} against four
    kk edges is the pairing scalar y(i,b); the two mirror face patterns of
    a triple {i,b,c} against three kk edges are the two halves of the
    triple scalar x(i,b,c), which only even powers of can be expressed, so
    halves must pair up inside each term.
    """

    def __init__(self, ring: FusionRing):
        self.ring = ring
        self.table = {}

    def add_subsystem(self, k, sprime):
        ring = self.ring
        loc = localization_sets(ring, k).with_chosen(sprime)
        kk, chosen, tag = loc.k, loc.chosen, loc.k_label
        unit = ring.unit_index

        def register(edges, token):
            canon = min(orbit(edges))
            self.table.setdefault(canon, token)

        for i in loc.support:
            if i == unit:
                continue
            for b in chosen:
                if b == unit:
                    continue
                a0, b0 = sorted((i, b))
                register(
                    (kk, i, kk, b, kk, kk),
                    ("y", tag, ring.labels[a0], ring.labels[b0]),
                )
        for i in loc.support:
            if i == unit:
                continue
            for b in chosen:
                for c in chosen:
                    if b == unit or c == unit:
                        continue
                    ms = tuple(sorted((i, b, c)))
                    token = ("xhalf", tag) + tuple(ring.labels[t] for t in ms)
                    register((kk, i, kk, kk, b, c), token)
                    register((c, i, b, kk, kk, kk), token)
        return self

    def atom(self, canon_idx):
        token = self.table.get(tuple(canon_idx))
        if token is None:
            labels = tuple(self.ring.labels[i] for i in canon_idx)
            raise IdmapDomainError(
                f"tetra {labels} has no localization name"
            )
        return token


# --------------------------------------------------------- term machinery


def _term_for_tetra(ring, idx, idmap):
    """Evaluate one tetra into (dim half-exponents, variable tokens) or None.

    None means the scalar vanishes (a zero face). Unit-edge tetras become
    constants recorded as -1 half-exponents on the two endpoint dimensions.
    """
    if not tetra_admissible(ring, idx):
        return None
    unit = ring.unit_index
    for e, t in enumerate(idx):
        if t == unit:
            u, v = EDGE_VERTS[e]
            pu = [idx[x] for x in FACES[u] if x != e]
            pv = [idx[x] for x in FACES[v] if x != e]
            # admissibility already forces pu[0] == pu[1], pv[0] == pv[1]
            hexp = {}
            hexp[pu[0]] = hexp.get(pu[0], 0) - 1
            hexp[pv[0]] = hexp.get(pv[0], 0) - 1
            return (hexp, [])
    canon = min(orbit(idx))
    return ({}, [idmap.atom(canon)])


def _squarefree_split(n: int):
    """n = s * m^2 with s squarefree; returns (s, m)."""
    s, m, d = 1, 1, 2
    while d * d <= n:
        cnt = 0
        while n % d == 0:
            n //= d
            cnt += 1
        if cnt:
            m *= d ** (cnt // 2)
            if cnt % 2:
                s *= d
        d += 1 if d == 2 else 2
    s *= n
    return s, m


@dataclass(frozen=True)
class TpeEquation:
    """One generated prism equation.

    ``polys`` usually holds a single polynomial; when terms split into
    classes with independent radical parts each class is its own
    polynomial. An empty tuple marks a tautology (identically satisfied).
    """

    config: tuple  # nine labels
    polys: tuple
    tautology: bool


def _assemble(ring, fp, raw_terms, symbolic):
    """Combine raw terms (sign, dim half-exponents, tokens) into polynomials.

    Integral rings evaluate dimension powers exactly, keeping square-root
    remainders as square-free radicands; symbolic rings keep dimension
    symbols d_<label> with the analogous parity split. Triple-scalar
    halves must pair up within each term.
    """
    unit = ring.unit_index
    groups = {}
    for sign, hexp, tokens in raw_terms:
        mono = {}
        halves = {}
        for tok in tokens:
            if tok[0] == "plain":
                mono[tok[1]] = mono.get(tok[1], 0) + 1
            elif tok[0] == "y":
                name = y_var_name(tok[1], tok[2], tok[3])
                mono[name] = mono.get(name, 0) + 1
            else:  # xhalf
                halves[tok] = halves.get(tok, 0) + 1
        for tok, cnt in halves.items():
            if cnt % 2:
                raise IdmapDomainError(
                    f"unpaired triple-scalar half {tok[2:]} in subsystem {tok[1]!r}"
                )
            name = x_var_name(tok[1], tok[2:])
            if cnt // 2:
                mono[name] = mono.get(name, 0) + cnt // 2

        coeff = Fraction(sign)
        if symbolic:
            radical = []
            for lab, h in sorted(hexp.items()):
                if lab == unit:
                    continue
                name = f"d_{ring.labels[lab]}"
                mono[name] = mono.get(name, 0) + (h - (h % 2)) // 2
                if h % 2:
                    radical.append(lab)
            key = tuple(radical)
        else:
            radicand = 1
            for lab, h in hexp.items():
                d = fp.dims[lab]
                coeff *= Fraction(d) ** ((h - (h % 2)) // 2)
                if h % 2:
                    radicand *= d
            s, m = _squarefree_split(radicand)
            coeff *= m
            key = s
        groups.setdefault(key, []).append((coeff, mono))

    polys = []
    for key in sorted(groups, key=str):
        terms = groups[key]
        used = sorted({name for _, mono in terms for name in mono})
        # clear negative dimension-symbol powers equation-wide
        mins = {v: 0 for v in used}
        for _, mono in terms:
            for v, p in mono.items():
                mins[v] = min(mins[v], p)
        shift = {v: -m for v, m in mins.items() if m < 0}
        acc = {}
        for coeff, mono in terms:
            exp = tuple(
                mono.get(v, 0) + shift.get(v, 0) for v in used
            )
            val = acc.get(exp, Fraction(0)) + coeff
            if val:
                acc[exp] = val
            else:
                acc.pop(exp, None)
        poly = Polynomial(tuple(used), acc, QQ, GREVLEX)
        if not poly.is_zero():
            polys.append(poly)
    return polys


_LHS_SHAPES = ((0, 1, 2, 5, 4, 3), (2, 1, 0, 8, 6, 7))
_RHS_SHAPES = (
    (8, None, 5, 0, 3, 6),
    (6, None, 3, 1, 4, 7),
    (7, None, 4, 2, 5, 8),
)
_VERTEX_TRIPLES = ((3, 0, 5), (4, 1, 3), (5, 2, 4), (8, 0, 6), (6, 1, 7), (7, 2, 8))


def _config_admissible(ring, idx, strict=True):
    _check_self_dual(ring, idx)
    for a, b, c in _VERTEX_TRIPLES:
        v = ring.N[idx[a]][idx[b]][idx[c]]
        if v > 1:
            raise MultiplicityError(
                "prism vertex triple "
                f"({ring.labels[idx[a]]},{ring.labels[idx[b]]},{ring.labels[idx[c]]}) "
                f"has multiplicity {v}"
            )
        if v == 0:
            if strict:
                raise InadmissibleConfigError(
                    "prism vertex triple "
                    f"({ring.labels[idx[a]]},{ring.labels[idx[b]]},{ring.labels[idx[c]]}) "
                    "has fusion coefficient 0"
                )
            return False
    return True


def tpe_equation(
    ring: FusionRing,
    config,
    idmap=None,
    fp: FpData | None = None,
) -> TpeEquation:
    """Generate the prism equation of one nine-label configuration.

    The left side is the product of the two outer tetra scalars (present
    only when the pairing coefficient of (X2,X3;X1) is 1); the right side
    sums over the common spectrum of the three rail pairs with dimension
    coefficients. Integral rings get exact numeric dimensions; otherwise
    dimension symbols d_<label> enter the polynomial.
    """
    idx = tuple(map(ring.resolve, config))
    if len(idx) != 9:
        raise TpeError("a prism configuration needs nine labels")
    _config_admissible(ring, idx, strict=True)
    fp = fp or fpdim_data(ring)
    symbolic = not fp.integral
    idmap = idmap or SymmetricIdmap(ring)

    raw = []
    lhs_zero = ring.N[idx[1]][idx[2]][idx[0]] == 0
    if not lhs_zero:
        tetras = [
            _term_for_tetra(ring, tuple(idx[p] for p in shape), idmap)
            for shape in _LHS_SHAPES
        ]
        if all(t is not None for t in tetras):
            hexp = {}
            tokens = []
            for h, tk in tetras:
                for lab, v in h.items():
                    hexp[lab] = hexp.get(lab, 0) + v
                tokens.extend(tk)
            raw.append((1, hexp, tokens))

    r = ring.rank
    spectrum = [
        m
        for m in range(r)
        if ring.N[idx[3]][idx[6]][m]
        and ring.N[idx[4]][idx[7]][m]
        and ring.N[idx[5]][idx[8]][m]
    ]
    for m in spectrum:
        tetras = []
        dead = False
        for shape in _RHS_SHAPES:
            edges = tuple(m if p is None else idx[p] for p in shape)
            t = _term_for_tetra(ring, edges, idmap)
            if t is None:
                dead = True
                break
            tetras.append(t)
        if dead:
            continue
        hexp = {m: 2}  # the dimension coefficient d_m
        tokens = []
        for h, tk in tetras:
            for lab, v in h.items():
                hexp[lab] = hexp.get(lab, 0) + v
            tokens.extend(tk)
        raw.append((-1, hexp, tokens))

    polys = _assemble(ring, fp, raw, symbolic)
    labels = tuple(ring.labels[i] for i in idx)
    return TpeEquation(config=labels, polys=tuple(polys), tautology=not polys)


_C3 = (1, 2, 0, 4, 5, 3, 7, 8, 6)


def _rotate(cfg):
    return tuple(cfg[i] for i in _C3)


@dataclass(frozen=True)
class TpeSystem:
    variables: tuple
    equations: tuple  # TpeEquation, canonical configurations only
    polys: tuple  # deduplicated, over the shared variable tuple


def merge_equations(equations) -> TpeSystem:
    """Merge prism equations into one system over their sorted joint variables.

    A polynomial equal to an earlier one (up to normalization) is dropped,
    and so is an equation left with none, tautologies included; the rest
    keep their first-seen order.
    """
    kept = []
    seen = set()
    polys = []
    for eq in equations:
        fresh = []
        for p in eq.polys:
            key = frozenset(p.monic().terms.items()), p.vars
            if key in seen:
                continue
            seen.add(key)
            fresh.append(p)
        if fresh:
            kept.append(eq)
            polys.extend(fresh)
    allvars = tuple(sorted({v for p in polys for v in p.vars}))
    if len(allvars) > MAX_VARS:
        raise TpeError(
            f"prism system has {len(allvars)} variables; at most {MAX_VARS} supported"
        )
    merged = tuple(p.rename(allvars) for p in polys)
    return TpeSystem(variables=allvars, equations=tuple(kept), polys=merged)


def tpe_system(ring: FusionRing, labels) -> TpeSystem:
    """All prism equations with labels in a subset, deduplicated.

    Configurations are canonicalized under the simultaneous rotation of
    the three prism layers and merged by :func:`merge_equations`. Tetra
    scalars are named by ``SymmetricIdmap``, and the ring's ``fpdim_data``
    is computed once for every equation.
    """
    idx_pool = sorted(map(ring.resolve, labels))
    _check_self_dual(ring, idx_pool)
    fp = fpdim_data(ring)
    idmap = SymmetricIdmap(ring)
    canon = dict.fromkeys(  # canonical configurations, in first-seen order
        min(cfg, _rotate(cfg), _rotate(_rotate(cfg)))
        for cfg in itertools.product(idx_pool, repeat=9)
    )
    return merge_equations(
        tpe_equation(ring, cfg, idmap=idmap, fp=fp)
        for cfg in canon
        if _config_admissible(ring, cfg, strict=False)
    )


def localization_idmap(ring: FusionRing, k, sprime, l=None, sprime_l=None):
    """Identification map naming tetra scalars by localization variables.

    A second subsystem l needs its chosen subset sprime_l, and sprime_l
    needs l: either one alone raises ``TpeError``.
    """
    if l is None and sprime_l is not None:
        raise TpeError("a chosen subset for a second subsystem needs its label")
    idmap = LocalizationIdmap(ring).add_subsystem(k, sprime)
    if l is not None:
        if sprime_l is None:
            raise TpeError("second subsystem needs its chosen subset")
        idmap.add_subsystem(l, sprime_l)
    return idmap


def localization_system(ring: FusionRing, k, sprime, l=None, sprime_l=None) -> TpeSystem:
    """The localization subsystem of k as prism equations on the chosen subset sprime.

    Every triple (a, b, c) of sprime gives the configurations
    (a, b, c, k, k, k, k, k, k) and (k, k, a, b, k, k, c, k, k); a second
    subsystem l (with its chosen subset sprime_l) adds the linking
    configuration (k, k, l, k, l, l, k, l, l). Tetra scalars are named by
    :func:`localization_idmap` and the equations merged by
    :func:`merge_equations`.
    """
    idmap = localization_idmap(ring, k, sprime, l, sprime_l)
    fp = fpdim_data(ring)
    configs = []
    for a, b, c in itertools.product(sprime, repeat=3):
        configs.append((a, b, c, k, k, k, k, k, k))
        configs.append((k, k, a, b, k, k, c, k, k))
    if l is not None:
        configs.append((k, k, l, k, l, l, k, l, l))
    return merge_equations(tpe_equation(ring, cfg, idmap=idmap, fp=fp) for cfg in configs)

"""Pentagon-spectrum categorification obstructions.

Implements the zero-spectrum and one-spectrum tests: exhaustive, pruned
searches for index tuples (i1..i9, plus i0 for the one-spectrum case) that
force a pentagon instance of the form "product of nonzero scalars equals
zero". All checks are exact integer arithmetic on the fusion coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .rings import FusionRing

ZERO = "zero"
ONE = "one"


@dataclass(frozen=True)
class SpectrumSet:
    """Simple labels surviving the three fusion-support conditions."""

    indices: tuple
    labels: tuple

    def __len__(self):
        return len(self.indices)

    def __contains__(self, idx):
        return idx in self.indices


@dataclass(frozen=True)
class CriterionWitness:
    """A verified obstruction witness, reported by labels.

    ``routes`` records, for each OR-condition of the criterion, the first
    disjunct (1-based) that held. ``premises`` holds the six verified
    nonzero fusion coefficients keyed by a readable name.
    """

    kind: str
    nonet: tuple  # labels of i1..i9
    spectrum_label: str | None  # the unique element for the one-spectrum kind
    premises: tuple  # ((name, value), ...)
    routes: tuple  # ((or-group name, route index), ...)

    def as_dict(self):
        return {
            "kind": self.kind,
            "nonet": {f"i{j}": lab for j, lab in enumerate(self.nonet, start=1)},
            "spectrum_element": self.spectrum_label,
            "premises": {k: v for k, v in self.premises},
            "routes": {k: v for k, v in self.routes},
        }


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    reason: str
    witness: CriterionWitness | None = None


class _Tables:
    """Precomputed support structures for fast pruning.

    row_mask[i][j]: bitmask over k of N[i][j][k] > 0.
    first_support[j][k]: sorted list of i with N[i][j][k] > 0.
    second_support[i][k]: sorted list of j with N[i][j][k] > 0.
    """

    def __init__(self, ring: FusionRing):
        r = ring.rank
        N = ring.N
        self.N = N
        self.star = ring.star
        self.row_mask = [
            [sum(1 << k for k in range(r) if N[i][j][k]) for j in range(r)]
            for i in range(r)
        ]
        self.row_support = [
            [[k for k in range(r) if N[i][j][k]] for j in range(r)]
            for i in range(r)
        ]
        self.first_support = [
            [[i for i in range(r) if N[i][j][k]] for k in range(r)]
            for j in range(r)
        ]
        self.second_support = [
            [[j for j in range(r) if N[i][j][k]] for k in range(r)]
            for i in range(r)
        ]


@lru_cache(maxsize=16)
def _tables(ring: FusionRing) -> _Tables:
    return _Tables(ring)


def pe_spectrum(ring: FusionRing, i4, i5, i6, i7, i8, i9) -> SpectrumSet:
    """Spectrum of the pentagon instance fixed by (i4..i9); exact, no tolerance."""
    N = ring.N
    star = ring.star
    r = ring.rank
    idx = tuple(
        k
        for k in range(r)
        if N[i4][i7][k] and N[star[i5]][i8][k] and N[i6][star[i9]][k]
    )
    return SpectrumSet(indices=idx, labels=tuple(ring.labels[k] for k in idx))


def _dot(ring, a, b, c, d) -> int:
    """sum_m N[a][b][m] * N[c][d][m]."""
    Na = ring.N[a][b]
    Nc = ring.N[c][d]
    return sum(x * y for x, y in zip(Na, Nc))


_PREMISES = (
    ("i4", "i1", "i6"),
    ("i5", "i4", "i2"),
    ("i5", "i6", "i3"),
    ("i7", "i9", "i1"),
    ("i2", "i7", "i8"),
    ("i8", "i9", "i3"),
)


def _premise_values(ring, ix):
    out = []
    for a, b, c in _PREMISES:
        v = ring.N[ix[a]][ix[b]][ix[c]]
        out.append((f"N({a},{b};{c})", v))
    return out


def _or_group(ring, star, triples):
    """Return the first 1-based route whose sum equals 1, else None."""
    for route, (a, b, c, d) in enumerate(triples, start=1):
        if _dot(ring, a, b, c, d) == 1:
            return route
    return None


def zero_witness_check(ring: FusionRing, nonet) -> CheckResult:
    """Verify the zero-spectrum conditions on a nonet of indices or labels."""
    ix = _resolve_nonet(ring, nonet)
    star = ring.star
    prem = _premise_values(ring, ix)
    for name, v in prem:
        if v == 0:
            return CheckResult(False, f"premise {name} = 0")
    i1, i2, i3, i4, i5, i6, i7, i8, i9 = (ix[f"i{j}"] for j in range(1, 10))
    spec = pe_spectrum(ring, i4, i5, i6, i7, i8, i9)
    if len(spec):
        return CheckResult(False, f"spectrum not empty: {list(spec.labels)}")
    if ring.N[i2][i1][i3] != 1:
        return CheckResult(
            False, f"pair coefficient N(i2,i1;i3) = {ring.N[i2][i1][i3]} != 1"
        )
    r1 = _or_group(
        ring, star,
        [
            (i5, i4, i3, star[i1]),
            (i2, star[i4], i3, star[i6]),
            (star[i5], i2, i6, star[i1]),
        ],
    )
    if r1 is None:
        return CheckResult(False, "first one-dimensionality condition fails")
    r2 = _or_group(
        ring, star,
        [
            (i2, i7, i3, star[i9]),
            (i8, star[i7], i3, star[i1]),
            (star[i2], i8, i1, star[i9]),
        ],
    )
    if r2 is None:
        return CheckResult(False, "second one-dimensionality condition fails")
    witness = CriterionWitness(
        kind=ZERO,
        nonet=tuple(ring.labels[ix[f"i{j}"]] for j in range(1, 10)),
        spectrum_label=None,
        premises=tuple(prem),
        routes=(("lhs-fsymbol-1", r1), ("lhs-fsymbol-2", r2)),
    )
    return CheckResult(True, "", witness)


def one_witness_check(ring: FusionRing, nonet, i0) -> CheckResult:
    """Verify the one-spectrum conditions on (nonet, i0)."""
    ix = _resolve_nonet(ring, nonet)
    i0 = ring.resolve(i0)
    star = ring.star
    prem = _premise_values(ring, ix)
    for name, v in prem:
        if v == 0:
            return CheckResult(False, f"premise {name} = 0")
    i1, i2, i3, i4, i5, i6, i7, i8, i9 = (ix[f"i{j}"] for j in range(1, 10))
    spec = pe_spectrum(ring, i4, i5, i6, i7, i8, i9)
    if spec.indices != (i0,):
        return CheckResult(
            False, f"spectrum is {list(spec.labels)}, not exactly the given element"
        )
    if not (
        ring.N[i4][i7][i0] == 1
        and ring.N[star[i5]][i8][i0] == 1
        and ring.N[i6][star[i9]][i0] == 1
    ):
        return CheckResult(False, "spectrum multiplicities are not all 1")
    if ring.N[i2][i1][i3] != 0:
        return CheckResult(
            False, f"pair coefficient N(i2,i1;i3) = {ring.N[i2][i1][i3]} != 0"
        )
    groups = [
        ("rhs-fsymbol-1", [
            (i5, i4, i8, star[i7]),
            (i2, star[i4], i8, star[i0]),
            (star[i5], i2, i0, star[i7]),
        ]),
        ("rhs-fsymbol-2", [
            (i5, i0, i3, star[i9]),
            (i8, star[i0], i3, star[i6]),
            (star[i5], i8, i6, star[i9]),
        ]),
        ("rhs-fsymbol-3", [
            (i4, i7, i6, star[i9]),
            (i0, star[i7], i6, star[i1]),
            (star[i4], i0, i1, star[i9]),
        ]),
    ]
    routes = []
    for gname, triples in groups:
        route = _or_group(ring, star, triples)
        if route is None:
            return CheckResult(False, f"{gname} one-dimensionality condition fails")
        routes.append((gname, route))
    witness = CriterionWitness(
        kind=ONE,
        nonet=tuple(ring.labels[ix[f"i{j}"]] for j in range(1, 10)),
        spectrum_label=ring.labels[i0],
        premises=tuple(prem),
        routes=tuple(routes),
    )
    return CheckResult(True, "", witness)


def _resolve_nonet(ring, nonet):
    vals = list(nonet)
    if len(vals) != 9:
        raise ValueError("a nonet needs exactly nine entries")
    return {f"i{j}": ring.resolve(v) for j, v in enumerate(vals, start=1)}


def _witnesses(ring, kind):
    """Yield every passing witness, in lexicographic (i1..i9) order.

    Candidate values at each level come from the premise support lists, so
    every skipped tuple fails at least one nonzero premise (or the exact
    pair-coefficient condition). The checks are looked up as module
    globals at call time, so patching those names counts them.
    """
    tab = _tables(ring)
    r = ring.rank
    N = ring.N
    star = ring.star
    row_mask = tab.row_mask
    want_zero = kind == ZERO
    for i1, i2, i3 in itertools.product(range(r), repeat=3):
        pair = N[i2][i1][i3]
        if want_zero:
            if pair != 1:
                continue
        elif pair != 0:
            continue
        for i4 in range(r):
            sup_i5 = tab.first_support[i4][i2]  # N[i5][i4][i2] > 0
            if not sup_i5:
                continue
            sup_i6a = tab.row_support[i4][i1]  # N[i4][i1][i6] > 0
            if not sup_i6a:
                continue
            for i5 in sup_i5:
                sup_i6b = tab.second_support[i5][i3]  # N[i5][i6][i3] > 0
                for i6 in sup_i6a:
                    if i6 not in sup_i6b:
                        continue
                    for i7 in range(r):
                        sup_i9a = tab.second_support[i7][i1]  # N[i7][i9][i1]>0
                        if not sup_i9a:
                            continue
                        mask1 = row_mask[i4][i7]
                        for i8 in tab.row_support[i2][i7]:  # N[i2][i7][i8]>0
                            mask12 = mask1 & row_mask[star[i5]][i8]
                            if not want_zero and not mask12:
                                continue
                            sup_i9b = tab.second_support[i8][i3]
                            for i9 in sup_i9a:
                                if i9 not in sup_i9b:
                                    continue
                                spec_mask = mask12 & row_mask[i6][star[i9]]
                                if want_zero:
                                    if spec_mask:
                                        continue
                                    res = zero_witness_check(
                                        ring, (i1, i2, i3, i4, i5, i6, i7, i8, i9)
                                    )
                                else:
                                    if spec_mask == 0 or spec_mask & (spec_mask - 1):
                                        continue
                                    i0 = spec_mask.bit_length() - 1
                                    res = one_witness_check(
                                        ring, (i1, i2, i3, i4, i5, i6, i7, i8, i9), i0
                                    )
                                if res.passed:
                                    yield res.witness


def criterion_search(
    ring: FusionRing,
    kind: str = ZERO,
    all_witnesses: bool = False,
    # unused; kept because perfbench/probes.py passes it and changes only with the benchmark
    threads: int = 1,
):
    """Search for a criterion witness, serially and deterministically.

    Walks (i1..i9) in lexicographic order with support pruning and returns
    the first witness, or None; in ``all_witnesses`` mode, the full list in
    lexicographic order. The first-hit search stops at its witness.
    """
    if kind not in (ZERO, ONE):
        raise ValueError(f"kind must be {ZERO!r} or {ONE!r}")
    found = _witnesses(ring, kind)
    if all_witnesses:
        return list(found)
    return next(found, None)

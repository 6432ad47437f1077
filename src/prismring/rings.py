"""Fusion rings: exact structure constants, axiom checking, FP dimensions.

A fusion ring is stored as its full coefficient tensor N with
``N[i][j][k]`` the multiplicity of the k-th basis element in the product
of the i-th and j-th, unit at index 0, together with the duality
permutation derived from the unit column.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np


class RingFormatError(ValueError):
    """Malformed ring document or underivable duality."""


@dataclass(frozen=True)
class FusionRing:
    """Immutable fusion ring data; safe to share across threads."""

    name: str
    labels: tuple
    N: tuple  # rank x rank x rank nested tuples of non-negative ints
    star: tuple  # duality permutation, star[0] == 0

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def unit_index(self) -> int:
        return 0

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None

    def resolve(self, label_or_index) -> int:
        """Index of a label, or an integer index checked against the rank.

        Raises KeyError for an unknown label or an index outside the rank,
        and TypeError for anything else that is not an integer.
        """
        if isinstance(label_or_index, str):
            return self.index(label_or_index)
        i = operator.index(label_or_index)
        if not 0 <= i < self.rank:
            raise KeyError(f"index {i} out of range for rank {self.rank}")
        return i

    def n(self, i: int, j: int, k: int) -> int:
        return self.N[i][j][k]

    def matrix(self, i: int) -> np.ndarray:
        """Fusion matrix of basis element i (rows j, columns k)."""
        return np.array(self.N[i], dtype=np.int64)

    def nparray(self) -> np.ndarray:
        return np.array(self.N, dtype=np.int64)

    def is_commutative(self) -> bool:
        arr = self.nparray()
        return bool((arr == arr.transpose(1, 0, 2)).all())

    def __repr__(self):
        return f"FusionRing({self.name!r}, rank={self.rank})"


@dataclass(frozen=True)
class FpData:
    """Frobenius-Perron dimensions with exactness flag and type partition."""

    dims: tuple
    global_fpdim: object  # int when integral, float otherwise
    integral: bool
    type_partition: tuple  # ((dim, count), ...) ascending by dim

    def dim(self, i: int):
        return self.dims[i]


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""
    witness: tuple = ()
    values: tuple = ()


@dataclass
class AxiomReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                    "witness": list(c.witness),
                    "values": list(c.values),
                }
                for c in self.checks
            ],
        }


def _derive_star(N, labels):
    """Read the duality permutation off the unit column N[i][j][0]."""
    r = len(labels)
    star = []
    for i in range(r):
        hits = [j for j in range(r) if N[i][j][0] != 0]
        if len(hits) != 1 or N[i][hits[0]][0] != 1:
            raise RingFormatError(
                f"no unambiguous dual for {labels[i]!r}: unit column entries "
                f"{[(labels[j], N[i][j][0]) for j in hits]}"
            )
        star.append(hits[0])
    return tuple(star)


def build_ring(name, labels, N) -> FusionRing:
    """Validate shapes/coefficients and derive duality; axioms NOT checked."""
    labels = tuple(str(x) for x in labels)
    r = len(labels)
    if r == 0:
        raise RingFormatError("rank must be positive")
    if len(set(labels)) != r or any(not s for s in labels):
        raise RingFormatError("labels must be distinct non-empty strings")
    if len(N) != r:
        raise RingFormatError("coefficient block is not rank x rank x rank")
    tensor = []
    for block in N:
        if len(block) != r:
            raise RingFormatError("coefficient block is not rank x rank x rank")
        rows = []
        for row in block:
            if len(row) != r:
                raise RingFormatError("coefficient block is not rank x rank x rank")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise RingFormatError(f"coefficients must be non-negative ints, got {v!r}")
            rows.append(tuple(row))
        tensor.append(tuple(rows))
    tensor = tuple(tensor)
    star = _derive_star(tensor, labels)
    return FusionRing(name=name, labels=labels, N=tensor, star=star)


def parse_ring(doc) -> FusionRing:
    """Parse a ring document (JSON text or dict) into a FusionRing.

    Duality is derived here because later diagnostics need it; the axioms
    themselves are checked separately by :func:`verify_axioms` so that
    broken inputs can still be inspected.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise RingFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise RingFormatError("ring document must be a JSON object")
    missing = {"name", "rank", "labels", "N"} - set(doc)
    if missing:
        raise RingFormatError(f"ring document missing keys: {sorted(missing)}")
    ring = build_ring(doc["name"], doc["labels"], doc["N"])
    if doc["rank"] != ring.rank:
        raise RingFormatError(
            f"declared rank {doc['rank']} does not match {ring.rank} labels"
        )
    return ring


def serialize_ring(ring: FusionRing) -> str:
    """Canonical JSON document; parse(serialize(ring)) round-trips exactly."""
    doc = {
        "name": ring.name,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "N": [[list(row) for row in block] for block in ring.N],
    }
    return json.dumps(doc, indent=2) + "\n"


def verify_axioms(ring: FusionRing) -> AxiomReport:
    """Exhaustively check unit, associativity, duality, and reciprocity.

    Failures are data, not exceptions; the first offending index tuple (in
    lexicographic order) and both side values are recorded per axiom.
    """
    arr = ring.nparray()
    r = ring.rank
    report = AxiomReport()

    eye = np.eye(r, dtype=np.int64)
    left_ok = (arr[0] == eye).all()
    right_unit = arr[:, 0, :]  # N[i][0][k]
    right_ok = (right_unit == eye).all()
    if left_ok and right_ok:
        report.checks.append(AxiomCheck("unit", True))
    else:
        if not left_ok:
            bad = np.argwhere(arr[0] != eye)[0]
            j, k = map(int, bad)
            report.checks.append(
                AxiomCheck(
                    "unit", False, "N[0][j][k] != delta(j,k)",
                    (0, j, k), (int(arr[0, j, k]), int(eye[j, k])),
                )
            )
        else:
            bad = np.argwhere(right_unit != eye)[0]
            i, k = map(int, bad)
            report.checks.append(
                AxiomCheck(
                    "unit", False, "N[i][0][k] != delta(i,k)",
                    (i, 0, k), (int(arr[i, 0, k]), int(eye[i, k])),
                )
            )

    lhs = np.einsum("ijm,mkl->ijkl", arr, arr)
    rhs = np.einsum("jkm,iml->ijkl", arr, arr)
    if (lhs == rhs).all():
        report.checks.append(AxiomCheck("associativity", True))
    else:
        bad = np.argwhere(lhs != rhs)[0]
        i, j, k, l = map(int, bad)
        report.checks.append(
            AxiomCheck(
                "associativity", False,
                "sum_m N[i][j][m] N[m][k][l] != sum_m N[j][k][m] N[i][m][l]",
                (i, j, k, l), (int(lhs[i, j, k, l]), int(rhs[i, j, k, l])),
            )
        )

    star = ring.star
    dual_ok = True
    detail = ""
    witness = ()
    values = ()
    for i in range(r):
        col = arr[i, :, 0]
        expected = np.zeros(r, dtype=np.int64)
        expected[star[i]] = 1
        if not (col == expected).all():
            dual_ok = False
            j = int(np.argwhere(col != expected)[0][0])
            detail = "unit column of fusion matrix is not a single 1 at the dual"
            witness, values = (i, j, 0), (int(col[j]), int(expected[j]))
            break
    if dual_ok and star[0] != 0:
        dual_ok, detail, witness = False, "star(0) != 0", (0,)
    if dual_ok and any(star[star[i]] != i for i in range(r)):
        i = next(i for i in range(r) if star[star[i]] != i)
        dual_ok, detail, witness = False, "star is not an involution", (i,)
    report.checks.append(AxiomCheck("duality", dual_ok, detail, witness, values))

    perm = list(star)
    frob1 = arr[perm, :, :].transpose(0, 2, 1)  # N[star(i)][k][j]
    frob2 = arr[:, perm, :].transpose(2, 1, 0)  # N[k][star(j)][i]
    if (arr == frob1).all() and (arr == frob2).all():
        report.checks.append(AxiomCheck("frobenius_reciprocity", True))
    else:
        diff = arr != frob1 if not (arr == frob1).all() else arr != frob2
        bad = np.argwhere(diff)[0]
        i, j, k = map(int, bad)
        report.checks.append(
            AxiomCheck(
                "frobenius_reciprocity", False,
                "N[i][j][k] != N[star(i)][k][j] or != N[k][star(j)][i]",
                (i, j, k),
                (int(arr[i, j, k]), int(frob1[i, j, k]), int(frob2[i, j, k])),
            )
        )
    return report


class PowerIterationError(RuntimeError):
    """Perron vector iteration failed to converge within the cap."""


# power iteration of ``fpdim_data``: the cap on steps, and the relative change
# under which it has converged
_POWER_STEPS = 100_000
_POWER_TOL = 1e-12


def fpdim_data(ring: FusionRing) -> FpData:
    """Frobenius-Perron dimension vector, normalized with unit dimension 1.

    Power iteration on the (strictly positive) sum of all fusion matrices
    with the all-ones start vector; when the result rounds to integers that
    satisfy the eigen equations exactly over the integers, exact values are
    returned and the integral flag is set.
    """
    arr = ring.nparray()
    total = arr.sum(axis=0).astype(float)
    r = ring.rank
    v = np.ones(r)
    for _ in range(_POWER_STEPS):
        w = total @ v
        w = w / w[0]
        if np.max(np.abs(w - v)) < _POWER_TOL * np.max(np.abs(w)):
            v = w
            break
        v = w
    else:
        raise PowerIterationError(f"no convergence after {_POWER_STEPS} iterations")

    rounded = [int(round(x)) for x in v]
    integral = all(abs(v[i] - rounded[i]) < 1e-6 for i in range(r))
    if integral:
        mats = [ring.matrix(i).astype(object) for i in range(r)]
        d = np.array(rounded, dtype=object)
        integral = all((mats[i] @ d == rounded[i] * d).all() for i in range(r))
    if integral:
        dims = tuple(rounded)
        global_fpdim = sum(x * x for x in rounded)
    else:
        dims = tuple(float(x) for x in v)
        global_fpdim = float(sum(x * x for x in v))

    counts = {}
    for x in dims:
        key = x if integral else round(x, 9)
        counts[key] = counts.get(key, 0) + 1
    partition = tuple(sorted((dim, cnt) for dim, cnt in counts.items()))
    return FpData(
        dims=dims, global_fpdim=global_fpdim, integral=integral,
        type_partition=partition,
    )

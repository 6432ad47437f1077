"""Character tables of commutative fusion rings and lifting predicates.

Tables are numerical (double precision) with a residual certificate: the
downstream predicates only need zero/nonzero decisions and exact prime
divisibility of integer dimensions, so certified floats suffice and keep
the implementation free of algebraic-number machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import FusionRing, FpData, fpdim_data

CHARTAB_SEED = 57721566
DEFAULT_TOL = 1e-9
DEFAULT_ZERO_TOL = 1e-6
_MAX_RESEEDS = 12


class NotCommutativeError(ValueError):
    """Character tables require a commutative fusion ring."""


class DegenerateCombinationError(RuntimeError):
    """No random combination separated the joint eigenspaces within tol."""


@dataclass(frozen=True)
class CharacterTable:
    """values[i][j] is the eigenvalue of the i-th fusion matrix on column j.

    Column 0 is the Perron column (the FP-dimension character); remaining
    columns are sorted by their rounded entries for determinism. residual
    bounds max_i |M_i u_j - values[i][j] u_j| over all columns.
    """

    values: tuple  # rank x rank complex numbers, row-major
    residual: float
    seed: int

    @property
    def rank(self) -> int:
        return len(self.values)

    def column(self, j: int):
        return tuple(self.values[i][j] for i in range(self.rank))

    def row(self, i: int):
        return tuple(self.values[i])


def character_table(ring: FusionRing, tol: float = DEFAULT_TOL) -> CharacterTable:
    """Simultaneous eigenvalue table via a seeded generic combination.

    Eigenvectors of sum_i c_i M_i (c_i from a fixed seeded generator) are
    rescaled so the unit row equals 1; each rescaled eigenvector is then
    itself the column of eigenvalues. Columns: Perron first, the rest
    sorted lexicographically by rounded (real, imag) parts. Retries with
    fresh seeds when the residual exceeds tol.
    """
    if not ring.is_commutative():
        raise NotCommutativeError(f"{ring.name} is not commutative")
    r = ring.rank
    mats = [ring.matrix(i).astype(float) for i in range(r)]
    last_residual = None
    for attempt in range(_MAX_RESEEDS):
        seed = CHARTAB_SEED + attempt
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(1.0, 2.0, size=r)
        combo = sum(c * m for c, m in zip(coeffs, mats))
        _, vecs = np.linalg.eig(combo)
        cols = []
        ok = True
        for j in range(r):
            v = vecs[:, j]
            if abs(v[0]) < 1e-12:
                ok = False
                break
            u = v / v[0]
            res = max(
                float(np.linalg.norm(mats[i] @ u - u[i] * u)) for i in range(r)
            )
            cols.append((u, res))
        if not ok:
            continue
        residual = max(res for _, res in cols)
        last_residual = residual
        if residual > tol:
            continue
        vec_list = [u for u, _ in cols]
        perron = max(range(r), key=lambda j: float(np.real(np.sum(vec_list[j]))))
        rest = [j for j in range(r) if j != perron]
        rest.sort(
            key=lambda j: tuple(
                (round(float(np.real(x)), 9), round(float(np.imag(x)), 9))
                for x in vec_list[j]
            )
        )
        ordered = [perron] + rest
        values = tuple(
            tuple(complex(vec_list[j][i]) for j in ordered) for i in range(r)
        )
        return CharacterTable(values=values, residual=residual, seed=seed)
    raise DegenerateCombinationError(
        f"residual stayed above tol={tol} after {_MAX_RESEEDS} reseeds"
        + (f" (best {last_residual:.3e})" if last_residual is not None else "")
    )


def column_zero_property(table: CharacterTable) -> bool:
    """True iff every non-Perron column has an entry of modulus below
    ``DEFAULT_ZERO_TOL``."""
    r = table.rank
    for j in range(1, r):
        if not any(abs(table.values[i][j]) < DEFAULT_ZERO_TOL for i in range(r)):
            return False
    return True


NO_POSITIVE_CHAR_PIVOTAL = "no-positive-char-pivotal-categorification"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LiftingVerdict:
    column_zero_ok: bool
    prime_cover_ok: bool
    prime_witnesses: tuple  # ((prime, witness label), ...)
    char0_excluded: bool
    conclusion: str


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def lifting_verdict(
    ring: FusionRing,
    table: CharacterTable,
    char0_excluded: bool,
    fp: FpData | None = None,
) -> LiftingVerdict:
    """Positive-characteristic exclusion test for pivotal categorifications.

    Requires an integral ring. The verdict is the exclusion iff every
    non-Perron character column vanishes somewhere, every prime factor of
    the global FP dimension divides some simple dimension, and the caller
    asserts the characteristic-zero exclusion.
    """
    fp = fp or fpdim_data(ring)
    if not fp.integral:
        raise ValueError("lifting test needs an integral fusion ring")
    col_ok = column_zero_property(table)
    witnesses = []
    cover_ok = True
    for p in _prime_factors(int(fp.global_fpdim)):
        hit = next(
            (ring.labels[i] for i in range(ring.rank) if fp.dims[i] % p == 0), None
        )
        if hit is None:
            cover_ok = False
            witnesses.append((p, None))
        else:
            witnesses.append((p, hit))
    concl = (
        NO_POSITIVE_CHAR_PIVOTAL
        if (col_ok and cover_ok and char0_excluded)
        else INCONCLUSIVE
    )
    return LiftingVerdict(
        column_zero_ok=col_ok,
        prime_cover_ok=cover_ok,
        prime_witnesses=tuple(witnesses),
        char0_excluded=char0_excluded,
        conclusion=concl,
    )

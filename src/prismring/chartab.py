"""Character tables of commutative fusion rings and lifting predicates.

Tables are numerical (double precision) with a residual certificate, for
display and for the Perron column. The lifting predicates are exact: the
column-zero property is an integer rank test over the rationals on the
fusion matrices, and the prime cover reads the integer dimensions, so no
algebraic-number machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rings import FusionRing, factorize, fpdim_data

CHARTAB_SEED = 57721566
DEFAULT_TOL = 1e-9
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
    bounds max_i |M_i u_j - values[i][j] u_j| over all columns. ring is the
    ring whose fusion matrices M_i the table diagonalizes.
    """

    values: tuple  # rank x rank complex numbers, row-major
    residual: float
    seed: int
    ring: FusionRing

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
        return CharacterTable(values=values, residual=residual, seed=seed, ring=ring)
    raise DegenerateCombinationError(
        f"residual stayed above tol={tol} after {_MAX_RESEEDS} reseeds"
        + (f" (best {last_residual:.3e})" if last_residual is not None else "")
    )


def _rref(rows, width):
    """Reduced row echelon form over Q: the nonzero rows and their pivot columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    done, pivots = [], []
    for c in range(width):
        k = next((k for k, row in enumerate(rows) if row[c]), None)
        if k is None:
            continue
        piv = rows.pop(k)
        piv = [x / piv[c] for x in piv]
        rows, done = (
            [[a - row[c] * b for a, b in zip(row, piv)] for row in part]
            for part in (rows, done)
        )
        done.append(piv)
        pivots.append(c)
    return done, pivots


def _kernel(rows, width):
    """A basis of {u : rows @ u = 0} over Q, one vector per free column."""
    done, pivots = _rref(rows, width)
    basis = []
    for f in range(width):
        if f not in pivots:
            u = [Fraction(int(j == f)) for j in range(width)]
            for row, c in zip(done, pivots):
                u[c] = -row[f]
            basis.append(u)
    return basis


def column_zero_property(table: CharacterTable) -> bool:
    """True iff every non-Perron character vanishes at some basis element.

    Exact: the column u_j of the table lies in ker M_i exactly when it
    vanishes at i, and the columns are a common eigenbasis, so
    sum_i ker M_i is spanned by the columns that vanish somewhere. The
    Perron column never vanishes, so the property is
    dim_Q sum_i ker M_i = rank - 1, decided by elimination over Q.
    """
    ring, r = table.ring, table.rank
    kernels = [u for i in range(r) for u in _kernel(ring.N[i], r)]
    return len(_rref(kernels, r)[0]) == r - 1


NO_POSITIVE_CHAR_PIVOTAL = "no-positive-char-pivotal-categorification"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LiftingVerdict:
    column_zero_ok: bool
    prime_cover_ok: bool
    prime_witnesses: tuple  # ((prime, witness label), ...)
    char0_excluded: bool
    conclusion: str


def lifting_verdict(ring: FusionRing, table: CharacterTable,
                    char0_excluded: bool) -> LiftingVerdict:
    """Positive-characteristic exclusion test for pivotal categorifications.

    Requires an integral ring; its dimensions come from the memoized
    ``fpdim_data``. The verdict is the exclusion iff every
    non-Perron character column vanishes somewhere, every prime factor of
    the global FP dimension divides some simple dimension, and the caller
    asserts the characteristic-zero exclusion.
    """
    fp = fpdim_data(ring)
    if not fp.integral:
        raise ValueError("lifting test needs an integral fusion ring")
    col_ok = column_zero_property(table)
    witnesses = []
    cover_ok = True
    for p in factorize(fp.global_fpdim):
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

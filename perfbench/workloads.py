"""The benchmark workloads: inputs from a seed, timed passes, pinned outputs.

A workload is a list of passes. One cycle runs every pass once; a run
repeats cycles until its time is up. ``run`` is the only timed call and
goes through prismring's public functions, looked up on their modules at
call time so that a traced run sees them. ``check`` turns a result into a
record of plain values and raises :class:`Mismatch` when an output differs
from its pinned value or from the first cycle of the same run.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from prismring import groebner, localizer, tpegen
from prismring.catalog import catalog
from prismring.fields import GF
from prismring.poly import Polynomial, parse_polynomial

from program import Mismatch

GF11 = GF(11)
GF_SMALL = GF(32003)
K, L = "5_1", "5_3"


def digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()[:16]


def expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


class Workload:
    """Subclasses take the seed as their only constructor argument."""

    name = ""
    rings: tuple = ()  # catalog rings loaded in set-up

    def passes(self) -> int:
        return 1

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> dict:
        raise NotImplementedError

    def input_digest(self) -> str:
        """Identifies the inputs; exact counters must repeat for equal inputs."""
        return "fixed"

    def counters(self, records: list) -> dict:
        """Exact counters of one cycle, from its check records."""
        return dict(records[0])

    def final_checks(self):
        """Checks that run once, after the timed cycles."""


# ------------------------------------------------------------- f210-gf11

# two_parallel(F210, 5_1, 5_3) over GF(11): 23 polynomials in the final basis
GF11_FINAL_DIGEST = "0e3c0d90ee1e3817"
GF11_FINAL_SIZE = 23


class F210Gf11(Workload):
    """One fixed input: the seed is not used."""

    name = "f210-gf11"
    rings = ("F210",)

    def __init__(self, seed):
        self.ring = catalog("F210")

    def run(self, i):
        return localizer.two_parallel(self.ring, K, L, field=GF11)

    def check(self, i, rep):
        expect(rep.verdict == localizer.NOT_EXCLUDED, f"verdict {rep.verdict}")
        expect(
            len(rep.final_basis) == GF11_FINAL_SIZE
            and digest(rep.final_basis) == GF11_FINAL_DIGEST,
            "final basis differs from the pinned one",
        )
        return {
            "gb_k_size": rep.gb_k_size,
            "gb_l_size": rep.gb_l_size,
            "final_size": len(rep.final_basis),
        }


# ------------------------------------------------------------ small-bases

_XY = ("x", "y")
_XYZ = ("x", "y", "z")
CRITERION7_SYSTEMS = (
    (_XY, ("x + 1", "x^2")),
    (_XY, ("x^2 + y^2 - 1", "x - y")),
    (("d",), ("d^2 - d - 1",)),
    (_XYZ, ("x*y - z", "y*z - x", "z*x - y")),
    (_XYZ, ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1")),
)
PRISM_SYSTEMS = (
    ("Fib", ("1", "tau")),
    ("RepS3", ("1", "t")),
    ("RepS3", ("1", "s", "t")),
    ("F210", ("1", "5_1")),
)
# digest of (QQ basis, GF(32003) basis) for each fixed system, in order
FIXED_DIGESTS = (
    "725f638652aac023",
    "839450aa2a135ca3",
    "37df2177c1482f4c",
    "d92d71dfba7a44e9",
    "6a300d78b8a009a0",
    "bc6af63bbe0b8302",
    "1c15efa5d6f90b8f",
    "d135bb441c59adb4",
    "e2be9f3344367701",
)
RANDOM_SYSTEMS = 240
SHAPE_SEED = 2203  # fixes the supports of the random systems; --seed draws coefficients
SELF_CHECK_EVERY = 8  # self_check the fixed systems and every 8th random one
COEFFS = tuple(c for c in range(-9, 10) if c)


def random_shapes():
    """(n, supports): n polynomials in n variables, degree <= 2.

    2..5 variables and 2..4 terms per polynomial, in equal shares. Fixing
    the supports keeps the work of the median system nearly seed-free;
    with seeded supports it moved by 16 % between seeds.
    """
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for j in range(RANDOM_SYSTEMS):
        n, terms = 2 + j % 4, 2 + (j // 4) % 3
        monos = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
        shapes.append((n, [rng.sample(monos, terms) for _ in range(n)]))
    return shapes


def random_system(rng: random.Random, n: int, supports):
    names = tuple(f"x{j}" for j in range(n))
    return [Polynomial(names, {m: rng.choice(COEFFS) for m in sup}) for sup in supports]


def fixed_systems():
    out = [[parse_polynomial(t, names) for t in texts] for names, texts in CRITERION7_SYSTEMS]
    for ring, labels in PRISM_SYSTEMS:
        out.append(list(tpegen.tpe_system(catalog(ring), labels).polys))
    return out


class SmallBases(Workload):
    name = "small-bases"
    rings = ("Fib", "RepS3", "F210")

    def __init__(self, seed):
        rng = random.Random(seed)
        self.systems = fixed_systems()
        self.nfixed = len(self.systems)
        self.systems += [random_system(rng, n, sup) for n, sup in random_shapes()]
        self.first = {}
        self.sample = {}

    def passes(self):
        return len(self.systems)

    def input_digest(self):
        return digest(str(p) for s in self.systems for p in s)

    def run(self, i):
        polys = self.systems[i]
        return (
            groebner.buchberger(polys),
            groebner.buchberger(groebner.specialize(GF_SMALL, polys), field=GF_SMALL),
        )

    def check(self, i, result):
        gb_qq, gb_gf = result
        out = tuple(map(str, gb_qq)) + ("|",) + tuple(map(str, gb_gf))
        if i < self.nfixed:
            expect(digest(out) == FIXED_DIGESTS[i], f"fixed system {i} basis differs")
        expect(self.first.setdefault(i, out) == out, f"system {i} basis changed between cycles")
        if (i < self.nfixed or (i - self.nfixed) % SELF_CHECK_EVERY == 0) and i not in self.sample:
            self.sample[i] = result
        return {
            "out": digest(out),
            "spairs": gb_qq.stats["spairs"] + gb_gf.stats["spairs"],
            "term_ops": gb_qq.stats["term_ops"] + gb_gf.stats["term_ops"],
            "direct": int(gb_qq.stats.get("mode") == "direct"),
        }

    def counters(self, records):
        return {
            "results_digest": digest(r["out"] for r in records),
            "spairs": sum(r["spairs"] for r in records),
            "term_ops": sum(r["term_ops"] for r in records),
            "qq_direct": sum(r["direct"] for r in records),
        }

    def final_checks(self):
        for i, pair in sorted(self.sample.items()):
            for gb in pair:
                try:
                    gb.self_check()
                except AssertionError as exc:
                    raise Mismatch(f"system {i}: self_check failed: {exc}") from exc


WORKLOADS = {w.name: w for w in (SmallBases, F210Gf11)}

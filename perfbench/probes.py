"""Fixed layer probes for traced runs: the same calls whatever the workload.

Each probe times public calls on fixed inputs and checks their outputs, so
its numbers compare across workloads and commits and are never zero. The
spectra, tpegen and chartab layers are measured only here.
"""

from __future__ import annotations

import statistics
import time

from prismring import chartab, groebner, localizer, spectra, tpegen
from prismring.catalog import catalog
from prismring.fields import GF

import spans
import workloads as wl

GFP_PROBE_PRIME = 1073741789  # the first prime of the modular pipeline
SPRIME_K = ("1", wl.K, wl.L)
# reduced basis of E_k = generate_Ek(F210, 5_1, {1, 5_1, 5_3}) over QQ
EK_QQ_DIGEST = "dac1be7915e10c57"
EK_QQ_SIZE = 31
EK_SOLUTIONS = 14
REPEAT_S = 0.5  # how long the short probes repeat their call


def _timed(call):
    t0 = time.perf_counter()
    result = call()
    return time.perf_counter() - t0, result


def _median_time(call, seconds=REPEAT_S):
    times = []
    stop = time.perf_counter() + seconds
    while not times or time.perf_counter() < stop:
        times.append(_timed(call)[0])
    return statistics.median(times)


def check_ek_basis(gb):
    wl.expect(
        len(gb) == EK_QQ_SIZE and wl.digest(map(str, gb)) == EK_QQ_DIGEST,
        "E_k basis differs from the pinned one",
    )
    wl.expect(gb.quotient_dimension() == EK_SOLUTIONS, "E_k solution count")


def groebner_probes():
    """One GF(p) basis of E_k, and the QQ basis of E_k against its primes."""
    ek = list(localizer.generate_Ek(catalog("F210"), wl.K, SPRIME_K).polys)

    field = GF(GFP_PROBE_PRIME)
    gfp_s, gfp = _timed(lambda: groebner.buchberger(groebner.specialize(field, ek), field=field))
    qq_s, qq = _timed(lambda: groebner.buchberger(ek))
    check_ek_basis(qq)
    primes = len(qq.stats.get("primes", ()))

    systems = wl.fixed_systems()

    def small_calls():
        for polys in systems:
            groebner.buchberger(polys)
            groebner.buchberger(groebner.specialize(wl.GF_SMALL, polys), field=wl.GF_SMALL)

    small_ms = _median_time(small_calls) / (2 * len(systems)) * 1e3
    return {
        "groebner.gfp_run_s": (gfp_s, "s"),
        "groebner.gfp_run.spairs": (gfp.stats["spairs"], "count"),
        "groebner.gfp_run.term_ops": (gfp.stats["term_ops"], "count"),
        "groebner.term_ops_per_s": (gfp.stats["term_ops"] / gfp_s, "1/s"),
        "groebner.qq_run_s": (qq_s, "s"),
        "groebner.qq_run.primes": (primes, "count"),
        # the QQ basis minus one GF(p) run per prime it used
        "groebner.modular_overhead_s": (qq_s - primes * gfp_s, "s"),
        "groebner.small.per_call_ms": (small_ms, "ms"),
    }


# (ring, kind) -> (witness count, first nonet), all witnesses, one thread
SEARCH_PINS = {
    ("F660", "zero"): (24, ("b2", "b4", "b5", "b2", "b2", "b4", "b5", "b3", "b3")),
    ("F660", "one"): (24, ("b2", "b4", "b4", "b2", "b2", "b5", "b5", "b3", "b3")),
    ("F210", "zero"): (0, None),
    ("F210", "one"): (0, None),
}
# every 3-label set containing the unit whose prism system exists, with its
# equation count (Fib has two labels; F660's sets are not self-dual or not
# multiplicity-free)
TPE_PINS = {
    ("Ising", ("1", "eps", "sigma")): 8,
    ("RepS3", ("1", "s", "t")): 14,
    ("F210", ("1", "5_1", "5_2")): 27,
    ("F210", ("1", "5_1", "5_3")): 27,
    ("F210", ("1", "5_1", "6_1")): 27,
    ("F210", ("1", "5_2", "5_3")): 27,
    ("F210", ("1", "5_2", "6_1")): 27,
    ("F210", ("1", "5_3", "6_1")): 27,
}
F210_DIMS = (1, 5, 5, 5, 6, 7, 7)
F210_PRIME_WITNESSES = ((2, "6_1"), (3, "6_1"), (5, "5_1"), (7, "7_1"))


def spectra_probes():
    """The four criteria searches, one thread, with their witness checks counted."""
    rings = {r: catalog(r) for r in ("F660", "F210")}
    out = {}
    with spans.Tracer() as tracer:
        tracer.count(spectra, "zero_witness_check", "checks")
        tracer.count(spectra, "one_witness_check", "checks")
        witnesses = 0
        for (ring, kind), (count, first) in SEARCH_PINS.items():
            secs, found = _timed(
                lambda r=rings[ring], k=kind: spectra.criterion_search(
                    r, k, all_witnesses=True, threads=1
                )
            )
            wl.expect(len(found) == count, f"{ring} {kind}: {len(found)} witnesses")
            wl.expect(not found or found[0].nonet == first, f"{ring} {kind}: first nonet")
            witnesses += count
            out[f"spectra.search_s.{ring}.{kind}"] = (secs, "s")
    checks = tracer.counts["checks"]
    threads2_s = _timed(
        lambda: spectra.criterion_search(rings["F660"], "zero", all_witnesses=True, threads=2)
    )[0]
    out["spectra.checks"] = (checks, "count")
    out["spectra.witness_yield"] = (witnesses / checks, "ratio")
    out["spectra.threads2_over_threads1"] = (threads2_s / out["spectra.search_s.F660.zero"][0], "ratio")
    return out


def other_probes():
    """Localizer generation, prism systems and the character table."""
    f210 = catalog("F210")
    out = {
        "localizer.generate_s": (_median_time(lambda: (
            localizer.generate_Ek(f210, wl.K, SPRIME_K),
            localizer.generate_Ek(f210, wl.L, ("1", "5_2", wl.L)),
            localizer.extra_link(f210, wl.K, wl.L),
        )), "s"),
    }
    system_s, equations = 0.0, 0
    for (ring, labels), count in TPE_PINS.items():
        secs, system = _timed(lambda r=catalog(ring), lab=labels: tpegen.tpe_system(r, lab))
        wl.expect(len(system.polys) == count, f"{ring} {labels}: {len(system.polys)} equations")
        system_s += secs
        equations += count
    out["tpegen.system_s"] = (system_s, "s")
    out["tpegen.equations"] = (equations, "count")

    table = chartab.character_table(f210)
    verdict = chartab.lifting_verdict(f210, table, char0_excluded=True)
    wl.expect(table.residual < 1e-8, "character table residual")
    wl.expect(
        all(abs(x - d) < 1e-8 for x, d in zip(table.column(0), F210_DIMS)), "Perron column"
    )
    wl.expect(
        verdict.conclusion == chartab.NO_POSITIVE_CHAR_PIVOTAL
        and verdict.prime_witnesses == F210_PRIME_WITNESSES,
        "lifting verdict",
    )
    out["chartab.table_s"] = (_median_time(lambda: chartab.character_table(f210)), "s")
    return out

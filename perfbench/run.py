"""Prismring benchmark: time to verdict per workload, measured from outside.

Run from the root of the repository:

    python3 perfbench/run.py --workload f210-gf11 --seed 1 --seconds 10 --trace 0

One client in one process runs the workload as a closed loop: a pass
starts when the previous one has ended. With ``--trace 0`` the run repeats
whole cycles of the workload until ``--seconds`` have passed (at least one
cycle) and reports the end-to-end metrics, with pass times at the host's
reference speed (see ``speed.py``). With ``--trace 1`` it runs one
untraced cycle, one traced cycle and the fixed layer probes, and reports
the per-layer metrics. Every output is checked; a wrong output or an
exception counts as a failed pass. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exact counters (S-pairs, term ops, primes, witness checks, ...) of every
cycle must repeat. They are also kept per source tree and input in
``.perfbench_state/`` at the repository root, and a later run on the same
code and input that reads different counters counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
from program import PACKAGE, ROOT, load_prismring

HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench_state" / "counters.json"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60


class Tally:
    """Attempted and failed passes and checks of one run; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str):
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def require(self, ok: bool, what: str):
        """A check on the whole run counts as one more attempt."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def guarded(self, what: str, call):
        """Run a check or probe as one attempt; any exception is a failure."""
        self.attempted += 1
        try:
            return call()
        except Exception as exc:  # a failure is counted, not fatal
            traceback.print_exc()
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None


def run_cycle(work, tally, clock=None):
    """Run and check every pass once; the cycle's counters, or None on failure.

    ``clock`` receives (wall start, wall end, cpu start, cpu end) of each pass.
    """
    records = []
    for i in range(work.passes()):

        def timed_pass():
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                return work.run(i)
            finally:
                if clock is not None:
                    clock.append((w0, time.perf_counter(), c0, time.process_time()))

        records.append(tally.guarded(f"{work.name} pass {i}", lambda: work.check(i, timed_pass())))
    if any(r is None for r in records):
        return None
    return work.counters(records)


def setup_times(rings):
    """Set-up time of fresh interpreters, each measured by the child itself.

    These are raw times: set-up is mostly imports, and its time does not
    follow the speed kernel (in fresh interpreters the kernel moved by 90 %
    while set-up moved by 30 %, not in step).
    """
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *rings],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*PACKAGE.rglob("*"), *HERE.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(key: str, counters: dict, tally: Tally):
    """Counters of equal code and input must equal those of earlier runs."""
    known = json.loads(STATE.read_text()) if STATE.exists() else {}
    if key in known:
        tally.require(
            known[key] == counters,
            f"exact counters differ from an earlier run: {known[key]} != {counters}",
        )
        return
    known[key] = counters
    STATE.parent.mkdir(exist_ok=True)
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, STATE)


def tail_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - q) / 100 >= 10:
            return q, sorted(values)[math.ceil(q / 100 * n) - 1]
    return None


def describe(name, values, unit):
    line = f"{name}: median {statistics.median(values):.6g} {unit} over n={len(values)}"
    tail = tail_percentile(values)
    if tail:
        line += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    print(line)


def reference_times(clocks, sampler):
    """(wall, cpu) of every pass, raw and at reference speed.

    A pass's raw time leaves out the kernel samples taken inside it. The
    host's speed during a cycle is the mean time of the kernel samples
    taken in that cycle: a pass's time adds up the host's speed over its
    whole length, so the mean, not the median, matches it.
    """
    raw, ref = [], []
    for clock in clocks:
        taken = sampler.window(clock[0][0], clock[-1][1])[0] or sampler.samples
        wall_k = statistics.fmean(s[1] for s in taken)
        cpu_k = statistics.fmean(s[2] for s in taken)
        for w0, w1, c0, c1 in clock:
            _, sw, sc = sampler.window(w0, w1)
            wall, cpu = w1 - w0 - sw, c1 - c0 - sc
            raw.append((wall, cpu))
            ref.append((wall * speed.REFERENCE_S / wall_k, cpu * speed.REFERENCE_S / cpu_k))
    return raw, ref


def timed_run(work, seconds, tally):
    setup = setup_times(work.rings)
    clocks, cycles = [], []
    stop = time.perf_counter() + seconds
    with speed.Sampler() as sampler:
        while True:  # whole cycles until the time is up, at least one
            clock = []
            cycles.append(run_cycle(work, tally, clock))
            clocks.append(clock)
            if time.perf_counter() >= stop:
                break
    tally.guarded("final checks", work.final_checks)
    good = [c for c in cycles if c is not None]
    tally.require(
        all(c == good[0] for c in good), "exact counters changed between cycles of one run"
    )
    counters = good[0] if good else None
    raw, ref = reference_times(clocks, sampler)
    wall, cpu = [p[0] for p in ref], [p[1] for p in ref]
    describe("time_to_verdict_s, raw", [p[0] for p in raw], "s")
    describe("cpu_s, raw", [p[1] for p in raw], "s")
    describe("time_to_verdict_s, at reference speed", wall, "s")
    describe("cpu_s, at reference speed", cpu, "s")
    describe("setup_s", setup, "s")
    describe("speed kernel", [s[1] for s in sampler.samples], "s")
    print(f"cycles: {len(cycles)}, counters: {counters}")
    metrics = {
        "time_to_verdict_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, counters


def span_metrics(tracer, cycle_s):
    """Per-layer metrics of one traced cycle of the workload."""
    spans = tracer.spans
    bases = [s for s in spans if s.name == "groebner.buchberger"]
    linked = [i for i, s in enumerate(spans) if s.name == "localizer.two_parallel"]
    kl = [s.info for s in bases if linked and s.parent == linked[0]]
    kl += [{}] * (3 - len(kl))
    own = tracer.self_times()
    out = {
        "trace.cycle_s": (cycle_s, "s"),
        "trace.spans": (len(spans), "count"),
        "groebner.buchberger.calls": (len(bases), "count"),
        "groebner.spairs.total": (sum(s.info["spairs"] for s in bases), "count"),
        "groebner.term_ops.total": (sum(s.info["term_ops"] for s in bases), "count"),
        "groebner.mode.direct": (sum(s.info["mode"] == "direct" for s in bases), "count"),
        "groebner.mode.modular": (sum(s.info["mode"] == "modular" for s in bases), "count"),
        "groebner.primes.used": (sum(s.info["primes"] for s in bases), "count"),
        "localizer.normal_form.calls": (
            sum(s.name == "groebner.normal_form" and s.site == "localizer" for s in spans),
            "count",
        ),
    }
    for part, info in zip(("k", "l", "final"), kl):
        out[f"groebner.spairs.{part}"] = (info.get("spairs", 0), "count")
        out[f"groebner.term_ops.{part}"] = (info.get("term_ops", 0), "count")
        out[f"localizer.gb_sizes.{part}"] = (info.get("size", 0), "count")
    for layer in ("groebner", "localizer"):
        out[f"{layer}.self_share"] = (own[layer] / cycle_s, "ratio")
    return out


def traced_run(work, tally):
    import probes
    import spans

    t0 = time.perf_counter()
    run_cycle(work, tally)
    untraced_s = time.perf_counter() - t0
    with spans.Tracer() as tracer:
        spans.instrument(tracer)
        t0 = time.perf_counter()
        run_cycle(work, tally)
        traced_s = time.perf_counter() - t0
    metrics = span_metrics(tracer, traced_s)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for probe in (probes.groebner_probes, probes.spectra_probes, probes.other_probes):
        metrics.update(tally.guarded(probe.__name__, probe) or {})
    print(f"tracing overhead: traced cycle {traced_s:.6g} s - untraced {untraced_s:.6g} s")
    counters = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    return metrics, counters


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_prismring()
    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    print(
        f"environment: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, {platform.machine()}, "
        f"one client, closed loop"
    )
    work = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    if args.trace:
        metrics, counters = traced_run(work, tally)
    else:
        metrics, counters = timed_run(work, args.seconds, tally)
    if counters is not None and tally.failed == 0:
        key = f"{args.workload}|trace={args.trace}|{source_digest()}|{work.input_digest()}"
        compare_with_earlier_runs(key, counters, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" if isinstance(value, float) else f"{name} = {value} {unit}")
    print(f"error_rate: {tally.failed}/{tally.attempted} failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of mobiustree.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read-mix --seed 1 --seconds 12 --trace 0

Builds the package from the checkout's ``src`` (pure Python, nothing to
compile), generates the workload's inputs from ``--seed``, sets up the
store several times (``setup_s`` is the median), then runs a closed loop
with one caller for ``--seconds``.  Every result is checked against an
independent shadow model outside the timed region.  Timings are scaled
by the shared host's speed at the time (hostspeed.py); the report line
keeps the raw figures too.

Stdout: one report line (JSON: reproducibility header, every figure the
run measured, with units), then the result line, the one a harness reads:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``).  A traced run first runs the workload untraced for half
of ``--seconds``, then sets it up afresh from the same seed and traces a
fixed number of operations, so its layer totals cover the same work on
every commit: one set-up, the first ``traced_ops`` operations and the
closing save/load/stats round trip.  The difference in throughput between
the two stretches is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def header(workload, seed, seconds, trace) -> dict:
    import mobiustree

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": commit,
        "python": platform.python_version(),
        "kernel_backend": mobiustree.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "package": os.path.relpath(mobiustree.__file__, ROOT),
    }


class Phase:
    """Latencies per op kind from one stretch of the closed loop.

    With a ``HostSpeed``, the stretch is cut into blocks of BLOCK_S
    seconds with a calibration sample between blocks, and each latency is
    scaled by the factor of its block (hostspeed.py); ``raw`` keeps the
    unscaled latencies.  Without one, the factor is 1."""

    BLOCK_S = 0.2

    def __init__(self, speed=None):
        self.speed = speed
        self.latency: dict[str, list] = {}
        self.raw: dict[str, list] = {}
        self.factors: list = []
        self.pending: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.sample = speed.sample() if speed else None

    def run_op(self, kind, call, check):
        t0 = time.perf_counter()
        try:
            res = call()
        except Exception as e:  # a failed op is counted, not fatal
            res = e
        dt = time.perf_counter() - t0
        self.pending.append((kind, dt))
        self.attempted += 1
        try:
            ok = not isinstance(res, Exception) and check(res)
        except Exception as e:
            ok, res = False, e
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {res!r}"[:300])

    def end_block(self):
        if not self.pending:
            return
        factor = 1.0
        if self.speed:
            before, self.sample = self.sample, self.speed.sample()
            factor = self.speed.factor(before, self.sample)
        self.factors.append(factor)
        for kind, dt in self.pending:
            self.latency.setdefault(kind, []).append(dt * factor)
            self.raw.setdefault(kind, []).append(dt)
        self.pending.clear()

    def run(self, ops, seconds=None, count=None):
        """Run ops for seconds of wall time, or count of them."""
        perf = time.perf_counter
        end = perf() + seconds if seconds is not None else None
        block_end = perf() + self.BLOCK_S
        done = 0
        while (perf() < end) if end is not None else (done < count):
            self.run_op(*next(ops))
            done += 1
            if perf() >= block_end:
                self.end_block()
                block_end = perf() + self.BLOCK_S
        self.end_block()
        return self

    def all(self, raw=False) -> list:
        return sorted(x for lat in (self.raw if raw else self.latency).values() for x in lat)

    def throughput(self, raw=False) -> float:
        samples = self.all(raw)
        return len(samples) / sum(samples)

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0


TAIL_LADDER = (999, 990, 900, 500)  # percentiles, in tenths


def tail(samples: list) -> tuple:
    """The highest percentile of TAIL_LADDER with at least 10 samples
    beyond it, by nearest rank: (value, percentile).  The ladder stops at
    99.9 so runs whose sample counts straddle 100k report the same
    percentile; below 20 samples it stays at the median."""
    n = len(samples)
    for q in TAIL_LADDER:
        rank = -(-n * q // 1000)
        if n - rank >= 10 or q == TAIL_LADDER[-1]:
            return samples[rank - 1], q / 10


def p50_ms(samples) -> float | None:
    return statistics.median(samples) * 1000 if samples else None


def end_to_end(wl, phase, setups, rss_mb) -> dict:
    samples = phase.all()
    tail_s, tail_pct = tail(samples)
    lat = phase.latency
    m = {
        "setup_s": (statistics.median(setups["scaled"]), "s"),
        "throughput_ops_s": (phase.throughput(), "ops/s"),
        "latency_p50_ms": (statistics.median(samples) * 1000, "ms"),
        "host_factor_p50": (phase.median_factor(), "ratio"),
        "raw.setup_s": (statistics.median(setups["raw"]), "s"),
        "raw.throughput_ops_s": (phase.throughput(raw=True), "ops/s"),
        "raw.latency_p50_ms": (statistics.median(phase.all(raw=True)) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "latency_tail_percentile": (tail_pct, "%"),
        "latency_samples": (len(samples), "count"),
        "file_bytes_per_node": (wl.final_bytes / len(wl.shadow), "bytes"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "error_rate": (phase.failed / phase.attempted, "fraction"),
    }
    for kind in ("ancestors", "descendants", "children", "resolve", "insert", "move", "delete"):
        if kind in lat:
            m[f"{kind}_p50_ms"] = (p50_ms(lat[kind]), "ms")
    return m


def per_layer(wl, tracer, untraced, traced, closing) -> dict:
    # the spans are not cut into blocks: their times are scaled by the
    # median factor of the traced stretch
    factor = traced.median_factor()
    m = {k: (v * factor if u == "s" else v, u) for k, (v, u) in tracer.layer_metrics().items()}
    m["trace.host_factor_p50"] = (factor, "ratio")
    m["trace.untraced_ops_s"] = (untraced.throughput(), "ops/s")
    m["trace.traced_ops_s"] = (traced.throughput(), "ops/s")
    m["trace.overhead_ops_s"] = (untraced.throughput() - traced.throughput(), "ops/s")
    # the closing CLI processes
    lat = {k[4:]: v for k, v in closing.latency.items() if k.startswith("cli.")}
    if lat:
        if "encode" in lat:
            m["cli.startup_ms"] = (p50_ms(lat["encode"]) * factor, "ms")
        for kind, samples in sorted(lat.items()):
            m[f"cli.{kind}.p50_ms"] = (p50_ms(samples) * factor, "ms")
        walls = sum(x for samples in lat.values() for x in samples)
        m["cli.load_share"] = (wl.child_load_s / walls, "fraction")
    return m


def set_up(wl, reps, speed, tracer=None) -> dict:
    """Set the workload up reps times, then build its checker state;
    returns the set-up times, raw and scaled by the host's speed sampled
    before and after each."""
    times = {"raw": [], "scaled": []}
    for _ in range(reps):
        wl.store = None
        gc.collect()
        before = speed.sample(reps=5)
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        times["raw"].append(dt)
        times["scaled"].append(dt * speed.factor(before, speed.sample(reps=5)))
    wl.prepare()
    # the store and the checker's model are long-lived: keep full
    # collections from rescanning them inside timed operations
    gc.collect()
    gc.freeze()
    return times


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Run one workload; returns (report, result) as dicts."""
    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    def fresh():
        return WORKLOADS[workload](seed, SIZES[scale][workload], workdir)

    workdir = os.path.join(ROOT, ".bench_run", f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        speed = HostSpeed()
        tracer = Tracer() if trace else None
        if trace:
            # the untraced stretch has an instance of its own, so the traced
            # one starts from the seed's state and does the same work on
            # every commit
            wl = fresh()
            set_up(wl, 1, speed)
            untraced = Phase(speed).run(wl.ops(), seconds=seconds / 2)
            gc.unfreeze()
            del wl
            wl = fresh()
            setups = set_up(wl, 1, speed, tracer)
            tracer.install()
            wl.tracer = tracer
            phase = Phase(speed).run(wl.ops(), count=wl.size["traced_ops"])
        else:
            wl = fresh()
            setups = set_up(wl, wl.setup_reps, speed)
            phase = Phase(speed).run(wl.ops(), seconds=seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        closing = Phase()
        for op in wl.epilogue():
            closing.run_op(*op)
        closing.end_block()
        if tracer:
            tracer.uninstall()

        attempted = phase.attempted + closing.attempted
        failed = phase.failed + closing.failed
        report = {
            "header": header(workload, seed, seconds, trace),
            "setup_s": setups,
            "closing_ms": {k: v[0] * 1000 for k, v in closing.latency.items()},
            "errors": phase.errors + closing.errors,
        }
        if trace:
            report["errors"] += untraced.errors
            report["untraced_attempted"] = untraced.attempted
            report["traced_attempted"] = phase.attempted
            attempted += untraced.attempted
            failed += untraced.failed
            metrics = per_layer(wl, tracer, untraced, phase, closing)
            trace_dir = os.path.join(ROOT, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            with open(os.path.join(trace_dir, f"{workload}-seed{seed}.json"), "w") as f:
                json.dump({"header": report["header"], "spans": tracer.dump(),
                           "metrics": metrics}, f)
        else:
            metrics = end_to_end(wl, phase, setups, rss_mb)
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return report, result
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def use_checkout() -> None:
    """Import mobiustree from the checkout's src and the oracles from its tests."""
    for need in (os.path.join(SRC, "mobiustree", "__init__.py"), os.path.join(TESTS, "oracles.py")):
        if not os.path.isfile(need):
            fail(f"{os.path.relpath(need, ROOT)} not found; run from a full checkout")
    sys.path[:0] = [SRC, TESTS]


def result_line(result: dict, trace: bool) -> dict:
    """The result object, holding exactly the metrics BENCHMARK.json declares."""
    metrics = result["metrics"]
    names = declared(trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"metrics {missing} were not measured")
    return dict(result, metrics={n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names})


def declared(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mobiustree end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("read-mix", "mutate-query", "deep-keys"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_checkout()
    report, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run

run.use_checkout()

import workloads  # noqa: E402
from mobiustree import store  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
NAMES = list(workloads.WORKLOADS)


def tiny(workload, trace=False, seconds=0.5):
    return run.bench(workload, seed=3, seconds=seconds, trace=trace, scale="tiny")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_and_every_result_checks(workload, trace):
    report, result = tiny(workload, trace)
    assert result["failed"] == 0, report["errors"]
    assert result["correct"] and result["attempted"] > 0
    line = run.result_line(result, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert report["metrics"]["error_rate"]["value"] == 0
        assert all(line["metrics"][n]["value"] > 0 for n in line["metrics"])
    assert report["header"]["seed"] == 3


def test_traced_totals_do_not_depend_on_the_run_length():
    short = tiny("mutate-query", trace=True, seconds=0.2)[1]["metrics"]
    long = tiny("mutate-query", trace=True, seconds=1.0)[1]["metrics"]
    counts = [n for n, (_, unit) in short.items() if unit in ("count", "bytes")]
    assert "kernels.calls" in counts
    assert {n: short[n][0] for n in counts} == {n: long[n][0] for n in counts}


def test_latencies_are_scaled_by_the_host_speed_around_their_block():
    class HalfSpeed:
        def sample(self, reps=3):
            return 2 * hostspeed.REFERENCE_S

        factor = staticmethod(hostspeed.HostSpeed.factor)

    ops = iter([("op", lambda: sum(range(1000)), lambda res: True)] * 3)
    phase = run.Phase(HalfSpeed()).run(ops, count=3)
    assert phase.factors == [0.5]
    assert phase.latency["op"] == [dt * 0.5 for dt in phase.raw["op"]]
    assert phase.throughput() == 2 * phase.throughput(raw=True)


def test_checker_counts_a_wrong_library_result(monkeypatch):
    real = store.TreeStore.descendants

    def drop_last(self, node):
        return real(self, node)[:-1]

    monkeypatch.setattr(store.TreeStore, "descendants", drop_last)
    _, result = tiny("read-mix")
    assert not result["correct"]
    assert result["failed"] > 0


def test_checker_counts_a_wrong_cli_output(monkeypatch):
    real = subprocess.run

    def extra_line(*args, **kwargs):
        proc = real(*args, **kwargs)
        proc.stdout += "spurious\n"
        return proc

    monkeypatch.setattr(workloads.subprocess, "run", extra_line)
    # only the closing mobius-tree processes of mutate-query run a subprocess
    report, result = tiny("mutate-query")
    assert all(e.startswith("cli.") for e in report["errors"]), report["errors"]
    assert not result["correct"]
    assert result["failed"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

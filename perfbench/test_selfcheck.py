"""Self-check of the benchmark harness, on every workload at a tiny size.

    python3 -m pytest perfbench/test_selfcheck.py

Checks that each run emits every metric BENCHMARK.json names, with its
unit, that a wrong answer planted in the key counts as a failure, and that
the benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import key  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "verify-all": run.Verify("verify-all", "237"),
    "deep-344": run.Verify("deep-344", "344", depth=4),
    "surgery-sweep": run.Sweep("surgery-sweep", count=2),
    "tiling-344": run.Tiling("tiling-344", 344, depth=2),
}


def test_workloads_match_the_spec():
    declared = sorted(w["name"] for w in SPEC["workloads"])
    assert declared == sorted(run.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, kind, tmp_path):
    result = run.measure(TINY[name], seed=7, seconds=0, trace=bool(trace),
                         tmp=tmp_path)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SAMPLES
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    emitted = {n: m["unit"] for n, m in result["metrics"].items()}
    assert emitted == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_planted_wrong_answer_counts_as_failure(tmp_path):
    wrong = {**key.CASES, 237: {**key.CASES[237], "split": (8, 5, 3)}}
    workload = dataclasses.replace(TINY["verify-all"], key=wrong)
    result = run.measure(workload, seed=7, seconds=0, trace=False,
                         tmp=tmp_path)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_SAMPLES


def burn(seconds: float) -> None:
    """Busy the calling thread for `seconds` of its own CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_times_are_not_inflated_by_threads():
    # Like report's pool: a main-thread span waits while two worker spans
    # run at once and share the GIL.  Each worker's self time is its own
    # CPU time, not the wall time it spent waiting for the other.
    t = tracer.Tracer()
    work = t.wrap("m.work", burn)
    with t.span("m.run"):
        workers = [threading.Thread(target=work, args=(0.1,))
                   for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    own = tracer.self_times(t.spans)
    by_name = {}
    for sid, name, *_ in t.spans:
        by_name.setdefault(name, []).append(own[sid])
    assert len(by_name["m.work"]) == 2
    assert all(0.1 <= v < 0.15 for v in by_name["m.work"])
    assert by_name["m.run"][0] < 0.05
    parent = {sid for sid, name, *_ in t.spans if name == "m.run"}
    assert all(p in parent for _, name, _, _, p, *_ in t.spans
               if name == "m.work")


def test_layers_account_for_the_traced_time(tmp_path):
    # surgery-sweep spends its time inside surgery's functions, so the
    # layers' self times must cover most of the time its entry ran.
    record = run.measure(TINY["surgery-sweep"], seed=7, seconds=0, trace=True,
                         tmp=tmp_path)
    spans = record["trace_record"]["spans"]
    wall = record["result"]["metrics"]["trace.wall_s"]["value"]
    entry = next(end - start for _, name, start, end, *_ in spans
                 if name == "entry")
    layers = tracer.layer_self_time(spans)
    assert min(tracer.self_times(spans).values()) >= 0
    assert 0.5 * entry < layers < wall
    share = record["result"]["metrics"]["trace.unattributed_share"]["value"]
    assert share == pytest.approx(1 - layers / wall, rel=1e-9)


def test_seed_chooses_the_sweep_slopes():
    sweep = run.WORKLOADS["surgery-sweep"]
    assert sweep.values(1) == sweep.values(1)
    assert sweep.values(1) != sweep.values(2)
    assert len(set(sweep.values(3))) == 40
    assert all(1 <= a <= 100 for a in sweep.values(3))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

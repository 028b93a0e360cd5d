"""orbiflow benchmark: cold time to a correct verdict, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the program from
``src/`` and writes only under ``.perfbench/`` and to bytecode caches.
Every sample is a fresh interpreter, started only after the previous one
ended (a closed loop with one client), so each pays the cold ``lru_cache``
cost a CLI user pays.
Every sample's output is checked against the paper's values (key.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over the
run's samples of wall time, CPU time and peak RSS, and the median import
time of the workload's entry module in fresh interpreters (setup_s).
--trace 1 prints the per-layer metrics: the same workload run under
tracer.py, with the untraced wall time measured alongside.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it stamps the environment;
the full record, with every sample, goes to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import key as answer_key
import tracer as trace_tools

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = ROOT / "perfbench"
OUT = ROOT / ".perfbench"

MIN_SAMPLES = 3     # per timed series, even when --seconds has run out
SETUP_PROBES = 9    # fresh interpreters timed for setup_s, after one warm-up
RUN_LIMIT_S = 150   # no sample may run past this point of the run


# --- Workloads ---------------------------------------------------------------
# Each workload names the module a user's process imports first (setup_s),
# the tracer entry that runs it, the program's arguments, and the check of
# its output against the answer key.  Outputs go to the sample's own
# directory `tmp`; stdout is kept in tmp/stdout.txt.

@dataclass(frozen=True)
class Verify:
    """``orbiflow verify --case CASE [--depth D] --json report.json``."""

    name: str
    case: str
    depth: int | None = None
    key: dict = field(default_factory=lambda: answer_key.CASES)
    setup_module = "orbiflow.cli"
    entry = "cli"

    def args(self, seed: int, tmp: Path) -> list[str]:
        depth = [] if self.depth is None else ["--depth", str(self.depth)]
        return (["verify", "--case", self.case] + depth
                + ["--json", str(tmp / "report.json")])

    def check(self, seed: int, tmp: Path) -> list[str]:
        cases = (list(answer_key.CASES) if self.case == "all"
                 else [int(self.case)])
        report = json.loads((tmp / "report.json").read_text())
        return answer_key.check_verify_report(report, cases, self.key)


@dataclass(frozen=True)
class Tiling:
    """``orbiflow tiling --case CASE --depth D --out tiling.svg``."""

    name: str
    case: int
    depth: int
    setup_module = "orbiflow.cli"
    entry = "cli"

    def args(self, seed: int, tmp: Path) -> list[str]:
        return ["tiling", "--case", str(self.case), "--depth", str(self.depth),
                "--out", str(tmp / "tiling.svg")]

    def check(self, seed: int, tmp: Path) -> list[str]:
        svg = (tmp / "tiling.svg").read_text()
        return answer_key.check_tiling_svg(svg, self.case)


@dataclass(frozen=True)
class Sweep:
    """sweep.py on `count` values of a drawn by the seed from 1..100."""

    name: str
    count: int
    setup_module = "orbiflow.surgery"
    entry = "sweep"

    def values(self, seed: int) -> list[int]:
        return random.Random(seed).sample(range(1, 101), self.count)

    def args(self, seed: int, tmp: Path) -> list[str]:
        return [str(a) for a in self.values(seed)]

    def check(self, seed: int, tmp: Path) -> list[str]:
        result = json.loads((tmp / "stdout.txt").read_text())
        return answer_key.check_sweep(result, self.values(seed))


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Verify("verify-all", "all"),
    Verify("deep-344", "344", depth=16),
    Sweep("surgery-sweep", count=40),
    Tiling("tiling-344", 344, depth=6),
)}


# --- Samples -----------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    errors: list[str]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ORBIFLOW_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd: list[str], tmp: Path, deadline: float) -> Sample:
    """Run `cmd` to its end; wall from spawn to exit, rusage from wait4."""
    with open(tmp / "stdout.txt", "wb") as out, \
            open(tmp / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    watchdog.join()
    errors = []
    if proc.returncode != 0:
        stderr = (tmp / "stderr.txt").read_text(errors="replace").strip()
        errors.append(f"exit {proc.returncode}: {stderr[-500:]}")
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode, errors)


def run_sample(workload, seed: int, tmp: Path, deadline: float,
               traced: bool = False) -> tuple[Sample, dict | None]:
    """One cold run of the workload through child.py, checked.  Returns the
    sample and what the child recorded (peak RSS; spans when traced)."""
    for stale in tmp.iterdir():
        stale.unlink()
    record_path = tmp / "child.json"
    cmd = ([sys.executable, str(HERE / "child.py")]
           + (["--trace"] if traced else [])
           + [str(record_path), workload.entry] + workload.args(seed, tmp))
    sample = run_process(cmd, tmp, deadline)
    record = None
    if sample.returncode == 0:
        try:
            record = json.loads(record_path.read_text())
            sample.peak_rss_mb = record["peak_rss_mb"]
            sample.errors += workload.check(seed, tmp)
            if record.get("counters", {}).get("trigroup.coset_mismatch"):
                sample.errors.append("an adjacency coset is not the size of "
                                     "the stabilizer")
        except (OSError, ValueError, KeyError, TypeError) as err:
            sample.errors.append(f"unreadable output: {err!r}")
    return sample, record


def series(workload, seed: int, tmp: Path, until: float, deadline: float,
           minimum: int, traced: bool = False):
    """(sample, child record) pairs until `until` has passed and `minimum`
    were taken."""
    out = []
    while (len(out) < minimum or time.perf_counter() < until) \
            and time.perf_counter() < deadline:
        out.append(run_sample(workload, seed, tmp, deadline, traced))
    return out


def setup_times(workload, tmp: Path, deadline: float) -> list[float]:
    """Spawn-to-exit times of fresh interpreters importing the entry module."""
    cmd = [sys.executable, "-c", f"import {workload.setup_module}"]
    run_process(cmd, tmp, deadline)  # warm-up: page cache, bytecode files
    times = []
    for _ in range(SETUP_PROBES):
        probe = run_process(cmd, tmp, deadline)
        if probe.returncode != 0:
            raise RuntimeError(f"importing {workload.setup_module} failed: "
                               f"{probe.errors}")
        times.append(probe.wall_s)
    return times


# --- Metrics -----------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list[Sample], setup: list[float]) -> dict:
    return {
        "wall_s": metric(statistics.median(s.wall_s for s in samples), "s"),
        "cpu_s": metric(statistics.median(s.cpu_s for s in samples), "s"),
        "peak_rss_mb": metric(
            statistics.median(s.peak_rss_mb for s in samples), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


# What a change should move, per layer (end-to-end metric, workload):
#   report.case_overlap: 1 with a serial pipeline; cpu_s and wall_s on
#     verify-all only.
#   trigroup.enumerate_elements.*, trigroup.ball_*: wall_s and peak_rss_mb,
#     most on deep-344, then verify-all and tiling-344, never surgery-sweep.
#   trigroup.curve_lifts.self_s, trigroup.lifts: deep-344 and tiling-344.
#   trigroup.cell_tiling, trigroup.cell_polygon, render.*: tiling-344.
#   trigroup.canonical_neighbors, .adjacency_isometries, .crossing_count,
#     hyp2.compose.calls: deep-344.
#   surgery.*, intlinalg.*: surgery-sweep most, verify-all by about a
#     quarter, tiling-344 not at all.
#   torusmap.trace3_uniqueness.calls: a count only; 6 -> 1 per verify saves
#     about 10 ms, below the noise.
#   cli.main.self_s, sections.self_s: milliseconds, expected flat.

# Span names whose summed self time is a per-layer metric.
SELF_TIME_SPANS = (
    "cli.main", "trigroup.enumerate_elements", "trigroup.curve_lifts",
    "trigroup.cell_tiling", "trigroup.cell_polygon",
    "trigroup.canonical_neighbors", "trigroup.adjacency_isometries",
    "trigroup.crossing_count", "surgery.surgered_h1", "surgery.seifert_h1",
    "intlinalg.smith_normal_form", "render.tiling_svg",
)
# Modules whose summed self time is a per-layer metric.
SELF_TIME_MODULES = ("report", "trigroup", "sections", "torusmap", "surgery",
                     "intlinalg", "render")
CALL_COUNTS = ("torusmap.trace3_uniqueness", "surgery.surgered_h1",
               "intlinalg.smith_normal_form")
COUNTERS = ("hyp2.compose.calls", "trigroup.enumerate_elements.misses",
            "trigroup.ball_elements", "trigroup.lifts",
            "trigroup.adjacency_found", "render.svg_paths")


def layer_values(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced sample whose wall time is `wall_s`.

    A layer that the workload does not reach reads 0.  Self times are CPU
    times (tracer.py).  trace.unattributed_share is the part of the wall
    time that no layer's self time covers: interpreter start-up, imports,
    code outside the traced functions (sweep.py's loop, names bound by
    ``from x import``), and time the layers spent off the CPU.
    """
    spans = trace["spans"]
    counters = trace["counters"]
    own = trace_tools.self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, float] = {}
    for sid, name, start, end, *_ in spans:
        by_name[name] = by_name.get(name, 0.0) + own[sid]
        calls[name] = calls.get(name, 0) + 1
        durations[name] = durations.get(name, 0.0) + (end - start)
    out = {f"{name}.self_s": by_name.get(name, 0.0) for name in SELF_TIME_SPANS}
    for module in SELF_TIME_MODULES:
        out[f"{module}.self_s"] = sum(
            v for name, v in by_name.items() if name.startswith(module + "."))
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTS})
    out.update({name: counters[name] for name in COUNTERS})
    out["report.run_verification.s"] = durations.get("report.run_verification", 0.0)
    out["report.run_global_checks.s"] = durations.get("report.run_global_checks", 0.0)
    verification = durations.get("report.run_verification")
    out["report.case_overlap"] = (durations.get("report.run_case", 0.0)
                                  / verification if verification else 0.0)
    tried = counters["trigroup.ball_tried"]
    out["trigroup.ball_fresh_ratio"] = (counters["trigroup.ball_fresh"] / tried
                                        if tried else 0.0)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_share"] = (
        1.0 - trace_tools.layer_self_time(spans) / wall_s)
    return out


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share", "_frac", "_overlap")):
        return "ratio"
    return "count"


def per_layer(untraced: list[Sample], traced: list[tuple[Sample, dict]]) -> dict:
    """Median over the traced samples of each per-layer number."""
    rows = [layer_values(record, sample.wall_s) for sample, record in traced
            if record is not None]
    if not rows:
        raise RuntimeError("no traced sample completed")
    samples = untraced + [sample for sample, _ in traced]
    values = {name: statistics.median(row[name] for row in rows)
              for name in rows[0]}
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(s.wall_s for s in untraced))
    values["fail_frac"] = sum(1 for s in samples if s.errors) / len(samples)
    return {name: metric(value, unit_of(name)) for name, value in values.items()}


# --- Environment stamp --------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout; 'none' when it is not a git tree of its own."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def host_probe_s() -> float:
    """Best of three timings of a fixed pure-Python loop in this process.

    Stamped before and after a run, it shows how fast the host ran then:
    on a shared machine the speed drifts over minutes, and every time
    metric drifts with it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(300_000))
        times.append(time.perf_counter() - start)
    return min(times)


def source_digest() -> str:
    """sha256 over src/**/*.py, so runs outside git still name their code."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "source_sha256": source_digest()}


# --- Main ----------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool,
            tmp: Path) -> dict:
    """One run: the result object, the environment and every sample."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    load_before, probe_before = os.getloadavg(), host_probe_s()
    setup, first_trace = [], None
    if not trace:
        setup = setup_times(workload, tmp, deadline)
        begin = time.perf_counter()
        samples = [s for s, _ in series(workload, seed, tmp, begin + seconds,
                                        deadline, MIN_SAMPLES)]
        metrics = end_to_end(samples, setup)
    else:
        begin = time.perf_counter()
        untraced = [s for s, _ in series(workload, seed, tmp,
                                         begin + seconds / 2, deadline,
                                         MIN_SAMPLES)]
        traced = series(workload, seed, tmp, begin + seconds, deadline, 1,
                        traced=True)
        metrics = per_layer(untraced, traced)
        samples = untraced + [s for s, _ in traced]
        first_trace = next(r for _, r in traced if r is not None)
    failed = sum(1 for s in samples if s.errors)
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "env": environment(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "host_probe_s": [probe_before, host_probe_s()],
            "setup_s": setup, "samples": [vars(s) for s in samples],
            "trace_record": first_trace,
            "result": {"correct": failed == 0, "attempted": len(samples),
                       "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "orbiflow" / "__init__.py").is_file():
        print(f"error: no orbiflow sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    workload = WORKLOADS[args.workload]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="sample-", dir=OUT))
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace),
                         tmp)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record) + "\n")
    for sample in record["samples"]:
        for error in sample["errors"]:
            print(f"sample failed: {error}", file=sys.stderr)
    print("env " + json.dumps({k: record[k] for k in
                               ("env", "loadavg_before", "loadavg_after",
                                "host_probe_s")}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

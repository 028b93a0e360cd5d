"""One sample of a workload, in the process the benchmark times.

    python3 perfbench/child.py [--trace] OUT.json cli ARGS...  # orbiflow ARGS
    python3 perfbench/child.py [--trace] OUT.json sweep A...   # sweep.py A...

Runs the entry and returns its exit code.  OUT.json gets the peak resident
set of this process and, with --trace, the spans and counters of tracer.py.
The peak is read from VmHWM, the high-water mark of this program's own
address space: the ru_maxrss that wait4 returns also counts the address
space of the parent it was forked from.
"""
from __future__ import annotations

import importlib
import json
import resource
import sys


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_entry(entry: str):
    if entry == "cli":
        return importlib.import_module("orbiflow.cli").main
    if entry == "sweep":
        return importlib.import_module("sweep").main
    raise ValueError(f"unknown entry {entry!r}")


def main(argv: list[str]) -> int:
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    out_path, entry, args = argv[0], argv[1], argv[2:]
    record = {}
    if not traced:
        rc = load_entry(entry)(args)
    else:
        import tracer as tracing
        tracer = tracing.Tracer()
        with tracer.span("import"):
            modules = {name: importlib.import_module(f"orbiflow.{name}")
                       for name in tracing.TRACED_MODULES + ("cli", "hyp2")}
            run = load_entry(entry)
        enumerate_cache = modules["trigroup"].enumerate_elements
        observers = tracing.Observers()
        compose_calls = tracing.install(tracer, modules, observers)
        with tracer.span("entry"):
            # Through the module attribute, so that cli.main is the wrapper.
            rc = modules["cli"].main(args) if entry == "cli" else run(args)
        record["spans"] = sorted(tracer.spans)
        record["counters"] = {
            "hyp2.compose.calls": compose_calls(),
            "trigroup.enumerate_elements.misses":
                enumerate_cache.cache_info().misses,
            **observers.counters()}
    record["peak_rss_mb"] = peak_rss_mb()
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

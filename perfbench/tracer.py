"""Outside-in tracer: spans around the public functions of orbiflow's modules.

The program is not changed.  In the process it runs in (child.py --trace),
the tracer replaces the
module attributes of every public function of ``trigroup``, ``sections``,
``torusmap``, ``surgery``, ``intlinalg``, ``report`` and ``render``, and of
``cli.main``, with a wrapper that records a span; ``hyp2.Isometry.compose``
is only counted.  Calls the program makes through a module attribute or a
module global go through the wrapper; names a module bound with
``from x import f`` before the wrappers were installed do not.  Generator
functions are left alone: their time stays with their caller.

A span is (id, name, start, end, parent id, thread id, cpu_s): start and
end on the wall clock, cpu_s the CPU time of its own thread while it was
open.  A span opened on a
thread with no open span of its own (a worker of ``report``'s pool) gets
the innermost open span of the main thread, ``report.run_verification``, as
its parent.  Spans and counters stay in memory until child.py writes them
out when the entry returns.

Self times are CPU times: a span's cpu_s minus that of its children on the
same thread.  Wall-clock self times would be wrong under ``report``'s pool,
where each worker span also counts the time other workers hold the GIL;
the wall-clock start and end serve nesting and case overlap only.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
import types
from contextlib import contextmanager

# Modules whose public functions get spans; of cli, only main gets one.
TRACED_MODULES = ("trigroup", "sections", "torusmap", "surgery", "intlinalg",
                  "report", "render")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        record = [next(self._ids), name, time.perf_counter(), None, parent,
                  threading.get_ident(), None]
        self.spans.append(record)
        stack.append(record[0])
        cpu = time.thread_time()
        try:
            yield
        finally:
            record[6] = time.thread_time() - cpu
            record[3] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """`fn` inside a span; `observe(arguments, result)` sees each call."""
        tracer = self
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                with tracer._lock:
                    observe(arguments, result)
            return result
        return traced

    @staticmethod
    def count_calls(cls, attr: str):
        """Count calls of a method without a span; returns a reader."""
        orig = getattr(cls, attr)
        calls = itertools.count()  # next() is atomic under the GIL

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            next(calls)
            return orig(*args, **kwargs)
        setattr(cls, attr, counted)
        return lambda: next(calls)


def public_functions(module):
    """Public plain and lru_cache'd functions defined in `module`."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        plain = isinstance(obj, types.FunctionType)
        cached = hasattr(obj, "cache_info")
        if (plain or cached) and not inspect.isgeneratorfunction(obj):
            yield name, obj


class Observers:
    """Counts read from arguments and results at the layer boundary."""

    def __init__(self):
        self.balls: dict = {}   # (group, max_len) -> (size, products tried)
        self.lifts: dict = {}   # curve_lifts arguments -> number of lifts
        self.adjacency_found = 0
        self.coset_mismatch = 0
        self.svg_paths = 0

    def enumerate_elements(self, arguments, result):
        max_len = arguments["max_len"]
        tried = 6 * sum(1 for el in result if len(el.word) < max_len)
        self.balls[(arguments["group"], max_len)] = (len(result), tried)

    def curve_lifts(self, arguments, result):
        self.lifts[tuple(arguments.values())] = len(result)

    def adjacency_isometries(self, arguments, result):
        self.adjacency_found += result.total
        self.coset_mismatch += (result.total
                                != arguments["system"].stabilizer_order)

    def tiling_svg(self, arguments, result):
        self.svg_paths += result.count("<path")

    def counters(self) -> dict[str, int]:
        balls = self.balls.values()
        return {
            "trigroup.ball_elements": sum(size for size, _ in balls),
            "trigroup.ball_fresh": sum(size - 1 for size, _ in balls),
            "trigroup.ball_tried": sum(tried for _, tried in balls),
            "trigroup.lifts": sum(self.lifts.values()),
            "trigroup.adjacency_found": self.adjacency_found,
            "trigroup.coset_mismatch": self.coset_mismatch,
            "render.svg_paths": self.svg_paths,
        }

    def by_span_name(self) -> dict:
        return {"trigroup.enumerate_elements": self.enumerate_elements,
                "trigroup.curve_lifts": self.curve_lifts,
                "trigroup.adjacency_isometries": self.adjacency_isometries,
                "render.tiling_svg": self.tiling_svg}


def install(tracer: Tracer, modules: dict, observers: Observers):
    """Replace the traced module attributes; returns a reader of the
    ``Isometry.compose`` call count."""
    observe = observers.by_span_name()
    for modname in TRACED_MODULES:
        module = modules[modname]
        for name, fn in list(public_functions(module)):
            span = f"{modname}.{name}"
            setattr(module, name, tracer.wrap(span, fn, observe.get(span)))
    cli = modules["cli"]
    cli.main = tracer.wrap("cli.main", cli.main)
    return tracer.count_calls(modules["hyp2"].Isometry, "compose")


# --- Analysis of a written trace ------------------------------------------

HARNESS_SPANS = ("import", "entry")  # child.py's own, around the program


def self_times(spans) -> dict[int, float]:
    """Span id -> its CPU time minus that of its children on its thread."""
    thread = {sid: tid for sid, _, _, _, _, tid, _ in spans}
    out = {sid: cpu for sid, _, _, _, _, _, cpu in spans}
    for _, _, _, _, parent, tid, cpu in spans:
        if parent is not None and thread[parent] == tid:
            out[parent] -= cpu
    return out


def layer_self_time(spans) -> float:
    """Summed self time of the program's layers, without the harness spans."""
    own = self_times(spans)
    return sum(own[sid] for sid, name, *_ in spans
               if name not in HARNESS_SPANS)

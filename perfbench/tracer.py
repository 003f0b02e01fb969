"""Spans around every public function of the package's modules.

``install`` wraps each public function of each module and puts the wrapper
in place of the function in every module namespace that holds it.  Modules
import functions by name, so ``profile.hamming_distance`` must be patched as
well as ``permcore.hamming_distance``.  Classes and methods are not wrapped:
their time counts as self time of the wrapped function that called them.

A span records its name, start, end and parent span.  The first
``SPAN_CAP`` spans are kept whole, in memory, and written out at exit; every
span, kept or not, adds to its name's call count, total time and self time
(its duration minus that of its child spans).  Durations are kept per name up
to ``SAMPLE_CAP`` samples, for percentiles.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

MODULES = ("permcore", "chunk", "profile", "growth", "lazyperm", "gadgets", "cli")
SPAN_CAP = 50_000
SAMPLE_CAP = 100_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.samples: list[list[float]] = []
        self.spans: list[tuple[int, int, int, float, float]] = []  # id, name, parent, start, end
        self.stack: list[list] = []  # open spans: [span id, child time]
        self.next_id = 0

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.samples.append([])
        return len(self.names) - 1

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span named ``name``; ``observe`` sees each result."""
        nid = self._name_id(name)
        stack, spans, samples = self.stack, self.spans, self.samples[nid]
        calls, total, self_time = self.calls, self.total, self.self_time
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(samples) < SAMPLE_CAP:
                    samples.append(dur)
                if len(spans) < SPAN_CAP:
                    spans.append((sid, nid, parent, start, end))

        return wrapper

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own (a benchmark job)."""
        return self.wrap(name, fn)(*args)

    def install(self, package: str, observers=None) -> None:
        """Wrap every public function; ``observers`` maps span names to result hooks."""
        observers = observers or {}
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [importlib.import_module(package), *modules.values()]
        for mname, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{mname}.{attr}"
                wrapped = self.wrap(name, obj, observers.get(name))
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, alias, wrapped)

    # -- summaries ---------------------------------------------------------------

    def by_name(self, name: str) -> tuple[int, float, list[float]]:
        """(calls, total seconds, duration samples) summed over spans named ``name``."""
        calls = total = 0
        samples: list[float] = []
        for nid, n in enumerate(self.names):
            if n == name:
                calls += self.calls[nid]
                total += self.total[nid]
                samples += self.samples[nid]
        return calls, total, samples

    def module_totals(self) -> dict[str, tuple[int, float]]:
        """Per module: (calls, self seconds) of its wrapped functions."""
        out = {m: (0, 0.0) for m in MODULES}
        for nid, name in enumerate(self.names):
            module = name.split(".", 1)[0]
            if module in out:
                calls, self_s = out[module]
                out[module] = (calls + self.calls[nid], self_s + self.self_time[nid])
        return out

    def write(self, path: str) -> None:
        """A header line, one JSON array per kept span, then one summary line
        per span name and a count of all spans."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["id", "name", "parent", "start", "end"]}) + "\n")
            for sid, nid, parent, start, end in self.spans:
                fh.write(json.dumps([sid, self.names[nid], parent, start, end]) + "\n")
            for nid, name in enumerate(self.names):
                if self.calls[nid]:
                    fh.write(json.dumps({"summary": name, "calls": self.calls[nid],
                                         "total_s": self.total[nid],
                                         "self_s": self.self_time[nid]}) + "\n")
            fh.write(json.dumps({"spans": self.next_id, "kept": len(self.spans)}) + "\n")


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]

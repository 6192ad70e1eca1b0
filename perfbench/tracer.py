"""In-memory span tracer that wraps scalemap from outside the package.

`install` replaces module attributes and class methods of scalemap with
wrappers, so no file under src/scalemap changes.  Each wrapped call records
one span: (id, name, start, end, parent, thread, job, attrs).  Times come
from time.perf_counter, which on Linux is CLOCK_MONOTONIC and therefore
comparable across the runner, master, worker and probe-server processes.

A span's parent is the innermost open span of its own thread.  A span that
opens on a thread with nothing open (an engine pool thread) takes the open
Engine.force / Engine.reduce_average span as its parent, so slot work is
attributed to the stage that waits for it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import statistics
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "id name t0 t1 parent thread job attrs")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._pool_root = None

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, attrs=None, pool_root: bool = False):
        """Replace owner.attr with a span-recording wrapper.

        attrs(args, result) returns extra fields for the span; it runs only
        when the call returned.  pool_root marks calls whose pool-thread work
        should be parented to them.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._pool_root
            sid = next(tracer._ids)
            stack.append(sid)
            if pool_root:
                outer, tracer._pool_root = tracer._pool_root, sid
            extra = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if pool_root:
                    tracer._pool_root = outer
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), tracer.job, extra))

        setattr(owner, attr, traced)

    def event(self, name: str, **attrs):
        """A zero-length span, for points in time such as a result arriving."""
        stack = self._stack()
        t = time.perf_counter()
        self.spans.append((next(self._ids), name, t, t, stack[-1] if stack else None,
                           threading.get_ident(), self.job, attrs))


def install(tracer: Tracer, role: str):
    """Wrap the scalemap layers a process of this role runs.

    role is "runner" (the benchmark process), "master", "worker" or "probe".
    """
    from scalemap import cluster, engine

    def nbytes_of_result(args, result):
        return {"bytes": result.nbytes}

    def len_of_first(args, result):
        return {"bytes": len(args[0])}

    def counters_of(engine_obj):
        return dataclasses.asdict(engine_obj.counters)

    tracer.wrap(cluster, "send_frame", "wire.send_frame",
                lambda a, r: {"bytes": 5 + len(a[2])})
    if role == "probe":
        return
    # engine calls these through its own module globals
    tracer.wrap(engine, "generate_vectors", "core.generate", nbytes_of_result)
    tracer.wrap(engine, "decode_vectors", "core.decode", len_of_first)
    tracer.wrap(engine, "encode_vectors", "core.encode", lambda a, r: {"bytes": len(r)})
    tracer.wrap(engine, "fnv1a64", "engine.checksum", len_of_first)
    tracer.wrap(engine, "leftfold_sum", "engine.fold")
    tracer.wrap(cluster, "leftfold_sum", "engine.fold")
    tracer.wrap(engine.CacheManager, "get", "engine.cache_get",
                lambda a, r: {"hit": r is not None})
    tracer.wrap(engine.CacheManager, "insert", "engine.cache_insert")
    # force and reduce_average call the private _materialize directly, so the
    # per-partition work (the map add included) is only visible through it
    tracer.wrap(engine.Engine, "_materialize", "engine.materialize")
    tracer.wrap(engine.Engine, "force", "engine.force",
                lambda a, r: {"slots": a[0].slots}, pool_root=True)
    tracer.wrap(engine.Engine, "reduce_average", "engine.reduce",
                lambda a, r: {"slots": a[0].slots}, pool_root=True)
    tracer.wrap(engine.Engine, "close", "engine.close",
                lambda a, r: {"counters": counters_of(a[0])})
    if role == "master":
        tracer.wrap(cluster, "send_message", "cluster.send_message",
                    lambda a, r: {"task": a[1].task_id}
                    if isinstance(a[1], cluster.Task) else None)
    if role == "worker":
        # the task boundary; the engine's counters ride along so a job's
        # share can be read off at the end of its time window
        tracer.wrap(cluster.Worker, "_execute", "cluster.worker_task",
                    lambda a, r: {"task": a[1].task_id, "counters": counters_of(a[0].engine)})


def as_spans(rows, tag) -> list[Span]:
    """Spans of one process, with ids and threads qualified by tag so that
    spans of several processes can be analysed together."""
    return [Span((tag, i), name, t0, t1, None if parent is None else (tag, parent),
                 (tag, thread), job, attrs)
            for i, name, t0, t1, parent, thread, job, attrs in rows]


# ---- span arithmetic -----------------------------------------------------

def busy(spans, name: str) -> float:
    """Thread-seconds inside spans of this name, summed over threads."""
    return sum(s.t1 - s.t0 for s in spans if s.name == name)


def total_bytes(spans, name: str) -> int:
    return sum(s.attrs["bytes"] for s in spans if s.name == name and s.attrs)


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def children_of(spans) -> dict:
    kids: dict = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(spans, name: str) -> float:
    """Sum over spans of this name of duration minus same-thread child time."""
    kids = children_of(spans)
    out = 0.0
    for s in spans:
        if s.name == name:
            inner = sum(c.t1 - c.t0 for c in kids.get(s.id, ()) if c.thread == s.thread)
            out += (s.t1 - s.t0) - inner
    return out


def pool_uncovered(spans) -> float:
    """Slot-seconds of each force/reduce interval that no child span covers.

    slots x duration, minus the child spans' time clipped to the interval:
    the slots' idle time plus the stage's serial time.
    """
    kids = children_of(spans)
    out = 0.0
    for s in spans:
        if s.name in ("engine.force", "engine.reduce") and s.attrs:
            covered = sum(max(0.0, min(c.t1, s.t1) - max(c.t0, s.t0))
                          for c in kids.get(s.id, ()))
            out += s.attrs["slots"] * (s.t1 - s.t0) - covered
    return out


def hit_ratio(spans) -> float:
    gets = [s for s in spans if s.name == "engine.cache_get" and s.attrs]
    return sum(1 for s in gets if s.attrs["hit"]) / len(gets) if gets else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a nonempty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0

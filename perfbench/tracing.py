"""Host-clock span recording around the library's public layer entry points.

A :class:`Tracer` keeps every span in memory as ``[name, start, end, parent]``
(``perf_counter`` seconds; ``parent`` is the index of the enclosing span or
``-1``).  :func:`instrumented` patches the entry points listed in
:data:`TARGETS` for the duration of one traced pass and restores the
originals on exit, so timed (untraced) passes run the library unmodified.

Self time is a span's duration minus the time its child spans cover: the
PQ selection runs inside ``decode_step_batch`` and PQ construction inside the
engine step, so each layer is charged only for its own work.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro.baselines.pqcache_policy import PQCachePolicy
from repro.core.pqcache import PQCacheManager
from repro.llm.kvcache import BlockAllocator
from repro.llm.kvcodec import BytePlaneCodec
from repro.llm.model import TransformerLM
from repro.serve.cluster.router import Router
from repro.serve.engine import InferenceEngine
from repro.serve.prefix_cache import PrefixCache
from repro.serve.scheduler import ContinuousBatchingScheduler


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _prefill_tokens(args, kwargs, result) -> int:
    """Prompt tokens one ``prefill_chunk(state, num_tokens)`` call processed."""
    if isinstance(result, int):
        return result
    return int(_arg(args, kwargs, 2, "num_tokens"))


def _keys(tokens: int, manager: PQCacheManager) -> int:
    """Key vectors clustered: tokens times layers times KV heads."""
    config = manager.model_config
    return int(tokens) * config.num_layers * config.num_kv_heads


def _cache_keys(args, kwargs, result) -> int:
    return _keys(_arg(args, kwargs, 1, "kvcache").seq_len, args[0])


def _sketch_keys(args, kwargs, result) -> int:
    return _keys(_arg(args, kwargs, 2, "upto"), args[0])


#: (owner, attribute, span name, work counter or None).  A work counter maps
#: ``(args, kwargs, result)`` to units of work (prefill tokens, clustered keys).
TARGETS = (
    (InferenceEngine, "step", "engine.step", None),
    (ContinuousBatchingScheduler, "schedule", "sched.schedule", None),
    (Router, "place", "router.place", None),
    (TransformerLM, "prefill_chunk", "model.prefill", _prefill_tokens),
    (TransformerLM, "decode_step_batch", "model.decode", None),
    (TransformerLM, "decode_step", "model.decode", None),
    (PQCachePolicy, "select_batch", "pq.select", None),
    (PQCachePolicy, "select", "pq.select", None),
    (PQCachePolicy, "on_decode_step_batch", "pq.append", None),
    (PQCachePolicy, "on_decode_step", "pq.append", None),
    (PQCacheManager, "build", "pq.build", _cache_keys),
    (PQCacheManager, "build_incremental", "pq.build", _sketch_keys),
    (PQCacheManager, "refine", "pq.build", _cache_keys),
    (PrefixCache, "match", "prefix.match", None),
    (PrefixCache, "insert", "prefix.insert", None),
    (PrefixCache, "evict", "prefix.evict", None),
    (BytePlaneCodec, "encode", "codec.encode", None),
    (BytePlaneCodec, "decode", "codec.decode", None),
    (BlockAllocator, "allocate", "alloc.allocate", None),
)


class Tracer:
    """In-memory span and work-counter recorder (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` recording one span per call under ``name``."""
        spans, stack, work = self.spans, self._stack, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                work[name] += counter(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``self_s`` and ``work`` units."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "work": 0}
        )
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
        for name, units in self.work.items():
            out[name]["work"] = units
        return out

    def covered_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (one host track)."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {"name": name, "ph": "X", "pid": 0, "tid": 0,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"parent": parent}}
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Patch every :data:`TARGETS` entry point to record into ``tracer``."""
    originals = []
    try:
        for owner, attr, name, counter in TARGETS:
            raw = owner.__dict__[attr]
            originals.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                patched = classmethod(tracer.wrap(name, raw.__func__, counter))
            else:
                patched = tracer.wrap(name, raw, counter)
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)

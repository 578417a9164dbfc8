"""The traced run's span recorder and its layer wrappers.

Every wrapper replaces a class or module attribute (``QueryEngine.search``,
``os.fsync``, ...), so every importer of that attribute sees it, and the
original is put back by :meth:`SpanRecorder.uninstall`.  A span records
``(span id, name, start ns, end ns, request id, parent span id)``; spans are
kept in memory and written out once, when the run ends.

Parentage: synchronous spans nest on a per-thread stack, and a span inherits
its parent's request id.  The service's request handlers run on worker
threads, so a handler is a root on its thread; :func:`self_times` links it
to the event-loop ``service.dispatch`` span of the same request id.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro import FlowComputer, IUPT, PresenceComputation, QueryEngine, QueryService
from repro.codec.kernels import PresenceMatrix
from repro.codec.packed import PackedRecordBatch
from repro.core.query import SearchStats
from repro.core.reduction import DataReducer
from repro.storage.durable import DurableRecordStore

#: Span name -> layer.  ``service.dispatch`` covers admission, the worker
#: hop and the response frame; ``service.handler`` the request decode and
#: result encode around the engine call.
LAYER_OF = {
    "service.dispatch": "service",
    "service.handler": "service",
    "service.push": "service",
    "engine.execute": "engine",
    "engine.refresh": "engine",
    "core.reduce": "core",
    "core.presence": "core",
    "core.score": "core",
    "storage.fetch": "storage",
    "storage.ingest": "storage",
    "storage.fsync": "storage",
    "storage.checkpoint": "storage",
    "codec.encode": "codec",
    "codec.decode": "codec",
    "replication.apply": "replication",
    "runtime.gc": "runtime",
}

Span = Tuple[int, str, int, int, Optional[int], Optional[int]]


class SpanRecorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        #: Counters: reduce inputs/kept, presences truncated, bytes encoded ...
        self.counts: Dict[str, int] = defaultdict(int)
        #: Timestamped marks keyed by an id: when each push was sent.
        self.marks: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: int, end: int, rid: Optional[int]) -> None:
        """A root span recorded by the caller (client operations)."""
        self.spans.append((next(self._ids), name, start, end, rid, None))

    def mark(self, kind: str, key: int) -> None:
        self.marks[kind].append((key, time.perf_counter_ns()))

    def _sync(
        self,
        fn: Callable,
        name: str,
        rid_of: Optional[Callable] = None,
        unowned_name: Optional[str] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if stack:
                parent, rid = stack[-1]
            else:
                parent, rid = None, rid_of(args) if rid_of is not None else None
            label = unowned_name if (rid is None and unowned_name) else name
            sid = next(recorder._ids)
            stack.append((sid, rid))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append((sid, label, start, end, rid, parent))
            if after is not None:
                after(recorder, args, result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls: type, attr: str, name: str, **options) -> None:
        self._patch(cls, attr, self._sync(cls.__dict__[attr], name, **options))

    def _wrap_classmethod(self, cls: type, attr: str, name: str, **options) -> None:
        original = cls.__dict__[attr].__func__
        self._patch(cls, attr, classmethod(self._sync(original, name, **options)))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public entry points of every layer (idempotent per run)."""
        if self._patches:
            return
        recorder = self
        frame_id = lambda args: args[1].get("id")  # noqa: E731 - (self, frame)

        # service: dispatch runs on the event loop across awaits, so it is
        # recorded as a root span keyed by its request id.
        dispatch = QueryService.__dict__["_dispatch"]

        @functools.wraps(dispatch)
        async def traced_dispatch(self, connection, op, frame, request_id):
            if not recorder.enabled:
                return await dispatch(self, connection, op, frame, request_id)
            start = time.perf_counter_ns()
            try:
                return await dispatch(self, connection, op, frame, request_id)
            finally:
                recorder.spans.append(
                    (next(recorder._ids), "service.dispatch", start,
                     time.perf_counter_ns(), request_id, None)
                )

        self._patch(QueryService, "_dispatch", traced_dispatch)
        for handler in ("_do_top_k", "_do_flows", "_do_batch", "_do_ingest_batch"):
            self._wrap_method(QueryService, handler, "service.handler", rid_of=frame_id)
        self._wrap_method(
            QueryService, "_push_update", "service.push",
            after=lambda rec, args, _r: rec.mark("push_sent", args[3].sub_id),
        )

        # engine: the three query entry points and the continuous refresh,
        # which is the listener a ContinuousQueryEngine passes to subscribe.
        for attr in ("search", "flows", "batch_top_k"):
            self._wrap_method(QueryEngine, attr, "engine.execute")
        subscribe = IUPT.__dict__["subscribe"]

        @functools.wraps(subscribe)
        def traced_subscribe(self, listener):
            return subscribe(self, recorder._sync(listener, "engine.refresh"))

        self._patch(IUPT, "subscribe", traced_subscribe)

        # core
        def reduced(rec, args, result):
            rec.counts["reduce_in"] += len(args[1])
            if not result.pruned:
                rec.counts["reduce_kept"] += len(result.sequence)

        self._wrap_method(DataReducer, "reduce", "core.reduce", after=reduced)
        presence = FlowComputer.__dict__["presence_computation"]

        @functools.wraps(presence)
        def counted_presence(self, sequence, stats=None):
            if not recorder.enabled:
                return presence(self, sequence, stats)
            stats = stats if stats is not None else SearchStats()
            before = stats.path_stats.truncated_objects
            result = presence(self, sequence, stats)
            recorder.counts["presence_calls"] += 1
            recorder.counts["presence_truncated"] += (
                stats.path_stats.truncated_objects - before
            )
            return result

        self._patch(
            FlowComputer, "presence_computation",
            self._sync(counted_presence, "core.presence"),
        )

        def scored(rec, _args, _result):
            rec.counts["score_calls"] += 1

        self._wrap_method(PresenceComputation, "presence_in_cell", "core.score", after=scored)
        for attr in ("__init__", "score_flows", "accumulate_flows"):
            self._wrap_method(PresenceMatrix, attr, "core.score", after=scored)

        # storage: primary ingests run under a request; an ingest with no
        # request behind it is a replica applying a shipped commit.
        def fetched(rec, _args, result):
            rec.counts["records_fetched"] += sum(len(seq) for seq in result.values())

        self._wrap_method(IUPT, "sequences_in", "storage.fetch", after=fetched)
        self._wrap_method(
            IUPT, "ingest_batch", "storage.ingest", unowned_name="replication.apply"
        )
        self._patch(os, "fsync", self._sync(os.__dict__["fsync"], "storage.fsync"))
        self._wrap_method(DurableRecordStore, "_checkpoint_locked", "storage.checkpoint")

        # codec
        def encoded(rec, _args, result):
            rec.counts["codec_bytes"] += len(result)

        self._wrap_classmethod(PackedRecordBatch, "from_records", "codec.encode")
        self._wrap_method(PackedRecordBatch, "encode", "codec.encode", after=encoded)
        self._wrap_classmethod(PackedRecordBatch, "decode", "codec.decode")
        self._wrap_method(PackedRecordBatch, "to_records", "codec.decode")

        # runtime: garbage collections.  A collection runs inside whatever
        # span allocated last and stays in that span's self time, as it does
        # in a profile; runtime.gc spans report how much of it there was.
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._local.gc_start = time.perf_counter_ns()
            return
        start = getattr(self._local, "gc_start", None)
        if start is not None:
            self._local.gc_start = None
            self.record("runtime.gc", start, time.perf_counter_ns(), None)
            if info.get("generation") == 2:
                self.counts["gc_full"] += 1

    def uninstall(self) -> None:
        self.enabled = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span (one JSON array per line) plus the counters."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time in milliseconds per span name.

    Self time is a span's duration minus its children's durations.  A
    worker-thread ``service.handler`` is a child of the event-loop
    ``service.dispatch`` span carrying the same request id.
    """
    child_ns: Dict[int, int] = defaultdict(int)
    dispatch_of: Dict[int, int] = {}
    for sid, name, _s, _e, rid, _p in spans:
        if name == "service.dispatch" and rid is not None:
            dispatch_of[rid] = sid
    for sid, name, start, end, rid, parent in spans:
        if parent is None and name == "service.handler":
            parent = dispatch_of.get(rid)
        if parent is not None:
            child_ns[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for sid, name, start, end, _rid, _p in spans:
        if name in LAYER_OF:
            totals[name] += (end - start - child_ns.get(sid, 0)) / 1e6
    return dict(totals)


def durations_by_rid(spans: List[Span], name: str) -> Dict[int, float]:
    """Milliseconds per request id of the spans called ``name``."""
    out: Dict[int, float] = defaultdict(float)
    for _sid, label, start, end, rid, _p in spans:
        if label == name and rid is not None:
            out[rid] += (end - start) / 1e6
    return dict(out)

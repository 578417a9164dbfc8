"""Pieces shared by the three workloads: inputs, connections, checks."""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import itertools
import json
import math
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro import EngineConfig, IUPT, QueryEngine, ServiceClient, ServiceError, TkPLQuery
from repro.service import protocol
from repro.synth import build_real_scenario

from speed import PROBE
from stats import LatencySample, OpCounts

#: The served table: the university floor of the paper's real data set.
USERS = 20
DURATION_S = 1200.0
SHARD_SECONDS = 60.0
QUERY_SET_SIZE = 8
TOP_K = 3
QUERY_WORKERS = 2
#: A request that takes longer than this counts as a timeout failure.
REQUEST_TIMEOUT_S = 30.0


#: The table is one fixed data set; ``--seed`` draws the request streams.
#: Tables generated from different seeds differ by up to 2x in query cost,
#: which would swamp the bounds a change is judged by.
DATASET_SEED = 11


def build_scenario():
    """The table: 20 users moving for 1200 s over the real floor."""
    return build_real_scenario(
        num_users=USERS, duration_seconds=DURATION_S, seed=DATASET_SEED,
        store_kind="sharded", shard_seconds=SHARD_SECONDS,
    )


def records_in_time_order(scenario) -> list:
    return sorted(scenario.iupt.records, key=lambda record: record.timestamp)


def uncached_engine(scenario) -> QueryEngine:
    """An engine without a cross-query presence store: every query is cold."""
    return QueryEngine(
        scenario.system.graph, scenario.system.matrix,
        config=EngineConfig(presence_store_capacity=0),
    )


def wire_normal(value):
    """``value`` as it reads after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(value))


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def query_fields(q: Sequence[int], start: float, end: float, k: Optional[int] = TOP_K) -> dict:
    fields = {"q": list(q), "start": start, "end": end}
    if k is not None:
        fields["k"] = k
    return fields


def oracle_answer(engine: QueryEngine, iupt: IUPT, op: str, fields: dict):
    """What the service must answer for one request, computed in-process."""
    if op == "top_k":
        query = TkPLQuery.build(fields["q"], fields["k"], fields["start"], fields["end"])
        result = engine.search(iupt, query, fields.get("algorithm", "best-first"))
        return wire_normal(protocol.result_to_wire(result))
    if op == "flows":
        flows = engine.flows(iupt, fields["q"], fields["start"], fields["end"])
        return wire_normal({"flows": protocol.flows_to_wire(flows)})
    if op == "batch":
        queries = [
            TkPLQuery.build(item["q"], item["k"], item["start"], item["end"])
            for item in fields["queries"]
        ]
        results = engine.batch_top_k(iupt, queries)
        return wire_normal({"results": [protocol.result_to_wire(r) for r in results]})
    raise ValueError(f"no oracle for op {op!r}")


def ranking_problems(result: dict, q: Sequence[int], k: int) -> List[str]:
    """Invariants of one top-k wire result; an empty list means it holds."""
    problems = []
    ranking = result["ranking"]
    flows = [flow for _sloc, flow in ranking]
    if len(ranking) != min(k, len(q)):
        problems.append(f"ranking has {len(ranking)} entries, expected {min(k, len(q))}")
    if any(sloc not in q for sloc, _flow in ranking):
        problems.append("ranking names an S-location outside the query set")
    if flows != sorted(flows, reverse=True):
        problems.append("ranking is not sorted by flow")
    problems.extend(flow_problems(result["flows"], q))
    return problems


def flow_problems(pairs: List[list], q: Sequence[int]) -> List[str]:
    problems = []
    if sorted(sloc for sloc, _flow in pairs) != sorted(q):
        problems.append("flows do not cover exactly the query set")
    if not all(isinstance(f, float) and math.isfinite(f) and f >= 0.0 for _s, f in pairs):
        problems.append("a flow is negative or not finite")
    return problems


def positive_flow(answer: dict) -> bool:
    """Whether a wire answer carries some flow above zero."""
    if "results" in answer:
        return any(positive_flow(result) for result in answer["results"])
    return any(flow > 0.0 for _sloc, flow in answer["flows"])


def digest(values: Iterable[object]) -> str:
    """A short digest of answers, so a change in answers shows in the report."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(json.dumps(value, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()[:16]


# ----------------------------------------------------------------------
# Client connections
# ----------------------------------------------------------------------
#: The request-id list of the request being issued in the current task.
_RID_BOX: contextvars.ContextVar[list] = contextvars.ContextVar("rid_box")


class _RequestIds:
    """A connection's request-id source: numbers from a base unique in the
    process, and hands each id to the task that issued the request."""

    def __init__(self, base: int):
        self._ids = itertools.count(base + 1)

    def __iter__(self):
        return self

    def __next__(self) -> int:
        rid = next(self._ids)
        box = _RID_BOX.get(None)
        if box is not None:
            box.append(rid)
        return rid


class Conn:
    """One client connection whose request ids are unique in the process.

    Each connection numbers its requests from its own base, so spans on the
    server can be matched to the client request that caused them.
    """

    def __init__(self, client: ServiceClient, base: int):
        self.client = client
        client._core._ids = _RequestIds(base)
        self.counts: Dict[str, OpCounts] = {}
        self.latency: Dict[str, LatencySample] = {}
        #: Process CPU time (all threads) spent while each operation was in
        #: flight.  The kernel leaves out time a hypervisor gave to other
        #: guests, which wall time on a shared host does not.
        self.cpu: Dict[str, LatencySample] = {}
        #: The perf_counter_ns midpoint of each operation, parallel to ``cpu``.
        self.cpu_at: Dict[str, List[int]] = {}

    @classmethod
    async def open(cls, host: str, port: int, base: int) -> "Conn":
        return cls(await ServiceClient.connect(host, port), base)

    async def call(
        self,
        op: str,
        fields: dict,
        recorder=None,
        label: Optional[str] = None,
        due_ns: Optional[int] = None,
    ):
        """Issue one request; count it and time it. Returns the result or None.

        The latency runs from ``due_ns`` when given (an open-loop schedule's
        due time), else from when the request is issued.
        """
        label = label or op
        counts = self.counts.setdefault(label, OpCounts())
        counts.attempted += 1
        box: list = []
        token = _RID_BOX.set(box)
        start = time.perf_counter_ns()
        cpu_start = time.process_time_ns() - PROBE.cpu_ns
        try:
            result = await asyncio.wait_for(
                self.client.request(op, **fields), REQUEST_TIMEOUT_S
            )
        except ServiceError as error:
            counts.fail("shed" if error.kind == "overloaded" else error.kind)
            return None
        except asyncio.TimeoutError:
            counts.fail("timeout")
            return None
        except ConnectionError:
            counts.fail("connection")
            return None
        finally:
            _RID_BOX.reset(token)
        end = time.perf_counter_ns()
        cpu_end = time.process_time_ns() - PROBE.cpu_ns
        counts.ok += 1
        began = start if due_ns is None else due_ns
        self.latency.setdefault(label, LatencySample()).add((end - began) / 1e6)
        self.cpu.setdefault(label, LatencySample()).add((cpu_end - cpu_start) / 1e6)
        self.cpu_at.setdefault(label, []).append((start + end) // 2)
        if recorder is not None and recorder.enabled:
            recorder.record(f"client.{label}", start, end, box[0] if box else None)
        return result

    def reset(self) -> None:
        self.counts = {}
        self.latency = {}
        self.cpu = {}
        self.cpu_at = {}

    async def close(self) -> None:
        await self.client.close()


def merged(conns: Sequence[Conn], labels: Optional[Sequence[str]] = None, probe=None):
    """Counts, wall latencies and in-flight CPU times of several connections,
    over the given op labels.  With a ``probe``, each CPU time is taken to
    the reference host at the speed measured around it."""
    counts = OpCounts()
    sample = LatencySample()
    cpu = LatencySample()
    for conn in conns:
        for label, op_counts in conn.counts.items():
            if labels is not None and label not in labels:
                continue
            counts.attempted += op_counts.attempted
            counts.ok += op_counts.ok
            for kind, n in op_counts.failed.items():
                counts.failed[kind] = counts.failed.get(kind, 0) + n
        for label, op_sample in conn.latency.items():
            if labels is None or label in labels:
                sample.values_ms.extend(op_sample.values_ms)
                for ms, at in zip(conn.cpu[label].values_ms, conn.cpu_at[label]):
                    cpu.add(ms * probe.scale(at) if probe is not None else ms)
    return counts, sample, cpu


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cpu_steal() -> tuple:
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def io_wchar() -> int:
    """Bytes this process has passed to write calls so far."""
    with open("/proc/self/io", encoding="ascii") as io:
        for line in io:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("wchar missing from /proc/self/io")


"""The ``live-ingest`` workload: durable writes beside standing reads.

* One loader sends binary ``ingest_batch`` requests, each holding 5 s of
  the seeded stream (about 36 records), on an **open-loop** schedule of ten
  batches a second.  It does not wait for acks; each latency runs from the
  batch's due time.
* The table is a durable sharded store (``fsync="batch"``) whose
  ``compact_above_bytes`` is small enough that compaction runs several
  cycles per run.
* One subscriber holds standing ``top_k`` and ``flows`` subscriptions on
  every tumbling 20 s window of the stream.
* One in-process ``ReadReplica`` tails the primary.
* After the stream the primary is restarted ``RESTARTS`` times from its
  directory.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro import DurabilityConfig, IUPT, QueryEngine, QueryService
from repro.service import ReadReplica, protocol

from common import (
    DURATION_S, QUERY_SET_SIZE, QUERY_WORKERS, SHARD_SECONDS, TOP_K, Conn,
    build_scenario, digest, flow_problems, oracle_answer, query_fields,
    ranking_problems, records_in_time_order, uncached_engine, wire_normal,
)
from speed import PROBE
from stats import LatencySample

BATCH_S = 5.0
BATCHES_PER_S = 10.0
SUB_WINDOW_S = 20.0
RESTARTS = 5
FSYNC = "batch"
#: Segment bytes above which the primary compacts its write-ahead log.
COMPACT_ABOVE_BYTES = 16 * 1024
#: The primary also checkpoints (snapshot + segment drop) every this many
#: batches.  Size-triggered compaction alone never runs here: it is held
#: back at every commit while the replica has not yet acknowledged it.
SNAPSHOT_EVERY_BATCHES = 25
#: How long to wait for the last pushes and the replica after the stream.
SETTLE_TIMEOUT_S = 30.0


def record_key(record) -> tuple:
    return (
        record.object_id,
        record.timestamp,
        tuple((s.ploc_id, s.prob) for s in record.sample_set.samples),
    )


class LiveWorkload:
    name = "live-ingest"

    def __init__(self, seed: int, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.scenario = build_scenario()
        records = records_in_time_order(self.scenario)
        by_slot: Dict[int, list] = defaultdict(list)
        for record in records:
            by_slot[int(record.timestamp // BATCH_S)].append(record)
        self.batches = [by_slot[slot] for slot in sorted(by_slot)]
        self.windows = [
            (j * SUB_WINDOW_S, (j + 1) * SUB_WINDOW_S)
            for j in range(int(DURATION_S // SUB_WINDOW_S))
        ]
        rng = random.Random(f"{self.name}-{seed}")
        self.q = sorted(rng.sample(self.scenario.slocation_ids(), QUERY_SET_SIZE))
        self.refreshed_by = self._refresh_plan()
        self.setups = 0

    def _refresh_plan(self) -> List[List[int]]:
        """For each batch, the windows whose visible data it changes.

        A standing query is refreshed exactly when its window's data token
        moves, so replaying the stream into a scratch table tells which
        pushes each batch causes.
        """
        iupt = IUPT.sharded(shard_seconds=SHARD_SECONDS)
        keys = [iupt.data_key_for(*w) for w in self.windows]
        plan = []
        for batch in self.batches:
            iupt.ingest_batch(batch)
            fresh = [iupt.data_key_for(*w) for w in self.windows]
            plan.append([j for j, (a, b) in enumerate(zip(keys, fresh)) if a != b])
            keys = fresh
        return plan

    def describe(self) -> dict:
        return {
            "records": sum(len(b) for b in self.batches),
            "objects": len(self.scenario.iupt.object_ids()),
            "batch_s": BATCH_S,
            "batch_rate_per_s": f"{BATCHES_PER_S:g} open-loop",
            "records_per_batch": round(
                sum(len(b) for b in self.batches) / len(self.batches), 1
            ),
            "subscriptions": 2 * len(self.windows),
            "subscription_window_s": SUB_WINDOW_S,
            "refreshes_per_batch": round(
                2 * sum(map(len, self.refreshed_by)) / len(self.batches), 2
            ),
            "fsync": FSYNC,
            "snapshot_every_batches": SNAPSHOT_EVERY_BATCHES,
            "compact_above_bytes": COMPACT_ABOVE_BYTES,
            "restarts": RESTARTS,
            "replicas": 1,
        }

    def _config(self) -> DurabilityConfig:
        return DurabilityConfig(
            fsync=FSYNC,
            snapshot_every_batches=SNAPSHOT_EVERY_BATCHES,
            compact_above_bytes=COMPACT_ABOVE_BYTES,
        )

    def _engine(self) -> QueryEngine:
        return QueryEngine(self.scenario.system.graph, self.scenario.system.matrix)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def setup(self) -> dict:
        """An empty durable primary, its subscriptions and its replica."""
        self.setups += 1
        directory = self.work_dir / f"primary-{self.setups}"
        iupt = IUPT.durable(directory, shard_seconds=SHARD_SECONDS, config=self._config())
        engine = self._engine()
        service = QueryService(engine, iupt, query_workers=QUERY_WORKERS)
        host, port = await service.start()
        loader = await Conn.open(host, port, base=3 * 10**7)
        subscriber = await Conn.open(host, port, base=4 * 10**7)
        subs = []  # (window index, kind, RemoteSubscription)
        for j, (start, end) in enumerate(self.windows):
            subs.append((j, "top_k", await subscriber.client.subscribe_top_k(self.q, TOP_K, start, end)))
            subs.append((j, "flows", await subscriber.client.subscribe_flows(self.q, start, end)))
        replica_engine = self._engine()
        replica = ReadReplica(replica_engine, host, port, name="replica-1", query_workers=1)
        await replica.start()
        state = {
            "dir": directory, "iupt": iupt, "engine": engine, "service": service,
            "loader": loader, "subscriber": subscriber, "subs": subs,
            "replica": replica, "replica_engine": replica_engine,
            "next_batch": 0, "acks": {}, "received": defaultdict(list),
            "late_ms": LatencySample(), "push": LatencySample(),
            "lag": LatencySample(), "lag_tasks": [],
        }
        state["watchers"] = [
            asyncio.ensure_future(self._watch(state, sub)) for _j, _k, sub in subs
        ]
        return state

    @staticmethod
    async def _watch(state: dict, subscription) -> None:
        """Note when each push of one subscription reaches the subscriber."""
        while True:
            await subscription.next_update()
            state["received"][subscription.sub_id].append(time.perf_counter_ns())

    async def _stop(self, state: dict) -> None:
        for task in state["watchers"]:
            task.cancel()
        await asyncio.gather(*state["watchers"], return_exceptions=True)
        await state["replica"].stop()
        await state["loader"].close()
        await state["subscriber"].close()
        await state["service"].stop()
        state["iupt"].store.close()
        state["engine"].close()
        state["replica_engine"].close()

    def fill(self, state: dict) -> int:
        return 0  # the stream itself fills the presence store

    async def teardown(self, state: dict) -> None:
        if not state.get("stopped"):
            await self._stop(state)
        shutil.rmtree(state["dir"], ignore_errors=True)

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------
    async def measure(self, state: dict, seconds: float, recorder=None) -> None:
        """Stream ``seconds`` worth of batches on the open-loop schedule."""
        first = state["next_batch"]
        count = min(int(round(seconds * BATCHES_PER_S)), len(self.batches) - first)
        if count <= 0:
            raise RuntimeError("the stream is exhausted; shorten the run")
        state["next_batch"] = first + count
        period_ns = int(1e9 / BATCHES_PER_S)
        origin = time.perf_counter_ns() + period_ns
        loader = state["loader"]

        async def send(index: int, due: int) -> None:
            payload = protocol.records_to_payload(self.batches[index])
            result = await loader.call(
                "ingest_batch", {protocol.BIN_PAYLOAD: payload}, recorder,
                "ingest_batch", due_ns=due,
            )
            if result is None:
                return
            acked = time.perf_counter_ns()
            state["acks"][index] = (int(result["seq"]), due, acked)
            PROBE.sample()  # between batches, so in no batch's time
            if recorder is not None and recorder.enabled:
                state["lag_tasks"].append(
                    asyncio.ensure_future(self._lag(state, int(result["seq"]), acked))
                )

        sends = []
        for n in range(count):
            due = origin + n * period_ns
            delay = (due - time.perf_counter_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            state["late_ms"].add(max(0, time.perf_counter_ns() - due) / 1e6)
            sends.append(asyncio.ensure_future(send(first + n, due)))
        await asyncio.gather(*sends)
        await self._settle(state)
        self._pair_pushes(state, first, first + count)

    @staticmethod
    async def _lag(state: dict, seq: int, acked: int) -> None:
        await state["replica"].wait_applied(seq, timeout=SETTLE_TIMEOUT_S)
        state["lag"].add((time.perf_counter_ns() - acked) / 1e6)

    def _expected_pushes(self, state: dict) -> int:
        return 2 * sum(len(self.refreshed_by[i]) for i in state["acks"])

    async def _settle(self, state: dict) -> None:
        """Wait until every push the acked batches caused has arrived."""
        deadline = time.perf_counter() + SETTLE_TIMEOUT_S
        while sum(map(len, state["received"].values())) < self._expected_pushes(state):
            if time.perf_counter() > deadline:
                raise RuntimeError("pushes for acknowledged batches never arrived")
            await asyncio.sleep(0.005)
        await asyncio.gather(*state["lag_tasks"])
        state["lag_tasks"] = []

    def _pair_pushes(self, state: dict, first: int, stop: int) -> None:
        """Time each push from the due time of the batch that caused it.

        A subscription's pushes arrive in the order the batches refreshing
        its window were applied, which is the order they were due.
        """
        causes: Dict[int, List[int]] = defaultdict(list)
        sub_of_window = defaultdict(list)
        for j, _kind, sub in state["subs"]:
            sub_of_window[j].append(sub.sub_id)
        for index in range(first, stop):
            if index not in state["acks"]:
                continue
            for j in self.refreshed_by[index]:
                for sub_id in sub_of_window[j]:
                    causes[sub_id].append(state["acks"][index][1])
        paired = state.setdefault("paired", defaultdict(int))
        for sub_id, dues in causes.items():
            received = state["received"][sub_id]
            for due, got in zip(dues, received[paired[sub_id]:]):
                state["push"].add((got - due) / 1e6)
            paired[sub_id] += len(dues)

    def operations(self, state: dict):
        return [state["loader"]], ["ingest_batch"]

    # ------------------------------------------------------------------
    # Checks, footprint and restarts
    # ------------------------------------------------------------------
    def reordered(self, state: dict) -> int:
        """Batches whose commit sequence is out of due order."""
        seqs = [state["acks"][i][0] for i in sorted(state["acks"])]
        return sum(1 for a, b in zip(seqs, seqs[1:]) if b < a)

    async def finish(self, state: dict) -> Tuple[List[str], str, dict]:
        """Check subscriptions and replica, then stop and restart the primary.

        Returns the problems found, the answer digest, and the end-of-run
        figures: disk footprint, recovery times and recovery reports.
        """
        problems: List[str] = []
        replica, iupt = state["replica"], state["iupt"]
        acked = [self.batches[i] for i in sorted(state["acks"])]
        last_seq = max(seq for seq, _due, _ack in state["acks"].values())
        await replica.wait_applied(last_seq, timeout=SETTLE_TIMEOUT_S)
        for start, end in self.windows:
            if replica.iupt.data_key_for(start, end) != iupt.data_key_for(start, end):
                problems.append(f"replica token differs from the primary on [{start}, {end})")

        # Every standing result equals a fresh recompute over the acked data.
        truth = IUPT.sharded(shard_seconds=SHARD_SECONDS)
        for batch in acked:
            truth.ingest_batch(batch)
        oracle = uncached_engine(self.scenario)
        fresh = oracle.continuous(truth)
        answers = []
        for j, kind, sub in state["subs"]:
            start, end = self.windows[j]
            if kind == "top_k":
                standing = fresh.register_top_k(self.q, TOP_K, start, end)
                expected = wire_normal(protocol.result_to_wire(standing.result))
                fresh.unregister(standing)
                problems.extend(ranking_problems(sub.result, self.q, TOP_K))
            else:
                expected = oracle_answer(oracle, truth, "flows", query_fields(self.q, start, end, k=None))
                problems.extend(flow_problems(sub.result["flows"], self.q))
            if wire_normal(sub.result) != expected:
                problems.append(f"{kind} subscription on [{start}, {end}) differs from a recompute")
            answers.append(expected)
        fresh.close()
        if not any(flow > 0.0 for a in answers for _s, flow in a["flows"]):
            problems.append("no standing result carries a positive flow")

        compaction = dict(iupt.store.compaction_stats)
        await self._stop(state)
        state["stopped"] = True
        disk = sum(
            path.stat().st_size for path in state["dir"].rglob("*")
            if path.is_file() and path.suffix in (".wal", ".snap")
        )
        expected_keys = sorted(record_key(r) for batch in acked for r in batch)
        last_time = acked[-1][0].timestamp
        probe = query_fields(self.q, *self.windows[int(last_time // SUB_WINDOW_S)])
        probe["algorithm"] = "best-first"
        probe_answer = oracle_answer(oracle, truth, "top_k", probe)
        oracle.close()
        recoveries, reports = [], []
        for _ in range(RESTARTS):
            seconds, report, problem = await self._restart(state["dir"], probe, probe_answer, expected_keys)
            recoveries.append(seconds)
            reports.append(report)
            if problem:
                problems.append(problem)
        return problems[:20], digest(answers), {
            "records_ingested": len(expected_keys),
            "disk_bytes": disk,
            "compaction": compaction,
            "recoveries_s": recoveries,
            "recovery_reports": reports,
        }

    async def _restart(self, directory, probe: dict, probe_answer, expected_keys):
        """Open the directory, serve, and time the first answered query."""
        began = time.perf_counter()
        iupt = IUPT.durable(directory, config=self._config())
        engine = self._engine()
        service = QueryService(engine, iupt, query_workers=QUERY_WORKERS)
        host, port = await service.start()
        conn = await Conn.open(host, port, base=5 * 10**7)
        answer = await conn.call("top_k", probe)
        seconds = time.perf_counter() - began
        problem = None
        if answer is None or wire_normal(answer) != probe_answer:
            problem = "the first query after a restart differs from the oracle"
        elif sorted(record_key(r) for r in iupt.records) != expected_keys:
            problem = "an acknowledged record is missing after a restart"
        report = dict(iupt.store.recovery_report)
        await conn.close()
        await service.stop()
        iupt.store.close()
        engine.close()
        return seconds, report, problem

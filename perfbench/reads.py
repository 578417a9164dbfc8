"""The two read workloads: ``adhoc-cold`` and ``dashboard-warm``.

Both serve the same seeded table (20 users x 1200 s on the real floor,
sharded at 60 s) from an in-process ``QueryService`` with two query workers,
to one closed-loop analyst client.  Its requests follow the op cycle
``CYCLE``: best-first and nested-loop ``top_k``, ``flows``, and every
eighth request a ``batch`` of overlapping queries.

* ``adhoc-cold``: every request has its own random 15-30 s window and query
  set (8 of the 14 S-locations), so the presence store never hits.  It is
  filled to its 4096 entries before measuring, and keeps evicting.
* ``dashboard-warm``: the client cycles over 12 fixed (window, query set)
  pairs, all answered once during set-up, so every presence is cached.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, Iterator, List, Tuple

from repro import IUPT, QueryEngine, QueryService

from common import (
    DURATION_S, QUERY_SET_SIZE, QUERY_WORKERS, SHARD_SECONDS, TOP_K, Conn,
    build_scenario, digest, flow_problems, oracle_answer, positive_flow,
    query_fields, ranking_problems, records_in_time_order, uncached_engine,
    wire_normal,
)
from speed import PROBE

#: One closed-loop analyst.  With two, each request's time on the GIL-bound
#: service includes the other's work, so neither its latency nor the CPU
#: time it took can be told apart from the other client's.
CLIENTS = 1
#: One client's op cycle: (wire op, algorithm or None).
CYCLE = (
    ("top_k", "best-first"), ("top_k", "nested-loop"), ("flows", None),
    ("top_k", "best-first"), ("top_k", "nested-loop"), ("flows", None),
    ("top_k", "best-first"), ("batch", None),
)
BATCH_QUERIES = 4
WINDOW_MIN_S, WINDOW_MAX_S = 15.0, 30.0
#: adhoc-cold windows start in one of these strata, visited in shuffled order.
STRATUM_S = 30.0
DASHBOARD_PAIRS = 12
#: Answers of each client's first few plan requests make the run's digest.
DIGEST_REQUESTS = 16

Request = Tuple[str, str, dict]  # (label, wire op, fields)


class ReadWorkload:
    """One read workload; ``warm`` picks ``dashboard-warm`` over ``adhoc-cold``."""

    def __init__(self, seed: int, warm: bool):
        self.name = "dashboard-warm" if warm else "adhoc-cold"
        self.seed = seed
        self.warm = warm
        self.scenario = build_scenario()
        self.records = records_in_time_order(self.scenario)
        self.slocs = self.scenario.slocation_ids()
        # The dashboard pairs: one window start per twelfth of the span,
        # lengths spread evenly over 15-30 s, balanced query sets.
        rng = random.Random(f"{self.name}-{seed}-pairs")
        usage = {sloc: 0 for sloc in self.slocs}
        stratum = (DURATION_S - WINDOW_MAX_S) / DASHBOARD_PAIRS
        lengths = list(range(DASHBOARD_PAIRS))
        rng.shuffle(lengths)
        self.pairs = []
        for index, slot in enumerate(lengths):
            start = (index + rng.random()) * stratum
            length = WINDOW_MIN_S + (WINDOW_MAX_S - WINDOW_MIN_S) * (slot + rng.random()) / DASHBOARD_PAIRS
            self.pairs.append(((start, start + length), self._balanced_set(rng, usage)))

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def _window_and_set(self, rng: random.Random):
        length = rng.uniform(WINDOW_MIN_S, WINDOW_MAX_S)
        start = rng.uniform(0.0, DURATION_S - WINDOW_MAX_S)
        return (start, start + length), sorted(rng.sample(self.slocs, QUERY_SET_SIZE))

    def _request(self, slot: int, pair, batch_pairs) -> Request:
        op, algorithm = CYCLE[slot % len(CYCLE)]
        (start, end), q = pair
        if op == "batch":
            queries = [query_fields(bq, bs, be) for (bs, be), bq in batch_pairs]
            return "batch", "batch", {"queries": queries}
        if op == "flows":
            return "flows", "flows", query_fields(q, start, end, k=None)
        return "top_k", "top_k", dict(query_fields(q, start, end), algorithm=algorithm)

    def plan(self, client: int) -> Iterator[Request]:
        """Client ``client``'s endless, seeded request stream."""
        rng = random.Random(f"{self.name}-{self.seed}-client{client}")
        if self.warm:
            index = client * 5  # the clients start at different points
            while True:
                pair = self.pairs[index % DASHBOARD_PAIRS]
                group = (index // len(CYCLE)) % 3
                yield self._request(index, pair, self.pairs[group * 4:group * 4 + 4])
                index += 1
        # adhoc-cold: each pass visits every 30 s stratum of the span once,
        # with window lengths spread evenly over 15-30 s (a Latin square of
        # position and length), and query sets that use every S-location
        # equally often.  The op a stratum gets rotates by one cycle slot
        # per pass, so every len(CYCLE) passes pair each stratum with each
        # op once.  Runs then differ in their draws, not in how much of the
        # expensive part of the table, or which op on it, they sample.
        strata = int((DURATION_S - WINDOW_MAX_S) // STRATUM_S)
        usage = {sloc: 0 for sloc in self.slocs}
        spread = WINDOW_MAX_S - WINDOW_MIN_S
        passes = 0
        while True:
            order, lengths = list(range(strata)), list(range(strata))
            rng.shuffle(order)
            rng.shuffle(lengths)
            for stratum, slot in zip(order, lengths):
                start = (stratum + rng.random()) * STRATUM_S
                length = WINDOW_MIN_S + spread * (slot + rng.random()) / strata
                pair = (start, start + length), self._balanced_set(rng, usage)
                # A batch: queries over windows overlapping the drawn one.
                batch_pairs = [pair]
                for _ in range(BATCH_QUERIES - 1):
                    near = min(max(0.0, start + rng.uniform(-10.0, 10.0)), DURATION_S - WINDOW_MAX_S)
                    near_end = near + rng.uniform(WINDOW_MIN_S, WINDOW_MAX_S)
                    batch_pairs.append(((near, near_end), self._balanced_set(rng, usage)))
                yield self._request(stratum + passes, pair, batch_pairs)
            passes += 1

    def _balanced_set(self, rng: random.Random, usage: Dict[int, int]) -> List[int]:
        """A query set of the least-used S-locations, ties broken at random."""
        chosen = sorted(self.slocs, key=lambda sloc: (usage[sloc], rng.random()))
        chosen = chosen[:QUERY_SET_SIZE]
        for sloc in chosen:
            usage[sloc] += 1
        return sorted(chosen)

    def warm_requests(self) -> List[Request]:
        """Every distinct request the dashboard clients send."""
        seen: Dict[str, Request] = {}
        for client in range(CLIENTS):
            stream = self.plan(client)
            for _ in range(DASHBOARD_PAIRS * len(CYCLE)):
                request = next(stream)
                seen.setdefault(repr(request), request)
        return list(seen.values())

    def describe(self) -> dict:
        return {
            "records": len(self.records),
            "objects": len(self.scenario.iupt.object_ids()),
            "slocations": len(self.slocs),
            "query_set_size": QUERY_SET_SIZE,
            "k": TOP_K,
            "clients": f"{CLIENTS} closed-loop",
            "op_cycle": [op if alg is None else f"{op}:{alg}" for op, alg in CYCLE],
            "window_s": (
                "12 fixed pairs, " if self.warm else "random per request, "
            ) + f"{WINDOW_MIN_S:g}-{WINDOW_MAX_S:g}",
            "batch_queries": BATCH_QUERIES,
            "shard_seconds": SHARD_SECONDS,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def setup(self) -> dict:
        """Load the table, start the service, connect (and warm) the clients."""
        iupt = IUPT.sharded(shard_seconds=SHARD_SECONDS)
        iupt.ingest_batch(self.records)
        engine = QueryEngine(self.scenario.system.graph, self.scenario.system.matrix)
        service = QueryService(engine, iupt, query_workers=QUERY_WORKERS)
        host, port = await service.start()
        conns = [await Conn.open(host, port, base=(i + 1) * 10**7) for i in range(CLIENTS)]
        if self.warm:
            for _label, op, fields in self.warm_requests():
                if await conns[0].call(op, fields) is None:
                    raise RuntimeError(f"warm-up request {op} failed")
            conns[0].reset()
        return {
            "iupt": iupt, "engine": engine, "service": service, "conns": conns,
            "plans": [self.plan(i) for i in range(CLIENTS)], "answers": {},
        }

    def fill(self, state: dict) -> int:
        """Fill ``adhoc-cold``'s presence store to capacity before measuring.

        The store starts empty after set-up and takes about 200 cold
        requests to fill; measuring from empty would time a growing heap.
        The fill answers requests from a stream of their own in-process, on
        the service's engine.  Returns the number of requests it took.
        """
        engine = state["engine"]
        capacity = engine.config.presence_store_capacity
        if self.warm or capacity == 0:
            return 0
        rng = random.Random(f"{self.name}-{self.seed}-fill")
        requests = 0
        while engine.cache_stats()["entries"] < capacity:
            (start, end), q = self._window_and_set(rng)
            engine.flows(state["iupt"], q, start, end)
            requests += 1
        return requests

    async def teardown(self, state: dict) -> None:
        for conn in state["conns"]:
            await conn.close()
        await state["service"].stop()
        state["engine"].close()

    async def measure(self, state: dict, seconds: float, recorder=None) -> None:
        """Run the closed-loop clients for ``seconds``."""
        deadline = time.perf_counter() + seconds

        async def client(index: int) -> None:
            conn, plan = state["conns"][index], state["plans"][index]
            while time.perf_counter() < deadline:
                PROBE.sample()
                label, op, fields = next(plan)
                result = await conn.call(op, fields, recorder, label)
                if result is None:
                    continue  # a failure, counted as such
                # Keep one answer per distinct request, and every answer
                # that differs from it, so memory does not grow with load.
                key = repr((op, fields))
                first = state["answers"].setdefault(key, (index, op, fields, result))
                if first[3] != result:
                    state["answers"][f"{key}#{len(state['answers'])}"] = (index, op, fields, result)

        await asyncio.gather(*(client(i) for i in range(CLIENTS)))

    def operations(self, state: dict) -> Tuple[List[Conn], List[str]]:
        """The connections and op labels the end-to-end latency covers."""
        return state["conns"], ["top_k", "flows", "batch"]

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(self, state: dict) -> Tuple[List[str], str]:
        """Compare every served answer with an uncached in-process engine.

        Returns the problems found and the digest of the answers to each
        client's first ``DIGEST_REQUESTS`` plan requests.
        """
        oracle = uncached_engine(self.scenario)
        memo: Dict[str, object] = {}
        problems: List[str] = []
        any_positive = False
        for client, op, fields, result in state["answers"].values():
            key = repr((op, fields))
            if key not in memo:
                memo[key] = oracle_answer(oracle, state["iupt"], op, fields)
            if wire_normal(result) != memo[key]:
                problems.append(f"client {client} {op} {fields} differs from the uncached engine")
            if op == "top_k":
                problems.extend(ranking_problems(result, fields["q"], fields["k"]))
            elif op == "flows":
                problems.extend(flow_problems(result["flows"], fields["q"]))
            else:
                for query, item in zip(fields["queries"], result["results"]):
                    problems.extend(ranking_problems(item, query["q"], query["k"]))
            any_positive = any_positive or positive_flow(result)
        if not any_positive:
            problems.append("no served answer carries a positive flow")
        answers = []
        for client in range(CLIENTS):
            stream = self.plan(client)
            for _ in range(DIGEST_REQUESTS):
                _label, op, fields = next(stream)
                key = repr((op, fields))
                if key not in memo:
                    memo[key] = oracle_answer(oracle, state["iupt"], op, fields)
                answers.append(memo[key])
        oracle.close()
        return problems[:20], digest(answers)

#!/usr/bin/env python3
"""The repository benchmark: one workload per run, or all of them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload adhoc-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process: inputs are generated from ``--seed``,
the system is set up at least ``MIN_SETUPS`` times (the median is
``setup_s``), the presence store is filled where the workload needs it, then
measured for ``--seconds`` with tracing off (``--trace 0``: end-to-end
metrics) or, with ``--trace 1``, for half the time untraced and half traced
(per-layer metrics).  Every answer is checked; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs every workload untraced and traced, each in a fresh
process, and exits non-zero if any output check failed.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adhoc-cold", "dashboard-warm", "live-ingest")
#: Set-up runs at least MIN_SETUPS times, and on until SETUP_BUDGET_S has
#: passed, so a set-up of a few milliseconds still yields a steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 9, 200, 3.0
#: Calibration loops timed before each set-up.  One loop time is too noisy
#: to scale a single set-up by, so the median over all the set-ups' loops
#: scales their median (see speed.py).
SETUP_PROBES = 3
#: The gated end-to-end metrics.  Times are process CPU time (see README.md,
#: "Why CPU time"); wall-clock latencies are printed beside them.
E2E_UNITS = {
    "op_cpu_p50_ms": "ms", "ops_per_cpu_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MiB",
}


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def make_workload(name: str, seed: int, work_dir: pathlib.Path):
    from live import LiveWorkload
    from reads import ReadWorkload

    if name == "live-ingest":
        return LiveWorkload(seed, work_dir)
    return ReadWorkload(seed, warm=name == "dashboard-warm")


def counters(state: dict) -> dict:
    """Counters read from the program at a phase boundary."""
    from common import io_wchar

    service = state["service"]
    cache = service.engine.cache_stats()
    out = {
        "requests": service.metrics.requests_total,
        "errors": service.metrics.errors_total,
        "shed": service.admission.stats.shed_total,
        "hits": cache.get("hits", 0), "misses": cache.get("misses", 0),
        "evictions": cache.get("evictions", 0),
        "wchar": io_wchar(),
    }
    summary = service.continuous.describe()
    for key in ("refreshes", "skipped", "objects_recomputed", "objects_rekeyed"):
        out[key] = summary[key]
    replica = state.get("replica")
    out["batches_applied"] = replica.applied_batches if replica else 0
    out["snapshot_catchups"] = replica.snapshot_catchups if replica else 0
    return out


async def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from common import cpu_steal, merged, peak_rss_mb
    from speed import PROBE
    from stats import self_check
    from tracing import SpanRecorder

    self_check()
    work_dir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        recorder.install()  # disabled until the traced phase
    try:
        began = time.perf_counter()
        workload = make_workload(name, seed, work_dir)
        inputs_s = time.perf_counter() - began
        # The generated inputs (scenario, record batches, request streams)
        # belong to the benchmark, not to the system under test: move them
        # out of the collector's sight so full collections only walk what
        # the system itself allocates, as they would in a deployed service.
        gc.collect()
        gc.freeze()
        setup_times, setup_wall = [], []
        PROBE.reset()
        while True:
            gc.collect()  # each set-up starts from the same collector state
            for _ in range(SETUP_PROBES):
                PROBE.sample(force=True)
            began, cpu_began = time.perf_counter(), time.process_time()
            state = await workload.setup()
            setup_times.append(time.process_time() - cpu_began)
            setup_wall.append(time.perf_counter() - began)
            if len(setup_times) >= MAX_SETUPS or (
                len(setup_times) >= MIN_SETUPS and sum(setup_wall) >= SETUP_BUDGET_S
            ):
                break
            await workload.teardown(state)
        result = {
            "inputs_s": inputs_s, "setup_times": setup_times, "setup_wall": setup_wall,
            "setup_scale": PROBE.scale(),
        }
        began = time.perf_counter()
        result["fill_requests"] = workload.fill(state)
        result["fill_s"] = time.perf_counter() - began
        conns, labels = workload.operations(state)
        if trace:
            await workload.measure(state, seconds / 2)
            _, _, untraced = merged(conns, labels, PROBE)
            result["untraced_cpu_p50_ms"] = untraced.p(50.0)
            for conn in conns:
                conn.reset()
            for key in ("push", "late_ms", "lag"):
                if key in state:
                    state[key] = type(state[key])()
            seconds /= 2
        before = counters(state)
        first_batch = state.get("next_batch", 0)
        if recorder is not None:
            recorder.enabled = True
        steal_before = cpu_steal()
        began = time.perf_counter()
        PROBE.reset()
        PROBE.sample()
        await workload.measure(state, seconds, recorder)
        result["elapsed_s"] = time.perf_counter() - began
        PROBE.sample(force=True)
        result["scale"] = PROBE.scale()
        result["cpu_s"] = (PROBE.cpu[-1] - PROBE.cpu[0]) / 1e9
        result["scaled_cpu_s"] = PROBE.scaled_cpu_s()
        steal_after = cpu_steal()
        result["steal_share"] = (steal_after[0] - steal_before[0]) / max(
            1, steal_after[1] - steal_before[1]
        )
        if recorder is not None:
            recorder.enabled = False
        after = counters(state)
        result["peak_rss_mb"] = peak_rss_mb()
        result["delta"] = {key: after[key] - before[key] for key in after}
        result["cache_entries"] = state["service"].engine.cache_stats().get("entries", 0)
        result["cache_capacity"] = state["service"].engine.config.presence_store_capacity
        result["counts"], result["sample"], result["cpu"] = merged(conns, labels, PROBE)
        result["by_label"] = {
            label: merged(conns, [label])[1] for label in labels
        }
        if name == "live-ingest":
            result["push"], result["late_ms"], result["lag"] = state["push"], state["late_ms"], state["lag"]
            result["reordered"] = workload.reordered(state)
            result["received"] = state["received"]
            result["records_measured"] = sum(
                len(workload.batches[i]) for i in state["acks"] if i >= first_batch
            )
            problems, answer_digest, extra = await workload.finish(state)
            result.update(extra)
        else:
            problems, answer_digest = workload.check(state)
        result["problems"], result["digest"] = problems, answer_digest
        result["describe"] = workload.describe()
        await workload.teardown(state)
        if recorder is not None:
            result["spans"] = recorder.spans
            result["recorder"] = recorder
            out = ROOT / ".perfbench_work" / f"spans-{name}-{seed}.jsonl"
            recorder.write(str(out))
            result["spans_file"] = str(out.relative_to(ROOT))
        return result
    finally:
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def e2e_metrics(result: dict) -> dict:
    cpu = result["cpu"]
    return {
        "op_cpu_p50_ms": cpu.p(50.0),
        "ops_per_cpu_s": result["counts"].ok / result["scaled_cpu_s"],
        "setup_s": statistics.median(result["setup_times"]) * result["setup_scale"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(result: dict) -> dict:
    """The per-layer metrics of a traced run (see README.md for each)."""
    from tracing import durations_by_rid, self_times

    spans, recorder, delta = result["spans"], result["recorder"], result["delta"]
    ops = max(1, result["counts"].ok)
    own = self_times(spans)

    def per_op(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names) / ops

    def count(name: str) -> int:
        return sum(1 for span in spans if span[1] == name)

    client = {s[4]: (s[3] - s[2]) / 1e6 for s in spans if s[1].startswith("client.")}
    below = durations_by_rid(spans, "engine.execute")
    for rid, ms in durations_by_rid(spans, "storage.ingest").items():
        below[rid] = below.get(rid, 0.0) + ms
    dispatch = durations_by_rid(spans, "service.dispatch")
    overhead = [ms - below.get(rid, 0.0) for rid, ms in client.items()]
    total = sum(client.values())
    uncovered = sum(ms - min(ms, dispatch.get(rid, 0.0)) for rid, ms in client.items())

    sent = defaultdict(list)
    for sub_id, at in recorder.marks["push_sent"]:
        sent[sub_id].append(at)
    delivery = []
    received = result.get("received", {})
    for sub_id, times in sent.items():
        later = [t for t in received.get(sub_id, []) if t >= times[0]]
        delivery.extend((got - at) / 1e6 for at, got in zip(times, later))

    lookups = delta["hits"] + delta["misses"]
    reports = result.get("recovery_reports", [])
    records = result.get("records_measured", 0)
    by_label = result["by_label"]

    def p50(label: str) -> float:
        sample = by_label.get(label)
        return sample.p(50.0) if sample is not None and len(sample) else 0.0

    untraced = result.get("untraced_cpu_p50_ms")
    traced = result["cpu"].p(50.0)
    c = recorder.counts
    return {
        "service.requests": delta["requests"],
        "service.failed": delta["errors"],
        "service.shed": delta["shed"],
        "service.self_ms": per_op("service.dispatch", "service.handler", "service.push"),
        "service.overhead_ms": statistics.median(overhead) if overhead else 0.0,
        "service.top_k_p50_ms": p50("top_k"),
        "service.flows_p50_ms": p50("flows"),
        "service.batch_p50_ms": p50("batch"),
        "service.push_delivery_ms": statistics.median(delivery) if delivery else 0.0,
        "engine.execute_ms": per_op("engine.execute"),
        "engine.cache_hit_rate": delta["hits"] / lookups if lookups else 0.0,
        "engine.cache_evictions": delta["evictions"],
        "engine.refresh_ms": per_op("engine.refresh"),
        "engine.refreshes": delta["refreshes"],
        "engine.refreshes_skipped": delta["skipped"],
        "engine.objects_recomputed": delta["objects_recomputed"],
        "engine.objects_rekeyed": delta["objects_rekeyed"],
        "core.reduce_ms": per_op("core.reduce"),
        "core.reduce_kept_ratio": c["reduce_kept"] / c["reduce_in"] if c["reduce_in"] else 0.0,
        "core.presence_ms": per_op("core.presence"),
        "core.presence_calls": c["presence_calls"],
        "core.presence_truncated": c["presence_truncated"],
        "core.score_ms": per_op("core.score"),
        "core.score_calls": c["score_calls"],
        "storage.fetch_ms": per_op("storage.fetch"),
        "storage.records_fetched_per_result": c["records_fetched"] / ops,
        "storage.ingest_ms": per_op("storage.ingest"),
        "storage.fsyncs": count("storage.fsync"),
        "storage.fsync_ms": per_op("storage.fsync"),
        "storage.wchar_per_record": delta["wchar"] / records if records else 0.0,
        "storage.checkpoints": count("storage.checkpoint"),
        "storage.checkpoint_ms": per_op("storage.checkpoint"),
        "storage.frames_replayed": sum(r.get("frames_replayed", 0) for r in reports),
        "storage.shards_loaded_lazily": sum(r.get("shards_loaded_lazily", 0) for r in reports),
        "codec.encode_ms": per_op("codec.encode"),
        "codec.decode_ms": per_op("codec.decode"),
        "codec.bytes": c["codec_bytes"],
        "replication.apply_ms": per_op("replication.apply"),
        "replication.apply_lag_ms": result["lag"].p(50.0) if result.get("lag") and len(result["lag"]) else 0.0,
        "replication.batches_applied": delta["batches_applied"],
        "replication.snapshot_catchups": delta["snapshot_catchups"],
        "runtime.gc_ms": per_op("runtime.gc"),
        "runtime.gc_full_collections": c["gc_full"],
        "trace.unaccounted_share": uncovered / total if total else 0.0,
        "trace.overhead": traced / untraced if traced and untraced else 0.0,
    }


def span_self_ms(result: dict) -> dict:
    """Self time per completed operation of each span name, largest first."""
    from tracing import self_times

    ops = max(1, result["counts"].ok)
    own = self_times(result["spans"])
    return dict(sorted(((name, ms / ops) for name, ms in own.items()), key=lambda kv: -kv[1]))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def header(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.codec import codec_info

    info = codec_info()
    try:
        import numpy  # noqa: F401 - presence only

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(), "python": platform.python_version(),
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
        "codec": info, "numpy": has_numpy,
        "fsync": "batch" if name == "live-ingest" else "none (in-memory table)",
    }


def report(name: str, seed: int, seconds: float, trace: bool, result: dict) -> dict:
    """Print the human-readable report and return the result line."""
    from speed import REFERENCE_MS
    from stats import MIN_BEYOND, beyond, supported

    for key, value in header(name, seed, seconds, trace).items():
        print(f"# {key}: {value}")
    for key, value in result["describe"].items():
        print(f"# size.{key}: {value}")
    print(f"# size.presence_store: {result['cache_entries']:.0f} entries at the end "
          f"of {result['cache_capacity']} capacity")
    setups, walls = result["setup_times"], result["setup_wall"]
    print(f"# inputs_s: {result['inputs_s']:.3f}  setups: {len(setups)}, "
          f"cpu {min(setups):.4f}-{max(setups):.4f} s (scaled by {result['setup_scale']:.4f}), "
          f"wall median {statistics.median(walls):.4f} s"
          + f"  fill: {result['fill_requests']} requests in {result['fill_s']:.3f} s")
    print(f"# cpu steal while measuring: {result['steal_share']:.1%} of all CPU time "
          f"(time the hypervisor ran something else)")
    print(f"# cpu speed: the calibration loop took a median {REFERENCE_MS / result['scale']:.3f} ms "
          f"(reference {REFERENCE_MS} ms); process cpu {result['cpu_s']:.3f} s, "
          f"{result['scaled_cpu_s']:.3f} s at the reference speed")
    counts, sample = result["counts"], result["sample"]
    attempted, failed = counts.attempted, counts.failed_total
    n = len(sample)
    print(f"# ops: attempted {attempted}, ok {counts.ok}, failed {failed} "
          f"{dict(counts.failed) or ''}; error_rate {failed / max(1, attempted):.4f}")
    print(f"# latency samples: {n}; {beyond(n, 95.0)} beyond p95 "
          f"({'supported' if supported(n, 95.0) else f'UNSUPPORTED: fewer than {MIN_BEYOND} beyond'})")
    prefix = "query" if name != "live-ingest" else "ingest"
    print(f"# wall clock, not gated: {prefix}_p50_ms {sample.p(50.0):.3f}  "
          f"{prefix}_p95_ms {sample.p(95.0):.3f}  "
          f"{'query_rps' if prefix == 'query' else 'acks_per_s'} "
          f"{counts.ok / result['elapsed_s']:.3f}  "
          f"(process cpu {result['cpu_s'] / result['elapsed_s']:.0%} of one core)")
    cpu = result["cpu"]
    print(f"# cpu tail, not gated: op_cpu_p90_ms {cpu.p(90.0):.3f}  op_cpu_p95_ms {cpu.p(95.0):.3f}")
    for label, by in result["by_label"].items():
        summary = by.summary()
        print(f"#   {label}: n={summary['n']} p50={summary['p50']} p95={summary['p95']} max={summary['max']}")
    if name == "live-ingest":
        push = result["push"]
        recoveries = result["recoveries_s"]
        print(f"#   push_p50_ms: {push.p(50.0)} ms  push_p95_ms: "
              f"{push.p(95.0) if supported(len(push), 95.0) else 'unsupported'} ms (n={len(push)})")
        print(f"#   recovery_s: {statistics.median(recoveries):.4f} s (median of "
              + ", ".join(f"{r:.3f}" for r in recoveries) + ")")
        print(f"#   disk_bytes_per_record: {result['disk_bytes'] / result['records_ingested']:.2f} "
              f"bytes ({result['disk_bytes']} bytes, {result['records_ingested']} records, "
              f"compaction {result['compaction']})")
        late = result["late_ms"]
        print(f"#   generator lateness: p50 {late.p(50.0):.3f} ms, max {max(late.values_ms):.3f} ms; "
              f"batches committed out of due order: {result['reordered']}")
    metrics = layer_metrics(result) if trace else e2e_metrics(result)
    for key, value in metrics.items():
        print(f"{key:36s} {value:14.6g} {unit_of(key)}")
    if trace:
        print("# self time, ms per op (runtime.gc is contained in the others): " + ", ".join(
            f"{name}={ms:.3f}" for name, ms in span_self_ms(result).items()))
        print(f"# spans: {len(result['spans'])} written to {result['spans_file']}")
    print(f"# answer digest: {result['digest']}")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
    return {
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit_of(key)}
            for key, value in metrics.items()
        },
    }


RATIOS = {
    "engine.cache_hit_rate", "core.reduce_kept_ratio",
    "trace.unaccounted_share", "trace.overhead",
}
BYTES = {"storage.wchar_per_record", "codec.bytes"}


def unit_of(key: str) -> str:
    if key in E2E_UNITS:
        return E2E_UNITS[key]
    if key.endswith("_ms"):
        return "ms"
    return "ratio" if key in RATIOS else "bytes" if key in BYTES else "count"


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    lines = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            print(f"## {name} trace={trace}", flush=True)
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            last = done.stdout.strip().splitlines()[-1:] or ["{}"]
            try:
                line = json.loads(last[0])
            except json.JSONDecodeError:
                line = {}
            lines[f"{name}/trace{trace}"] = line
            if done.returncode != 0 or not line.get("correct"):
                ok = False
                print(f"## {name} trace={trace} FAILED (exit {done.returncode})", flush=True)
    print(json.dumps({"correct": ok, "runs": lines}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro  # noqa: F401 - the program under test, built from src/
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    result = asyncio.run(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    line = report(args.workload, args.seed, args.seconds, bool(args.trace), result)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

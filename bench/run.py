"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload adhoc --seed 1 --seconds 25 --trace 0

Run from the repository root.  With ``--trace 0`` it prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it runs the
workload with the outside-in tracer (``tracer.py``) and prints every
per-layer metric instead, writing the spans to
``.bench_out/spans-<workload>-<seed>.json``.  Every answer is checked
against SQLite (``reference.py``); the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402
import workloads as W  # noqa: E402
from reference import Reference, same_multiset  # noqa: E402
from tracer import Tracer  # noqa: E402

MIB = 1024.0 * 1024.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


# -- correctness -----------------------------------------------------------


#: SQLite runs the checks on this many threads (it releases the GIL),
#: each over its own copy of the data.
CHECK_THREADS = 2


def check(run: W.Run) -> list[str]:
    """Every distinct (SQL text, data version) against SQLite, repeats
    against their first answer, the fusion properties, and a planted
    wrong row that the checker must reject."""
    firsts: dict[tuple[str, int], W.Op] = {}
    problems: list[str] = []
    for op in run.reads():
        if op.error:
            continue
        key = (op.sql, op.version)
        if key not in firsts:
            firsts[key] = op
        elif not same_multiset(op.rows, firsts[key].rows):
            problems.append(f"{op.name}@v{op.version}: differs from its earlier answer")
    distinct = list(firsts.values())
    with ThreadPoolExecutor(CHECK_THREADS) as pool:
        shares = [distinct[i::CHECK_THREADS] for i in range(CHECK_THREADS)]
        for found in pool.map(_check_share, [run] * CHECK_THREADS, shares, [True, False]):
            problems += found
    for name, op, unfused_rows, unfused_bytes in run.fused_checks:
        if not same_multiset(op.rows, unfused_rows):
            problems.append(f"{name}: fused and unfused rows differ")
        if op.bytes_scanned > unfused_bytes:
            problems.append(f"{name}: fused scans {op.bytes_scanned} > unfused {unfused_bytes}")
    return problems


def _check_share(run: W.Run, ops: list[W.Op], plant: bool) -> list[str]:
    """Check ``ops`` (in version order) on a private SQLite copy that
    replays the run's writes as it goes."""
    problems: list[str] = []
    ref = Reference(run.store, replace={W.FACT: run.landing.base})
    landed: deque = deque()
    applied = 0
    try:
        for op in ops:
            while applied < op.version:
                landed.append(ref.insert(W.FACT, run.landing.log[applied]))
                if len(landed) > W.LANDING_WINDOW:
                    ref.delete(W.FACT, landed.popleft())
                applied += 1
            why = ref.check(op.sql, op.columns, op.rows)
            if why:
                problems.append(f"{op.name}@v{op.version}: {why}")
            elif plant and op.rows:
                # The checker itself must reject a wrong row.
                plant = False
                wrong = [tuple(map(_perturb, op.rows[0]))] + list(op.rows[1:])
                if ref.check(op.sql, op.columns, wrong) is None:
                    problems.append("the checker accepted a planted wrong row")
        if plant:
            problems.append("no answer was available to plant a wrong row in")
    finally:
        ref.close()
    return problems


def _perturb(value):
    if isinstance(value, bool) or value is None:
        return "planted"
    if isinstance(value, (int, float)):
        return value + 1
    return f"{value}~"


# -- end-to-end metrics ----------------------------------------------------


def at_reference(op: W.Op) -> float:
    """``op``'s time at the host's reference speed (``hostspeed``)."""
    return hostspeed.at_reference(op.seconds, op.kernel)


def slot_times(reads: list[W.Op]) -> list[float]:
    """Closed loops: each slot's median time over the run's rounds, at
    the host's reference speed.

    Every round reads the same slots — (template or text, how many
    times it was read earlier in the round) — so a slot repeats the
    same work once per round (ad hoc: the same template with other
    literals; dashboard: the same text from the same cache state).
    """
    times: dict[tuple[str, int], list[float]] = {}
    seen: dict[tuple[int, str], int] = {}
    for op in reads:
        k = seen.get((op.round, op.name), 0)
        seen[(op.round, op.name)] = k + 1
        times.setdefault((op.name, k), []).append(at_reference(op))
    return [statistics.median(v) for v in times.values()]


def end_to_end(run: W.Run, seed: int, seconds: float) -> dict[str, float]:
    cfg = W.SETTINGS[run.workload]
    reads = [op for op in run.reads() if not op.error]
    if run.workload == "service":
        # Each ticket and each burst by its median over rounds: the
        # ticket's latency from its submission, what it kept a
        # dispatcher busy (that latency less its wait in the admission
        # queue), and the burst's time from first submission to last
        # completion.
        lat: dict[int, list[float]] = {}
        busy: dict[int, list[float]] = {}
        bursts: dict[tuple[int, int], list[W.Op]] = {}
        for op in reads:
            lat.setdefault(op.arrival, []).append(at_reference(op))
            held = op.seconds - op.metrics.queue_wait_ms / 1000.0
            busy.setdefault(op.arrival, []).append(hostspeed.at_reference(held, op.kernel))
            bursts.setdefault((op.arrival // W.SERVICE_BURST, op.round), []).append(op)
        walls: dict[int, list[float]] = {}
        for (burst, _), ops in bursts.items():
            wall = max(op.finished for op in ops) - min(op.due for op in ops)
            walls.setdefault(burst, []).append(hostspeed.at_reference(wall, ops[0].kernel))
        times = [statistics.median(v) for v in lat.values()]
        qps = len(times) / sum(statistics.median(v) for v in walls.values())
        held_s = [statistics.median(v) for v in busy.values()]
        max_qps = W.replay_capacity(held_s, seed, run.workload, servers=W.workers())
    else:
        times = slot_times(reads)
        qps = len(times) / sum(times)
        max_qps = W.replay_capacity(times, seed, run.workload)
    lat_ms = [t * 1000.0 for t in times]
    return {
        "setup_s": statistics.median(
            hostspeed.at_reference(s, k) for s, k in zip(run.setup_s, run.setup_kernel)
        ),
        "queries_per_s": qps,
        "query_p50_ms": statistics.median(lat_ms),
        "query_tail_ms": percentile(lat_ms, cfg["tail"]),
        "scanned_mib_per_query": sum(op.bytes_scanned for op in reads) / len(reads) / MIB,
        "peak_rss_mib": run.peak_rss_mib,
        "write_p50_ms": statistics.median(at_reference(op) for op in run.writes()) * 1000.0,
        "max_qps_at_slo": max_qps,
    }


# -- per-layer metrics -----------------------------------------------------


def per_layer(run: W.Run, tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures from the traced part of the run; the second
    value names the metrics whose entry points are missing."""
    spans = tracer.spans[run.trace_mark:run.trace_end]
    roots = {s[0] for s in spans if s[1] == "query"}
    query_spans = [s for s in spans if s[5] in roots]
    self_ms = {k: v * 1000.0 for k, v in tracer.self_times(query_spans).items()}
    reads = [op for op in run.reads(traced=True) if not op.error]
    q = max(1, len(reads))

    def count(name: str) -> int:
        return tracer.counts.get(name, 0) - run.count_mark.get(name, 0)

    names = {s[0]: s[1] for s in spans}
    fuse_attempts = sum(
        1 for s in query_spans if s[1] == "fusion.fuse" and names.get(s[4]) != "fusion.fuse"
    )
    fused = sum(op.fusions for op in reads)
    # Writes are top-level put and reload calls (the puts inside data
    # generation are children of its span); set-up writes count too.
    built = [s[3] - s[2] for s in tracer.spans if s[4] is None and s[1] == "storage.build"]
    put = [b + s[3] - s[2] for b, s in zip(
        built, [s for s in tracer.spans if s[4] is None and s[1] == "storage.put"])]
    reload = [s[3] - s[2] for s in tracer.spans if s[4] is None and s[1] == "engine.reload"]
    waits = [op.metrics.queue_wait_ms for op in reads if op.metrics.queue_wait_ms is not None]
    stats = run.cache_stats
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    generate = [s[3] - s[2] for s in tracer.spans if s[1] == "tpcds.generate"]
    pool = [s[3] - s[2] for s in tracer.spans if s[1] == "parallel.pool_start"]
    metrics = {
        "sql.bind_ms": self_ms.get("sql.bind", 0.0) / q,
        "optimizer.optimize_ms": self_ms.get("optimizer.optimize", 0.0) / q,
        "algebra.simplify_calls": sum(1 for s in query_spans if s[1] == "algebra.simplify") / q,
        "algebra.simplify_ms": self_ms.get("algebra.simplify", 0.0) / q,
        "algebra.normalize_calls": count("algebra.normalize") / q,
        "fusion.fuse_calls": sum(1 for s in query_spans if s[1] == "fusion.fuse") / q,
        "fusion.fuse_ms": self_ms.get("fusion.fuse", 0.0) / q,
        "fusion.fuse_success_ratio": fused / fuse_attempts if fuse_attempts else 0.0,
        "optimizer.fusions_fired": fused / q,
        "engine.execute_ms": self_ms.get("engine.execute", 0.0) / q,
        "engine.rows_out": sum(len(op.rows) for op in reads) / q,
        "storage.scan_ms": self_ms.get("storage.scan", 0.0) / q,
        "storage.partitions_read": sum(op.partitions_read for op in reads) / q,
        "plan_cache.lookup_ms": self_ms.get("plan_cache.lookup", 0.0) / q,
        "plan_cache.hit_ratio": stats.get("hits", 0) / lookups if lookups else 0.0,
        "plan_cache.evictions": stats.get("evictions", 0) / max(1, len(run.reads())),
        "plan_cache.invalidations": statistics.mean(run.invalidations) if run.invalidations else 0.0,
        "storage.put_ms": statistics.median(put) * 1000.0 if put else 0.0,
        "engine.reload_ms": statistics.median(reload) * 1000.0 if reload else 0.0,
        "parallel.dispatch_ms": self_ms.get("parallel.dispatch", 0.0) / q,
        "parallel.fragments": count("parallel.fragment") / q,
        "parallel.fragment_retries": count("parallel.retry") / q,
        "server.queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "server.queue_wait_tail_ms": percentile(waits, 0.9) if waits else 0.0,
        "server.shared_followers": sum(op.metrics.shared_hits for op in reads) / q,
        "server.degradations": sum(len(op.metrics.degradations) for op in reads) / q,
        "tpcds.generate_s": statistics.median(generate) if generate else 0.0,
        "parallel.pool_start_s": statistics.median(pool) if pool else 0.0,
        "trace.overhead_pct": overhead_pct(run),
        "host.kernel_us": statistics.median(op.kernel for op in run.ops if op.kernel) * 1e6,
    }
    # A layer whose entry point is gone reports nothing rather than 0.
    gone = {entry.split(" ")[0] for entry in tracer.missing}
    dropped = [name for name, layers in _NEEDS.items() if gone & set(layers.split())]
    for name in dropped:
        del metrics[name]
    return metrics, dropped


#: The probes (tracer.PROBES) each span- or count-derived metric needs.
_NEEDS = {
    "sql.bind_ms": "sql.bind",
    "optimizer.optimize_ms": "optimizer.optimize",
    "algebra.simplify_calls": "algebra.simplify",
    "algebra.simplify_ms": "algebra.simplify",
    "algebra.normalize_calls": "algebra.normalize",
    "fusion.fuse_calls": "fusion.fuse",
    "fusion.fuse_ms": "fusion.fuse",
    "fusion.fuse_success_ratio": "fusion.fuse",
    "engine.execute_ms": "engine.execute",
    "storage.scan_ms": "storage.scan",
    "plan_cache.lookup_ms": "plan_cache.lookup",
    "storage.put_ms": "storage.build storage.put",
    "engine.reload_ms": "engine.reload",
    "parallel.dispatch_ms": "parallel.dispatch",
    "parallel.fragments": "parallel.fragment",
    "parallel.fragment_retries": "parallel.retry",
    "tpcds.generate_s": "tpcds.generate",
    "parallel.pool_start_s": "parallel.pool_start",
}


def overhead_pct(run: W.Run) -> float:
    """Tracing overhead: the median over query templates of traced
    against untraced latency (closed loops: alternate rounds, leaving
    out round 0 — which also runs the unfused twins — when there are
    later untraced rounds; service: the pairs it runs for this purpose)."""
    kind = "overhead" if run.workload == "service" else "read"
    for skip in ({0}, set()):
        times: dict[bool, dict[str, list[float]]] = {True: {}, False: {}}
        for op in run.ops:
            if op.kind == kind and not op.error and op.round not in skip:
                times[op.traced].setdefault(op.name, []).append(at_reference(op))
        on, off = times[True], times[False]
        ratios = [
            statistics.median(on[name]) / statistics.median(off[name])
            for name in on if name in off
        ]
        if ratios:
            return (statistics.median(ratios) - 1.0) * 100.0
    return 0.0


# -- main ------------------------------------------------------------------


def declared(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as manifest:
        return json.load(manifest)[kind]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    run = W.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    problems = check(run)
    for problem in problems:
        print(f"WRONG: {problem}")
    reads = run.reads()
    failed = [op for op in run.ops if op.error]
    for op in failed[:5]:
        print(f"FAILED: {op.name}: {op.error}")
    print(f"workload={args.workload} seed={args.seed} reads={len(reads)} "
          f"writes={len(run.writes())} attempted={len(run.ops)} failed={len(failed)}"
          + (f" refused={run.refused}" if args.workload == "service" else ""))
    if args.trace:
        values, missing = per_layer(run, tracer)
        os.makedirs(os.path.join(os.getcwd(), ".bench_out"), exist_ok=True)
        path = os.path.join(".bench_out", f"spans-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"spans={len(tracer.spans)} written to {path}; "
              f"tracing overhead {values.get('trace.overhead_pct', float('nan')):+.1f}%")
        if missing:
            print(f"MISSING (entry point gone): {', '.join(missing)}")
        kind = "per_layer"
    else:
        values = end_to_end(run, args.seed, args.seconds)
        kind = "end_to_end"
    metrics = {}
    for spec in declared(kind):
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
            print(f"{spec['name']:28s} {values[spec['name']]:14.6f} {spec['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

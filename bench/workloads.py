"""The three workloads: ``adhoc``, ``dashboard`` and ``service``.

Each runs through the program's public API only — ``generate_dataset``,
``Session.execute``, ``Store.put`` with ``Session.reload_table``, and
``QueryService.submit`` — and returns a :class:`Run`: every operation
it timed, the writes it made (so the SQLite reference can replay
them), its set-up times and its peak memory.  ``run.py`` turns a
:class:`Run` into metrics and checks its answers.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import repro
from repro import OptimizerConfig, Session
from repro.errors import AdmissionRejectedError
from repro.server.service import QueryService, ServiceConfig
from repro.storage.columnar import StoredTable
from repro.tpcds.queries import STUDIED_QUERIES, WORKLOAD_QUERIES

import hostspeed
import inputs

#: Data scale of the dashboard and of the ad hoc workload (half, so a
#: run makes twice the rounds); the service's is below.  See README for
#: rows and MiB per table.
SCALE = 1.0
ADHOC_SCALE = 0.5
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Calibration kernel runs per sample around a set-up (around an
#: operation: ``hostspeed.REPEATS``).
SETUP_KERNEL_REPEATS = 9
#: Writes land days into this fact table ...
FACT = "store_sales"
#: ... ``LANDING_ROWS`` rows at a time, keeping the last
#: ``LANDING_WINDOW`` landed days (the oldest expires as a new one
#: lands), so the table's size does not grow with the run's length.
LANDING_ROWS = 64
LANDING_WINDOW = 4
#: The paper's four fusion rules, as the optimizer names them.
PAPER_RULES = frozenset(
    {"groupby_join_to_window", "join_on_keys", "union_all_on_join", "union_all_fusion"}
)

#: Per-workload reported tail percentile, taken over the 32 slots (closed
#: loops) or the 32 tickets (service) of a round, and
#: the latency SLO on it for ``max_qps_at_slo``.
SETTINGS = {
    "adhoc": {"tail": 0.95, "slo_ms": 10000.0},
    "dashboard": {"tail": 0.90, "slo_ms": 3000.0},
    "service": {"tail": 0.90, "slo_ms": 1000.0},
}
#: Ad hoc: a write after every 8th query (4 per 32-query round).
ADHOC_WRITE_EVERY = 8
#: Dashboard: a write opens each round, then each studied query is read
#: 4 times, so every round reads each of the five studied queries over
#: the written table exactly once after its invalidation.
DASHBOARD_READS_PER_TEXT = 4
#: Service: data scale (smaller, so a round ends in about a second),
#: simulated object-store latency per partition read, plan cache budget
#: (below the round's working set), Zipf exponent over the pool (one
#: instance per template), days landed before start, tenants the load is
#: spread over, warm-up queries, arrivals per round, tickets submitted
#: at once (twice the dispatchers, so half of each burst queues), and
#: the fewest rounds a run makes.
SERVICE_SCALE = 0.25
SERVICE_IO_LATENCY_MS = 5.0
SERVICE_CACHE_MB = 0.12
SERVICE_ZIPF = 1.2
SERVICE_WRITES = 8
SERVICE_TENANTS = 4
SERVICE_WARMUP = 10
SERVICE_ARRIVALS = 32
SERVICE_BURST = 4
SERVICE_MIN_ROUNDS = 4
SERVICE_OVERHEAD_PAIRS = 16


@dataclass
class Op:
    """One timed operation and what it returned."""

    kind: str  # "read", "write", or "overhead" (the service's tracing pairs)
    name: str
    sql: str | None
    version: int  # writes applied before this operation
    seconds: float
    columns: tuple = ()
    rows: list = field(default_factory=list)
    bytes_scanned: float = 0.0
    partitions_read: int = 0
    fusions: int = 0
    metrics: object = None
    traced: bool = False
    round: int = 0
    error: str | None = None
    #: Service only: the ticket's index in the round, and its submission
    #: and completion instants (perf_counter seconds).
    arrival: int = -1
    due: float = 0.0
    finished: float = 0.0
    #: The calibration kernel's time around this operation (hostspeed).
    kernel: float = 0.0


@dataclass
class Run:
    workload: str
    ops: list[Op] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_kernel: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    landing: "Landing | None" = None
    store: object = None
    trace_mark: int = 0
    trace_end: int | None = None
    count_mark: dict = field(default_factory=dict)
    refused: int = 0
    cache_stats: dict = field(default_factory=dict)
    invalidations: list[int] = field(default_factory=list)
    fused_checks: list[tuple] = field(default_factory=list)

    def reads(self, traced: bool | None = None) -> list[Op]:
        return [
            op for op in self.ops
            if op.kind == "read" and (traced is None or op.traced == traced)
        ]

    def writes(self) -> list[Op]:
        return [op for op in self.ops if op.kind == "write"]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workers() -> int:
    """The service's dispatcher and worker count: the CPUs this process
    may use (capped at 4 to keep the fork pool small)."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


class Landing:
    """Lands days of fact rows through ``Store.put`` + ``reload_table``.

    Keeps the generated partitions of :data:`FACT` and a rolling window
    of landed ones; ``log`` holds every landed day's rows so the SQLite
    reference can replay the same writes.
    """

    def __init__(self, store, seed: int):
        self.store = store
        self.base = store.stored_table(FACT)
        self.rng = random.Random(f"landing-{seed}")
        self.landed: list = []
        self.log: list[dict[str, list]] = []

    def write(self, session: Session) -> float:
        day = inputs.FIRST_DATE_SK + self.rng.randrange(365, 4 * 365)
        data = inputs.day_rows(self.base, day, LANDING_ROWS, self.rng)
        start = time.perf_counter()
        part = StoredTable.from_columns(self.base.definition, data).partitions
        self.landed = (self.landed + part)[-LANDING_WINDOW:]
        self.store.put(StoredTable(self.base.definition, self.base.partitions + self.landed))
        session.reload_table(FACT)
        elapsed = time.perf_counter() - start
        self.log.append(data)
        return elapsed


def _read(session_or_service, name: str, sql: str, version: int, **extra) -> Op:
    start = time.perf_counter()
    result = session_or_service.execute(sql)
    seconds = time.perf_counter() - start
    return _op_from(result, name, sql, version, seconds, **extra)


def _op_from(result, name, sql, version, seconds, **extra) -> Op:
    metrics = result.metrics
    return Op(
        "read", name, sql, version, seconds,
        columns=tuple(result.columns),
        rows=result.rows,
        bytes_scanned=metrics.bytes_scanned,
        partitions_read=metrics.partitions_read,
        fusions=sum(1 for rule in result.fired_rules if rule in PAPER_RULES),
        metrics=metrics,
        **extra,
    )


class _Toggle:
    """Alternates tracing on and off between rounds of a traced run, so
    the run measures its own tracing overhead."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.on = False

    def set(self, on: bool) -> None:
        if self.tracer is None or on == self.on:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.on = on


def _setup(run: Run, build):
    """Run ``build`` (generate + start + warm up) SETUP_REPEATS times;
    keep the last one.  ``build`` returns (state, seconds not to count)."""
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        before = hostspeed.sample(SETUP_KERNEL_REPEATS)
        start = time.perf_counter()
        state, excluded = build(i)
        run.setup_s.append(time.perf_counter() - start - excluded)
        run.setup_kernel.append((before + hostspeed.sample(SETUP_KERNEL_REPEATS)) / 2)
    return state


class _Speed:
    """Stamps timed operations with the calibration kernel's time around
    them: the sample taken before them (shared with the operations
    before, unless :meth:`refresh` took a new one) and one after."""

    def __init__(self):
        self.last = hostspeed.sample()

    def refresh(self) -> None:
        self.last = hostspeed.sample()

    def stamp(self, *ops: Op) -> Op:
        """Stamp ``ops``, which just ended; returns the first."""
        after = hostspeed.sample()
        for op in ops:
            op.kernel = (self.last + after) / 2
        self.last = after
        return ops[0]


def _end_setup(run: Run, state, toggle: _Toggle) -> None:
    """Stop tracing set-up; mark where the measured spans begin."""
    toggle.set(False)
    run.store = state.store
    if toggle.tracer is not None:
        run.trace_mark = len(toggle.tracer.spans)
        run.count_mark = dict(toggle.tracer.counts)


class _Closed:
    """State of a closed-loop workload: its store and session."""

    def __init__(self, store, session):
        self.store, self.session = store, session

    def close(self):
        self.session.close()


def adhoc(seed: int, seconds: float, tracer=None) -> Run:
    """One client, program defaults, fresh template instances."""
    run = Run("adhoc")
    toggle = _Toggle(tracer)
    toggle.set(tracer is not None)

    def build(_):
        store = repro.generate_dataset(ADHOC_SCALE)
        return _Closed(store, Session(store)), 0.0

    state = _setup(run, build)
    _end_setup(run, state, toggle)
    session, landing = state.session, Landing(state.store, seed)
    run.landing = landing
    # Round 0's instances again, unfused, for the fusion checks.
    unfused = Session(state.store, OptimizerConfig(enable_fusion=False))
    instances = inputs.AdhocInstances(seed)
    measured, rnd, version = 0.0, 0, 0
    speed = _Speed()
    while measured < seconds:
        toggle.set(tracer is not None and rnd % 2 == 1)
        for i, (name, sql) in enumerate(instances.round(), start=1):
            op = speed.stamp(_read(session, name, sql, version, traced=toggle.on, round=rnd))
            run.ops.append(op)
            measured += op.seconds
            if rnd == 0 and op.fusions:
                # Where a paper rule fired, the unfused plan must return
                # the same rows and scan no fewer bytes.
                twin = unfused.execute(sql)
                run.fused_checks.append((name, op, twin.rows, twin.metrics.bytes_scanned))
                speed.refresh()
            if i % ADHOC_WRITE_EVERY == 0:
                elapsed = landing.write(session)
                version += 1
                run.ops.append(speed.stamp(
                    Op("write", FACT, None, version, elapsed, traced=toggle.on, round=rnd)))
                measured += elapsed
                if rnd == 0:
                    unfused.reload_table(FACT)
                speed.refresh()
        if rnd == 0:
            unfused.close()
        rnd += 1
    toggle.set(False)
    run.peak_rss_mib = peak_rss_mib()
    state.close()
    return run


def dashboard(seed: int, seconds: float, tracer=None) -> Run:
    """One client replaying the 8 studied queries with the plan cache on,
    a day landing in the fact table before every round of 32 reads."""
    run = Run("dashboard")
    toggle = _Toggle(tracer)
    toggle.set(tracer is not None)
    config = OptimizerConfig(enable_plan_cache=True)

    def build(_):
        store = repro.generate_dataset(SCALE)
        session = Session(store, config)
        for sql in STUDIED_QUERIES.values():
            session.execute(sql)
        return _Closed(store, session), 0.0

    state = _setup(run, build)
    _end_setup(run, state, toggle)
    session, landing = state.session, Landing(state.store, seed)
    run.landing = landing
    cache = session.plan_cache
    before = _stats(cache)
    rounds = inputs.dashboard_rounds(seed, DASHBOARD_READS_PER_TEXT)
    measured, rnd, version = 0.0, 0, 0
    speed = _Speed()
    while measured < seconds:
        toggle.set(tracer is not None and rnd % 2 == 1)
        dropped = cache.stats.invalidations
        elapsed = landing.write(session)
        run.invalidations.append(cache.stats.invalidations - dropped)
        version += 1
        run.ops.append(speed.stamp(
            Op("write", FACT, None, version, elapsed, traced=toggle.on, round=rnd)))
        measured += elapsed
        for name in next(rounds):
            op = speed.stamp(
                _read(session, name, STUDIED_QUERIES[name], version, traced=toggle.on, round=rnd))
            run.ops.append(op)
            measured += op.seconds
        rnd += 1
    toggle.set(False)
    run.peak_rss_mib = peak_rss_mib()
    run.cache_stats = _delta(_stats(cache), before)
    state.close()
    return run


def _stats(cache) -> dict:
    s = cache.stats
    return {"hits": s.hits, "misses": s.misses, "evictions": s.evictions,
            "invalidations": s.invalidations}


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


# -- service ---------------------------------------------------------------


def service(seed: int, seconds: float, tracer=None) -> Run:
    """Bursts of tickets into a QueryService: the same Zipf-skewed
    sequence of template instances every round, from the same cache
    state, :data:`SERVICE_BURST` tickets at a time."""
    run = Run("service")
    toggle = _Toggle(tracer)
    toggle.set(tracer is not None)
    n = workers()
    base = OptimizerConfig(
        enable_plan_cache=True,
        cache_budget_mb=SERVICE_CACHE_MB,
        workers=n,
        io_latency_ms=SERVICE_IO_LATENCY_MS,
    )
    # The pool of texts and the Zipf order of the draws are the same in
    # every run (literals drawn once, from seed 0); the run's seed picks
    # the days landed before the service starts.
    gen = inputs.AdhocInstances(0)
    pool = [(name, gen.draw(name)) for name in WORKLOAD_QUERIES]

    class _State:
        def __init__(self, store, svc, landing):
            self.store, self.svc, self.landing = store, svc, landing

        def close(self):
            self.svc.close()

    def build(_):
        store = repro.generate_dataset(SERVICE_SCALE)
        # Days land before the service starts (it has no reload call);
        # their time is reported as writes, not as set-up.
        landing, loader = Landing(store, seed), Session(store)
        excluded = time.perf_counter()
        speed = _Speed()
        for _ in range(SERVICE_WRITES):
            elapsed = landing.write(loader)
            run.ops.append(speed.stamp(
                Op("write", FACT, None, len(landing.log), elapsed, traced=toggle.on)))
        excluded = time.perf_counter() - excluded
        loader.close()
        svc = QueryService(store, ServiceConfig(base=base, dispatchers=n))
        for _, sql in pool[:SERVICE_WARMUP]:
            svc.execute(sql)
        return _State(store, svc, landing), excluded

    state = _setup(run, build)
    _end_setup(run, state, toggle)
    # Only the last set-up's writes describe the data the reads see;
    # every repeat's writes count towards write_p50_ms.
    run.landing = state.landing
    svc = state.svc
    version = len(state.landing.log)
    order = [pool[rank] for rank in inputs.zipf_sequence(0, len(pool), SERVICE_ARRIVALS, SERVICE_ZIPF)]
    # The measured rounds, each from the same cache state (cleared, then
    # the warm-up again, untimed and untraced), for the run's length and
    # at least SERVICE_MIN_ROUNDS.
    begin, rnd = time.perf_counter(), 0
    while time.perf_counter() - begin < seconds or rnd < SERVICE_MIN_ROUNDS:
        if rnd:
            toggle.set(False)
            svc.plan_cache.clear()
            for _, sql in pool[:SERVICE_WARMUP]:
                svc.execute(sql)
        toggle.set(tracer is not None)
        before = _stats(svc.plan_cache)
        speed = _Speed()
        for first in range(0, SERVICE_ARRIVALS, SERVICE_BURST):
            start = len(run.ops)
            _burst(run, svc, order, first, version, rnd, toggle.on)
            speed.stamp(*run.ops[start:])
        for key, value in _delta(_stats(svc.plan_cache), before).items():
            run.cache_stats[key] = run.cache_stats.get(key, 0) + value
        rnd += 1
    if tracer is not None:
        run.trace_end = len(tracer.spans)
        # Bursts overlap queries, so the overhead comes from the Zipf
        # head run one at a time, each instance once untraced and once
        # traced (in alternating order).
        speed = _Speed()
        for i, (name, sql) in enumerate(pool[:SERVICE_OVERHEAD_PAIRS]):
            for on in ((False, True) if i % 2 else (True, False)):
                toggle.set(on)
                speed.refresh()
                op = speed.stamp(_read(svc, name, sql, version, traced=on, round=-1))
                op.kind = "overhead"
                run.ops.append(op)
    toggle.set(False)
    run.peak_rss_mib = peak_rss_mib()
    state.close()
    return run


def meets_slo(latencies_s: list[float], workload: str) -> bool:
    """A load meets the SLO when its tail does and its backlog does not
    grow: the median latency of its last quarter is at most twice that
    of its first quarter."""
    cfg = SETTINGS[workload]
    ordered = sorted(latencies_s)
    tail = ordered[max(0, math.ceil(cfg["tail"] * len(ordered)) - 1)]
    quarter = max(1, len(latencies_s) // 4)
    growing = statistics.median(latencies_s[-quarter:]) > 2 * statistics.median(latencies_s[:quarter])
    return tail <= cfg["slo_ms"] / 1000.0 and not growing


#: How often the benchmark looks for finished tickets; each look takes
#: the interpreter lock from the dispatchers, so not too often.
POLL_S = 0.001


def _burst(run: Run, svc, order, first: int, version: int, rnd: int, traced: bool) -> None:
    """Submit ``order[first:first + SERVICE_BURST]`` at once, wait for
    every ticket, and record each as an operation timed from its own
    submission."""
    tickets, submitted, done_at = [], [], []
    start = time.perf_counter()
    for i in range(first, first + SERVICE_BURST):
        submitted.append(time.perf_counter())
        done_at.append(None)
        try:
            tickets.append(svc.submit(order[i][1], tenant=f"tenant{i % SERVICE_TENANTS}"))
        except AdmissionRejectedError:
            tickets.append(None)
            done_at[-1] = math.inf
    pending = {k for k, ticket in enumerate(tickets) if ticket is not None}
    deadline = start + 60.0
    while pending and time.perf_counter() < deadline:
        time.sleep(POLL_S)
        now = time.perf_counter()
        for k in [k for k in pending if tickets[k].done]:
            done_at[k] = now
            pending.discard(k)
    for k, ticket in enumerate(tickets):
        name, sql = order[first + k]
        finished = done_at[k] if done_at[k] is not None else math.inf
        timing = dict(traced=traced, arrival=first + k, due=submitted[k],
                      finished=finished, round=rnd)
        if ticket is None:
            run.refused += 1
            run.ops.append(Op("read", name, sql, version, math.inf, error="refused", **timing))
            continue
        try:
            result = ticket.result(timeout=0)
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            run.ops.append(Op("read", name, sql, version, finished - submitted[k],
                              error=f"{type(exc).__name__}: {exc}", **timing))
            continue
        run.ops.append(_op_from(result, name, sql, version, finished - submitted[k], **timing))


#: Arrangements of the measured query times replayed per capacity
#: figure, and arrivals per replay: the measured times are reshuffled
#: and repeated to this length, long enough that a rate above capacity
#: builds a backlog well past any SLO.
REPLAY_ARRANGEMENTS = 9
REPLAY_ARRIVALS = 1000


def replay_capacity(service_s: list[float], seed: int, workload: str, servers: int = 1) -> float:
    """max_qps_at_slo: the highest Poisson rate at which ``servers``
    FIFO servers, given the measured per-query busy times, would keep
    the workload's tail within its SLO with no growing backlog
    (bisection to 0.1%); the median over seeded arrangements of those
    times, so no single ordering decides it."""
    rng = random.Random(f"replay-{workload}-{seed}")
    found = []
    for _ in range(REPLAY_ARRANGEMENTS):
        times: list[float] = []
        while len(times) < REPLAY_ARRIVALS:
            block = list(service_s)
            rng.shuffle(block)
            times += block
        offsets = inputs.poisson_schedule(rng.randrange(1 << 30), "replay", 1.0, len(times))
        lo, hi = 0.01, 10000.0
        while hi / lo > 1.001:
            rate = math.sqrt(lo * hi)
            free = [0.0] * servers
            latencies = []
            for due, busy in zip(offsets, times):
                due /= rate
                finish = max(due, heapq.heappop(free)) + busy
                heapq.heappush(free, finish)
                latencies.append(finish - due)
            if meets_slo(latencies, workload):
                lo = rate
            else:
                hi = rate
        found.append(lo)
    return statistics.median(found)


WORKLOADS = {"adhoc": adhoc, "dashboard": dashboard, "service": service}

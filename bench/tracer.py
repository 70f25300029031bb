"""Outside-in tracing: spans recorded around each layer's entry points.

:class:`Tracer` wraps the program's functions from the benchmark's own
files, as the calling modules bind them (a function imported by name
into another module is patched in every ``repro`` module that holds
it).  Each call becomes a span — name, start, end, parent span and
query id, where the query id is the id of the thread's outermost span
— kept in memory and written out as JSON when the run ends.  Self time
is a span's duration minus what its child spans cover.

An entry point that no longer exists (renamed or merged away) is
recorded as missing: its layer's metrics are reported as missing and
the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (layer name, module, attribute path, kind).  ``kind`` is "span" for
#: a call, "gen" for a generator consumed in one go, "blocks" for a
#: generator whose consumer works between items (each item's fetch is
#: its own span), and "count" for calls too frequent to time.
PROBES = [
    ("query", "repro.engine.session", "Session.execute", "span"),
    ("sql.bind", "repro.sql.binder", "Binder.bind_sql", "span"),
    ("optimizer.optimize", "repro.optimizer.pipeline", "optimize", "span"),
    ("algebra.simplify", "repro.algebra.simplify", "simplify", "span"),
    ("algebra.normalize", "repro.algebra.expressions", "normalize", "count"),
    ("fusion.fuse", "repro.fusion.fuse", "Fuser.fuse", "span"),
    ("plan_cache.lookup", "repro.engine.plan_cache", "PlanCache.lookup", "span"),
    ("engine.execute", "repro.engine.batch_executor", "execute_batch", "gen"),
    ("engine.execute", "repro.engine.compiled", "execute_compiled", "gen"),
    ("engine.execute", "repro.engine.executor", "execute", "gen"),
    ("storage.scan", "repro.storage.columnar", "Store.scan_blocks", "blocks"),
    ("storage.build", "repro.storage.columnar", "StoredTable.from_columns", "span"),
    ("storage.put", "repro.storage.columnar", "Store.put", "span"),
    ("engine.reload", "repro.engine.session", "Session.reload_table", "span"),
    ("parallel.dispatch", "repro.engine.parallel", "execute_parallel", "span"),
    ("parallel.fragment", "repro.engine.parallel", "WorkerPool.submit", "count"),
    ("parallel.retry", "repro.engine.parallel", "_FragmentScheduler._resubmit", "count"),
    ("parallel.pool_start", "repro.engine.parallel", "WorkerPool.__init__", "span"),
    ("tpcds.generate", "repro.tpcds.generator", "generate_dataset", "span"),
]


class Tracer:
    """Installs the probes, records spans, derives per-layer figures."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, query]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        query = parent[5] if parent is not None else span_id
        span = [span_id, name, time.perf_counter(), None, parent[0] if parent else None, query]
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] += 1  # may drop a count under threads
                return fn(*args, **kwargs)

            return counted
        if kind == "span":

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                span = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span)

            return spanned
        if kind == "gen":

            @functools.wraps(fn)
            def consumed(*args, **kwargs):
                span = tracer._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(span)

            return consumed

        @functools.wraps(fn)
        def blocks(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                yield item

        return blocks

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every probe that resolves; record the rest as missing."""
        self.missing = []
        for name, module_name, path, kind in PROBES:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{name} ({module_name}.{path})")
                continue
            if outer:
                static = inspect.getattr_static(owner, attr)
                if isinstance(static, classmethod):
                    wrapper = classmethod(self._wrap(name, kind, static.__func__))
                else:
                    wrapper = self._wrap(name, kind, original)
                self._patch(owner, attr, static, wrapper)
                continue
            wrapper = self._wrap(name, kind, original)
            # A module-level function: patch it wherever it is bound.
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- derived figures ---------------------------------------------------

    def self_times(self, spans: list[list]) -> dict[str, float]:
        """Seconds of self time per span name over ``spans``."""
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[4] is not None:
                covered[span[4]] += span[3] - span[2]
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span[1]] += span[3] - span[2] - covered.get(span[0], 0.0)
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "query"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "missing": self.missing,
                },
                out,
            )

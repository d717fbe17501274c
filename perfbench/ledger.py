"""The traced run's span recorder: wraps each layer's entry points from
outside the program and turns the spans into per-layer self times.

A span is ``(name, start_ns, end_ns, span_id, parent_id, request_id)``.
Spans are kept in memory and written out when the run ends.  The parent
of a span is whatever span was current (a :mod:`contextvars` variable)
when it began, so nesting follows the program's real call path; the
server's thread-pool hop carries the context across explicitly.

Only the traced run installs these wrappers.  End-to-end numbers come
from untraced runs.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: (span_id, request_id) of the span running in this context.
_CURRENT: "contextvars.ContextVar[tuple[int, int] | None]" = \
    contextvars.ContextVar("perfbench_span", default=None)

#: Name of the benchmark's own root span around one request.
ROOT = "request"

_now = time.perf_counter_ns


class Ledger:
    """Spans plus the objects whose counters are read after the run."""

    def __init__(self) -> None:
        self.spans: "list[tuple[str, int, int, int, int, int]]" = []
        #: (request_id, ExecutionStats) for every executor that ran
        self.exec_stats: "list[tuple[int, Any]]" = []
        #: rewritten plans, sized after the run (kept off the clock)
        self.rewritten: "list[Any]" = []
        #: span name -> calls that raised (failed or retried operations)
        self.errors: "dict[str, int]" = defaultdict(int)
        #: named event counts (plan-cache lookups and hits)
        self.counts: "dict[str, int]" = defaultdict(int)
        self._ids = itertools.count(1)
        self._undo: "list[tuple[Any, str, Any]]" = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str, request: "int | None" = None
             ) -> "tuple[str, int, int, int, int, contextvars.Token]":
        """Begin a span; a given *request* makes it a root span."""
        outer = _CURRENT.get()
        span_id = next(self._ids)
        parent = 0 if outer is None or request is not None else outer[0]
        if request is None:
            request = outer[1] if outer is not None else span_id
        token = _CURRENT.set((span_id, request))
        return name, span_id, parent, request, _now(), token

    def close(self, opened: tuple) -> None:
        name, span_id, parent, request, start, token = opened
        end = _now()
        _CURRENT.reset(token)
        self.spans.append((name, start, end, span_id, parent, request))

    def current_request(self) -> int:
        outer = _CURRENT.get()
        return outer[1] if outer is not None else 0

    # -- installing wrappers ----------------------------------------------------

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, new)

    def wrap(self, target: str, name: str,
             after: "Callable[[Any, tuple], None] | None" = None) -> None:
        """Time every call of ``module[:Class].attr`` as span *name*.

        *after* sees each return value and the call's arguments.
        """
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        ledger = self
        if isinstance(original, property):
            getter = original.fget

            def timed_get(obj: Any) -> Any:
                opened = ledger.open(name)
                try:
                    return getter(obj)
                finally:
                    ledger.close(opened)
            self._replace(owner, attr, property(timed_get, original.fset))
            return
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                opened = ledger.open(name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    ledger.close(opened)
            self._replace(owner, attr, timed_async)
            return

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            opened = ledger.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                ledger.errors[name] += 1
                raise
            finally:
                ledger.close(opened)
            if after is not None:
                after(result, args)
            return result
        self._replace(owner, attr, timed)

    def wrap_iter(self, target: str, name: str,
                  after: "Callable[[Any, tuple], None] | None" = None
                  ) -> None:
        """Time the call *and* every ``next()`` on the iterator it
        returns, each as span *name* (streamed results run lazily)."""
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        ledger = self

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            opened = ledger.open(name)
            try:
                iterator = original(*args, **kwargs)
            finally:
                ledger.close(opened)
            if after is not None:
                after(iterator, args)
            return _TimedIterator(ledger, iterator, name)
        self._replace(owner, attr, timed)

    def wrap_dispatch(self, target: str, name: str) -> None:
        """Time an ``async def f(self, fn, *args)`` that runs *fn* on a
        thread pool, carrying the span context into the pool thread so
        the spans opened there get this one as their parent."""
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        ledger = self

        @functools.wraps(original)
        async def timed(obj: Any, fn: Any, *args: Any) -> Any:
            opened = ledger.open(name)
            try:
                context = contextvars.copy_context()
                return await original(obj, context.run, fn, *args)
            finally:
                ledger.close(opened)
        self._replace(owner, attr, timed)

    def restore(self) -> None:
        """Put every wrapped attribute back (last wrapped, first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Everything the per-layer metrics are derived from, as plain
        JSON-ready data (the served workload's child ships it over)."""
        exec_fields = ("sublink_executions", "sublink_cache_hits",
                       "vectorized_nodes", "row_fallback_nodes",
                       "parallel_fanouts", "parallel_fallbacks")
        return {
            "spans": [list(span) for span in self.spans],
            "exec": [[request, {**{f: getattr(stats, f)
                                   for f in exec_fields},
                                "ops": dict(stats.operator_timings)}]
                     for request, stats in self.exec_stats],
            "plan_ops": [plan_size(plan) for plan in self.rewritten],
            "errors": dict(self.errors),
            "counts": dict(self.counts),
        }


# -- analysis -------------------------------------------------------------------

def span_self_times(spans: "list") -> "list[tuple[str, int, float]]":
    """(name, request_id, self time in ms) of every span.

    A span's self time is its duration minus the part of it that its
    child spans cover.
    """
    children: "dict[int, list[tuple[int, int]]]" = defaultdict(list)
    for _, start, end, _, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    return [(name, request,
             (end - start - _covered(children.get(span_id, ()), start,
                                     end)) / 1e6)
            for name, start, end, span_id, _, request in spans]


def self_times(spans: "list") -> "dict[int, dict[str, float]]":
    """request_id -> span name -> summed self time in ms."""
    out: "dict[int, dict[str, float]]" = defaultdict(
        lambda: defaultdict(float))
    for name, request, own in span_self_times(spans):
        out[request][name] += own
    return out


def call_counts(spans: "list") -> "dict[int, dict[str, int]]":
    """request_id -> span name -> number of spans."""
    out: "dict[int, dict[str, int]]" = defaultdict(lambda: defaultdict(int))
    for name, _, _, _, _, request in spans:
        out[request][name] += 1
    return out


def root_time(spans: "list") -> float:
    """Total duration of all root spans, in ms."""
    return sum(end - start for _, start, end, _, parent, _ in spans
               if not parent) / 1e6


class _TimedIterator:
    """An iterator proxy timing each ``next()`` as a span."""

    __slots__ = ("_ledger", "_inner", "_name")

    def __init__(self, ledger: Ledger, inner: Iterator, name: str) -> None:
        self._ledger = ledger
        self._inner = inner
        self._name = name

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        opened = self._ledger.open(self._name)
        try:
            return next(self._inner)
        finally:
            self._ledger.close(opened)

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def _resolve(target: str) -> "tuple[Any, str]":
    """``"pkg.module:Class.attr"`` or ``"pkg.module.attr"`` -> (owner,
    attr)."""
    if ":" in target:
        module_name, rest = target.split(":")
        owner: Any = importlib.import_module(module_name)
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr
    module_name, attr = target.rsplit(".", 1)
    return importlib.import_module(module_name), attr


def _covered(intervals: "Any", start: int, end: int) -> int:
    """Nanoseconds of [start, end) covered by the union of *intervals*."""
    total = 0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


#: Span name of each layer entry point wrapped in every traced run.
LAYER_SPANS = (
    ("repro.sql.parser.parse_statement", "sql.parse"),
    ("repro.sql.parser.parse_statements", "sql.parse"),
    ("repro.api.connection.parse_statement", "sql.parse"),
    ("repro.api.connection.parse_statements", "sql.parse"),
    ("repro.server.backend.parse_statement", "sql.parse"),
    ("repro.server.backend.parse_statements", "sql.parse"),
    ("repro.sql.analyzer:Analyzer.analyze", "sql.analyze"),
    ("repro.engine.optimizer.optimize", "engine.optimizer.optimize"),
    ("repro.engine.lowering.lower_plan", "engine.lowering.lower"),
    ("repro.engine.pipeline.lower_plan", "engine.lowering.lower"),
    ("repro.engine.parallel.parallelize_plan",
     "engine.parallel.parallelize"),
    ("repro.api.engine:Engine.snapshot", "api.engine.snapshot"),
    ("repro.api.result:Result.rows", "api.result.drain"),
    ("repro.api.result:Result.fetch", "api.result.drain"),
    ("repro.api.transaction.validate_commit", "api.transaction.validate"),
    ("repro.api.transaction.publish_commit", "api.transaction.publish"),
    ("repro.api.transaction:Transaction.commit", "api.transaction.commit"),
    ("repro.storage.store:DurableStore.append_commit",
     "storage.commit_wait"),
    ("repro.storage.store:DurableStore.checkpoint", "storage.checkpoint"),
)

#: Entry points that return lazily consumed iterators.
LAYER_ITER_SPANS = (
    ("repro.api.result:Result.__iter__", "api.result.drain"),
)

#: Executor entry points; each also records its ExecutionStats.
EXEC_SPANS = (
    ("repro.engine.executor:Executor.execute", False),
    ("repro.engine.executor:Executor.execute_physical", False),
    ("repro.engine.executor:Executor.stream_physical", True),
)

#: The server's entry points (wrapped in the served workload's child).
SERVER_SPANS = (
    ("repro.server.server:Server._run_extended", "server.request"),
    ("repro.server.server:Server._run_simple", "server.request"),
    ("repro.server.backend:BackendSession.parse", "server.backend"),
    ("repro.server.backend:BackendSession.bind", "server.backend"),
    ("repro.server.backend:BackendSession.describe_statement",
     "server.backend"),
    ("repro.server.backend:BackendSession.describe_portal",
     "server.backend"),
    ("repro.server.backend:BackendSession.sync", "server.backend"),
    ("repro.server.backend:BackendSession.close_portal", "server.backend"),
    ("repro.server.protocol:DataRow.encode", "server.encode"),
    ("repro.server.protocol:RowDescription.encode", "server.encode"),
)

SERVER_ITER_SPANS = (
    ("repro.server.backend:BackendSession.execute", "server.backend"),
    ("repro.server.backend:BackendSession.run_simple", "server.backend"),
)


def install(ledger: Ledger, server: bool = False) -> None:
    """Wrap every layer entry point (and the server's, with *server*)."""
    def keep_plan(result: Any, _args: tuple) -> None:
        ledger.rewritten.append(result.plan)

    def keep_stats(_result: Any, args: tuple) -> None:
        ledger.exec_stats.append((ledger.current_request(), args[0].stats))

    def count_lookup(result: Any, _args: tuple) -> None:
        ledger.counts["api.plan_cache.lookups"] += 1
        if result is not None:
            ledger.counts["api.plan_cache.hits"] += 1

    ledger.wrap("repro.api.plan_cache:PlanCache.lookup",
                "api.plan_cache.lookup", after=count_lookup)
    for target, name in LAYER_SPANS:
        ledger.wrap(target, name)
    for target, name in LAYER_ITER_SPANS:
        ledger.wrap_iter(target, name)
    ledger.wrap("repro.provenance.rewriter:ProvenanceRewriter.rewrite_query",
                "provenance.rewrite", after=keep_plan)
    for target, lazy in EXEC_SPANS:
        if lazy:
            ledger.wrap_iter(target, "exec.run", after=keep_stats)
        else:
            ledger.wrap(target, "exec.run", after=keep_stats)
    if server:
        for target, name in SERVER_SPANS:
            ledger.wrap(target, name)
        for target, name in SERVER_ITER_SPANS:
            ledger.wrap_iter(target, name)
        ledger.wrap_dispatch("repro.server.server:Server._run_engine",
                             "server.dispatch")


def plan_size(plan: Any) -> int:
    """Operators in an algebra plan, sublink queries included."""
    from repro.algebra.trees import iter_operators
    return sum(1 for _ in iter_operators(plan, into_sublinks=True))

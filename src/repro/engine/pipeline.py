"""The pipelined execution engine.

Drives a lowered :class:`~repro.engine.physical.PhysicalPlan` by pulling
fixed-size row batches through the operator tree and materializing into a
:class:`~repro.relation.Relation` only at the sink.  It is the default
engine; the columnar :mod:`repro.engine.vectorized` engine subclasses it,
and the materializing interpreter (:mod:`repro.engine.materialize`)
stays selectable as the baseline.  One engine instance executes one
statement (the session layer creates it per call), but it keeps its
InitPlan result cache for its whole lifetime, so components that hold an
engine across queries (the direct-provenance evaluator) keep the
InitPlan behaviour.

Correlated SubPlans do their repeated work once per execution.  Their
results are memoized on the values of the outer columns they read
(:class:`SubPlanMemo`), and the rows of their outer-invariant subtrees
are recorded once by :class:`~repro.engine.physical.Materialize` nodes.
Both caches live on the engine and are dropped when an execution ends —
never on plan nodes, which the plan cache reuses across executions and
DML.

The engine only runs plans that are already lowered — planning happens
once, in the session layer.  It is also the evaluator's
``SubqueryRunner``: sublinks reach it through
:class:`~repro.expressions.evaluator.EvalContext` with the *logical*
query tree in hand; the lowering registry maps that tree's identity to
its lowered InitPlan/SubPlan, so sublink evaluation never re-enters the
interpreter.
"""

from __future__ import annotations

from math import copysign
from time import perf_counter_ns
from typing import Any, Iterable, Iterator

from ..catalog import Catalog
from ..algebra.operators import Operator
from ..relation import Relation
from .lowering import lower_plan
from .physical import (
    PhysicalOperator, PhysicalPlan, SublinkPlan, SubPlanSublink,
)
from .stats import ExecutionStats

Frames = tuple

#: A SubPlan memo whose first this-many lookups all missed turns itself
#: off (every correlation value unique, as in Gen's member check).
MEMO_PROBE_LOOKUPS = 64
#: Hard cap on the results one SubPlan memo holds in one execution.
MEMO_MAX_ENTRIES = 1024


def _float_part(value: float) -> Any:
    """A float as a memo-key component: the sign of a zero counts, and
    every NaN is one key."""
    if value != value:
        return "nan"
    return (value, copysign(1.0, value))


class SubPlanMemo:
    """One correlated SubPlan's results in one execution, keyed by the
    values of the outer columns it reads.

    Equal keys must give the sublink identical results, so a key holds
    the values' types next to the values (``1``, ``1.0`` and ``TRUE``
    are equal in Python) and the sign of float zeros."""

    __slots__ = ("sub", "refs", "entries", "lookups", "hits", "enabled")

    def __init__(self, sub: SubPlanSublink) -> None:
        self.sub = sub
        self.refs = tuple((-depth, name) for depth, name in sub.outer_refs)
        self.entries: dict[tuple, list[tuple]] = {}
        self.lookups = 0
        self.hits = 0
        self.enabled = bool(self.refs)

    def lookup(self, frames: Frames) -> tuple[tuple | None, list | None]:
        """``(key, memoized rows or None)`` for *frames*; the key is None
        (and the memo switched off) when a referenced value cannot be
        read or hashed."""
        try:
            values = tuple([frames[at].row[frames[at].index[name]]
                            for at, name in self.refs])
            kinds = tuple(map(type, values))
            if float in kinds:
                values = tuple([_float_part(value) if type(value) is float
                                else value for value in values])
            key = (kinds, values)
            rows = self.entries.get(key)
        except (IndexError, KeyError, TypeError):
            self.disable()
            return None, None
        self.lookups += 1
        if rows is not None:
            self.hits += 1
        return key, rows

    def store(self, key: tuple, rows: list[tuple]) -> None:
        """Memoize a run's *rows*, unless every lookup so far missed
        (then switch off) or the memo is full."""
        if not self.hits and self.lookups >= MEMO_PROBE_LOOKUPS:
            self.disable()
        elif len(self.entries) < MEMO_MAX_ENTRIES:
            self.entries[key] = rows

    def disable(self) -> None:
        self.enabled = False
        self.entries = {}


class PipelineEngine:
    """Executes physical plans over a catalog in row batches."""

    def __init__(self, catalog: Catalog, collect_stats: bool,
                 stats: ExecutionStats, batch_size: int = 1024,
                 use_indexes: bool = True) -> None:
        self.catalog = catalog
        self.collect_stats = collect_stats
        self.stats = stats
        self.batch_size = batch_size
        self.use_indexes = use_indexes
        self.params: tuple = ()
        self._pull_stack: list = []
        self._subplans: dict[int, SublinkPlan] = {}
        self._initplan_cache: dict[int, list[tuple]] = {}
        #: Per-execution SubPlan caches (see the module docstring):
        #: memos by ``id(logical query)``, recorded rows by
        #: ``id(Materialize node)``.
        self.memos: dict[int, SubPlanMemo] = {}
        self.materialized: dict[int, list[tuple]] = {}
        #: Cache hits per sublink this execution (EXPLAIN ANALYZE).
        self._hits: dict[int, int] = {}

    # -- public API ----------------------------------------------------------

    def execute_physical(self, plan: PhysicalPlan,
                         params: Iterable[Any] = ()) -> Relation:
        """Run an already-lowered plan and materialize the sink."""
        self._begin_execution(plan, params)
        try:
            rows = self._drain(plan.root, ())
        finally:
            self._end_execution(plan)
        return Relation.from_trusted_rows(plan.schema, rows)

    def stream_physical(self, plan: PhysicalPlan,
                        params: Iterable[Any] = ()) -> "Iterator[list[tuple]]":
        """Run an already-lowered plan as a lazy generator of row
        batches — the streaming sink behind
        :class:`repro.api.result.Result`.

        The plan stays open between yields; closing the generator early
        (``generator.close()``, or dropping the last reference) closes
        the operator tree, so abandoned result sets release their hash
        tables and sort buffers without being drained.
        """
        self._begin_execution(plan, params)
        root = plan.root
        root.open(self, ())
        try:
            while True:
                batch = self.pull(root)
                if batch is None:
                    break
                yield batch
        finally:
            root.close()
            self._end_execution(plan)

    def _begin_execution(self, plan: PhysicalPlan,
                         params: Iterable[Any]) -> None:
        self.params = tuple(params)
        self._subplans.update(plan.subplans)
        self._drop_subplan_caches()

    def _end_execution(self, plan: PhysicalPlan) -> None:
        if self.collect_stats:
            self._finish_timings(plan)
        self._drop_subplan_caches()

    def _drop_subplan_caches(self) -> None:
        self.memos = {}
        self.materialized = {}
        self._hits = {}

    # -- SubqueryRunner protocol (sublink evaluation hook) --------------------

    def run_subquery(self, query: Operator, frames: Frames) -> list[tuple]:
        """Execute a sublink query with *frames* visible as outer rows.

        InitPlans run once and cache their result for the lifetime of the
        engine.  SubPlans run with the caller's frames bound, once per
        distinct value of the outer columns they read: the result is
        memoized on those values until the execution ends.  A memo whose
        first :data:`MEMO_PROBE_LOOKUPS` lookups all miss turns itself
        off, and none holds more than :data:`MEMO_MAX_ENTRIES` results.
        """
        key = id(query)
        cached = self._initplan_cache.get(key)
        if cached is not None:
            self._count_hit(key)
            return cached
        memo = self.memos.get(key)
        if memo is None:
            sub = self._subplans.get(key)
            if sub is None:
                sub = self._lower_adhoc(query)
            if not isinstance(sub, SubPlanSublink):
                self.stats.sublink_executions += 1
                rows = self._drain(sub.plan, ())
                self._initplan_cache[key] = rows
                return rows
            memo = self.memos[key] = SubPlanMemo(sub)
        memo_key = None
        if memo.enabled:
            memo_key, rows = memo.lookup(frames)
            if rows is not None:
                self._count_hit(key)
                return rows
        self.stats.sublink_executions += 1
        rows = self._drain(memo.sub.plan, frames)
        if memo_key is not None:
            memo.store(memo_key, rows)
        return rows

    def _count_hit(self, key: int) -> None:
        self.stats.sublink_cache_hits += 1
        if self.collect_stats:
            self._hits[key] = self._hits.get(key, 0) + 1

    def _lower_adhoc(self, query: Operator) -> SublinkPlan:
        """Lower a sublink query the plan registry does not know — the
        path taken when the engine is used as a standalone subquery
        runner (e.g. by the direct-provenance evaluator)."""
        plan = lower_plan(query, self.catalog, use_indexes=self.use_indexes,
                          as_sublink=True)
        self._subplans.update(plan.subplans)
        return plan.subplans[id(query)]

    # -- pipeline driver -------------------------------------------------------

    def _drain(self, root: PhysicalOperator, frames: Frames) -> list[tuple]:
        root.open(self, frames)
        rows: list[tuple] = []
        try:
            while True:
                batch = self.pull(root)
                if batch is None:
                    break
                rows.extend(batch)
        finally:
            root.close()
        return rows

    def pull(self, node: PhysicalOperator) -> list | None:
        """One ``next_batch`` call on *node*, with row/batch accounting
        and (under ``collect_stats``) wall-clock timing.

        Timing keeps a stack of in-flight pulls: a node's elapsed time
        accumulates inclusively on its own entry and is also charged to
        the enclosing pull's ``child_ns``, so every node ends up with an
        inclusive total *and* the part attributable to nodes it pulled —
        ``EXPLAIN ANALYZE`` derives self time from the difference."""
        stats = self.stats
        if self.collect_stats:
            entry = stats.node(node)
            stack = self._pull_stack
            stack.append(entry)
            started = perf_counter_ns()
            try:
                batch = node.next_batch()
            finally:
                elapsed = perf_counter_ns() - started
                stack.pop()
                entry.time_ns += elapsed
                if stack:
                    stack[-1].child_ns += elapsed
            if batch:
                entry.rows += len(batch)
                entry.batches += 1
                stats.rows_produced += len(batch)
                stats.batches_produced += 1
            return batch
        batch = node.next_batch()
        if batch:
            stats.rows_produced += len(batch)
            stats.batches_produced += 1
        return batch

    def _finish_timings(self, plan: PhysicalPlan) -> None:
        """Aggregate per-node self times by operator class name, and
        credit each sublink plan with its cache hits."""
        self.stats.operator_timings = {}
        for key, hits in self._hits.items():
            sub = self._subplans.get(key)
            if sub is not None:
                self.stats.node(sub.plan).hits += hits
        for node in plan.nodes():
            entry = self.stats.node_stats.get(id(node))
            if entry is not None:
                self.stats.record_timing(type(node).__name__, entry)

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

The engine only runs plans that are already lowered — planning happens
once, in the session layer.  It is also the evaluator's
``SubqueryRunner``: sublinks reach it through
:class:`~repro.expressions.evaluator.EvalContext` with the *logical*
query tree in hand; the lowering registry maps that tree's identity to
its lowered InitPlan/SubPlan, so sublink evaluation never re-enters the
interpreter.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Iterable, Iterator

from ..catalog import Catalog
from ..algebra.operators import Operator
from ..relation import Relation
from .lowering import lower_plan
from .physical import (
    InitPlanSublink, PhysicalOperator, PhysicalPlan, SublinkPlan,
    SubPlanSublink,
)
from .stats import ExecutionStats

Frames = tuple


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

    # -- public API ----------------------------------------------------------

    def execute_physical(self, plan: PhysicalPlan,
                         params: Iterable[Any] = ()) -> Relation:
        """Run an already-lowered plan and materialize the sink."""
        self.params = tuple(params)
        self._subplans.update(plan.subplans)
        rows = self._drain(plan.root, ())
        if self.collect_stats:
            self._finish_timings(plan)
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
        self.params = tuple(params)
        self._subplans.update(plan.subplans)
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
            if self.collect_stats:
                self._finish_timings(plan)

    # -- SubqueryRunner protocol (sublink evaluation hook) --------------------

    def run_subquery(self, query: Operator, frames: Frames) -> list[tuple]:
        """Execute a sublink query with *frames* visible as outer rows.

        InitPlans run once and cache their result for the lifetime of the
        engine; SubPlans re-run per call with the caller's frames bound.
        """
        sub = self._subplans.get(id(query))
        if sub is None:
            sub = self._lower_adhoc(query)
        if not sub.correlated:
            cached = self._initplan_cache.get(id(query))
            if cached is not None:
                self.stats.sublink_cache_hits += 1
                return cached
            self.stats.sublink_executions += 1
            rows = self._drain(sub.plan, ())
            self._initplan_cache[id(query)] = rows
            return rows
        self.stats.sublink_executions += 1
        return self._drain(sub.plan, frames)

    def _lower_adhoc(self, query: Operator) -> SublinkPlan:
        """Lower a sublink query the plan registry does not know — the
        path taken when the engine is used as a standalone subquery
        runner (e.g. by the direct-provenance evaluator)."""
        from ..algebra.properties import is_correlated
        registry = self._subplans
        plan = lower_plan(query, self.catalog,
                          use_indexes=self.use_indexes)
        registry.update(plan.subplans)
        cls = SubPlanSublink if is_correlated(query) else InitPlanSublink
        sub = cls(None, query, plan.root)
        registry[id(query)] = sub
        return sub

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
        """Aggregate per-node self times by operator class name."""
        self.stats.operator_timings = {}
        for node in plan.nodes():
            entry = self.stats.node_stats.get(id(node))
            if entry is not None:
                self.stats.record_timing(type(node).__name__, entry)

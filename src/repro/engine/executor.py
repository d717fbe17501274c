"""The execution facade.

:class:`Executor` keeps the one-statement execution surface the rest of
the library (and its tests) program against, and dispatches to one of
three engines:

* ``"pipelined"`` (the default) — the row-batch pipeline of
  :mod:`repro.engine.pipeline` over lowered physical plans;
* ``"vectorized"`` — the pipelined engine with columnar
  :class:`~repro.engine.columnar.ColumnBatch` data flow and whole-column
  expression kernels (:mod:`repro.engine.vectorized`), falling back to
  row operators per node where the vector compiler cannot help;
* ``"materializing"`` — the original tree-walking interpreter
  (:mod:`repro.engine.materialize`), kept as the benchmark baseline and
  the parity-test reference; it runs a physical plan's logical tree.

The executor runs plans, it does not optimize them: sessions plan every
SELECT through one function (analyze, rewrite, optimize, lower — see
:meth:`repro.api.Connection._plan`), and :meth:`Executor.execute` only
lowers the tree it is handed with the same lowering step
(:func:`~repro.engine.lowering.lower_for_session`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:
    from ..api.config import SessionConfig
    from .physical import PhysicalPlan

from ..catalog import Catalog
from ..algebra.operators import Operator
from ..relation import Relation
from .stats import ExecutionStats

#: Engine names accepted by ``SessionConfig.engine``.
ENGINES = ("pipelined", "vectorized", "materializing")


class Executor:
    """Evaluates one algebra tree; create a fresh instance per statement.

    *config* is a :class:`repro.api.SessionConfig`; it supplies the
    ``engine`` / ``batch_size`` / lowering knobs (defaults when None).
    *compiled_cache* lets a cached plan share its compiled-expression
    closures across executions of the materializing engine (the
    pipelined engine caches compiled batch closures on the physical
    nodes themselves).
    """

    def __init__(self, catalog: Catalog,
                 config: SessionConfig | None = None,
                 compiled_cache: dict[int, Any] | None = None) -> None:
        self.catalog = catalog
        self.config = config
        self.collect_stats = \
            config.collect_stats if config is not None else True
        self.engine = config.engine if config is not None else "pipelined"
        self.stats = ExecutionStats()
        if self.engine == "materializing":
            from .materialize import MaterializingEngine
            self._impl = MaterializingEngine(
                catalog, self.collect_stats, self.stats, compiled_cache)
        else:
            if self.engine == "vectorized":
                from .vectorized import VectorizedEngine as engine_cls
            else:
                from .pipeline import PipelineEngine as engine_cls
            batch_size = config.batch_size if config is not None else 1024
            use_indexes = config.use_indexes if config is not None else True
            self._impl = engine_cls(catalog, self.collect_stats,
                                    self.stats, batch_size,
                                    use_indexes=use_indexes)

    # -- public API ----------------------------------------------------------

    def execute(self, op: Operator, params: Iterable[Any] = ()) -> Relation:
        """Lower *op* (no optimizer pass — it runs as given) and run it.

        *params* are the values bound to the plan's ``?`` placeholders
        (:class:`~repro.expressions.ast.Param` nodes), visible to every
        expression evaluated during this execution.
        """
        from .lowering import lower_for_session
        return self.execute_physical(
            lower_for_session(op, self.catalog, self.config), params)

    def execute_physical(self, plan: PhysicalPlan,
                         params: Iterable[Any] = ()) -> Relation:
        """Run an already-lowered :class:`~repro.engine.physical.
        PhysicalPlan` (the plan-cache hot path).  The materializing
        engine falls back to interpreting the plan's logical tree."""
        if self.engine == "materializing":
            return self._impl.execute(plan.logical, params)
        return self._impl.execute_physical(plan, params)

    def stream_physical(self, plan: PhysicalPlan,
                        params: Iterable[Any] = ()) -> Iterator[list[tuple]]:
        """Run an already-lowered physical plan as a generator of row
        batches (the streaming-result path).  The materializing engine
        cannot pipeline — it executes eagerly and yields one batch."""
        if self.engine == "materializing":
            relation = self._impl.execute(plan.logical, params)
            return iter((relation.rows,)) if relation.rows else iter(())
        return self._impl.stream_physical(plan, params)

    # -- SubqueryRunner protocol (sublink evaluation hook) --------------------

    def run_subquery(self, query: Operator, frames: tuple) -> list[tuple]:
        """Execute a sublink query with *frames* visible as outer rows."""
        return self._impl.run_subquery(query, frames)

"""Semantic oracles: provenance computed *from the definitions*, not from
the rewrites.

Two independent implementations used to validate the rewrite rules:

* :func:`closed_form_provenance` — the per-tuple closed forms of Figure 2 /
  Definition 2 for single-operator queries ``σ_C(T)`` / ``Π_A(T)`` with
  sublinks, computed by direct evaluation (no algebra rewriting involved).

* :func:`brute_force_provenance` — literal maximal-subset search over
  Definition 1's conditions (1) and (2), optionally adding Definition 2's
  condition (3), for *tiny* inputs.  Exponential; used by tests to confirm
  Theorems 1-3 on concrete instances, including the paper's Section 2.5
  ambiguity example.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Any, Callable, Iterable, Sequence

from ..catalog import Catalog
from ..datatypes import is_true
from ..engine import Executor
from ..errors import ReproError
from ..expressions.ast import (
    Col, Expr, Sublink, collect_sublinks,
)
from ..expressions.evaluator import EvalContext, Frame, evaluate
from ..algebra.operators import Operator, Project, Select
from .influence import sublink_provenance_filter


# ---------------------------------------------------------------------------
# Closed forms (Definition 2 / Figure 2) by direct evaluation
# ---------------------------------------------------------------------------

def closed_form_provenance(op: Select | Project, catalog: Catalog
                           ) -> list[tuple[tuple, dict]]:
    """Provenance of a single selection/projection over its direct input.

    Returns ``[(result_row, {"input": input_row,
    sublink_index: [sublink_query_rows...]}), ...]`` — one entry per
    (result row, contributing input row) pair; each sublink's provenance
    rows are the sublink-*query* output rows (apply ``Tsub+`` separately to
    chase them further down).
    """
    if isinstance(op, Select):
        exprs = [op.condition]
    elif isinstance(op, Project):
        exprs = [expr for _, expr in op.items]
    else:
        raise ReproError(
            "closed_form_provenance handles Select/Project only")

    executor = Executor(catalog)
    input_rows = executor.execute(op.input).rows
    index = Frame.index_for(op.input.schema.names)
    sublinks: list[Sublink] = []
    for expr in exprs:
        sublinks.extend(collect_sublinks(expr))

    results: list[tuple[tuple, dict]] = []
    for row in input_rows:
        ctx = EvalContext((Frame(index, row),), executor)
        if isinstance(op, Select):
            if not is_true(evaluate(op.condition, ctx)):
                continue
            result_row = row
        else:
            result_row = tuple(
                evaluate(expr, ctx) for _, expr in op.items)
        prov: dict[Any, Any] = {"input": row}
        for position, sublink in enumerate(sublinks):
            sub_rows = executor.run_subquery(sublink.query, ctx.frames)
            value = evaluate(sublink, ctx)
            test_value = (evaluate(sublink.test, ctx)
                          if sublink.test is not None else None)
            keep = sublink_provenance_filter(sublink, value, test_value)
            prov[position] = [r for r in sub_rows if keep(r)]
        results.append((result_row, prov))
    return results


# ---------------------------------------------------------------------------
# Brute force over Definitions 1 and 2
# ---------------------------------------------------------------------------

def _subsets(rows: Sequence[tuple]) -> Iterable[tuple[tuple, ...]]:
    """All sub-bags of *rows* (rows treated positionally, so duplicates
    produce distinct subsets — bag semantics)."""
    return chain.from_iterable(
        combinations(rows, size) for size in range(len(rows) + 1))


class SelectionWithSublinks:
    """A self-contained model of ``σ_C(T)`` for the brute-force checker.

    * ``sublink_queries[i](sub_input, t)`` maps a sub-bag of sublink *i*'s
      input relation (and the input tuple, for correlated sublinks) to the
      sublink query's output rows — the paper's ``Tsub_i``;
    * ``sublink_values[i](t, rows)`` evaluates the nesting operator
      ``Csub_i`` over those rows (3VL result);
    * ``condition(t, values)`` combines the sublink truth values into the
      selection condition ``C``.

    Keeping ``Csub`` separate from ``C`` is essential: Definition 2's
    condition (3) compares *sublink* results, which an enclosing
    disjunction in ``C`` could otherwise mask.
    """

    def __init__(self, input_rows: Sequence[tuple],
                 sublink_inputs: Sequence[Sequence[tuple]],
                 sublink_queries: Sequence[
                     Callable[[Sequence[tuple], tuple], list[tuple]]],
                 sublink_values: Sequence[
                     Callable[[tuple, list[tuple]], Any]],
                 condition: Callable[[tuple, list[Any]], Any]):
        self.input_rows = list(input_rows)
        self.sublink_inputs = [list(rows) for rows in sublink_inputs]
        self.sublink_queries = list(sublink_queries)
        self.sublink_values = list(sublink_values)
        self.condition = condition

    def _csub(self, position: int, sub_input: Sequence[tuple],
              t: tuple) -> Any:
        rows = self.sublink_queries[position](list(sub_input), t)
        return self.sublink_values[position](t, rows)

    def evaluate(self, input_rows: Sequence[tuple] | None = None,
                 sublink_inputs: Sequence[Sequence[tuple]] | None = None
                 ) -> list[tuple]:
        """Run the selection over (sub-bags of) the inputs."""
        rows = self.input_rows if input_rows is None else list(input_rows)
        subs = self.sublink_inputs if sublink_inputs is None else \
            [list(s) for s in sublink_inputs]
        output = []
        for t in rows:
            values = [self._csub(i, subs[i], t)
                      for i in range(len(subs))]
            if is_true(self.condition(t, values)):
                output.append(t)
        return output

    # -- Definition 1 conditions ------------------------------------------------

    def _condition1(self, t: tuple, candidate: Sequence[Sequence[tuple]]
                    ) -> bool:
        """op(T1*, ..., Tn*) = t."""
        produced = self.evaluate([t], candidate)
        return produced == [t]

    def _condition2(self, t: tuple, candidate: Sequence[Sequence[tuple]]
                    ) -> bool:
        """Every tuple of every subset, substituted alone, still yields t."""
        for position, subset in enumerate(candidate):
            for single in subset:
                probe = [list(s) for s in candidate]
                probe[position] = [single]
                if not self.evaluate([t], probe):
                    return False
        return True

    def _condition3(self, t: tuple, candidate: Sequence[Sequence[tuple]]
                    ) -> bool:
        """Definition 2's condition (3): every provenance tuple of every
        sublink, substituted alone for ``Tsub``, reproduces the sublink's
        original result: ``Csub(Tsub, tup) = Csub({t*}, tup)``."""
        for position, subset in enumerate(candidate):
            reference = self._csub(
                position, self.sublink_inputs[position], t)
            for single in subset:
                if self._csub(position, [single], t) != reference:
                    return False
        return True

    # -- maximal-subset search ------------------------------------------------------

    def provenance_candidates(self, t: tuple, use_condition3: bool = False
                              ) -> list[tuple[tuple, ...]]:
        """All *maximal* sublink-input subset combinations satisfying the
        requested definition's conditions, for result tuple *t*.

        Under Definition 1 (``use_condition3=False``) the result may
        contain several incomparable maxima — the paper's Section 2.5
        ambiguity.  Under Definition 2 it is unique for the supported
        queries (Theorem 3).
        """
        satisfying: list[tuple[tuple, ...]] = []
        subset_lists = [list(_subsets(rows)) for rows in self.sublink_inputs]

        def explore(prefix: list, position: int) -> None:
            if position == len(subset_lists):
                candidate = tuple(tuple(s) for s in prefix)
                if self._condition1(t, candidate) and \
                        self._condition2(t, candidate) and \
                        (not use_condition3
                         or self._condition3(t, candidate)):
                    satisfying.append(candidate)
                return
            for subset in subset_lists[position]:
                explore(prefix + [subset], position + 1)

        explore([], 0)

        def bag_le(x, y) -> bool:
            from collections import Counter
            cx, cy = Counter(x), Counter(y)
            return all(cy[key] >= count for key, count in cx.items())

        def dominated(a, b) -> bool:
            """True iff candidate a is a strictly smaller bag than b,
            component-wise."""
            if not all(bag_le(x, y) for x, y in zip(a, b)):
                return False
            return any(len(x) < len(y) for x, y in zip(a, b))

        return [c for c in satisfying
                if not any(dominated(c, other) for other in satisfying)]


def brute_force_provenance(selection: SelectionWithSublinks, t: tuple,
                           definition: int = 2
                           ) -> list[tuple[tuple, ...]]:
    """Maximal provenance candidates for *t* under Definition 1 or 2."""
    if definition not in (1, 2):
        raise ReproError("definition must be 1 or 2")
    return selection.provenance_candidates(
        t, use_condition3=(definition == 2))

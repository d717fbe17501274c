"""Static properties of algebra trees used by the rewriter and planner.

* :func:`is_correlated` — does a sublink query reference enclosing scopes?
  (decides Gen vs Left/Move applicability, Section 3.6)
* :func:`outer_references` / :func:`correlated_subtrees` — which outer
  columns a correlated sublink reads, and which of its subtrees do not
  depend on them (the engine's SubPlan caches key on both).
* :func:`collect_base_relations` — the ``Base(Tsub)`` list used to build
  the Gen strategy's CrossBase.
* :func:`contains_sublinks` / :func:`contains_aggregates` — expression
  classification helpers.
"""

from __future__ import annotations

from ..expressions.ast import AggCall, Col, Expr, Sublink
from .operators import BaseRelation, Operator
from .trees import iter_operators


def _expr_nodes(expr: Expr):
    yield expr
    for child in expr.children():
        yield from _expr_nodes(child)


def contains_sublinks(expr: Expr) -> bool:
    """True iff *expr* contains a sublink node (at any depth of the
    expression, not looking inside sublink query trees)."""
    return any(isinstance(node, Sublink) for node in _expr_nodes(expr))


def contains_aggregates(expr: Expr) -> bool:
    """True iff *expr* contains an aggregate call outside sublinks."""
    return any(isinstance(node, AggCall) for node in _expr_nodes(expr))


def _outer_refs_expr(expr: Expr, boundary: int,
                     found: set[tuple[int, str]]) -> None:
    """Add to *found* the ``(depth, name)`` of every column reference in
    *expr* that escapes a fragment *boundary* sublink levels deep: depth
    1 is the scope just outside the fragment."""
    if isinstance(expr, Col) and expr.level >= boundary:
        found.add((expr.level - boundary + 1, expr.name))
    for child in expr.children():
        _outer_refs_expr(child, boundary, found)
    if isinstance(expr, Sublink):
        for node in iter_operators(expr.query):
            for inner in node.expressions():
                _outer_refs_expr(inner, boundary + 1, found)


def _max_escape_expr(expr: Expr, boundary: int) -> int:
    """How many levels above the fragment root *expr* reaches (0 = none)."""
    found: set[tuple[int, str]] = set()
    _outer_refs_expr(expr, boundary, found)
    return max((depth for depth, _ in found), default=0)


def outer_references(query: Operator) -> tuple[tuple[int, str], ...]:
    """The enclosing-scope columns the sublink query *query* reads,
    nested sublinks included, as sorted ``(depth, name)`` pairs.

    Depth 1 is the row the sublink is evaluated against — the last of
    the frames handed to the subquery runner — depth 2 the row one
    sublink boundary further out, and so on.  A correlated sublink's
    result is a function of these values (and of the statement's data
    and parameters), which is what lets an engine memoize it.
    """
    found: set[tuple[int, str]] = set()
    for node in iter_operators(query):
        for expr in node.expressions():
            _outer_refs_expr(expr, 1, found)
    return tuple(sorted(found))


def correlation_depth(query: Operator) -> int:
    """How many enclosing scopes *query* reaches into (0 = uncorrelated)."""
    return max((depth for depth, _ in outer_references(query)), default=0)


def is_correlated(query: Operator) -> bool:
    """True iff the sublink query *query* references an enclosing scope."""
    return correlation_depth(query) > 0


def correlated_subtrees(query: Operator) -> set[int]:
    """Identities of the operators of the sublink query *query* (nested
    sublink trees not entered) whose subtree references an enclosing
    scope.  Every other subtree yields the same rows for every outer
    row."""
    found: set[int] = set()

    def visit(op: Operator) -> bool:
        correlated = False
        for child in op.children():
            correlated = visit(child) or correlated
        if not correlated:
            correlated = any(reads_outer_scope(expr)
                             for expr in op.expressions())
        if correlated:
            found.add(id(op))
        return correlated

    visit(query)
    return found


def reads_outer_scope(expr: Expr) -> bool:
    """True iff *expr*, attached to an operator of a sublink query,
    reads a row of an enclosing scope (nested sublinks included)."""
    return _max_escape_expr(expr, boundary=1) > 0


def expr_is_correlated(expr: Expr) -> bool:
    """True iff *expr* (e.g. a sublink's test) escapes its own scope."""
    return _max_escape_expr(expr, boundary=0) > 0


def collect_base_relations(op: Operator) -> list[BaseRelation]:
    """All base-relation accesses of *op*'s tree, in depth-first order,
    including those inside nested sublink queries (``Base(T)``)."""
    return [node for node in iter_operators(op, into_sublinks=True)
            if isinstance(node, BaseRelation)]

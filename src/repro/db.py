"""The legacy :class:`Database` facade — a thin shim over
:class:`repro.api.Connection`.

A SQLite-like in-process API kept for backwards compatibility::

    from repro import Database

    db = Database()
    db.execute("CREATE TABLE r (a int, b int)")
    db.execute("INSERT INTO r VALUES (1, 1), (2, 1), (3, 2)")
    result = db.sql("SELECT PROVENANCE * FROM r WHERE a = 2")
    print(result.pretty())

``SELECT PROVENANCE`` (Perm's SQL extension) triggers the provenance
rewrite; ``SELECT PROVENANCE (left)`` forces a strategy.  The same is
available programmatically via :meth:`Database.provenance`.

Every call here re-parses and re-plans — deliberately, so benchmarks of
the un-cached path stay honest.  New code should use
:func:`repro.connect`, whose cursors and prepared statements share an LRU
plan cache and support ``?`` parameter binding; :attr:`Database.connection`
exposes the underlying session, so both APIs can be mixed over one
catalog.
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping
from typing import Any, Iterable, Sequence

from .api import Connection, SessionConfig
from .catalog import Catalog
from .engine import ExecutionStats
from .algebra.operators import Operator
from .algebra.printer import explain
from .relation import Relation
from .sql.ast import SelectStmt
from .sql.parser import parse_statement


class _ViewsProxy(MutableMapping):
    """Dict-flavoured view of the catalog's view registry.

    The legacy ``Database`` exposed ``views`` as a plain dict that callers
    mutated directly; routing mutations through the catalog keeps the DDL
    generation counter (and with it, plan-cache invalidation) correct for
    that old idiom too.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def __getitem__(self, name: str) -> SelectStmt:
        return self._catalog.views[name.lower()]

    def __setitem__(self, name: str, query: SelectStmt) -> None:
        self._catalog.create_view(name, query)

    def __delitem__(self, name: str) -> None:
        if not self._catalog.has_view(name):
            raise KeyError(name)
        self._catalog.drop_view(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._catalog.views)

    def __len__(self) -> int:
        return len(self._catalog.views)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(self._catalog.views)


class Database:
    """An in-process relational database with provenance support.

    A compatibility veneer: state lives in the wrapped
    :class:`~repro.api.Connection` (and its catalog).
    """

    def __init__(self, connection: Connection | None = None,
                 config: SessionConfig | None = None):
        self.connection = connection if connection is not None \
            else Connection(config)

    # -- shared state (delegated) ----------------------------------------------

    @property
    def catalog(self) -> Catalog:
        return self.connection.catalog

    @property
    def views(self) -> "_ViewsProxy":
        """View definitions (now owned by the catalog).

        Mutations through this mapping bump the catalog's generation
        counter, so plan-cache invalidation works even for legacy code
        that assigns or deletes views directly.
        """
        return _ViewsProxy(self.connection.catalog)

    @property
    def last_stats(self) -> ExecutionStats | None:
        return self.connection.last_stats

    @last_stats.setter
    def last_stats(self, stats: ExecutionStats | None) -> None:
        self.connection.last_stats = stats

    # -- DDL / DML convenience (programmatic) ----------------------------------

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str]]) -> None:
        """Create a table from ``(column, type-name)`` pairs."""
        self.connection.create_table(name, columns)

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert rows; returns the number of rows inserted."""
        return self.connection.insert(table, rows)

    # -- SQL entry points ---------------------------------------------------------

    def execute(self, text: str) -> Relation | None:
        """Execute one SQL statement; SELECTs return a :class:`Relation`."""
        result = self.connection._run_statement(parse_statement(text))
        return result if isinstance(result, Relation) else None

    def execute_script(self, text: str) -> None:
        """Execute a ``;``-separated script, discarding SELECT outputs."""
        self.connection.execute_script(text)

    def sql(self, text: str, strategy: str | None = None) -> Relation:
        """Run a SELECT (optionally ``SELECT PROVENANCE``).

        *strategy* overrides the strategy named in the SQL text; it is only
        meaningful for provenance queries.
        """
        return self.connection.sql(text, strategy)

    def provenance(self, text: str, strategy: str = "auto") -> Relation:
        """Compute the provenance of a plain SELECT query."""
        return self.connection.provenance(text, strategy)

    def plan(self, text: str, strategy: str | None = None) -> Operator:
        """The algebra plan a query would execute (after any rewrite)."""
        return self.connection.plan(text, strategy)

    def explain(self, text: str, strategy: str | None = None) -> str:
        """EXPLAIN-style rendering of the (possibly rewritten) plan."""
        return explain(self.plan(text, strategy))

    def create_view(self, name: str, text: str) -> None:
        """Register a view over a SELECT statement."""
        self.connection.create_view(name, text)

    # -- internals kept for backwards compatibility -----------------------------

    def _run_select(self, statement: SelectStmt,
                    strategy: str | None = None) -> Relation:
        return self.connection._run_select_uncached(statement, strategy)

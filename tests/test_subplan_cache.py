"""Per-execution SubPlan caches: the correlation-key memo and the
outer-invariant ``Materialize`` subtrees.

A correlated sublink runs once per distinct value of the outer columns
it reads, and its uncorrelated subtrees run once per execution.  The
memo key must keep apart values Python treats as equal but SQL results
do not (``0.0`` / ``-0.0``, ``1`` / ``1.0`` / ``TRUE``) and must join the
ones that are the same (NULLs, NaNs, equal texts).  Results equal the
materializing engine's (which caches nothing per outer row) and, on tiny
instances, the brute-force Definition 2 provenance.  Both caches live on
the engine for one execution: a plan-cached statement sees DML between
executions and leaves no rows on its plan nodes.
"""

import math
import os
from collections import Counter

import pytest

from repro import connect
from repro.datatypes import compare, tv_all, tv_any
from repro.engine import Executor
from repro.engine import pipeline
from repro.engine.physical import Materialize, SubPlanSublink
from repro.expressions.ast import Sublink
from repro.expressions.evaluator import Frame
from repro.provenance.oracle import (
    SelectionWithSublinks, brute_force_provenance,
)

ENGINE = os.environ.get("REPRO_ENGINE", "pipelined")

#: A scalar sublink that hands the outer value straight back: any memo
#: key that merged two values would return the first one's twin.
ECHO = "SELECT x, (SELECT x FROM one) AS y FROM t"


def _echo_conn(values):
    conn = connect(engine=ENGINE)
    conn.execute("CREATE TABLE t (x float)")
    conn.insert("t", [(value,) for value in values])
    conn.execute("CREATE TABLE one (k int)")
    conn.insert("one", [(1,)])
    return conn


def _exact(value):
    """A value with its type and float sign spelled out, NaN as text."""
    if isinstance(value, float):
        if value != value:
            return (float, "nan")
        return (float, value, math.copysign(1.0, value))
    return (type(value), value)


class TestMemoKeys:
    @pytest.mark.parametrize("first,second", [
        (0.0, -0.0), (1, 1.0), (1, True), (1.0, True),
    ])
    def test_equal_in_python_but_distinct_in_sql(self, first, second):
        conn = _echo_conn([first, second, first, second])
        rows = conn.execute(ECHO).rows
        assert [(_exact(x), _exact(y)) for x, y in rows] == \
            [(_exact(x), _exact(x)) for x, _ in rows]
        assert conn.last_stats.sublink_executions == 2
        assert conn.last_stats.sublink_cache_hits == 2

    @pytest.mark.parametrize("first,second", [
        (None, None), (float("nan"), float("nan")), ("text", "te" + "xt"),
    ])
    def test_same_value_shares_one_run(self, first, second):
        conn = _echo_conn([first, second])
        rows = conn.execute(ECHO).rows
        assert [_exact(y) for _, y in rows] == \
            [_exact(first), _exact(second)]
        assert conn.last_stats.sublink_executions == 1
        assert conn.last_stats.sublink_cache_hits == 1

    def test_mixed_column_matches_materializing(self):
        values = [0.0, -0.0, 1, 1.0, True, None, float("nan"), "a",
                  0.0, -0.0, 1, 1.0, True, None, float("nan"), "a"]
        conn = _echo_conn(values)
        reference = connect(engine="materializing", catalog=conn.catalog)
        fast = conn.execute(ECHO).rows
        slow = reference.execute(ECHO).rows
        assert [tuple(map(_exact, row)) for row in fast] == \
            [tuple(map(_exact, row)) for row in slow]
        assert conn.last_stats.sublink_executions == 8
        assert conn.last_stats.sublink_cache_hits == 8


# ---------------------------------------------------------------------------
# Correlated ANY / ALL / SCALAR / EXISTS vs the materializing engine
# ---------------------------------------------------------------------------

CORRELATED_QUERIES = [
    "SELECT a, b FROM r WHERE a = ANY (SELECT c FROM s WHERE d = b)",
    "SELECT a, b FROM r WHERE a < ALL (SELECT c FROM s WHERE d = b)",
    "SELECT a, b FROM r WHERE EXISTS (SELECT * FROM s WHERE d = b)",
    "SELECT a, b FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE d = b AND c > 0)",
    "SELECT a, (SELECT max(c) FROM s WHERE d = b) AS m FROM r",
    "SELECT a, b FROM r WHERE a <= (SELECT e FROM u WHERE f = b)",
    # nested two levels deep: the inner sublink reads the outermost row
    "SELECT a, b FROM r WHERE EXISTS (SELECT * FROM s WHERE c > 0 AND "
    "EXISTS (SELECT * FROM u WHERE f = r.b AND e <= s.c))",
    "SELECT a, (SELECT count(*) FROM s WHERE c IN "
    "(SELECT e FROM u WHERE f = r.b)) AS n FROM r",
]

#: Outer correlation values with repeats of every memo-key edge case.
R_ROWS = [(1, 1), (2, 1), (3, 2), (2, 3), (1, None), (4, None),
          (0, 0.0), (1, -0.0), (2, 2.0), (3, 2), (5, 1.0), (6, 3)]
S_ROWS = [(1, 1), (2, 1), (3, 2), (1, 2.0), (5, 3), (0, 0.0), (4, None)]
U_ROWS = [(2, 1), (1, 2), (0, 0.0)]


@pytest.fixture
def mixed():
    fast = connect(engine=ENGINE)
    fast.execute("CREATE TABLE r (a int, b float)")
    fast.insert("r", R_ROWS)
    fast.execute("CREATE TABLE s (c int, d float)")
    fast.insert("s", S_ROWS)
    fast.execute("CREATE TABLE u (e int, f float)")
    fast.insert("u", U_ROWS)
    return fast, connect(engine="materializing", catalog=fast.catalog)


class TestCorrelatedParity:
    @pytest.mark.parametrize("sql", CORRELATED_QUERIES)
    def test_plain_results(self, mixed, sql):
        fast, slow = mixed
        assert Counter(fast.sql(sql).rows) == Counter(slow.sql(sql).rows)
        assert fast.last_stats.sublink_cache_hits > 0

    @pytest.mark.parametrize("sql", CORRELATED_QUERIES)
    def test_gen_provenance(self, mixed, sql):
        fast, slow = mixed
        expected = Counter(slow.provenance(sql, strategy="gen").rows)
        prepared = fast.prepare("SELECT PROVENANCE (gen) "
                                + sql[len("SELECT "):])
        for _ in range(2):       # the second run comes from the plan cache
            assert Counter(prepared.execute().rows) == expected

    def test_guarded_conjunct_keeps_its_guard(self):
        # 10 / c raises on the s row (0, 0), which d = b keeps from it:
        # moving the division under the outer-invariant Materialize
        # would evaluate it there
        fast = connect(engine=ENGINE)
        fast.execute("CREATE TABLE r (a int, b int)")
        fast.insert("r", [(1, 1), (2, 2), (3, 1)])
        fast.execute("CREATE TABLE s (c int, d int)")
        fast.insert("s", [(0, 0), (5, 1), (20, 2)])
        slow = connect(engine="materializing", catalog=fast.catalog)
        sql = ("SELECT a, b FROM r WHERE EXISTS "
               "(SELECT * FROM s WHERE d = b AND 10 / c > 1)")
        assert Counter(fast.sql(sql).rows) == Counter(slow.sql(sql).rows) \
            == Counter([(1, 1), (3, 1)])

    def test_nested_inner_memo_keys_on_outermost_row(self, mixed):
        fast, slow = mixed
        sql = CORRELATED_QUERIES[6]
        assert Counter(fast.sql(sql).rows) == Counter(slow.sql(sql).rows)
        plan = fast.plan(sql)
        (middle,) = _sublinks(plan)
        (inner,) = _sublinks(middle.query)
        subplans = _lower(fast, plan).subplans
        # the middle query reads r.b only through its nested sublink
        assert subplans[id(middle.query)].outer_refs == ((1, "r.b"),)
        assert subplans[id(inner.query)].outer_refs == \
            ((1, "s.c"), (2, "r.b"))


def _sublinks(op):
    from repro.algebra.trees import iter_operators
    from repro.expressions.ast import walk
    return [part for node in iter_operators(op)
            for expr in node.expressions()
            for part in walk(expr) if isinstance(part, Sublink)]


def _lower(conn, plan):
    from repro.engine.lowering import lower_for_session
    return lower_for_session(plan, conn.catalog, conn.config)


# ---------------------------------------------------------------------------
# Gen provenance vs brute-force Definition 2 on tiny instances
# ---------------------------------------------------------------------------

TINY_R = [(1, 1), (2, 1), (3, 2), (2, 3), (0, 2)]
TINY_S = [(1, 1), (2, 1), (3, 2), (5, 3), (0, 4)]
TINY_U = [(2, 1), (1, 2)]


def _scalar_value(t, rows):
    return rows[0][0] if rows else None


#: (query, sublink table, Csub, C).  The sublink input of result row t
#: is the sublink table's rows whose second column equals t's b (the
#: rows its correlated query can draw on); the sublink query projects
#: them to their first column.
BRUTE_FORCE_CASES = {
    "any": ("SELECT a, b FROM r WHERE a = ANY (SELECT c FROM s WHERE d = b)",
            "s", lambda t, rows: tv_any(compare("=", t[0], r[0])
                                        for r in rows),
            lambda t, values: values[0]),
    "all": ("SELECT a, b FROM r WHERE a < ALL (SELECT c FROM s WHERE d = b)",
            "s", lambda t, rows: tv_all(compare("<", t[0], r[0])
                                        for r in rows),
            lambda t, values: values[0]),
    "exists": ("SELECT a, b FROM r WHERE EXISTS "
               "(SELECT c FROM s WHERE d = b)",
               "s", lambda t, rows: len(rows) > 0,
               lambda t, values: values[0]),
    "scalar": ("SELECT a, b FROM r WHERE a <= "
               "(SELECT e FROM u WHERE f = b)",
               "u", _scalar_value,
               lambda t, values: compare("<=", t[0], values[0])),
}


@pytest.mark.parametrize("kind", sorted(BRUTE_FORCE_CASES))
def test_gen_provenance_matches_brute_force(kind):
    sql, table, csub, condition = BRUTE_FORCE_CASES[kind]
    conn = connect(engine=ENGINE)
    for name, cols, rows in (("r", "a int, b int", TINY_R),
                             ("s", "c int, d int", TINY_S),
                             ("u", "e int, f int", TINY_U)):
        conn.execute(f"CREATE TABLE {name} ({cols})")
        conn.insert(name, rows)
    sub_rows = TINY_S if table == "s" else TINY_U
    prov = conn.provenance(sql, strategy="gen")
    assert conn.last_stats.sublink_cache_hits > 0
    witnesses: dict[tuple, Counter] = {}
    for row in prov.rows:
        found = witnesses.setdefault(row[:2], Counter())
        if row[4:6] != (None, None):
            found[row[4:6]] += 1
    assert set(witnesses) == set(conn.sql(sql).rows)
    for t, found in witnesses.items():
        matching = [row for row in sub_rows if row[1] == t[1]]
        selection = SelectionWithSublinks(
            [t], [matching], [lambda sub, _t: [(row[0],) for row in sub]],
            [csub], condition)
        assert selection.evaluate() == [t]
        (maximum,) = brute_force_provenance(selection, t, definition=2)
        assert found == Counter(maximum[0]), (kind, t)


# ---------------------------------------------------------------------------
# The memo's own bounds
# ---------------------------------------------------------------------------

def _correlated_sublink(conn):
    """The sublink query of a correlated EXISTS and the name index of
    the outer rows it is evaluated against."""
    from repro.algebra.operators import Select
    from repro.algebra.trees import iter_operators
    plan = conn.plan("SELECT a FROM r WHERE EXISTS "
                     "(SELECT * FROM s WHERE c = b)")
    (select,) = [node for node in iter_operators(plan)
                 if isinstance(node, Select)]
    (sublink,) = _sublinks(select)
    return sublink.query, Frame.index_for(select.input.schema.names)


@pytest.fixture
def runner():
    conn = connect()
    conn.execute("CREATE TABLE r (a int, b int)")
    conn.execute("CREATE TABLE s (c int, d int)")
    conn.insert("s", [(i, i) for i in range(200)])
    executor = Executor(conn.catalog)
    query, index = _correlated_sublink(conn)
    return executor, query, index


class TestMemoBounds:
    def test_all_miss_memo_switches_off(self, runner):
        executor, query, index = runner
        for value in range(pipeline.MEMO_PROBE_LOOKUPS + 10):
            rows = executor.run_subquery(query, (Frame(index, (0, value)),))
            assert rows == [(value, value)]
        memo = executor._impl.memos[id(query)]
        assert not memo.enabled and memo.entries == {}
        assert executor.stats.sublink_cache_hits == 0
        assert executor.stats.sublink_executions == \
            pipeline.MEMO_PROBE_LOOKUPS + 10

    def test_entry_cap_bounds_the_memo(self, runner, monkeypatch):
        monkeypatch.setattr(pipeline, "MEMO_MAX_ENTRIES", 5)
        executor, query, index = runner
        for value in [0, 0] + list(range(1, 30)) + list(range(30)):
            rows = executor.run_subquery(query, (Frame(index, (0, value)),))
            assert rows == [(value, value)]
        memo = executor._impl.memos[id(query)]
        assert memo.enabled and len(memo.entries) == 5
        assert memo.hits == 1 + 5     # the repeated 0, then 0..4 again


# ---------------------------------------------------------------------------
# Lifetime: one execution, never on plan nodes
# ---------------------------------------------------------------------------

def _pinned(conn):
    """Plan nodes of every cached physical instance still holding rows
    or an engine."""
    held = []
    for entry in list(conn.plan_cache._entries.values()):
        for instance in {id(p): p for p in
                         [entry.physical, *entry._pool]}.values():
            for node in instance.nodes():
                if node.engine is not None:
                    held.append(node)
                if isinstance(node, Materialize) and (
                        node._rows is not None
                        or node._recording is not None):
                    held.append(node)
    return held


LIFETIME_SQL = ("SELECT PROVENANCE (gen) a, b FROM r WHERE a = ANY "
                "(SELECT c FROM s WHERE d = b AND c > 0)")


@pytest.fixture
def lifetime_conn():
    conn = connect(engine=ENGINE, batch_size=1)
    conn.execute("CREATE TABLE r (a int, b int)")
    conn.insert("r", [(1, 1), (2, 1), (3, 2), (4, 2)])
    conn.execute("CREATE TABLE s (c int, d int)")
    conn.insert("s", [(1, 1), (3, 2)])
    return conn


class TestLifetime:
    def test_dml_between_cached_executions_is_visible(self, lifetime_conn):
        conn = lifetime_conn
        reference = connect(engine="materializing", catalog=conn.catalog)
        prepared = conn.prepare(LIFETIME_SQL)
        first = prepared.execute().rows
        assert Counter(first) == \
            Counter(reference.execute(LIFETIME_SQL).rows)
        assert conn.last_stats.sublink_cache_hits > 0
        hits = conn.plan_cache.hits
        conn.execute("INSERT INTO s VALUES (2, 1), (4, 2)")
        second = prepared.execute().rows
        assert conn.plan_cache.hits == hits + 1       # same cached plan
        assert Counter(second) == \
            Counter(reference.execute(LIFETIME_SQL).rows)
        assert {row[:2] for row in second} == {(1, 1), (2, 1), (3, 2),
                                              (4, 2)}
        assert _pinned(conn) == []

    def test_early_close_of_streaming_result_pins_nothing(
            self, lifetime_conn):
        conn = lifetime_conn
        conn.prepare(LIFETIME_SQL).execute().rows     # warm the cache
        result = conn.execute(LIFETIME_SQL)
        assert result.fetch(1)
        assert result.streaming
        result.close()
        assert _pinned(conn) == []
        assert conn.plan_cache.leased_instances() == 0

    def test_materialize_under_a_subplan(self, lifetime_conn):
        conn = lifetime_conn
        physical = _lower(conn, conn.plan(LIFETIME_SQL))
        assert any(isinstance(node, Materialize)
                   for node in physical.nodes())
        report = conn.explain_analyze(LIFETIME_SQL)
        assert "Materialize" in report
        assert "SubPlanSublink (exists)  (loops=" in report
        assert "hits=" in report

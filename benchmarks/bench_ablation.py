"""Ablation benchmarks for the engine design choices DESIGN.md calls out.

1. **Logical optimizer on/off** — Perm relies on PostgreSQL's planner;
   disabling our pushdown pass shows how much of the strategies' viability
   it provides.
2. **Hash join vs nested loop** — the executor's equi-join fast path is
   what separates Unn from Left/Move (Figures 7-9's order-of-magnitude
   gap); measuring Unn with the same plan under both executors isolates
   that effect.
3. **Uncorrelated sublink caching** — PostgreSQL's InitPlan behaviour;
   without it the Left strategy's duplicated ``Csub`` in ``Jsub`` would be
   re-evaluated per row pair (the problem the Move strategy addresses).
"""

import pytest

from repro.engine import Executor
from repro.engine.optimizer import optimize as optimize_plan
from repro.provenance import ProvenanceRewriter
from repro.sql.analyzer import Analyzer
from repro.sql.parser import parse_statement
from repro.synthetic import SyntheticConfig, load_synthetic, q1_sql

SIZE = 400


@pytest.fixture(scope="module")
def setup():
    db = load_synthetic(SyntheticConfig(SIZE, SIZE, seed=0))
    sql = q1_sql(SIZE, SIZE, seed=0)
    return db, sql


@pytest.mark.parametrize("optimize", (True, False),
                         ids=("optimizer-on", "optimizer-off"))
def test_optimizer_ablation_left(benchmark, setup, optimize):
    db, sql = setup
    # the rewritten plan as it reaches the optimizer (db.plan() returns
    # it already optimized)
    analyzed = Analyzer(db.catalog).analyze(parse_statement(sql))
    plan = ProvenanceRewriter(db.catalog, "left").rewrite_query(
        analyzed).plan

    def run():
        tree = optimize_plan(plan, db.catalog) if optimize else plan
        return Executor(db.catalog).execute(tree)

    benchmark.group = "ablation-optimizer"
    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("strategy", ("unn", "left"))
def test_join_path_ablation(benchmark, setup, strategy):
    """Unn's plan hash-joins; Left's Jsub disjunction forces the nested
    loop — the engine-level cause of the Fig. 7-9 gap."""
    db, sql = setup
    plan = db.plan(sql, strategy=strategy)
    benchmark.group = "ablation-join-path"

    def run():
        executor = Executor(db.catalog)
        executor.execute(plan)
        return executor.stats

    stats = run()
    if strategy == "unn":
        assert stats.hash_joins >= 1
    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)


def test_sublink_cache_effect(benchmark, setup):
    """Count sublink evaluations with the cache (identity-keyed): the
    Left strategy's duplicated Csub is evaluated once per *tree*, not per
    row — PostgreSQL InitPlan behaviour."""
    db, sql = setup
    plan = db.plan(sql, strategy="left")

    def run():
        executor = Executor(db.catalog)
        executor.execute(plan)
        return executor.stats

    stats = run()
    assert stats.sublink_executions <= 4
    assert stats.sublink_cache_hits >= 0
    benchmark.group = "ablation-sublink-cache"
    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)


def test_direct_vs_rewrite_provenance(benchmark, setup):
    """The paper's future-work idea measured: direct provenance
    propagation avoids the rewrite plans' re-computation of intermediate
    results (compare against the Left strategy rows of this suite)."""
    from repro.provenance.direct import direct_provenance

    db, sql = setup
    plan = db.plan(sql)
    benchmark.group = "ablation-direct"
    benchmark.pedantic(
        lambda: direct_provenance(db.catalog, plan),
        rounds=3, iterations=1, warmup_rounds=0)

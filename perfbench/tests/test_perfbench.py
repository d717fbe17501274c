"""Tests of the benchmark itself (not of the engine it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inprocess  # noqa: E402
import served  # noqa: E402
from layers import END_TO_END, PER_LAYER, SERVED_ONLY  # noqa: E402
from ledger import Ledger, self_times  # noqa: E402
from measure import (  # noqa: E402
    TooFewSamples, check_metric_name, fingerprint, percentile,
)


def _requests(workload: inprocess.Workload) -> list:
    return [(r.key, r.path, r.sql, r.strategy, r.params)
            for r in workload.requests]


def test_generators_are_deterministic_per_seed() -> None:
    assert _requests(inprocess.interactive(5, 300)) == \
        _requests(inprocess.interactive(5, 300))
    assert _requests(inprocess.interactive(5, 300)) != \
        _requests(inprocess.interactive(6, 300))
    assert _requests(inprocess.analytic(5)) == \
        _requests(inprocess.analytic(5))
    first, second = served.Client(5), served.Client(5)
    assert first.params == second.params
    assert first.payloads == second.payloads
    assert served._kinds(5, 200) == served._kinds(5, 200)
    assert served.Client(6).params != first.params


def test_interactive_pool_outgrows_the_plan_cache() -> None:
    workload = inprocess.interactive(1, 2000)
    assert workload.properties["statement_pool"] > 128


def test_metric_names_are_valid_and_match_the_manifest() -> None:
    for name, _ in END_TO_END + PER_LAYER + SERVED_ONLY:
        assert check_metric_name(name) == name
    with pytest.raises(ValueError):
        check_metric_name("read p50")
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == \
        list(PER_LAYER)


def test_percentile_needs_ten_samples_beyond_it() -> None:
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(TooFewSamples):
        percentile(list(range(1, 100)), 90)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


class _SlowClient:
    """One connection whose every request takes 20 ms of service."""

    conns = [object()]

    async def send(self, slot: int, record: served.Record) -> None:
        record.sent = time.perf_counter()
        await asyncio.sleep(0.02)
        record.done = time.perf_counter()


def test_open_loop_times_requests_from_when_they_were_due() -> None:
    records, lags, _ = asyncio.run(served.open_loop(
        _SlowClient(), rate=200.0, seconds=0.05, kinds=["q1"]))
    assert len(records) == 10 and len(lags) == 10
    latencies = served._latencies(records, reads=True)
    service = [(r.done - r.sent) * 1000.0 for r in records]
    # due every 5 ms, served one per 20 ms: the queue grows, and only a
    # due-time clock charges that wait to the requests behind the stall
    assert latencies[-1] > service[-1] + 100.0
    for record, latency in zip(records, latencies):
        assert latency == pytest.approx((record.done - record.due) * 1000.0)


def test_planted_wrong_result_trips_the_oracle() -> None:
    from repro import connect
    with connect() as conn:
        conn.create_table("r", [("a", "int"), ("b", "int")])
        conn.create_table("s", [("c", "int")])
        conn.insert("r", [(1, 1), (2, 2), (3, 3)])
        conn.insert("s", [(1,), (3,)])
        sql = "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)"
        request = inprocess.Request(("q",), "provenance", sql, "left")
        right = {("q",): inprocess._agreeing(conn, sql, ("left", "move"))}
        loop = inprocess.run_loop(conn, {}, [request], right, 0, limit=3)
        assert loop.failures == []
        rows = conn.provenance(sql, strategy="move").rows
        planted = {("q",): fingerprint(rows[:-1] + [(9,) + rows[-1][1:]])}
        loop = inprocess.run_loop(conn, {}, [request], planted, 0, limit=3)
        assert len(loop.failures) == 3
        assert "wrong result" in loop.failures[0]


def test_fingerprint_ignores_order_and_float_noise() -> None:
    rows = [(1, 0.1 + 0.2), (2, "x")]
    assert fingerprint(rows) == fingerprint([(2, "x"), (1, 0.3)])
    assert fingerprint(rows) != fingerprint(rows + [(2, "x")])


def test_self_time_subtracts_child_spans() -> None:
    ledger = Ledger()
    root = ledger.open("request", 7)
    child = ledger.open("exec.run")
    time.sleep(0.002)
    ledger.close(child)
    ledger.close(root)
    layers = self_times(ledger.spans)[7]
    total = sum(layers.values())
    (_, start, end, *_), = [s for s in ledger.spans if s[0] == "request"]
    assert total == pytest.approx((end - start) / 1e6)
    assert layers["exec.run"] >= 2.0 > layers["request"]


def test_durability_check_allows_trimmed_rows_and_flags_lost_ones(
        tmp_path: Path) -> None:
    from repro.api import Engine
    engine = Engine(path=str(tmp_path))
    with engine.connect() as conn:
        conn.execute("CREATE TABLE events (id int, conn int, payload text)")
        conn.execute("CREATE TABLE counter (v int)")
        conn.execute("INSERT INTO counter VALUES (3)")
        conn.insert("events", [(i, 0, "x") for i in range(10)])
        conn.execute("DELETE FROM events WHERE id < 4")
    engine.close()
    state = served.State(acked_ids=set(range(10)), trim_sent=4,
                         trim_acked=4, acked_counters={3})
    assert served.verify_durable(tmp_path, state) == []
    # an acknowledged id above every trim is missing
    state.acked_ids.add(10)
    assert "lost" in served.verify_durable(tmp_path, state)[0]
    # rows an acknowledged trim deleted are present
    state = served.State(acked_ids=set(range(10)), trim_sent=6,
                         trim_acked=6, acked_counters={3})
    assert "back" in served.verify_durable(tmp_path, state)[0]

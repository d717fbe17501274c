"""Metric definitions, and the per-layer metrics derived from a traced
run's spans and counters.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
declares (a test keeps the two in step).  ``SERVED_ONLY`` metrics are
printed for the served workload but are not gated: they do not apply to
the closed loops, and a gated metric must be reported on every workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from ledger import ROOT, call_counts, self_times, span_self_times
from measure import median

END_TO_END = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
)

SERVED_ONLY = (
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("max_rate_qps", "1/s"),
    ("write_amp", "ratio"),
    ("failed_ratio", "ratio"),
)

#: Operator classes reported as ``exec.op.<Class>_ms`` (the classes that
#: carry the time on these workloads, from ``operator_timings``).
OPERATORS = ("SeqScan", "Filter", "Project", "HashJoin", "NestedLoopJoin",
             "HashAggregate", "SortNode", "SetOperation")

#: span name -> metric: self time per statement.
_PER_STATEMENT_TIMES = (
    ("sql.parse", "sql.parse_ms"),
    ("sql.analyze", "sql.analyze_ms"),
    ("provenance.rewrite", "provenance.rewrite_ms"),
    ("engine.optimizer.optimize", "engine.optimizer.optimize_ms"),
    ("engine.lowering.lower", "engine.lowering.lower_ms"),
    ("engine.parallel.parallelize", "engine.parallel.parallelize_ms"),
    ("api.engine.snapshot", "api.engine.snapshot_ms"),
    ("exec.run", "exec.run_ms"),
    ("api.result.drain", "api.result.drain_ms"),
    ("server.dispatch", "server.dispatch_ms"),
    ("server.backend", "server.backend_ms"),
    ("server.encode", "server.encode_ms"),
)

#: span name -> metric: self time per call (write-path layers, which
#: only a fifth of the served requests reach).
_PER_CALL_TIMES = (
    ("api.transaction.validate", "api.transaction.validate_ms"),
    ("api.transaction.publish", "api.transaction.publish_ms"),
    ("api.transaction.commit", "api.transaction.commit_ms"),
    ("storage.commit_wait", "storage.commit_wait_ms"),
    ("storage.checkpoint", "storage.checkpoint_ms"),
)

PER_LAYER = tuple(
    [(metric, "ms") for _, metric in _PER_STATEMENT_TIMES]
    + [(metric, "ms") for _, metric in _PER_CALL_TIMES]
    + [(f"exec.op.{name}_ms", "ms") for name in OPERATORS]
    + [("provenance.plan_ops", "count"),
       ("engine.optimizer.calls", "count"),
       ("engine.lowering.calls", "count"),
       ("api.plan_cache.lookups", "count"),
       ("api.plan_cache.hit_ratio", "ratio"),
       ("workload.repeat_share", "ratio"),
       ("exec.rows_out", "count"),
       ("exec.sublink_executions", "count"),
       ("exec.sublink_cache_hit_ratio", "ratio"),
       ("exec.vectorized_nodes", "count"),
       ("exec.row_fallback_nodes", "count"),
       ("engine.parallel.fanouts", "count"),
       ("engine.parallel.fallbacks", "count"),
       ("api.transaction.retries", "count"),
       ("storage.flush_batches", "count"),
       ("storage.records_per_batch", "count"),
       ("storage.wal_bytes_per_commit", "B"),
       ("storage.checkpoints", "count"),
       ("storage.checkpoint_bytes", "B"),
       ("server.overhead_ms", "ms"),
       ("server.rejected", "count"),
       ("loadgen.lag_p90_ms", "ms"),
       ("trace.overhead_ratio", "ratio"),
       ("trace.unattributed_share", "ratio")])

UNITS = dict(END_TO_END + SERVED_ONLY + PER_LAYER)


def layer_metrics(summary: dict, requests: "list[int]",
                  rows_out: "list[int]", served: bool) -> dict:
    """Per-layer metrics of one traced phase.

    *requests* are the ids of the requests the phase timed.  In-process
    every span carries its request's id, so a per-statement metric is the
    median over requests.  The served spans live in the server and cannot
    be joined to client requests, so there it is the total over the
    phase divided by the requests completed.
    """
    spans = summary["spans"]
    n = max(1, len(requests))
    per_request = self_times(spans)
    calls = call_counts(spans)
    out: dict = {}

    def per_statement(values: "dict[int, float]") -> float:
        if served:
            return sum(values.values()) / n
        return median([values.get(r, 0.0) for r in requests])

    for span, metric in _PER_STATEMENT_TIMES:
        out[metric] = per_statement(
            {r: layers.get(span, 0.0) for r, layers in per_request.items()})
    self_by_call: "dict[str, list[float]]" = defaultdict(list)
    for name, _, ms in span_self_times(spans):
        self_by_call[name].append(ms)
    for span, metric in _PER_CALL_TIMES:
        out[metric] = median(self_by_call.get(span, []))

    exec_by_request: "dict[int, dict]" = defaultdict(
        lambda: defaultdict(float))
    for request, stats in summary["exec"]:
        totals = exec_by_request[request]
        for key, value in stats.items():
            if key == "ops":
                for op, ms in value.items():
                    totals["op." + op] += ms
            else:
                totals[key] += value
    for name in OPERATORS:
        out[f"exec.op.{name}_ms"] = per_statement(
            {r: t.get("op." + name, 0.0) for r, t in exec_by_request.items()})
    for field, metric in (("sublink_executions", "exec.sublink_executions"),
                          ("vectorized_nodes", "exec.vectorized_nodes"),
                          ("row_fallback_nodes", "exec.row_fallback_nodes")):
        out[metric] = per_statement(
            {r: t.get(field, 0.0) for r, t in exec_by_request.items()})
    hits = sum(t.get("sublink_cache_hits", 0) for t in exec_by_request.values())
    runs = sum(t.get("sublink_executions", 0)
               for t in exec_by_request.values())
    out["exec.sublink_cache_hit_ratio"] = hits / (hits + runs) \
        if hits + runs else 0.0
    # counts are per request, so a faster program (more requests in the
    # traced pass) does not read as more work
    out["engine.parallel.fanouts"] = sum(
        t.get("parallel_fanouts", 0) for t in exec_by_request.values()) / n
    out["engine.parallel.fallbacks"] = sum(
        t.get("parallel_fallbacks", 0) for t in exec_by_request.values()) / n
    out["exec.rows_out"] = median(rows_out) if not served \
        else statistics.fmean(rows_out) if rows_out else 0.0

    out["provenance.plan_ops"] = median(summary["plan_ops"])
    for span, metric in (("engine.optimizer.optimize",
                          "engine.optimizer.calls"),
                         ("engine.lowering.lower", "engine.lowering.calls")):
        out[metric] = sum(c.get(span, 0) for c in calls.values()) / n
    counts = summary["counts"]
    lookups = counts.get("api.plan_cache.lookups", 0)
    out["api.plan_cache.lookups"] = lookups / n
    out["api.plan_cache.hit_ratio"] = \
        counts.get("api.plan_cache.hits", 0) / lookups if lookups else 0.0
    out["api.transaction.retries"] = \
        summary["errors"].get("api.transaction.commit", 0) / n
    return out


def unattributed_share(spans: "list") -> float:
    """Share of the benchmark's root ``request`` spans not covered by any
    layer span (in-process workloads)."""
    own = total = 0.0
    for name, _, ms in span_self_times(spans):
        total += ms
        if name == ROOT:
            own += ms
    return own / total if total else 0.0

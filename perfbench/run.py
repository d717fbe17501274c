"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
requests untraced, traced and untraced again, and prints the per-layer
metrics of the traced pass.
Every metric is printed with its unit, then one line with the workload's
properties, then (last) one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output was correct.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("interactive", "analytic", "served")

#: Set-up is repeated at least SETUP_REPEATS times per run, and until
#: SETUP_BUDGET_S seconds of set-up were timed (at most SETUP_MAX
#: times); setup_s is the median.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 1.0
SETUP_MAX = 40


def setup_more(times: "list[float]", trace: int) -> bool:
    """Whether another timed set-up should run."""
    if trace:
        return not times
    return len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX)

#: Bound on trace.unattributed_share of the traced in-process run: the
#: glue between layer calls inside Connection may not exceed it.
UNATTRIBUTED_BOUND = 0.25

#: Length of the drawn interactive sequence (the loop wraps around it).
INTERACTIVE_REQUESTS = 8000


def _parse(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit(root: Path) -> str:
    """The checked-out commit, when the checkout is a git work tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_inprocess(args: argparse.Namespace) -> dict:
    from inprocess import analytic, interactive, open_session, run_loop
    from layers import layer_metrics, unattributed_share
    from ledger import Ledger, install
    from measure import peak_rss_mb_of, reset_peak_rss, windowed_percentile

    if args.workload == "interactive":
        workload = interactive(args.seed, count=INTERACTIVE_REQUESTS)
    else:
        workload = analytic(args.seed)
    # one untimed cycle warms the caches
    warmup = workload.cycle
    setups: "list[float]" = []
    while True:
        conn, prepared, seconds = open_session(workload)
        setups.append(seconds)
        if not setup_more(setups, args.trace):
            break
        conn.close()
        # the next set-up must not share the process with this engine
        conn = prepared = None
        gc.collect()
    expected: dict = {}
    workload.oracle(conn, expected)
    requests = workload.requests
    run_loop(conn, prepared, requests[:warmup], expected, 0,
             limit=warmup)
    measured = requests[warmup:] + requests[:warmup]
    seen = {_text(r) for r in requests[:warmup]}
    out = {"properties": dict(workload.properties, **workload.sizes)}
    if not args.trace:
        # the peak covers the measured loop only, not set-up or oracle
        gc.collect()
        reset_peak_rss()
        loop = run_loop(conn, prepared, measured, expected, args.seconds,
                        cycle=workload.cycle)
        lat = loop.latencies_ms
        cycle = workload.cycle      # windows hold whole cycles of the mix
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "read_p50_ms": windowed_percentile(lat, 50, unit=cycle),
            "read_p90_ms": windowed_percentile(lat, 90, unit=cycle),
            "throughput_qps": len(lat) / loop.scaled_busy_s,
            "peak_rss_mb": peak_rss_mb_of(os.getpid()),
        }
        out["samples"] = {"read": len(lat), "setup": len(setups)}
        out["properties"].update(
            wall_read_p50_ms=windowed_percentile(loop.wall_ms, 50, unit=cycle),
            wall_read_p90_ms=windowed_percentile(loop.wall_ms, 90, unit=cycle),
            wait_share=1 - sum(loop.cpu_ms) / sum(loop.wall_ms))
    else:
        # untraced, traced, then untraced again over the same requests;
        # the overhead compares the traced pass with the equally warm
        # pass after it
        first = run_loop(conn, prepared, measured, expected,
                         args.seconds / 3, cycle=workload.cycle)
        count = len(first.latencies_ms)
        ledger = Ledger()
        install(ledger)
        try:
            loop = run_loop(conn, prepared, measured, expected, 0,
                            ledger=ledger, limit=count)
        finally:
            ledger.restore()
        summary = ledger.summary()
        del ledger          # its spans would slow the next pass's GC
        plain = run_loop(conn, prepared, measured, expected, 0,
                         limit=count)
        metrics = layer_metrics(summary, list(range(1, count + 1)),
                                loop.rows_out, served=False)
        metrics.update(_not_served())
        metrics["trace.overhead_ratio"] = \
            loop.scaled_busy_s / plain.scaled_busy_s
        metrics["trace.unattributed_share"] = unattributed_share(
            summary["spans"])
        metrics["workload.repeat_share"] = _repeat_share(
            measured[:count], seen)
        out["metrics"] = metrics
        out["samples"] = {"read": count}
        loop.failures.extend(first.failures + plain.failures)
        if metrics["trace.unattributed_share"] > UNATTRIBUTED_BOUND:
            loop.failures.append(
                f"trace.unattributed_share "
                f"{metrics['trace.unattributed_share']:.3f} exceeds "
                f"{UNATTRIBUTED_BOUND}")
    out["properties"]["workload.repeat_share"] = _repeat_share(
        measured[:len(loop.latencies_ms)], seen)
    out["properties"]["plan_cache_capacity"] = \
        conn.plan_cache.capacity
    out["attempted"] = len(loop.latencies_ms)
    out["failures"] = loop.failures
    conn.close()
    return out


def _text(request: object) -> tuple:
    return (request.path, request.sql, request.strategy,  # type: ignore
            request.params)                                # type: ignore


def _repeat_share(requests: list, seen: set) -> float:
    """Share of *requests* whose exact text was sent before."""
    seen = set(seen)
    repeats = 0
    for request in requests:
        text = _text(request)
        repeats += text in seen
        seen.add(text)
    return repeats / max(1, len(requests))


def _not_served() -> dict:
    """Layers the in-process workloads never reach (reported as 0)."""
    return {name: 0.0 for name in (
        "storage.flush_batches", "storage.records_per_batch",
        "storage.wal_bytes_per_commit", "storage.checkpoints",
        "storage.checkpoint_bytes", "server.overhead_ms",
        "server.rejected", "loadgen.lag_p90_ms")}


def main(argv: "list[str]") -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from layers import END_TO_END, PER_LAYER, SERVED_ONLY, UNITS

    if args.workload == "served":
        from served import run_served
        out = run_served(args, root)
    else:
        out = run_inprocess(args)
    declared = PER_LAYER if args.trace else END_TO_END
    metrics = out["metrics"]
    missing = [name for name, _ in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    failures = out["failures"]
    for name, unit in declared + (() if args.trace else SERVED_ONLY):
        if name in metrics:
            print(f"{args.workload:12s} {name:34s} {metrics[name]:14.6f} "
                  f"{unit}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    import repro
    properties = dict(out["properties"], seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      samples=out.get("samples", {}),
                      nproc=os.cpu_count(),
                      python=platform.python_version(),
                      commit=_commit(root),
                      session_config=repr(repro.SessionConfig()))
    print("properties " + json.dumps(properties, sort_keys=True))
    attempted = out["attempted"]
    failed = min(attempted, len(failures))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name, _ in declared},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

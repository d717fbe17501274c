"""The ``served`` workload: an open loop over the wire server.

One asyncio client process (this one) keeps ``nproc`` connections to a
server child (``server_child.py``) over a durable engine.  Requests are
due on a fixed schedule; each is timed from when it was due, so a stall
also charges the requests queued behind it.  The mix, in blocks of 25:

* 20 reads (80%): 10 prepared ``SELECT PROVENANCE (unn)`` synthetic q1
  reads, 7 prepared ``SELECT PROVENANCE (left)`` q2 reads, 3 range reads
  of the ``events`` table the writes fill;
* 5 writes (20%): 3 autocommit INSERTs of :data:`ROWS_PER_INSERT` rows
  of :data:`PAYLOAD_BYTES`-byte payloads into ``events``, 1 autocommit
  DELETE of the ``events`` rows older than the newest :data:`KEEP_ROWS`
  ids (so every checkpoint snapshots a table of the same size), and 1
  replacement of the single ``counter`` row in an explicit transaction.
  Every connection writes both tables, so commits conflict: autocommit
  writes retry inside the engine, and a counter transaction that loses
  is retried by the client.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from measure import (calibrate, calibration_factor, fingerprint,
                     peak_rss_mb_of, percentile, windowed_percentile)
from server_child import CHECKPOINT_WAL_MB, STATIC_ROWS

#: Offered rates of the ladder, requests per second.  read_p50_ms and
#: read_p90_ms are measured at NOMINAL_RATE.
NOMINAL_RATE = 80.0
LADDER = (80.0, 160.0, 240.0, 320.0)
#: Share of the run spent at the nominal rate; the other rungs split the
#: rest evenly.
NOMINAL_SHARE = 0.85
#: Length of one calibrated segment of the nominal rung, in seconds.
SEGMENT_S = 1.0
#: The read latency limit the ladder's max_rate_qps is judged against.
READ_P90_LIMIT_MS = 50.0

ROWS_PER_INSERT = 16
PAYLOAD_BYTES = 1000
#: Newest ``events`` ids a trim keeps (the table holds about this many
#: rows once the run is under way).
KEEP_ROWS = 512
#: Ids a range read spans, ending at the newest acknowledged id.
RANGE_SPAN = 40
#: Distinct parameter sets of each prepared read.
READ_PARAM_SETS = 64
#: Client retries of a counter transaction that lost a conflict.
COUNTER_RETRIES = 50

_BLOCK = (["q1"] * 10 + ["q2"] * 7 + ["range"] * 3 + ["insert"] * 3
          + ["trim", "counter"])
_READS = {"q1", "q2", "range"}
#: Warm-up: every statement once per connection, untimed.
_WARM = ["q1", "q2", "insert", "range", "trim", "counter"]

_Q1 = ("SELECT PROVENANCE (unn) a, b FROM r1 WHERE b BETWEEN $1 AND $2 "
       "AND a = ANY (SELECT a FROM r2 WHERE b BETWEEN $3 AND $4)")
_Q2 = ("SELECT PROVENANCE (left) a, b FROM r1 WHERE b BETWEEN $1 AND $2 "
       "AND a < ALL (SELECT a FROM r2 WHERE b BETWEEN $3 AND $4)")
_RANGE = "SELECT id FROM events WHERE id >= $1 AND id <= $2"
_TRIM = "DELETE FROM events WHERE id < $1"
_INSERT = "INSERT INTO events VALUES " + ", ".join(
    f"(${3 * i + 1}, ${3 * i + 2}, ${3 * i + 3})"
    for i in range(ROWS_PER_INSERT))


@dataclass
class Record:
    kind: str
    due: float
    #: position in its schedule; picks the read's parameter set
    seq: int = 0
    sent: float = 0.0
    done: float = 0.0
    ok: bool = True
    rows: int = 0
    #: calibration scale of the latency (see :func:`nominal_rung`)
    scale: float = 1.0


@dataclass
class State:
    """What the client knows the server acknowledged."""

    next_id: int = 0
    acked_ids: "set[int]" = field(default_factory=set)
    newest_acked: int = -1
    #: first ids of the INSERTs in flight
    pending: "set[int]" = field(default_factory=set)
    #: highest trim threshold sent, and acknowledged: ids below the
    #: first may be gone, ids below the second must be
    trim_sent: int = 0
    trim_acked: int = 0
    next_counter: int = 0
    acked_counters: "set[int]" = field(default_factory=set)
    retries: int = 0
    refused: int = 0
    user_bytes: int = 0
    failures: "list[str]" = field(default_factory=list)


class Client:
    """The load generator's view of one server: connections, prepared
    statements, inputs and expected read results."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"served-{seed}")
        self.params = {
            "q1": [_read_params(rng) for _ in range(READ_PARAM_SETS)],
            "q2": [_read_params(rng) for _ in range(READ_PARAM_SETS)],
        }
        letters = "abcdefghijklmnopqrstuvwxyz"
        self.payloads = ["".join(rng.choice(letters)
                                 for _ in range(PAYLOAD_BYTES))
                         for _ in range(16)]
        self.expected: dict = {}
        self.state = State()
        self.conns: list = []
        self.prepared: list = []

    def compute_expected(self, seed: int) -> None:
        """Expected read fingerprints, from an in-process engine over the
        same static tables and a second strategy (off the clock)."""
        from repro import connect
        from repro.synthetic.generator import synthetic_rows
        with connect() as conn:
            for name, table_seed in (("r1", seed), ("r2", seed + 1)):
                conn.create_table(name, [("a", "int"), ("b", "int")])
                conn.insert(name, synthetic_rows(STATIC_ROWS, table_seed))
            for kind, sql, strategy in (("q1", _Q1, "left"),
                                        ("q2", _Q2, "move")):
                plain = sql.split(") ", 1)[1]
                for i in range(4, 0, -1):
                    plain = plain.replace(f"${i}", "?")
                for index, params in enumerate(self.params[kind]):
                    rows = conn.provenance("SELECT " + plain, strategy,
                                           params).rows
                    self.expected[(kind, index)] = fingerprint(rows)

    async def open(self, port: int, count: int) -> None:
        from repro.client import connect
        for _ in range(count):
            conn = await connect(port=port, database="bench")
            self.conns.append(conn)
            self.prepared.append({
                "q1": await conn.prepare(_Q1),
                "q2": await conn.prepare(_Q2),
                "range": await conn.prepare(_RANGE),
                "insert": await conn.prepare(_INSERT),
                "trim": await conn.prepare(_TRIM),
            })

    async def close(self) -> None:
        for conn in self.conns:
            conn.abort()
        self.conns, self.prepared = [], []

    async def send(self, slot: int, record: Record) -> None:
        """Run one request on connection *slot* and check its result."""
        from repro.errors import ConnectionLimitError, TransactionError
        state = self.state
        statements = self.prepared[slot]
        record.sent = time.perf_counter()
        try:
            if record.kind in ("q1", "q2"):
                index = record.seq % READ_PARAM_SETS
                result = await statements[record.kind].execute(
                    self.params[record.kind][index])
                record.done = time.perf_counter()   # checks off the clock
                if fingerprint(result.rows) != \
                        self.expected[(record.kind, index)]:
                    raise AssertionError(f"wrong {record.kind} result")
                record.rows = len(result.rows)
            elif record.kind == "range":
                high = state.newest_acked
                low = high - RANGE_SPAN
                must = {i for i in range(low, high + 1)
                        if i in state.acked_ids}
                result = await statements["range"].execute((low, high))
                record.done = time.perf_counter()
                missing = must - {row[0] for row in result.rows}
                if missing:
                    raise AssertionError(
                        f"range read misses acknowledged ids "
                        f"{sorted(missing)[:5]}")
                record.rows = len(result.rows)
            elif record.kind == "insert":
                first = state.next_id
                state.next_id += ROWS_PER_INSERT
                payload = self.payloads[first % len(self.payloads)]
                values: "list[Any]" = []
                for i in range(ROWS_PER_INSERT):
                    values += [first + i, slot, payload]
                state.pending.add(first)
                try:
                    await statements["insert"].execute(tuple(values))
                finally:
                    state.pending.discard(first)
                state.acked_ids.update(range(first, first + ROWS_PER_INSERT))
                state.newest_acked = max(state.newest_acked,
                                         first + ROWS_PER_INSERT - 1)
                state.user_bytes += ROWS_PER_INSERT * (PAYLOAD_BYTES + 16)
            elif record.kind == "trim":
                # never below an INSERT in flight, which may commit
                # after this trim
                below = max(0, min([state.next_id - KEEP_ROWS]
                                   + list(state.pending)))
                state.trim_sent = max(state.trim_sent, below)
                await statements["trim"].execute((below,))
                state.trim_acked = max(state.trim_acked, below)
                state.user_bytes += 8
            else:
                state.next_counter += 1
                value = state.next_counter
                sql = (f"BEGIN; DELETE FROM counter; INSERT INTO counter "
                       f"VALUES ({value}); COMMIT")
                for attempt in range(COUNTER_RETRIES):
                    try:
                        await self.conns[slot].query(sql)
                        break
                    except TransactionError:
                        state.retries += 1
                else:
                    raise AssertionError("counter update never committed")
                state.acked_counters.add(value)
                state.user_bytes += 8
        except ConnectionLimitError as exc:
            state.refused += 1
            record.ok = False
            state.failures.append(f"{record.kind}: refused: {exc}")
        except Exception as exc:     # counted, reported, fails the run
            record.ok = False
            state.failures.append(f"{record.kind}: {type(exc).__name__}: "
                                  f"{exc}")
        if not record.done:
            record.done = time.perf_counter()


def _read_params(rng: random.Random) -> tuple:
    """Two ``b`` windows over the static tables' distribution."""
    sigma = 100 * STATIC_ROWS
    params = []
    for _ in range(2):
        low = round(rng.uniform(-1.0, 0.75) * sigma)
        params += [low, low + sigma // 4]
    return tuple(params)


async def open_loop(client: Client, rate: float, seconds: float,
                    kinds: "list[str]", offset: int = 0
                    ) -> "tuple[list[Record], list[float], int]":
    """Offer *rate* requests/s for *seconds*, request *i* of kind
    ``kinds[offset + i]``; returns the records, the generator's lateness
    per request (ms) and the queue depth when the last request fell
    due."""
    queue: "asyncio.Queue[Record | None]" = asyncio.Queue()
    records: "list[Record]" = []
    lags: "list[float]" = []

    async def worker(slot: int) -> None:
        while True:
            record = await queue.get()
            if record is None:
                return
            await client.send(slot, record)

    workers = [asyncio.create_task(worker(slot))
               for slot in range(len(client.conns))]
    start = time.perf_counter() + 0.01
    count = max(1, round(rate * seconds))
    for index in range(count):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append((time.perf_counter() - due) * 1000.0)
        seq = offset + index
        record = Record(kinds[seq % len(kinds)], due, seq)
        records.append(record)
        queue.put_nowait(record)
    backlog = queue.qsize()
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return records, lags, backlog


async def nominal_rung(client: Client, seconds: float, kinds: "list[str]"
                       ) -> "tuple[list[Record], list[float], int, float]":
    """The nominal rate for *seconds*, in segments of about
    :data:`SEGMENT_S`.  Between two segments no request is in flight,
    and the client times the calibration work; each request's latency is
    scaled by the calibrations before and after its segment (see
    ``README.md``).  Returns the records, the generator's lateness (ms),
    the largest queue depth, and the median over segments of the
    requests answered per second of their summed (scaled) service
    time."""
    segments = max(1, round(seconds / SEGMENT_S))
    per = round(NOMINAL_RATE * seconds) // segments
    records: "list[Record]" = []
    lags: "list[float]" = []
    backlog = 0
    rates: "list[float]" = []
    before = calibrate()
    for segment in range(segments):
        part, part_lags, part_backlog = await open_loop(
            client, NOMINAL_RATE, per / NOMINAL_RATE, kinds,
            offset=segment * per)
        after = calibrate()
        factor = calibration_factor(before, after)
        before = after
        for record in part:
            record.scale = factor
        records += part
        lags += part_lags
        backlog = max(backlog, part_backlog)
        rates.append(len(part) / sum((r.done - r.sent) * r.scale
                                     for r in part))
    return records, lags, backlog, statistics.median(rates)


def _kinds(seed: int, count: int) -> "list[str]":
    rng = random.Random(f"served-mix-{seed}")
    kinds: "list[str]" = []
    while len(kinds) < count:
        block = list(_BLOCK)
        rng.shuffle(block)
        kinds += block
    return kinds


def _latencies(records: "list[Record]", reads: bool,
               scaled: bool = False) -> "list[float]":
    return [(r.done - r.due) * 1000.0 * (r.scale if scaled else 1.0)
            for r in records if (r.kind in _READS) == reads]


def _failed_ms(records: "list[Record]") -> "list[float]":
    """Latencies with failed requests counted as missing the limit."""
    return [float("inf") if not r.ok else (r.done - r.due) * 1000.0
            for r in records if r.kind in _READS]


class Server:
    """One server child process and its data directory."""

    def __init__(self, root: Path, work: Path, seed: int,
                 trace: bool, name: str) -> None:
        self.root = root
        self.dir = work / name
        self.report_path = work / f"{name}.report.json"
        self.seed = seed
        self.trace = trace
        self.proc: "asyncio.subprocess.Process | None" = None
        self.port = 0

    async def start(self) -> None:
        here = Path(__file__).resolve().parent
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(here / "server_child.py"),
            str(self.root / "src"), str(self.dir), str(self.seed),
            "1" if self.trace else "0", str(self.report_path),
            stdout=asyncio.subprocess.PIPE)
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
        if not line.startswith(b"port "):
            raise RuntimeError(f"server child did not start: {line!r}")
        self.port = int(line.split()[1])

    async def stop(self) -> None:
        """Graceful stop (SIGTERM) and wait."""
        self.proc.send_signal(signal.SIGTERM)
        await asyncio.wait_for(self.proc.wait(), 60)

    async def report_and_kill(self) -> "tuple[dict, float]":
        """Ask for the report, read peak RSS, then SIGKILL the server."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not self.report_path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("server child wrote no report")
            await asyncio.sleep(0.05)
        rss = peak_rss_mb_of(self.proc.pid)
        self.proc.kill()
        await asyncio.wait_for(self.proc.wait(), 60)
        return json.loads(self.report_path.read_text()), rss


def verify_durable(data_dir: Path, state: State) -> "list[str]":
    """Reopen the killed server's directory: every acknowledged write
    must be there."""
    from repro.api import Engine
    problems = []
    engine = Engine(path=str(data_dir))
    try:
        with engine.connect() as conn:
            ids = {row[0] for row in conn.execute(
                "SELECT id FROM events").rows}
            lost = {i for i in state.acked_ids - ids
                    if i >= state.trim_sent}
            if lost:
                problems.append(f"{len(lost)} acknowledged event rows lost "
                                f"after SIGKILL, e.g. {sorted(lost)[:5]}")
            back = {i for i in ids if i < state.trim_acked}
            if back:
                problems.append(f"{len(back)} event rows an acknowledged "
                                f"trim deleted are back after SIGKILL, "
                                f"e.g. {sorted(back)[:5]}")
            counters = [row[0] for row in conn.execute(
                "SELECT v FROM counter").rows]
            if len(counters) != 1 or (state.acked_counters and
                                      counters[0] not in
                                      state.acked_counters):
                problems.append(f"counter after SIGKILL is {counters}, "
                                f"not one acknowledged value")
    finally:
        engine.close()
    return problems


async def _session(root: Path, work: Path, client: Client, seed: int,
                   trace: bool, name: str, nconn: int,
                   servers: "list[Server]") -> "tuple[Server, float]":
    before = calibrate()
    started = time.perf_counter()
    server = Server(root, work, seed, trace, name)
    servers.append(server)
    await server.start()
    await client.open(server.port, nconn)
    spent = time.perf_counter() - started
    return server, spent * calibration_factor(before, calibrate())


async def _run(args: Any, root: Path, work: Path) -> dict:
    servers: "list[Server]" = []
    try:
        return await _measure(args, root, work, servers)
    finally:
        for server in servers:
            if server.proc is not None and server.proc.returncode is None:
                server.proc.kill()
                await server.proc.wait()


async def _measure(args: Any, root: Path, work: Path,
                   servers: "list[Server]") -> dict:
    from run import setup_more
    nconn = os.cpu_count() or 1
    seed = args.seed
    client = Client(seed)
    client.compute_expected(seed)
    setups: "list[float]" = []
    while True:
        server, seconds = await _session(root, work, client, seed, False,
                                         f"db{len(setups)}", nconn, servers)
        setups.append(seconds)
        if not setup_more(setups, args.trace):
            break
        await client.close()
        await server.stop()
    warm = _WARM * nconn
    await open_loop(client, 50.0, len(warm) / 50.0, warm)
    out: dict = {"properties": {
        "connections": nconn, "ladder_qps": list(LADDER),
        "nominal_qps": NOMINAL_RATE, "read_p90_limit_ms": READ_P90_LIMIT_MS,
        "read_share": sum(k in _READS for k in _BLOCK) / len(_BLOCK),
        "rows_per_insert": ROWS_PER_INSERT, "payload_bytes": PAYLOAD_BYTES,
        "checkpoint_wal_mb": CHECKPOINT_WAL_MB, "durability": "commit",
        "static_rows": STATIC_ROWS}}
    failures = client.state.failures
    if not args.trace:
        rungs = {}
        rest = args.seconds * (1 - NOMINAL_SHARE) / (len(LADDER) - 1)
        lags: "list[float]" = []
        for rate in LADDER:
            if rate == NOMINAL_RATE:
                seconds = args.seconds * NOMINAL_SHARE
                kinds = _kinds(seed + int(rate), round(rate * seconds))
                records, rung_lags, backlog, throughput = await nominal_rung(
                    client, seconds, kinds)
            else:
                kinds = _kinds(seed + int(rate), round(rate * rest))
                records, rung_lags, backlog = await open_loop(
                    client, rate, rest, kinds)
            rungs[rate] = (records, backlog)
            lags += rung_lags
        report, rss = await server.report_and_kill()
        failures += verify_durable(server.dir, client.state)
        nominal, _ = rungs[NOMINAL_RATE]
        reads = _latencies(nominal, True, scaled=True)
        writes = _latencies(nominal, False, scaled=True)
        raw_reads = _latencies(nominal, True)
        every = [r for records, _ in rungs.values() for r in records]
        passing = [rate for rate, (records, backlog) in rungs.items()
                   if backlog <= 2 * nconn and
                   percentile(_failed_ms(records), 90) <= READ_P90_LIMIT_MS]
        storage = report["storage"]
        written = storage["wal_bytes"] + sum(storage["snapshot_bytes"])
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "read_p50_ms": windowed_percentile(reads, 50),
            "read_p90_ms": windowed_percentile(reads, 90),
            # per second of connection busy time, like the closed loops
            "throughput_qps": throughput,
            "peak_rss_mb": rss,
            "write_p50_ms": windowed_percentile(writes, 50),
            "write_p90_ms": windowed_percentile(writes, 90),
            "max_rate_qps": max(passing, default=0.0),
            "write_amp": written / max(1, client.state.user_bytes),
            "failed_ratio": sum(not r.ok for r in every) / len(every),
        }
        out["samples"] = {"read": len(reads), "write": len(writes),
                          "setup": len(setups)}
        out["properties"].update(
            wall_read_p50_ms=windowed_percentile(raw_reads, 50),
            wall_read_p90_ms=windowed_percentile(raw_reads, 90),
            keep_rows=KEEP_ROWS,
            checkpoints=len(storage["snapshot_bytes"]),
            counter_retries=client.state.retries,
            loadgen_lag_p90_ms=percentile(lags, 90),
            rungs={str(rate): {"requests": len(records),
                               "backlog": backlog,
                               "read_p90_ms": percentile(
                                   _failed_ms(records), 90)}
                   for rate, (records, backlog) in rungs.items()})
        out["attempted"] = len(every)
    else:
        out.update(await _traced(args, root, work, client, server, nconn,
                                 servers))
    out["failures"] = client.state.failures
    return out


async def _traced(args: Any, root: Path, work: Path, client: Client,
                  plain_server: Server, nconn: int,
                  servers: "list[Server]") -> dict:
    """Nominal rate against the untraced server, then the same schedule
    against a traced one; per-layer metrics come from the second."""
    from layers import layer_metrics
    from ledger import root_time
    seconds = args.seconds / 2
    count = int(NOMINAL_RATE * seconds)
    kinds = _kinds(args.seed, count)
    plain, _, _ = await open_loop(client, NOMINAL_RATE, seconds, kinds)
    await client.close()
    await plain_server.report_and_kill()
    state = client.state
    failures = verify_durable(plain_server.dir, state)
    # the traced server starts from fresh tables: forget the old writes
    client.state = State(failures=state.failures, retries=state.retries)
    server, _ = await _session(root, work, client, args.seed, True,
                               "traced", nconn, servers)
    warm = _WARM * nconn
    await open_loop(client, 50.0, len(warm) / 50.0, warm)
    traced, lags, _ = await open_loop(client, NOMINAL_RATE, seconds, kinds)
    report, _ = await server.report_and_kill()
    failures += verify_durable(server.dir, client.state)
    client.state.failures += failures
    summary = report["ledger"]
    storage = report["storage"]
    service = sum(r.done - r.sent for r in traced) * 1000.0
    n = len(traced)
    metrics = layer_metrics(summary, list(range(n)),
                            [r.rows for r in traced if r.kind in _READS],
                            served=True)
    covered = root_time([s for s in summary["spans"]
                         if s[0] in ("server.request", "server.dispatch")])
    commits = max(1, storage["flushed_records"])
    checkpoints = storage["snapshot_bytes"]
    metrics.update({
        "storage.flush_batches": storage["flush_batches"],
        "storage.records_per_batch": storage["flushed_records"]
        / max(1, storage["flush_batches"]),
        "storage.wal_bytes_per_commit": storage["wal_bytes"] / commits,
        "storage.checkpoints": len(checkpoints),
        "storage.checkpoint_bytes": statistics.median(checkpoints)
        if checkpoints else 0.0,
        "server.overhead_ms": (service - covered) / n,
        "server.rejected": client.state.refused,
        "loadgen.lag_p90_ms": percentile(lags, 90),
        "trace.overhead_ratio": statistics.fmean(
            r.done - r.due for r in traced) / statistics.fmean(
            r.done - r.due for r in plain),
        "trace.unattributed_share": max(0.0, 1 - covered / service),
        "workload.repeat_share": 1.0,
    })
    from run import UNATTRIBUTED_BOUND
    if metrics["trace.unattributed_share"] > UNATTRIBUTED_BOUND:
        client.state.failures.append(
            f"trace.unattributed_share "
            f"{metrics['trace.unattributed_share']:.3f} exceeds "
            f"{UNATTRIBUTED_BOUND}")
    return {"metrics": metrics, "attempted": len(plain) + n,
            "samples": {"read": n}}


def run_served(args: Any, root: Path) -> dict:
    work = root / ".perfbench_tmp" / f"served-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = asyncio.run(_run(args, root, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                # another run still uses it
    return out

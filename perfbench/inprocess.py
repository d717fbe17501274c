"""The two closed-loop, in-process workloads: ``interactive`` and
``analytic``.

Both run one client in this process against ``repro.connect()`` with
today's default :class:`repro.api.SessionConfig`.  The program receives
SQL text and rows only; every input is generated here from the seed.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ledger import ROOT
from measure import (ZIPF_EXPONENT, calibrate, calibration_factor,
                     fingerprint, set_fingerprint, zipf_weights)

#: TPC-H scale and synthetic table size of each workload.
INTERACTIVE_SF = 0.00015
INTERACTIVE_ROWS = 200
ANALYTIC_SF = 0.002
ANALYTIC_ROWS = 5000
#: Synthetic tables the analytic Gen statements run over.
ANALYTIC_GEN_ROWS = 100
#: Hash-partitioned table of the analytic workload.
PARTITIONED_ROWS = 20000
PARTITIONS = 4
PARTITION_KEYS = 500
#: Template seed of the analytic statements' constants.
REPORT_SEED = 0
#: Generator seed of the TPC-H instance (see _generate).
TPCH_SEED = 0

#: Constant variants per interactive (template, strategy) pair.
INTERACTIVE_VARIANTS = 40

#: (template, strategy) pairs of the interactive pool.  Gen runs only
#: where it finishes in tens of milliseconds for every seeded constant.
#: Q2 and Q17 under Gen do not: one Q2 variant in ten took 68 s, and Q17
#: takes 12 ms when no part matches its brand and container but 7-10 s
#: when some do (sf 0.00015).
INTERACTIVE_PAIRS = (
    [("q1", s) for s in ("left", "move", "unn", "auto")]
    + [("q2", s) for s in ("left", "move", "auto")]
    + [(q, s) for q in (11, 15, 16) for s in ("left", "move")]
    + [(q, "gen") for q in (16, 22)])

#: One cycle of the interactive loop: every pair once, Gen on Q22 (the
#: slowest pair, about 40 ms) three times.  With it at 3 of 17 requests,
#: the p90 falls inside that pair's own latency cluster instead of in the
#: gap between it and the next slowest pair.
INTERACTIVE_CYCLE = INTERACTIVE_PAIRS + [(22, "gen")] * 2

#: Templates whose sublinks are uncorrelated: Left and Move apply, and
#: every strategy must return the same rows (strategy agreement).
UNCORRELATED = {"q1", "q2", 11, 15, 16}


@dataclass
class Request:
    """One statement the client sends."""

    #: oracle key: results must match ``expected[key]``
    key: tuple
    #: "provenance" (Connection.provenance), "cursor" (SELECT PROVENANCE
    #: text through a cursor) or "prepared" (a statement prepared in
    #: set-up)
    path: str
    sql: str
    strategy: str = ""
    params: tuple = ()


@dataclass
class Workload:
    """Inputs of one in-process workload."""

    name: str
    #: requests per cycle of the statement mix
    cycle: int
    sizes: dict
    #: loads the data into a fresh connection (timed as set-up)
    load: Callable[[Any], None]
    #: the request cycle (analytic) or the drawn sequence (interactive)
    requests: "list[Request]"
    #: fills ``expected`` from a loaded connection (untimed)
    oracle: Callable[[Any, dict], None]
    #: SQL texts prepared during set-up (analytic)
    prepare: "list[Request]" = field(default_factory=list)
    properties: dict = field(default_factory=dict)


def provenance_text(sql: str, strategy: str) -> str:
    """``SELECT ...`` -> ``SELECT PROVENANCE (strategy) ...``."""
    if not sql.startswith("SELECT "):
        raise ValueError(f"not a SELECT: {sql[:40]!r}")
    head = "SELECT PROVENANCE " if strategy == "auto" \
        else f"SELECT PROVENANCE ({strategy}) "
    return head + sql[len("SELECT "):]


def _template_sql(template: Any, size: int, seed: int,
                  tables: tuple = ("r1", "r2")) -> str:
    from repro.synthetic.queries import q1_sql, q2_sql
    from repro.tpch.queries import query_sql
    if template == "q1":
        sql = q1_sql(size, size, seed)
    elif template == "q2":
        sql = q2_sql(size, size, seed)
    else:
        return query_sql(template, seed)
    return sql.replace("r1", tables[0]).replace("r2", tables[1])


def _generate(seed: int, sf: float, rows: int) -> "list[tuple[str, list]]":
    """Rows of the synthetic and TPC-H tables, in load order (generated
    once, outside the timed set-up).

    The TPC-H rows depend on the scale factor only, as dbgen's do: at
    these scales a few hundred parts decide how much work Q15 and Q16
    do, and a seeded instance moved the analytic mean latency by 70%.
    """
    from repro.synthetic.generator import synthetic_rows
    from repro.tpch.datagen import TPCHGenerator
    tpch = TPCHGenerator(sf, TPCH_SEED)
    tables = [("r1", synthetic_rows(rows, seed)),
              ("r2", synthetic_rows(rows, seed + 1))]
    # the order of TPCHGenerator.populate: its generator is stateful
    for name, make in (("region", tpch.regions), ("nation", tpch.nations),
                       ("supplier", tpch.suppliers), ("part", tpch.parts),
                       ("partsupp", tpch.partsupps),
                       ("customer", tpch.customers)):
        tables.append((name, list(make())))
    orders, lineitems = tpch.orders_and_lineitems()
    return tables + [("orders", list(orders)), ("lineitem", list(lineitems))]


def _load_common(conn: Any, tables: "list[tuple[str, list]]") -> None:
    from repro.tpch.queries import install_views
    from repro.tpch.schema import create_tpch_tables
    for name in ("r1", "r2"):
        conn.create_table(name, [("a", "int"), ("b", "int")])
    create_tpch_tables(conn)
    for name, rows in tables:
        conn.insert(name, rows)
    install_views(conn)


def _provenance_rows(conn: Any, sql: str, strategy: str) -> "list[tuple]":
    return conn.provenance(sql, strategy=strategy).rows


def _check_preserved(conn: Any, sql: str, result: Any) -> None:
    """Result preservation: the provenance result's regular columns hold
    exactly the plain query's rows."""
    plain = conn.sql(sql).rows
    width = len(result.regular_columns)
    regular = [row[:width] for row in result.rows]
    if set_fingerprint(regular) != set_fingerprint(plain):
        raise AssertionError(
            f"result preservation fails for {sql[:60]!r}: "
            f"{len(set(regular))} distinct rows vs {len(set(plain))}")


def _agreeing(conn: Any, sql: str, strategies: tuple) -> str:
    """The fingerprint every strategy in *strategies* agrees on."""
    prints = {s: fingerprint(_provenance_rows(conn, sql, s))
              for s in strategies}
    if len(set(prints.values())) != 1:
        raise AssertionError(
            f"strategies disagree on {sql[:60]!r}: {prints}")
    return next(iter(prints.values()))


# -- interactive ---------------------------------------------------------------

def interactive(seed: int, count: int) -> Workload:
    """Small tables, many distinct statements, Zipf-repeated.

    The cycle visits every (template, strategy) pair once in a seeded
    order; each visit draws one of the pair's constant variants with
    Zipf weights, and alternates between ``Connection.provenance()`` and
    cursor ``SELECT PROVENANCE (s)`` text.
    """
    rng = random.Random(f"interactive-{seed}")
    texts = {}
    for template in dict.fromkeys(t for t, _ in INTERACTIVE_PAIRS):
        for variant in range(INTERACTIVE_VARIANTS):
            texts[(template, variant)] = _template_sql(
                template, INTERACTIVE_ROWS, rng.randrange(1 << 30))
    weights = zipf_weights(INTERACTIVE_VARIANTS)
    pairs = list(INTERACTIVE_CYCLE)
    requests: "list[Request]" = []
    while len(requests) < count:
        rng.shuffle(pairs)
        for template, strategy in pairs:
            variant = rng.choices(range(INTERACTIVE_VARIANTS), weights)[0]
            key = (template, variant)
            if len(requests) % 2 == 0:
                requests.append(Request(key, "provenance", texts[key],
                                        strategy))
            else:
                requests.append(Request(
                    key, "cursor", provenance_text(texts[key], strategy),
                    strategy))
    requests = requests[:count]

    tables = _generate(seed, INTERACTIVE_SF, INTERACTIVE_ROWS)

    def load(conn: Any) -> None:
        _load_common(conn, tables)
        conn.execute("ANALYZE")

    def oracle(conn: Any, expected: dict) -> None:
        by_text: dict = {}     # variants of a constant-free template repeat
        for key, sql in texts.items():
            if sql not in by_text:
                if key[0] in UNCORRELATED:
                    by_text[sql] = _agreeing(conn, sql, ("left", "move"))
                else:
                    result = conn.provenance(sql, strategy="gen")
                    _check_preserved(conn, sql, result)
                    by_text[sql] = fingerprint(result.rows)
            expected[key] = by_text[sql]

    # a statement is its SELECT PROVENANCE text, whichever path sends it
    pool = len({provenance_text(texts[(template, variant)], strategy)
                for template, strategy in INTERACTIVE_PAIRS
                for variant in range(INTERACTIVE_VARIANTS)})
    drawn = len({r.sql if r.path == "cursor"
                 else provenance_text(r.sql, r.strategy) for r in requests})
    return Workload(
        "interactive", cycle=len(INTERACTIVE_CYCLE),
        sizes={"synthetic_rows": INTERACTIVE_ROWS,
               "tpch_sf": INTERACTIVE_SF},
        load=load, requests=requests, oracle=oracle,
        properties={
            "statement_pool": pool,
            "distinct_statements_drawn": drawn,
            "gen_share": _share(requests, lambda r: r.strategy == "gen"),
            "provenance_call_share": _share(
                requests, lambda r: r.path == "provenance"),
            "zipf_exponent": ZIPF_EXPONENT,
        })


# -- analytic ------------------------------------------------------------------

def analytic(seed: int) -> Workload:
    """Larger tables, few statements, all prepared in set-up.

    The statements carry the templates' default constants (a fixed set
    of reports) and run over fixed tables; the seed varies the order of
    the cycle, the partitioned table and its probes.  With only 15
    statements, seeded constants would let one seed's heavy or light
    picks move the percentiles by half.
    """
    rng = random.Random(f"analytic-{seed}")
    #: oracle key -> the plain query its statements rewrite
    base = {(t,): _template_sql(t, 0, REPORT_SEED) for t in (11, 15, 16)}
    for template in ("q1", "q2"):
        base[(template,)] = _template_sql(template, ANALYTIC_ROWS,
                                          REPORT_SEED)
        base[(template, "small")] = _template_sql(
            template, ANALYTIC_GEN_ROWS, REPORT_SEED, tables=("g1", "g2"))
    # Gen runs on Q16 only: Q17 and Q20 under Gen take from tens of
    # milliseconds to minutes depending on the constants
    runs = [((t,), s) for t in (11, 15, 16) for s in ("left", "move")]
    runs += [((16,), "gen"), (("q1",), "unn")]
    runs += [((t,), s) for t in ("q1", "q2") for s in ("left", "move")]
    runs += [((t, "small"), "gen") for t in ("q1", "q2")]
    statements = [Request(key, "prepared", provenance_text(base[key], s), s)
                  for key, s in runs]
    partition_sql = ("SELECT g, count(*) AS n, sum(v) AS total FROM pt "
                     "WHERE k = ? GROUP BY g")
    partition_rows = [(rng.randrange(PARTITION_KEYS), rng.randrange(8),
                       rng.randrange(1000)) for _ in range(PARTITIONED_ROWS)]
    probe_keys = [rng.randrange(PARTITION_KEYS) for _ in range(16)]
    statements.append(Request(("pt",), "prepared", partition_sql))
    # the statements that take tens of milliseconds run twice per cycle,
    # the heavy ones (q1 Left, Q16 Left/Move, Gen q1, Q15, Gen Q16)
    # once: the median then falls inside the dense cheap cluster rather
    # than in the gap between two statements' costs
    cheap = {(("q1",), "unn"), (("q1",), "move"), (("q2",), "left"),
             (("q2",), "move"), ((11,), "left"), ((11,), "move"),
             (("q2", "small"), "gen"), (("pt",), "")}
    cycle = [r for r in statements
             for _ in range(2 if (r.key, r.strategy) in cheap else 1)]
    rng.shuffle(cycle)
    # the partitioned probe's key rotates from probe to probe
    keys = itertools.cycle(probe_keys)
    requests = []
    for _ in probe_keys:
        for request in cycle:
            if request.key == ("pt",):
                key = next(keys)
                request = Request(("pt", key), "prepared", request.sql,
                                  params=(key,))
            requests.append(request)

    from repro.synthetic.generator import synthetic_rows
    # the synthetic tables are fixed like the TPC-H rows: q2 under Left
    # took 12 ms on one seeded 5000-row instance and 26 ms on another,
    # which moved the median by a quarter from seed to seed; and Gen's
    # cost grows with the product of the rows its windows select, which
    # on 100 rows took 1-514 ms from one seeded instance to the next
    tables = _generate(TPCH_SEED, ANALYTIC_SF, ANALYTIC_ROWS)
    gen_tables = [(name, synthetic_rows(ANALYTIC_GEN_ROWS, table_seed))
                  for name, table_seed in (("g1", TPCH_SEED + 2),
                                           ("g2", TPCH_SEED + 3))]

    def load(conn: Any) -> None:
        _load_common(conn, tables)
        for name, rows in gen_tables:
            conn.create_table(name, [("a", "int"), ("b", "int")])
            conn.insert(name, rows)
        conn.create_table("pt", [("k", "int"), ("g", "int"), ("v", "int")],
                          partition_by="k", partitions=PARTITIONS)
        conn.insert("pt", partition_rows)
        conn.execute("ANALYZE")

    def oracle(conn: Any, expected: dict) -> None:
        # every template here is uncorrelated: the timed strategy must
        # match what Left and Move agree on
        for key, sql in base.items():
            expected[key] = _agreeing(conn, sql, ("left", "move"))
        for key in set(probe_keys):
            groups: dict = {}
            for k, g, v in partition_rows:
                if k == key:
                    n, total = groups.get(g, (0, 0))
                    groups[g] = (n + 1, total + v)
            expected[("pt", key)] = fingerprint(
                [(g, n, total) for g, (n, total) in groups.items()])

    return Workload(
        "analytic", cycle=len(cycle),
        sizes={"synthetic_rows": ANALYTIC_ROWS,
               "gen_synthetic_rows": ANALYTIC_GEN_ROWS,
               "tpch_sf": ANALYTIC_SF,
               "partitioned_rows": PARTITIONED_ROWS,
               "partitions": PARTITIONS},
        load=load, requests=requests, oracle=oracle, prepare=statements,
        properties={
            "statement_pool": len(statements),
            "gen_share": _share(requests, lambda r: r.strategy == "gen"),
        })


def _share(requests: "list[Request]", test: Callable[[Request], bool]
           ) -> float:
    return sum(1 for r in requests if test(r)) / max(1, len(requests))


# -- the closed loop -----------------------------------------------------------

#: Request time between two calibrations.
CALIBRATE_EVERY_S = 0.25


@dataclass
class LoopResult:
    #: wall time per request, scaled by the calibration
    latencies_ms: "list[float]"
    #: the same, unscaled
    wall_ms: "list[float]"
    #: client-thread CPU time per request, unscaled
    cpu_ms: "list[float]"
    #: rows returned per request, in request order
    rows_out: "list[int]"
    failures: "list[str]"
    #: wall time spent in requests, scaled by the calibration
    scaled_busy_s: float


def open_session(workload: Workload) -> "tuple[Any, dict, float]":
    """Create an engine, load it and prepare the statements; returns the
    connection, the prepared statements and the set-up's wall seconds,
    scaled by the calibration like request latencies."""
    from repro import connect
    before = calibrate()
    start = time.perf_counter()
    conn = connect()
    workload.load(conn)
    prepared = {r.sql: conn.prepare(r.sql) for r in workload.prepare}
    spent = time.perf_counter() - start
    return conn, prepared, spent * calibration_factor(before, calibrate())


def run_loop(conn: Any, prepared: dict, requests: "list[Request]",
             expected: dict, seconds: float, ledger: Any = None,
             limit: "int | None" = None, cycle: int = 1) -> LoopResult:
    """Send requests one after another until *seconds* of busy time and
    a whole number of *cycle*-request cycles (or exactly *limit*
    requests); time each, then check its rows off the clock.  Whole
    cycles keep every run's statement mix the same.

    Latency is each request's wall time, scaled by calibrations taken
    every :data:`CALIBRATE_EVERY_S` of it; the unscaled wall time and
    the client thread's CPU time of each request are kept alongside.
    """
    walls: "list[float]" = []
    cpus: "list[float]" = []
    scaled: "list[float]" = []
    rows_out: "list[int]" = []
    failures: "list[str]" = []
    busy = 0.0
    cursor = conn.cursor()
    index = 0
    gc.collect()            # set-up's garbage is not the workload's
    last_calibration = calibrate()
    since = 0.0

    def rescale() -> "tuple[float, float]":
        after = calibrate()
        factor = calibration_factor(last_calibration, after)
        scaled.extend(ms * factor for ms in walls[len(scaled):])
        return after

    while (busy < seconds or index % cycle if limit is None
           else index < limit):
        request = requests[index % len(requests)]
        index += 1
        opened = ledger.open(ROOT, index) if ledger else None
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            if request.path == "provenance":
                rows = conn.provenance(request.sql,
                                       strategy=request.strategy).rows
            elif request.path == "cursor":
                cursor.execute(request.sql)
                rows = cursor.fetchall()
            else:
                rows = prepared[request.sql].execute(request.params).rows
        except Exception as exc:       # counted, reported, fails the run
            rows = None
            failures.append(f"{request.key}: {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            cpus.append((time.thread_time() - cpu) * 1000.0)
            if opened is not None:
                ledger.close(opened)
        busy += elapsed
        walls.append(elapsed * 1000.0)
        since += elapsed
        if since >= CALIBRATE_EVERY_S:
            last_calibration = rescale()
            since = 0.0
        if rows is None:
            rows_out.append(0)
            continue
        rows_out.append(len(rows))
        want = expected.get(request.key)
        got = fingerprint(rows)
        if got != want:
            failures.append(f"{request.key} via {request.path}/"
                            f"{request.strategy}: wrong result "
                            f"({len(rows)} rows)")
    rescale()
    return LoopResult(scaled, walls, cpus, rows_out, failures,
                      sum(scaled) / 1000.0)

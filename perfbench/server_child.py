"""The served workload's server process: ``python -m repro.serve``-style
serving of one durable engine, launched by the benchmark.

    python3 perfbench/server_child.py SRC DATA_DIR SEED TRACE REPORT

It opens a durable engine over DATA_DIR (``durability="commit"``, a
checkpoint every :data:`CHECKPOINT_WAL_MB` MiB of WAL), loads the static
tables, listens on a free port and prints ``port <n>`` once ready.

SIGUSR1 writes REPORT (storage byte counts, and with TRACE=1 the layer
spans) and keeps serving; SIGTERM stops the server gracefully.  The
benchmark ends a run with SIGKILL after the report, to check that every
acknowledged write survives.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import sys
from pathlib import Path

#: WAL budget that triggers a background checkpoint.  1 MiB is the
#: smallest the integer knob allows; with the write mix of
#: ``served.py`` it completes several checkpoints per run.
CHECKPOINT_WAL_MB = 1

#: Rows in each static synthetic table the provenance reads run over.
STATIC_ROWS = 200


def load(engine: object, seed: int) -> None:
    """Create and fill the tables, then checkpoint so the static data
    sits in the snapshot before any measured write."""
    from repro.synthetic.generator import synthetic_rows
    with engine.connect() as conn:           # type: ignore[attr-defined]
        for name, table_seed in (("r1", seed), ("r2", seed + 1)):
            conn.create_table(name, [("a", "int"), ("b", "int")])
            conn.insert(name, synthetic_rows(STATIC_ROWS, table_seed))
        conn.execute("CREATE TABLE events (id int, conn int, payload text)")
        conn.execute("CREATE TABLE counter (v int)")
        conn.execute("INSERT INTO counter VALUES (0)")
        conn.execute("ANALYZE")
        conn.execute("CHECKPOINT")


class StorageBytes:
    """WAL and snapshot bytes written after the initial load.

    Wraps only ``DurableStore.checkpoint`` (a few calls per run): the
    WAL bytes since the last checkpoint are read just before it runs,
    and the snapshot's size just after.
    """

    def __init__(self, store: object) -> None:
        self.store = store
        self.wal_bytes = 0
        self.snapshot_bytes: "list[int]" = []
        self.flush_batches0 = store.flush_batches      # type: ignore
        self.records0 = store.flushed_records          # type: ignore
        cls = type(store)
        original = cls.checkpoint
        counter = self

        def checkpoint(this: object, catalog: object) -> None:
            counter.wal_bytes += this.bytes_since_checkpoint  # type: ignore
            original(this, catalog)
            counter.snapshot_bytes.append(
                os.path.getsize(this.snapshot_path))  # type: ignore
        cls.checkpoint = checkpoint              # type: ignore[assignment]

    def report(self) -> dict:
        store = self.store
        return {
            "wal_bytes": self.wal_bytes
            + store.bytes_since_checkpoint,                 # type: ignore
            "snapshot_bytes": self.snapshot_bytes,
            "flush_batches": store.flush_batches           # type: ignore
            - self.flush_batches0,
            "flushed_records": store.flushed_records       # type: ignore
            - self.records0,
        }


async def serve(data_dir: str, seed: int, trace: bool,
                report_path: str) -> None:
    from repro.api import Engine, SessionConfig
    from repro.server import Server, ServerConfig
    from measure import reset_peak_rss

    engine = Engine(SessionConfig(checkpoint_wal_mb=CHECKPOINT_WAL_MB),
                    path=data_dir)
    load(engine, seed)
    # the reported peak covers serving, not the initial load
    gc.collect()
    reset_peak_rss()
    storage = StorageBytes(engine.storage)
    ledger = None
    if trace:
        from ledger import Ledger, install
        ledger = Ledger()
        install(ledger, server=True)
    server = Server(ServerConfig(host="127.0.0.1", port=0,
                                 databases={"bench": None}),
                    engines={"bench": engine})
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def write_report() -> None:
        report = {"storage": storage.report()}
        if ledger is not None:
            report["ledger"] = ledger.summary()
        partial = report_path + ".part"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
        os.replace(partial, report_path)

    loop.add_signal_handler(signal.SIGUSR1, write_report)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    print(f"port {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()
        engine.close()


def main(argv: "list[str]") -> int:
    src, data_dir, seed, trace, report_path = argv
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    asyncio.run(serve(data_dir, int(seed), trace == "1", report_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

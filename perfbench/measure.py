"""Statistics, result fingerprints and process probes shared by every
workload of the benchmark.

Nothing here imports the engine: these helpers judge its outputs.
"""

from __future__ import annotations

import gc
import math
import re
import statistics
import time

#: Metric names: letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Exponent of the Zipf draws over each template's constant variants:
#: low enough that a run's latency does not rest on its top two or three
#: variants, whose cost the seed picks.
ZIPF_EXPONENT = 0.5

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def check_metric_name(name: str) -> str:
    """Return *name*, or raise ``ValueError`` when it is not a valid
    metric name (at most 64 characters of ``[A-Za-z0-9_.-]``, starting
    with a letter or digit)."""
    if len(name) > 64 or not METRIC_NAME.fullmatch(name) \
            or not name[0].isalnum():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(samples: "list[float]", pct: float) -> float:
    """Nearest-rank percentile *pct* (0 < pct < 100) of *samples*.

    Refuses (:class:`TooFewSamples`) when fewer than :data:`MIN_BEYOND`
    samples rank above it, so a p90 needs at least 100 samples.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} over {len(ordered)} samples leaves {beyond} beyond "
            f"it; at least {MIN_BEYOND} are required")
    return ordered[rank - 1]


def windowed_percentile(samples: "list[float]", pct: float,
                        windows: int = 9, unit: int = 1) -> float:
    """Median over up to *windows* consecutive windows of *samples* (in
    arrival order) of each window's percentile *pct*.  A stall that hits
    one window moves the result less than it moves one pooled
    percentile.  Each window keeps enough samples for
    :func:`percentile`, and holds whole *units* (cycles of a statement
    mix), so every window has the same mix; a trailing partial unit is
    left out."""
    need = math.ceil(MIN_BEYOND / (1 - pct / 100.0))
    units = len(samples) // unit
    count = max(1, min(windows, units // math.ceil(need / unit)))
    bounds = [i * units // count * unit for i in range(count + 1)]
    return statistics.median(
        percentile(samples[low:high], pct)
        for low, high in zip(bounds, bounds[1:]))


def median(samples: "list[float]") -> float:
    """The median, or 0.0 for an empty sample."""
    return statistics.median(samples) if samples else 0.0


def _normalized(rows: "list[tuple]") -> "list[tuple]":
    """Rows in a form two strategies agree on: floats are rounded, so
    summation order cannot change a fingerprint.  Works column-wise so
    the per-value work stays in C for columns without floats."""
    if not rows:
        return []
    columns = list(zip(*rows))
    for index, column in enumerate(columns):
        if float in set(map(type, column)):
            columns[index] = tuple(round(v, 6) + 0.0 if type(v) is float
                                   else v for v in column)
    return list(zip(*columns))


def fingerprint(rows: "list[tuple]") -> str:
    """Order-insensitive bag fingerprint of result rows.

    It uses the interpreter's ``hash``, so fingerprints compare only
    within one process (the benchmark computes and checks them in the
    same one).
    """
    normal = _normalized(rows)
    return f"{len(normal)}:{sum(map(hash, normal)) & 0xFFFFFFFFFFFFFFFF:x}"


def set_fingerprint(rows: "list[tuple]") -> str:
    """Fingerprint of the distinct rows (for result preservation, where
    provenance repeats a result row once per witness)."""
    return fingerprint(list(set(_normalized(rows))))


#: Calibration: identical interpreter work took 13 to 24 ms on this
#: shared host from one stretch of seconds to the next (neighbours on
#: shared cores).  Timings are scaled by CALIBRATION_REF_S over the
#: calibration measured around them, which cancels that drift; the
#: unscaled figures are reported alongside.
CALIBRATION_REF_S = 0.015


def calibrate() -> float:
    """Wall seconds of a fixed piece of interpreter work (tuples,
    hashing, a dict of lists, a sort), with the cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [(i % 97, i * 7 % 1013, str(i % 31)) for i in range(20000)]
        groups: dict = {}
        for row in rows:
            groups.setdefault(row[0], []).append(row)
        ordered = sorted(rows, key=lambda r: (r[1], r[2]))
        sum(hash(r) & 0xFF for r in ordered[::3])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibration_factor(before: float, after: float) -> float:
    """Scale for a timing taken between two calibrations."""
    return CALIBRATION_REF_S / ((before + after) / 2)


def reset_peak_rss() -> None:
    """Reset the peak resident set (VmHWM) of this process to its current
    resident set, so a later :func:`peak_rss_mb_of` covers only what ran
    in between."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for process {pid}")


def zipf_weights(count: int, exponent: float = ZIPF_EXPONENT) -> "list[float]":
    """Unnormalized Zipf weights for ranks 1..count."""
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]

"""Quantiles, golden comparison and result provenance."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10
TAIL_QUANTILES = (0.99, 0.95, 0.90, 0.75, 0.50)
#: Thread CPU seconds the calibration loop takes at the reference
#: speed; times are scaled to that speed (see NOTES.md).
CALIBRATION_REF_S = 1.0e-3


def calibrate() -> float:
    """Thread CPU seconds of a fixed pure-Python loop: the machine's
    current speed, unaffected by waits for the GIL or the scheduler."""
    start = time.thread_time()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.thread_time() - start


def cpu_seconds() -> float:
    """User + system CPU seconds of the whole process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def at_reference_speed(rates: Sequence[float], calibrations: Sequence[float]) -> List[float]:
    """Rates scaled to the reference speed.

    ``calibrations[i]`` is read right after operation ``i`` on the same
    thread, so readings ``i - 1`` and ``i`` bracket it; their mean is the
    machine's speed during the operation.
    """
    bracketing = [
        (before + after) / 2 for before, after in zip(calibrations[:1] + calibrations[:-1],
                                                      calibrations)
    ]
    return [rate * cal / CALIBRATION_REF_S for rate, cal in zip(rates, bracketing)]


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Ceil-based nearest-rank quantile (rank = ceil(q * n), 1-based)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[index])


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` for the highest quantile with ``MIN_BEYOND``
    samples beyond it; the median when the sample is smaller than that."""
    n = len(values)
    for q in TAIL_QUANTILES:
        if n - math.ceil(q * n) >= MIN_BEYOND:
            return q, nearest_rank(values, q)
    return 0.5, nearest_rank(values, 0.5)


def float_bits(values: Sequence[float]) -> List[str]:
    return [float(v).hex() for v in values]


def golden_mismatches(expected: Dict[str, object], history: Sequence[float],
                      end_to_end_ps: int) -> List[str]:
    """Bit-exact comparison of one campaign against its golden record."""
    problems = []
    if expected["history"] != float_bits(history):
        problems.append("cost history differs from golden")
    if int(expected["end_to_end_ps"]) != int(end_to_end_ps):
        problems.append(
            f"end_to_end_ps {end_to_end_ps} != golden {expected['end_to_end_ps']}"
        )
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit(root: str) -> str:
    """HEAD of a git checkout, read from ``.git`` without spawning git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: str) -> str:
    """blake2b over ``src/repro`` — identifies the code in a checkout
    that is not a git repository."""
    digest = hashlib.blake2b(digest_size=12)
    base = os.path.join(root, "src", "repro")
    for folder, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(root: str, workload: str, seed: int, seconds: int,
               trace: bool, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        usable = os.cpu_count() or 1
    block = {
        "commit": _commit(root),
        "source_digest": source_digest(root),
        "usable_cpus": usable,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    block.update(extra or {})
    return block

"""Repository benchmark: four closed-loop workloads over the repro stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload vqe-shift --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs a fixed amount of work twice, untraced and with every layer
wrapped from outside (see ``layers.py``), and reports the per-layer
metrics.  Either way the outputs are checked: campaign repeats and
traced/untraced pairs must agree bit for bit, the default seed's
histories and simulated picoseconds must match ``goldens.json``, and on
service-mix the streamed history must equal a one-shot job of the same
spec.  A provenance line precedes the result; the result is the last
line of standard output.  ``--record-goldens`` rewrites
``goldens.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
OUT_DIR = os.path.join(HERE, "out")
NAMES = ("vqe-shift", "vqe-adjoint", "qaoa-paper", "service-mix")
#: child processes that each time a cold set-up; with the run's own
#: set-up they give the median reported as setup_s.
SETUP_PROBES = 4
#: calibration readings (median) taken before and after one set-up.
SETUP_CALIBRATIONS = 5
PROBE_TIMEOUT_S = 60


def _import_workloads() -> float:
    """Import the package (through the workloads module); returns seconds."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import workloads  # noqa: F401  (pulls in repro and numpy)

    return time.perf_counter() - start


def _cold_setup(name: str, seed: int):
    """Import the package and set one workload up.

    Returns ``(workload, import_s, (wall_s, at_reference_s))``: the
    set-up's wall time, and its CPU time (all threads) scaled to the
    reference speed by calibration readings bracketing it.  CPU time,
    because a one-second set-up can spend half a second off the CPU
    when the machine is busy.
    """
    from measure import CALIBRATION_REF_S, calibrate, cpu_seconds

    before = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    wall, cpu = time.perf_counter(), cpu_seconds()
    import_s = _import_workloads()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
    after = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    return workload, import_s, (wall, cpu * CALIBRATION_REF_S / ((before + after) / 2))


def _setup_probe(name: str, seed: int):
    """Cold set-up measured in a fresh interpreter (see ``_cold_setup``)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _golden_check(name: str, tally) -> None:
    from measure import golden_mismatches
    from workloads import DEFAULT_SEED, WORKLOADS

    with open(GOLDENS) as handle:
        expected = json.load(handle)[name]
    got = WORKLOADS[name](DEFAULT_SEED).reference()
    problems = list(got["problems"])
    problems += golden_mismatches(expected, [float.fromhex(h) for h in got["history"]],
                                  got["end_to_end_ps"])
    for want, have in zip(expected.get("jobs", []), got.get("jobs", [])):
        problems += golden_mismatches(want, [float.fromhex(h) for h in have["history"]],
                                      have["end_to_end_ps"])
    if len(expected.get("jobs", [])) != len(got.get("jobs", [])):
        problems.append("job count differs from golden")
    tally.check(not problems, f"golden (seed {DEFAULT_SEED}): {'; '.join(problems)}")


def _end_to_end(tally, setup_samples):
    """Medians of per-operation rates and set-up times, scaled to the
    reference speed; the raw medians go to the provenance line."""
    from measure import at_reference_speed, peak_rss_mb

    step_rates = [n / t for n, t in zip(tally.step_evals, tally.step_s)]
    job_rates = [1.0 / t for t in tally.job_s]
    values = {
        "setup_s": (statistics.median(ref for _raw, ref in setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "evals_per_s": (statistics.median(at_reference_speed(step_rates, tally.step_cal)), "1/s"),
        "jobs_per_s": (statistics.median(at_reference_speed(job_rates, tally.job_cal)), "1/s"),
    }
    raw = {
        "setup_s": statistics.median(r for r, _ref in setup_samples),
        "evals_per_s": statistics.median(step_rates),
        "jobs_per_s": statistics.median(job_rates),
        "calibration_ms": statistics.median(tally.step_cal + tally.job_cal) * 1e3,
    }
    return values, raw


def _per_layer(name, tracer, plain, traced, import_s):
    import layers
    from measure import nearest_rank, tail

    units = {}
    client_threads = 2 if name == "service-mix" else None
    for metric, value in layers.layer_metrics(
        tracer, traced.wall_s, plain.wall_s, client_threads
    ).items():
        if metric.endswith("_s"):
            unit = "s"
        elif metric.endswith("_ms"):
            unit = "ms"
        elif metric.endswith(("_share", "hit_rate", "coverage")):
            unit = "fraction"
        else:
            unit = "count"
        units[metric] = (value, unit)
    units["startup.import_s"] = (import_s, "s")
    units["runtime.cache.hit_rate"] = (traced.extra.get("runtime.cache.hit_rate", 0.0), "fraction")
    units["service.coalesced"] = (traced.extra.get("service.coalesced", 0.0), "count")
    units["sim.end_to_end_ps"] = (sum(ps for _h, ps in traced.outputs), "ps")
    for kind, samples in (("step", plain.step_s), ("job", plain.job_s)):
        q, value = tail(samples) if samples else (0.0, 0.0)
        units[f"latency.{kind}_p50_ms"] = (nearest_rank(samples, 0.5) * 1e3 if samples else 0.0,
                                           "ms")
        units[f"latency.{kind}_tail_ms"] = (value * 1e3, "ms")
        units[f"latency.{kind}_tail_quantile"] = (q, "fraction")
        units[f"latency.{kind}_samples"] = (len(samples), "count")
    units["rate.evals_per_s_mean"] = (plain.evals / plain.wall_s, "1/s")
    return units


def run(args) -> int:
    workload, import_s, setup = _cold_setup(args.workload, args.seed)
    setup_samples = [setup]
    from measure import provenance
    from tracing import Tracer, chrome_trace
    from workloads import Tally

    try:
        if args.trace:
            tracer = Tracer()
            plain, traced = workload.traced(args.seconds, tracer)
            tally = Tally(attempted=plain.attempted + traced.attempted,
                          failed=plain.failed + traced.failed,
                          problems=plain.problems + traced.problems)
            tally.check(plain.outputs == traced.outputs,
                        "traced and untraced runs produced different histories or picoseconds")
        else:
            tally = workload.measure(args.seconds)
    finally:
        workload.close()
    _golden_check(args.workload, tally)

    if args.trace:
        values = _per_layer(args.workload, tracer, plain, traced, import_s)
        counts = {"steps": len(plain.step_s), "jobs": len(plain.job_s),
                  "spans": len(tracer.spans)}
    else:
        setup_samples += [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        values, raw = _end_to_end(tally, setup_samples)
        counts = {"steps": len(tally.step_s), "jobs": len(tally.job_s), "raw": raw,
                  "setup_samples": [[round(s, 4) for s in pair] for pair in setup_samples]}
    block = provenance(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                       {"samples": counts, "problems": tally.problems})
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        with open(path, "w") as handle:
            handle.write(chrome_trace(tracer.spans, block))
        block["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"provenance": block}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


def setup_probe(args) -> int:
    workload, _import_s, setup_s = _cold_setup(args.workload, args.seed)
    workload.close()
    print(json.dumps({"setup_s": setup_s}))
    return 0


def record_goldens() -> int:
    _import_workloads()
    from workloads import DEFAULT_SEED, WORKLOADS

    goldens = {}
    for name in NAMES:
        reference = WORKLOADS[name](DEFAULT_SEED).reference()
        if reference.pop("problems"):
            raise SystemExit(f"{name}: reference run failed its own checks")
        goldens[name] = reference
    with open(GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return setup_probe(args) if args.setup_probe else run(args)


if __name__ == "__main__":
    sys.exit(main())

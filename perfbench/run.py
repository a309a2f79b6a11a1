"""Run one benchmark workload against the program under ``src/`` and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_inproc --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the workload
once untraced and once with spans recorded around every layer, prints the
per-layer metrics plus the tracing overhead, and writes the spans to
``perfbench/out/``.  The last line of standard output is the result object;
the line before it carries provenance and the detail the metrics do not.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import signal
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the self-test")
    return parser.parse_args(argv)


def _metric_dict(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(args) -> dict:
    """Run one workload; returns ``{"result": ..., "detail": ...}``."""
    from common import machine_fingerprint
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS, OUT_DIR

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine_fingerprint(),
    }
    if args.trace == 0:
        outcome = workload(args.seed, args.seconds, size)
        metrics = outcome.e2e
        attempted, failed = outcome.attempted, outcome.failed
        detail = {**provenance, "detail": outcome.detail}
    else:
        # Set-up time is not measured here, so each pass sets up once.
        once = dataclasses.replace(size, setup_reps_train=1, setup_reps_serve=1)
        untraced = workload(args.seed, args.seconds, once)
        tracer = Tracer()
        traced = workload(args.seed, args.seconds, once, tracer=tracer)
        overhead = {
            name: traced.e2e[name][0] / untraced.e2e[name][0] - 1.0
            for name in ("throughput_per_s", "latency_p50_ms")
        }
        metrics = dict(traced.layers)
        metrics["trace.throughput_change"] = (overhead["throughput_per_s"], "ratio")
        metrics["trace.latency_p50_change"] = (overhead["latency_p50_ms"], "ratio")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, provenance)
        detail = {
            **provenance,
            "trace_file": str(trace_path.relative_to(ROOT)),
            "spans": len(tracer.spans),
            "untraced": {"e2e": _metric_dict(untraced.e2e), "detail": untraced.detail},
            "traced": {"e2e": _metric_dict(traced.e2e), "detail": traced.detail},
            "tracing_overhead": overhead,
        }
    bad = [name for name, (value, _) in metrics.items()
           if not isinstance(value, (int, float)) or not math.isfinite(value)]
    if bad:
        failed += 1
        detail["unmeasured_metrics"] = bad
        metrics = {name: (0.0 if name in bad else v, u) for name, (v, u) in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": _metric_dict({name: (float(v), u) for name, (v, u) in metrics.items()}),
    }
    return {"result": result, "detail": detail}


def _terminate(signum, _frame):
    # Unwind through every ``finally`` so worker processes and temporary
    # registries are cleaned up when the run is stopped from outside.
    raise SystemExit(128 + signum)


def _stop_helpers() -> None:
    """Stop and reap every process the run started, so none outlives it.

    The fleet's workers are stopped by the workload itself.  What remains is
    multiprocessing's resource tracker, which a ``spawn`` start launches and
    which would otherwise exit only after this process has; any other child
    still alive is signalled and reaped.
    """
    from multiprocessing import resource_tracker

    from common import live_children

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = live_children(os.getpid())
        for pid in pids:
            with contextlib.suppress(OSError):
                os.kill(pid, sig)
        deadline = time.monotonic() + 5.0
        while pids and time.monotonic() < deadline:
            pids = [pid for pid in pids if not _reaped(pid)]
            time.sleep(0.01)
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return True


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_helpers()


def _main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        report = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(report["detail"], default=str))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

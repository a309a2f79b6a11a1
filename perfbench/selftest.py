"""Self-test of the benchmark: every workload at a tiny size.

Checks, for each workload, that

* the result line has exactly the keys ``correct``, ``attempted``, ``failed``
  and ``metrics``, and the run is correct;
* every metric ``BENCHMARK.json`` names appears with its unit, end-to-end
  metrics with ``--trace 0`` and per-layer metrics with ``--trace 1``;
* a reference moved by one ulp makes the correctness check fail;
* no process the run started is still alive once it has exited;

and that the benchmark refuses to run, without printing a result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.

Run from the root of a checkout (about three minutes)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import live_children

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3
SECONDS = "1"


def _run(workload: str, trace: int, cwd: Path = ROOT):
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny",
    ]
    # As a subreaper this process inherits whatever the run leaves behind,
    # so a helper that outlives the run is found even if it exits a moment
    # later.  Output goes to files, not pipes: a helper that holds a pipe
    # open would make the wait last until the helper is gone too.
    _become_subreaper()
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=BENCH_DIR / "out") as out, \
            tempfile.TemporaryFile("w+", dir=BENCH_DIR / "out") as err:
        proc = subprocess.Popen(command, cwd=cwd, stdout=out, stderr=err, text=True,
                                start_new_session=True)
        try:
            proc.wait(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        proc.leftovers = _orphans()
        out.seek(0)
        err.seek(0)
        proc.stdout, proc.stderr = out.read(), err.read()
    return proc


def _become_subreaper() -> None:
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _orphans() -> list:
    """Pids handed to this process by a run that exited before them; all reaped."""
    found = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            # Still running: stop it, then reap it on the next pass.
            for alive in live_children(os.getpid()):
                found.append(alive)
                with contextlib.suppress(OSError):
                    os.kill(alive, signal.SIGKILL)
            time.sleep(0.05)
            continue
        found.append(pid)
    return sorted(set(found))


def _expect_metrics(result: dict, expected: list, where: str) -> list:
    problems = []
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} has unit {got.get('unit')!r}, "
                            f"expected {metric['unit']!r}")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{where}: unexpected metrics {sorted(extra)}")
    return problems


def check_outputs(spec: dict) -> list:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{workload} --trace {trace}"
            proc = _run(workload, trace)
            if proc.leftovers:
                problems.append(f"{where}: processes {proc.leftovers} outlived the run")
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {proc.stdout.splitlines()[-2][:2000]}")
            problems += _expect_metrics(result, expected, where)
            print(f"ok  {where}", flush=True)
    return problems


def check_corruption(spec: dict) -> list:
    """A one-ulp error in the reference must be caught by every workload."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import SIZES, WORKLOADS

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        outcome = WORKLOADS[workload](SEED, float(SECONDS), SIZES["tiny"], corrupt=True)
        if outcome.failed == 0:
            problems.append(f"{workload}: corrupted reference was not detected")
        else:
            print(f"ok  {workload} catches a corrupted reference ({outcome.failed} failed)",
                  flush=True)
    return problems


def check_refuses_without_program() -> list:
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run("train_stream", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    print("ok  refuses to run without the program", flush=True)
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_program() + check_outputs(spec) + check_corruption(spec)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

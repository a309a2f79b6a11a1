"""Shared pieces of the benchmark: clients, percentiles, correctness, provenance."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import threading
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Responses whose client sequence number is a multiple of this are kept and
#: checked bit for bit against the canonical-batch reference after the run.
SAMPLE_EVERY = 64
#: How long the clients wait for their in-flight queries once the run stops.
DRAIN_TIMEOUT_S = 60.0


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> dict:
    """Percentile ``q`` with its sample count and the samples beyond it."""
    n = len(values)
    if n == 0:
        return {"value": None, "n": 0, "beyond": 0}
    value = float(np.percentile(np.asarray(values, dtype=np.float64), q))
    beyond = int(np.count_nonzero(np.asarray(values) > value))
    return {"value": value, "n": n, "beyond": beyond}


def chunked_rate(done_times: Sequence[float], start: float, stop: float, chunks: int = 10) -> float:
    """Median completion rate over ``chunks`` consecutive equal-count chunks.

    Each chunk's rate is its count over the time its completions took, so
    the median keeps one scheduler stall from moving the rate.
    """
    times = np.sort(np.asarray(done_times, dtype=np.float64))
    times = times[(times >= start) & (times < stop)]
    if len(times) < 2 * chunks:
        return len(times) / (stop - start)
    edges = np.linspace(0, len(times), chunks + 1).astype(np.int64)
    rates = []
    previous = start
    for lo, hi in zip(edges[:-1], edges[1:]):
        end = times[hi - 1]
        rates.append((hi - lo) / (end - previous))
        previous = end
    return float(np.median(rates))


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus the largest waited-for child)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def live_children(parent: int) -> List[int]:
    """Pids of the live (not zombie) children of ``parent``, read from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # The command name is in parentheses and may contain spaces.
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if state != "Z" and int(ppid) == parent:
            pids.append(int(entry))
    return pids


def median_setup(setup: Callable[[], object], teardown: Callable[[object], None], reps: int):
    """Run ``setup`` ``reps`` times; keep the last result, return (it, median s, all s)."""
    times = []
    state = None
    for rep in range(reps):
        if state is not None:
            teardown(state)
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times), times


# --------------------------------------------------------------------------- #
# stream placement
# --------------------------------------------------------------------------- #
def spanning_streams(prefix: str, n_targets: int, route: Callable[[str], int]) -> List[str]:
    """One stream name per routing target, found by probing ``route``."""
    names: Dict[int, str] = {}
    index = 0
    while len(names) < n_targets:
        name = f"{prefix}-{index}"
        names.setdefault(route(name), name)
        index += 1
    return [names[target] for target in range(n_targets)]


def check_spans(streams: Sequence[str], n_targets: int, route: Callable[[str], int], what: str):
    covered = {route(stream) for stream in streams}
    if covered != set(range(n_targets)):
        raise RuntimeError(f"streams {list(streams)} leave {what} {sorted(set(range(n_targets)) - covered)} idle")


# --------------------------------------------------------------------------- #
# closed-loop client
# --------------------------------------------------------------------------- #
class ClosedLoopClient:
    """One client thread that keeps ``window`` queries in flight on ``gateway``.

    The next query is submitted only when one of the client's own queries
    completes (a closed loop).  Latency is measured from just before
    ``submit`` to the done callback, on whichever thread delivers the result.
    Per-query records live in arrays preallocated (and touched) up front, so
    the client's own memory does not grow with the throughput it measures.
    """

    def __init__(
        self,
        name: str,
        gateway,
        next_query: Callable[[int], Tuple[str, int, np.ndarray]],
        window: int,
        capacity: int,
        tracer=None,
        request_base: int = 0,
    ) -> None:
        self.name = name
        self._gateway = gateway
        self._next_query = next_query
        self._window = window
        self._tracer = tracer
        self._request_base = request_base
        self.attempted = 0
        self.capacity_exhausted = False
        self._t0 = time.perf_counter()
        self._latency = np.full(capacity, np.nan)
        self._done = np.full(capacity, np.nan)
        self._version = np.full(capacity, -2, dtype=np.int32)
        self._stream = np.full(capacity, -1, dtype=np.int8)
        self._stream_ids: Dict[str, int] = {}
        #: ``(stream, key, Prediction)`` for sampled answered queries.
        self.samples: List[tuple] = []
        self.errors: List[str] = []
        self.timeouts = 0
        self._slots = threading.Semaphore(window)
        self._thread = threading.Thread(target=self._run, name=f"bench-client-{name}", daemon=True)
        self._stop = threading.Event()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def join(self) -> None:
        self._thread.join(DRAIN_TIMEOUT_S + 10.0)
        if self._thread.is_alive():
            raise RuntimeError(f"client {self.name} did not stop")

    @property
    def latencies(self) -> np.ndarray:
        values = self._latency[: self.attempted]
        return values[~np.isnan(values)]

    @property
    def done_times(self) -> np.ndarray:
        values = self._done[: self.attempted]
        return self._t0 + values[~np.isnan(values)]

    def version_regressions(self) -> int:
        answered = self._version[: self.attempted] >= -1
        return version_regressions(
            self._stream[: self.attempted][answered], self._version[: self.attempted][answered]
        )

    def _run(self) -> None:
        slots = self._slots
        tracer = self._tracer
        clock = time.perf_counter
        capacity = len(self._latency)
        while not self._stop.is_set():
            if not slots.acquire(timeout=0.05):
                continue
            seq = self.attempted
            if seq == capacity:
                self.capacity_exhausted = True
                slots.release()
                break
            self.attempted += 1
            stream, key, row = self._next_query(seq)
            stream_id = self._stream_ids.setdefault(stream, len(self._stream_ids))
            self._stream[seq] = stream_id
            if tracer is not None:
                tracer.set_request(self._request_base + seq)
            start = clock()
            try:
                # Looked up per call, so the tracer's wrapper is picked up.
                pending = self._gateway.submit(stream, row)
            except Exception as error:  # shed or rejected: a failed operation
                self.errors.append(f"{type(error).__name__}: {error}")
                slots.release()
                continue
            if tracer is not None:
                tracer.queue_wait(self._request_base + seq, start, pending)
            pending.add_done_callback(partial(self._done_callback, seq, stream, key, start))
        # Drain: every slot comes back once its query resolved.
        deadline = clock() + DRAIN_TIMEOUT_S
        for _ in range(self._window):
            if not slots.acquire(timeout=max(0.0, deadline - clock())):
                self.timeouts += 1

    def _done_callback(self, seq: int, stream: str, key: int, start: float, pending) -> None:
        end = time.perf_counter()
        try:
            prediction = pending.result(0)
        except Exception as error:
            self.errors.append(f"{type(error).__name__}: {error}")
        else:
            self._latency[seq] = end - start
            self._done[seq] = end - self._t0
            version = prediction.model_version
            self._version[seq] = -1 if version is None else version
            if seq % SAMPLE_EVERY == 0:
                self.samples.append((stream, key, prediction))
        self._slots.release()


def version_regressions(streams: np.ndarray, versions: np.ndarray) -> int:
    """Answers older than an earlier-submitted answer on the same stream.

    Both arrays are in submission order; an untagged model reports -1.
    """
    regressions = 0
    for stream in np.unique(streams):
        ordered = versions[streams == stream]
        regressions += int(np.count_nonzero(ordered < np.maximum.accumulate(ordered)))
    return regressions


# --------------------------------------------------------------------------- #
# correctness oracle
# --------------------------------------------------------------------------- #
def bitwise_mismatches(
    samples: Sequence[tuple],
    row_of: Callable[[str, int], np.ndarray],
    learner_of: Callable[[str, Optional[int]], object],
    max_batch: int,
    corrupt: bool = False,
) -> int:
    """Sampled answers that differ from the canonical-batch reference.

    The reference is the row tiled to ``max_batch`` rows and predicted by
    the model version the answer reports — the execution shape the serving
    stack pads every micro-batch to, and the oracle the serving tests use.
    ``corrupt`` moves every reference by one ulp (the self-test's proof that
    this check can fail).
    """
    references: Dict[tuple, tuple] = {}
    mismatches = 0
    for stream, key, prediction in samples:
        version = prediction.model_version
        ref_key = (stream, version, key)
        reference = references.get(ref_key)
        if reference is None:
            estimate = learner_of(stream, version).predict(
                np.tile(row_of(stream, key), (max_batch, 1))
            )
            reference = (
                float(estimate.y0_hat[0]),
                float(estimate.y1_hat[0]),
                float(estimate.ite_hat[0]),
            )
            if corrupt:
                reference = tuple(float(np.nextafter(v, np.inf)) for v in reference)
            references[ref_key] = reference
        if (prediction.mu0, prediction.mu1, prediction.ite) != reference:
            mismatches += 1
    return mismatches


# --------------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------------- #
def machine_fingerprint() -> dict:
    """Cores, BLAS and interpreter versions the run measured on."""
    blas: dict = {}
    try:
        config = np.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {
            "name": blas_info.get("name"),
            "version": blas_info.get("version"),
            "config": blas_info.get("openblas configuration"),
        }
    except TypeError:  # numpy older than 1.26 has no dict mode
        blas = {"name": "unknown"}
    blas["threads_env"] = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    if not blas["threads_env"]:
        blas["threads"] = f"library default (nproc={os.cpu_count()})"
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }

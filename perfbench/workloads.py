"""The four workloads: continual training, two front doors, drift → retrain → swap.

Every workload follows the same shape:

1. set up ``size.setup_reps`` times (data generation, training, registry
   writes, worker spawn, warm-up) and keep the median as ``setup_s``;
2. measure for ``seconds`` seconds, optionally with the tracer installed;
3. check the answers (bitwise oracle, version order, finite estimates);
4. return an :class:`Outcome` with the end-to-end metrics, the detail the
   end-to-end metrics do not carry, and the traced per-layer numbers.

Only public names of the ``repro`` package are called.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
from repro.core import CERL
from repro.data.drift import DriftConfig, DriftScenario
from repro.data.streams import DomainStream
from repro.data.synthetic import SyntheticDomainGenerator
from repro.experiments.profiles import QUICK
from repro.monitor import AdaptationController, DriftDetector, TrafficMonitor, TriggerPolicy
from repro.serve import ModelRegistry, MultiprocGateway, ServingGateway, ShardRouter

from common import (
    ClosedLoopClient,
    bitwise_mismatches,
    check_spans,
    median_setup,
    peak_rss_mb,
    chunked_rate,
    percentile,
    spanning_streams,
    version_regressions,
)
from tracing import install

OUT_DIR = Path(__file__).resolve().parent / "out"

N_SHARDS = 4
N_WORKERS = 2
MAX_BATCH = 256
CACHE_CAPACITY = 1024
N_CLIENTS = 2
#: Zipf exponent of row popularity; gives a ~0.93 cache hit rate at full size.
ZIPF_S = 1.3
#: Protocol passes per train_stream run, however short the run.
MIN_LOOPS = 2


@dataclass(frozen=True)
class Size:
    """Workload dimensions: ``full`` is what ``BENCHMARK.json`` runs, ``tiny`` the self-test."""

    units: int
    epochs: int
    setup_reps_train: int
    setup_reps_serve: int
    warmup_s: float
    pool: int
    distinct_rows: int
    window: int
    rows_per_tick: int
    cycle_ticks: int
    drift_at: int
    cycles: int
    adapt_epochs: int
    permutations: int


SIZES = {
    "full": Size(
        units=2000,
        epochs=10,
        setup_reps_train=9,
        setup_reps_serve=3,
        warmup_s=1.0,
        pool=4096,
        distinct_rows=16384,
        window=16,
        rows_per_tick=64,
        cycle_ticks=10,
        drift_at=4,
        cycles=16,
        adapt_epochs=10,
        permutations=100,
    ),
    "tiny": Size(
        units=300,
        epochs=2,
        setup_reps_train=1,
        setup_reps_serve=1,
        warmup_s=0.2,
        pool=256,
        distinct_rows=1024,
        window=4,
        rows_per_tick=16,
        cycle_ticks=8,
        drift_at=3,
        cycles=2,
        adapt_epochs=10,
        permutations=20,
    ),
}


@dataclass
class Outcome:
    attempted: int
    failed: int
    #: End-to-end metrics: ``{name: (value, unit)}``.
    e2e: Dict[str, tuple]
    #: Everything else a reader needs: failure breakdown, percentiles with
    #: their sample counts, quality numbers, workload-specific latencies.
    detail: Dict[str, object] = field(default_factory=dict)
    #: Per-layer metrics from the traced pass: ``{name: (value, unit)}``.
    layers: Dict[str, tuple] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# shared inputs
# --------------------------------------------------------------------------- #
def _generator(seed: int, size: Size) -> SyntheticDomainGenerator:
    return SyntheticDomainGenerator(QUICK.synthetic_config(n_units=size.units), seed=seed)


def _new_cerl(n_features: int, seed: int, epochs: int) -> CERL:
    return CERL(
        n_features,
        QUICK.model_config(seed=seed, epochs=epochs),
        QUICK.continual_config(memory_budget=QUICK.memory_budget_table1),
    )


def _train_base(seed: int, size: Size):
    """Generator, base-domain split and a CERL model trained on domain 0."""
    generator = _generator(seed, size)
    stream = DomainStream([generator.generate_domain(0)], seed=seed)
    model = _new_cerl(stream.n_features, seed, size.epochs)
    model.observe(stream.train_data(0), epochs=size.epochs)
    return generator, stream[0], model


def _work_dir(prefix: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


def _zipf_plan(seed: int, n_streams: int, size: Size, draw: int, length: int):
    """Stream and row index per query: uniform streams, Zipf-ranked rows.

    Which row holds which popularity rank is fixed per ``seed`` and stream,
    so the warm-up and every client share one hot set; ``draw`` only picks
    a different sequence of queries from it.
    """
    ranks = np.arange(1, size.pool + 1, dtype=np.float64)
    weights = ranks ** (-ZIPF_S)
    weights /= weights.sum()
    row_of_rank = np.stack(
        [np.random.default_rng([seed, 0, i]).permutation(size.pool) for i in range(n_streams)]
    )
    rng = np.random.default_rng([seed, 1, draw])
    streams = rng.integers(0, n_streams, size=length)
    rows = row_of_rank[streams, rng.choice(size.pool, size=length, p=weights)]
    return streams, rows


def _zipf_query_fn(streams: List[str], pools: Dict[str, np.ndarray], plan) -> Callable:
    stream_index, row_index = plan
    length = len(stream_index)

    def next_query(seq: int):
        i = seq % length
        stream = streams[stream_index[i]]
        key = int(row_index[i])
        return stream, key, pools[stream][key]

    return next_query


def _run_clients(clients: List[ClosedLoopClient], seconds: float):
    """Start, run for ``seconds``, stop and drain; returns (start, stop) times."""
    start = time.perf_counter()
    for client in clients:
        client.start()
    time.sleep(seconds)
    stop = time.perf_counter()
    for client in clients:
        client.stop()
    for client in clients:
        client.join()
    return start, stop


def _warm_up(gateway, next_query, size: Size) -> None:
    clients = [
        ClosedLoopClient(f"warm{i}", gateway, next_query, size.window, _capacity(size.warmup_s))
        for i in range(N_CLIENTS)
    ]
    _run_clients(clients, size.warmup_s)
    for client in clients:
        if client.errors or client.timeouts:
            raise RuntimeError(f"warm-up failed: {client.errors[:3]} timeouts={client.timeouts}")


def _version_loader(registry: ModelRegistry) -> Callable:
    """``learner_of(stream, version)``: one registry copy per version, cached."""
    learners: Dict[tuple, object] = {}

    def learner_of(stream: str, version: Optional[int]):
        if (stream, version) not in learners:
            learners[stream, version] = registry.load(stream, version)
        return learners[stream, version]

    return learner_of


def _capacity(seconds: float) -> int:
    """Per-client record slots: far above any rate this machine class reaches."""
    return int(seconds * 60_000) + 20_000


def _client_summary(clients: List[ClosedLoopClient], start: float, stop: float) -> dict:
    latencies = np.concatenate([c.latencies for c in clients])
    done_times = np.concatenate([c.done_times for c in clients])
    exhausted = [f"client {c.name} ran out of record slots" for c in clients if c.capacity_exhausted]
    return {
        "attempted": sum(c.attempted for c in clients),
        "errors": [e for c in clients for e in c.errors] + exhausted,
        "timeouts": sum(c.timeouts for c in clients),
        "regressions": sum(c.version_regressions() for c in clients),
        "done_times": done_times,
        "samples": [s for c in clients for s in c.samples],
        "latency_p50": percentile(latencies, 50),
        "latency_p99": percentile(latencies, 99),
        "throughput": chunked_rate(done_times, start, stop),
        "answered": len(latencies),
    }


def _ms(pct: dict) -> dict:
    return {
        "value": None if pct["value"] is None else pct["value"] * 1e3,
        "n": pct["n"],
        "beyond": pct["beyond"],
    }


def _tail(pct_ms: dict) -> dict:
    """p99 is reported only when at least ten samples lie beyond it."""
    out = dict(pct_ms)
    if pct_ms["beyond"] < 10:
        out["value"] = None
    return out


# --------------------------------------------------------------------------- #
# train_stream
# --------------------------------------------------------------------------- #
def train_stream(seed: int, seconds: float, size: Size, tracer=None, corrupt=False) -> Outcome:
    """The paper's protocol: observe a domain, then evaluate every domain seen."""
    n_domains = 3

    def setup():
        generator = _generator(seed, size)
        stream = DomainStream(
            [generator.generate_domain(d) for d in range(n_domains)], seed=seed
        )
        # Warm-up: one epoch of the protocol on a small slice, so allocator
        # and BLAS start-up costs land here and not in the first timed loop.
        model = _new_cerl(stream.n_features, seed, 1)
        for domain in range(n_domains):
            train = stream.train_data(domain)
            model.observe(train.subset(np.arange(min(len(train), 256))), epochs=1)
            model.evaluate_many(stream.test_sets_seen(domain))
        return stream

    stream, setup_s, setup_all = median_setup(setup, lambda _: None, size.setup_reps_train)

    if tracer is not None:
        install(tracer)
    loop_rates: List[float] = []
    loop_times: List[float] = []
    stage_times: List[float] = []
    reference: Optional[List[List[dict]]] = None
    attempted = failed = 0
    nondeterministic = nonfinite = 0
    final: List[dict] = []
    start = time.perf_counter()
    try:
        while True:
            loop_start = time.perf_counter()
            model = _new_cerl(stream.n_features, seed, size.epochs)
            row_epochs = 0
            results: List[List[dict]] = []
            for domain in range(n_domains):
                stage_start = time.perf_counter()
                train = stream.train_data(domain)
                model.observe(train, epochs=size.epochs)
                metrics = model.evaluate_many(stream.test_sets_seen(domain))
                stage_times.append(time.perf_counter() - stage_start)
                row_epochs += len(train) * size.epochs
                results.append(metrics)
            loop_times.append(time.perf_counter() - loop_start)
            loop_rates.append(row_epochs / loop_times[-1])
            final = results[-1]
            if reference is None:
                # Training is deterministic per seed: every later loop must
                # reproduce the first loop's metrics exactly.
                reference = results
                if corrupt:
                    reference = [
                        [{k: float(np.nextafter(v, np.inf)) for k, v in m.items()} for m in stage]
                        for stage in results
                    ]
            for domain, metrics in enumerate(results):
                attempted += 1
                finite = all(np.isfinite(v) for m in metrics for v in m.values())
                same = metrics == reference[domain]
                nonfinite += not finite
                nondeterministic += not same
                failed += not (finite and same)
            if time.perf_counter() - start >= seconds and len(loop_rates) >= MIN_LOOPS:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    loop_p50 = _ms(percentile(loop_times, 50))
    e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (statistics.median(loop_rates), "1/s"),
        "latency_p50_ms": (loop_p50["value"], "ms"),
    }
    detail = {
        "setup_s_all": setup_all,
        "loops": len(loop_rates),
        "train_rows_per_s": {"value": statistics.median(loop_rates), "unit": "rows/s",
                             "per_loop": loop_rates},
        "loop_latency_ms": {"p50": loop_p50},
        "stage_latency_ms": {
            "p50": _ms(percentile(stage_times, 50)),
            "p99": _tail(_ms(percentile(stage_times, 99))),
        },
        "pehe_seen": {"value": float(np.mean([m["sqrt_pehe"] for m in final])), "unit": "sqrt_pehe"},
        "ate_error_seen": {"value": float(np.mean([m["ate_error"] for m in final])), "unit": "ate_error"},
        "failures": {"nonfinite": nonfinite, "nondeterministic": nondeterministic},
    }
    outcome = Outcome(attempted, failed, e2e, detail)
    if tracer is not None:
        outcome.layers = _layers(tracer, {})
    return outcome


def _training_layers(spans) -> Dict[str, tuple]:
    def self_times(name):
        return spans[name]["self"] if name in spans else []

    observes = len(self_times("core.observe"))

    def per_observe(name):
        return sum(self_times(name)) / observes if observes else 0.0

    def mean(name):
        values = self_times(name)
        return sum(values) / len(values) if values else 0.0

    return {
        "core.observe_s": (mean("core.observe"), "s"),
        "core.evaluate_s": (mean("core.evaluate"), "s"),
        "engine.fit_self_s": (per_observe("engine.fit"), "s"),
        "engine.forward_s": (per_observe("engine.forward"), "s"),
        "engine.steps": (len(self_times("nn.optim")) / observes if observes else 0.0, "count"),
        "nn.backward_s": (per_observe("nn.backward"), "s"),
        "nn.optim_s": (per_observe("nn.optim"), "s"),
        "balance.ipm_s": (per_observe("balance.ipm"), "s"),
        "balance.ipm_calls": (len(self_times("balance.ipm")) / observes if observes else 0.0, "count"),
        "memory.herding_s": (per_observe("memory.herding"), "s"),
    }


# --------------------------------------------------------------------------- #
# serving layers, shared by the three serving workloads
# --------------------------------------------------------------------------- #
def _serving_layers(spans) -> Dict[str, tuple]:
    def durations(name):
        return spans[name]["duration"] if name in spans else []

    def pct(name, q, scale):
        value = percentile(durations(name), q)["value"]
        return 0.0 if value is None else value * scale

    def median_self(name, scale):
        values = spans[name]["self"] if name in spans else []
        return statistics.median(values) * scale if values else 0.0

    return {
        "serve.gateway.submit_us_p50": (pct("serve.gateway.submit", 50, 1e6), "us"),
        "serve.gateway.submit_us_p99": (pct("serve.gateway.submit", 99, 1e6), "us"),
        "serve.execute_ms_p50": (pct("serve.execute", 50, 1e3), "ms"),
        "serve.execute_ms_p99": (pct("serve.execute", 99, 1e3), "ms"),
        "serve.queue_wait_ms_p50": (pct("serve.queue_wait", 50, 1e3), "ms"),
        "serve.fleet.submit_us_p50": (pct("serve.fleet.submit", 50, 1e6), "us"),
        "serve.fleet.encode_us_p50": (pct("serve.fleet.encode", 50, 1e6), "us"),
        "monitor.score_ms_p50": (pct("monitor.score", 50, 1e3), "ms"),
        "monitor.calibrate_ms": (pct("monitor.calibrate", 50, 1e3), "ms"),
        "serve.registry.save_ms": (median_self("serve.registry.save", 1e3), "ms"),
        "serve.registry.load_ms": (median_self("serve.registry.load", 1e3), "ms"),
        "serve.swap_ms": (median_self("serve.swap", 1e3), "ms"),
    }


def _stats_layers(before, after, max_batch: int):
    """Cache and batching counters over the timed phase (stats deltas)."""
    hits = after.cache_hits - before.cache_hits
    misses = after.cache_misses - before.cache_misses
    evictions = sum(s.cache.evictions for s in after.shards) - sum(
        s.cache.evictions for s in before.shards
    )
    queries = sum(s.service.queries for s in after.shards) - sum(
        s.service.queries for s in before.shards
    )
    batches = sum(s.service.batches for s in after.shards) - sum(
        s.service.batches for s in before.shards
    )
    return {
        "serve.cache.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "serve.cache.evictions": (float(evictions), "count"),
        "serve.mean_batch": (queries / batches if batches else 0.0, "queries"),
        "serve.useful_row_fraction": (
            queries / (batches * max_batch) if batches else 0.0,
            "ratio",
        ),
    }


#: Per-layer counters read from the program's own stats, not from spans; a
#: workload that bypasses the layer reports 0.
COUNTER_LAYERS = {
    "serve.cache.hit_rate": "ratio",
    "serve.cache.evictions": "count",
    "serve.mean_batch": "queries",
    "serve.useful_row_fraction": "ratio",
    "serve.fleet.worker_mean_batch": "queries",
    "serve.fleet.worker_useful_row_fraction": "ratio",
    "monitor.checks": "count",
    "monitor.adaptations": "count",
}


def _layers(tracer, counters: Dict[str, tuple]) -> Dict[str, tuple]:
    """Every per-layer metric: span-derived, then counters (0 when bypassed)."""
    spans = tracer.by_name()
    layers = {**_training_layers(spans), **_serving_layers(spans)}
    layers.update({name: (0.0, unit) for name, unit in COUNTER_LAYERS.items()})
    layers.update(counters)
    return layers


# --------------------------------------------------------------------------- #
# serve_inproc
# --------------------------------------------------------------------------- #
def serve_inproc(seed: int, seconds: float, size: Size, tracer=None, corrupt=False) -> Outcome:
    """In-process gateway: Zipf-skewed rows over a pool larger than the cache."""
    streams = spanning_streams("inproc", N_SHARDS, ShardRouter(N_SHARDS).shard_for)

    def setup():
        generator, _, model = _train_base(seed, size)
        root = _work_dir("inproc-")
        registry = ModelRegistry(root)
        for stream in streams:
            registry.save(stream, 0, model)
        gateway = ServingGateway(
            registry=registry,
            n_shards=N_SHARDS,
            max_batch=MAX_BATCH,
            cache_capacity=CACHE_CAPACITY,
        )
        for stream in streams:
            gateway.service(stream)
        check_spans(streams, N_SHARDS, gateway.shard_for, "shards")
        pools = {
            stream: generator.generate_domain(0, n_units=size.pool, repetition=1 + i).covariates
            for i, stream in enumerate(streams)
        }
        warm = _zipf_plan(seed, len(streams), size, 0, 1 << 16)
        _warm_up(gateway, _zipf_query_fn(streams, pools, warm), size)
        return root, registry, gateway, pools

    def teardown(state):
        root, _, gateway, _ = state
        gateway.close()
        shutil.rmtree(root, ignore_errors=True)

    state, setup_s, setup_all = median_setup(setup, teardown, size.setup_reps_serve)
    root, registry, gateway, pools = state
    try:
        plans = [_zipf_plan(seed, len(streams), size, 1 + c, 1 << 19) for c in range(N_CLIENTS)]
        clients = [
            ClosedLoopClient(
                f"c{c}", gateway, _zipf_query_fn(streams, pools, plans[c]),
                size.window, _capacity(seconds), tracer=tracer, request_base=c << 32,
            )
            for c in range(N_CLIENTS)
        ]
        before = gateway.stats()
        if tracer is not None:
            install(tracer)
        try:
            start, stop = _run_clients(clients, seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = gateway.stats()
        summary = _client_summary(clients, start, stop)
        learner_of = _version_loader(registry)
        mismatches = bitwise_mismatches(
            summary["samples"], lambda s, k: pools[s][k], learner_of, MAX_BATCH, corrupt
        )
    finally:
        teardown(state)
    outcome = _serving_outcome(summary, mismatches, setup_s, setup_all, include_children=False)
    outcome.detail["cache_hit_rate"] = _stats_layers(before, after, MAX_BATCH)["serve.cache.hit_rate"][0]
    if tracer is not None:
        outcome.layers = _layers(tracer, _stats_layers(before, after, MAX_BATCH))
    return outcome


def _serving_outcome(summary, mismatches, setup_s, setup_all, include_children) -> Outcome:
    regressions = summary["regressions"]
    failed = len(summary["errors"]) + summary["timeouts"] + mismatches + regressions
    attempted = summary["attempted"]
    p50 = _ms(summary["latency_p50"])
    e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(include_children), "MB"),
        "throughput_per_s": (summary["throughput"], "1/s"),
        "latency_p50_ms": (p50["value"], "ms"),
    }
    detail = {
        "setup_s_all": setup_all,
        "throughput_qps": {"value": summary["throughput"], "unit": "q/s"},
        "latency_ms": {"p50": p50, "p99": _tail(_ms(summary["latency_p99"]))},
        "failed_fraction": {"value": failed / attempted if attempted else 0.0, "unit": "ratio"},
        "failures": {
            "errors": len(summary["errors"]),
            "first_errors": summary["errors"][:3],
            "timeouts": summary["timeouts"],
            "bitwise_mismatches": mismatches,
            "version_regressions": regressions,
            "verified_samples": len(summary["samples"]),
        },
        "answered": summary["answered"],
    }
    return Outcome(attempted, failed, e2e, detail)


# --------------------------------------------------------------------------- #
# serve_multiproc
# --------------------------------------------------------------------------- #
def serve_multiproc(seed: int, seconds: float, size: Size, tracer=None, corrupt=False) -> Outcome:
    """Process fleet: every row distinct, so the response cache never hits."""
    # The fleet routes with the same digest, modulo the worker count.
    streams = spanning_streams("fleet", N_SHARDS, ShardRouter(N_SHARDS).shard_for)

    def setup():
        generator, _, model = _train_base(seed, size)
        root = _work_dir("fleet-")
        registry = ModelRegistry(root)
        for stream in streams:
            registry.save(stream, 0, model)
        gateway = MultiprocGateway(
            registry_root=root,
            streams=streams,
            n_workers=N_WORKERS,
            max_batch=MAX_BATCH,
            cache_capacity=CACHE_CAPACITY,
        )
        check_spans(streams, N_WORKERS, gateway.worker_for, "workers")
        pools = {
            stream: generator.generate_domain(
                0, n_units=size.distinct_rows, repetition=1 + i
            ).covariates
            for i, stream in enumerate(streams)
        }
        warm_pools = {
            stream: generator.generate_domain(0, n_units=size.pool, repetition=100 + i).covariates
            for i, stream in enumerate(streams)
        }
        _warm_up(gateway, _distinct_query_fn(streams, warm_pools, 0), size)
        return root, registry, gateway, pools

    def teardown(state):
        root, _, gateway, _ = state
        # A graceful close waits out FleetManager's 10 s join per worker:
        # WorkerServer.shutdown closes the listener without waking the
        # worker's blocked accept().  Teardown is not measured, so the
        # workers are stopped at once.
        for index in range(gateway.n_workers):
            gateway.kill_worker(index)
        gateway.close()
        shutil.rmtree(root, ignore_errors=True)

    state, setup_s, setup_all = median_setup(setup, teardown, size.setup_reps_serve)
    root, registry, gateway, pools = state
    try:
        clients = [
            ClosedLoopClient(
                f"c{c}", gateway, _distinct_query_fn(streams, pools, c),
                size.window, _capacity(seconds), tracer=tracer, request_base=c << 32,
            )
            for c in range(N_CLIENTS)
        ]
        before = gateway.stats(include_worker_stats=True)
        if tracer is not None:
            install(tracer)
        try:
            start, stop = _run_clients(clients, seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = gateway.stats(include_worker_stats=True)
        summary = _client_summary(clients, start, stop)
        learner_of = _version_loader(registry)
        mismatches = bitwise_mismatches(
            summary["samples"], lambda s, k: pools[s][k], learner_of, MAX_BATCH, corrupt
        )
    finally:
        teardown(state)
    outcome = _serving_outcome(summary, mismatches, setup_s, setup_all, include_children=True)
    stats = _stats_layers(before, after, MAX_BATCH)
    outcome.detail["cache_hit_rate"] = stats["serve.cache.hit_rate"][0]
    outcome.detail["worker_mean_batch"] = stats["serve.mean_batch"][0]
    if tracer is not None:
        # The fleet's batch counters come from the workers' micro-batchers.
        outcome.layers = _layers(
            tracer,
            {
                "serve.cache.hit_rate": stats["serve.cache.hit_rate"],
                "serve.cache.evictions": stats["serve.cache.evictions"],
                "serve.fleet.worker_mean_batch": stats["serve.mean_batch"],
                "serve.fleet.worker_useful_row_fraction": stats["serve.useful_row_fraction"],
            },
        )
    return outcome


def _distinct_query_fn(streams: List[str], pools: Dict[str, np.ndarray], client: int) -> Callable:
    """Round-robin streams; each client walks its own half of every pool."""
    n_streams = len(streams)

    def next_query(seq: int):
        stream = streams[seq % n_streams]
        pool = pools[stream]
        key = ((seq // n_streams) * N_CLIENTS + client) % len(pool)
        return stream, key, pool[key]

    return next_query


# --------------------------------------------------------------------------- #
# adapt_drift
# --------------------------------------------------------------------------- #
@dataclass
class _TapeStream:
    name: str
    controller: object
    #: ``(covariates, domain the rows come from, whether drift starts here)``.
    ticks: List[tuple]
    adapt_s: List[float] = field(default_factory=list)
    lags: List[int] = field(default_factory=list)
    rollbacks: int = 0
    onset: Optional[int] = None
    #: Domain of the traffic the last accepted adaptation trained on.
    adapted_domain: int = 0


def adapt_drift(seed: int, seconds: float, size: Size, tracer=None, corrupt=False) -> Outcome:
    """Drift tapes replayed through the gateway beside closed-loop readers."""
    streams = spanning_streams("adapt", N_SHARDS, ShardRouter(N_SHARDS).shard_for)
    tape_names, read_names = streams[:2], streams[2:]

    def build_tape(generator, index: int) -> List[tuple]:
        # Stream ``index`` starts half a cycle later than stream ``index - 1``,
        # so the swaps of the two tape streams do not land on the same tick.
        offset = index * (size.cycle_ticks // 2)
        ticks = []
        for tick in range(offset):
            scenario = DriftScenario(generator, DriftConfig(), seed=seed)
            ticks.append((scenario.tick_covariates(tick, size.rows_per_tick, 0.0), 0, False))
        for cycle in range(size.cycles):
            # Alternate domains 0 → 1 → 0 …: every cycle is a fresh abrupt
            # covariate shift away from what the stream last adapted to.
            scenario = DriftScenario(
                generator,
                DriftConfig(kind="covariate", mode="abrupt", magnitude=1.0),
                seed=seed * 1000 + index * 100 + cycle,
                base_domain=cycle % 2,
                drifted_domain=(cycle + 1) % 2,
            )
            for local in range(size.cycle_ticks):
                tick = len(ticks)
                fraction = scenario.drift_fraction(local, size.drift_at)
                ticks.append(
                    (
                        scenario.tick_covariates(tick, size.rows_per_tick, fraction),
                        scenario.drifted_domain if fraction else scenario.base_domain,
                        local == size.drift_at,
                    )
                )
        return ticks

    def setup():
        generator, split, model = _train_base(seed, size)
        root = _work_dir("adapt-")
        registry = ModelRegistry(root)
        for stream in streams:
            registry.save(stream, 0, model, metadata={"trigger": "initial"})
        gateway = ServingGateway(
            registry=registry,
            n_shards=N_SHARDS,
            max_batch=MAX_BATCH,
            cache_capacity=CACHE_CAPACITY,
        )
        for stream in streams:
            gateway.service(stream)
        check_spans(streams, N_SHARDS, gateway.shard_for, "shards")
        tapes = []
        for index, name in enumerate(tape_names):
            service = gateway.service(name)
            # Calibration costs O(reference²) per permutation; a reference of
            # two windows keeps set-up short, as every rebase does later.
            window = 2 * size.rows_per_tick
            monitor = TrafficMonitor(
                split.train.covariates[: 2 * window], window_capacity=window
            ).attach(service)
            detector = DriftDetector(
                "mmd_rbf", quantile=0.95, n_permutations=size.permutations, seed=seed
            ).calibrate(monitor.reference, monitor.window_capacity)
            controller = AdaptationController(
                registry.load(name, 0),
                monitor,
                detector,
                registry,
                name,
                labeler=DriftScenario(generator, DriftConfig(), seed=seed + index).make_labeler(),
                service=service,
                policy=TriggerPolicy(consecutive_breaches=2, cooldown_checks=2),
                epochs=size.adapt_epochs,
                seed=seed,
            )
            tapes.append(_TapeStream(name, controller, build_tape(generator, index)))
        pools = {
            stream: generator.generate_domain(0, n_units=size.pool, repetition=1 + i).covariates
            for i, stream in enumerate(read_names)
        }
        warm = _zipf_plan(seed, len(read_names), size, 0, 1 << 16)
        _warm_up(gateway, _zipf_query_fn(read_names, pools, warm), size)
        probe = DriftScenario(generator, DriftConfig(), seed=seed)
        return root, registry, gateway, tapes, pools, probe, generator

    def teardown(state):
        root, _, gateway = state[:3]
        gateway.close()
        shutil.rmtree(root, ignore_errors=True)

    state, setup_s, setup_all = median_setup(setup, teardown, size.setup_reps_serve)
    root, registry, gateway, tapes, pools, probe, generator = state
    # Filled by the writer thread only, in submission order.
    writer_log = {"latencies": [], "done_times": [], "streams": [], "versions": [],
                  "samples": [], "errors": [], "ticks": 0, "attempted": 0}
    stop_event = threading.Event()

    def replay():
        for tick in range(min(len(tape.ticks) for tape in tapes)):
            if stop_event.is_set():
                return
            for tape in tapes:
                covariates, _, onset = tape.ticks[tick]
                if onset:
                    tape.onset = tick
                pendings = []
                for row_index, row in enumerate(covariates):
                    start = time.perf_counter()
                    writer_log["attempted"] += 1
                    try:
                        pendings.append((row_index, start, gateway.submit(tape.name, row)))
                    except Exception as error:
                        writer_log["errors"].append(f"{type(error).__name__}: {error}")
                for row_index, start, pending in pendings:
                    try:
                        prediction = pending.result(timeout=60.0)
                    except Exception as error:
                        writer_log["errors"].append(f"{type(error).__name__}: {error}")
                        continue
                    end = time.perf_counter()
                    writer_log["latencies"].append(end - start)
                    writer_log["done_times"].append(end)
                    writer_log["streams"].append(tape.name)
                    version = prediction.model_version
                    writer_log["versions"].append(-1 if version is None else version)
                    if row_index == 0:
                        writer_log["samples"].append(((tape.name, tick), prediction))
            for tape in tapes:
                check_start = time.perf_counter()
                check = tape.controller.check()
                if check.action == "adapted":
                    # The swap is done when the new version answers a query.
                    version = registry.head_version(tape.name)
                    row = tape.ticks[tick][0][0]
                    while gateway.submit(tape.name, row).result(60.0).model_version != version:
                        pass
                    tape.adapt_s.append(time.perf_counter() - check_start)
                    tape.adapted_domain = tape.ticks[tick][1]
                    if tape.onset is not None:
                        tape.lags.append(tick - tape.onset + 1)
                        tape.onset = None
                elif check.action == "rolled_back":
                    tape.rollbacks += 1
            writer_log["ticks"] += 1

    def replay_guarded():
        try:
            replay()
        except Exception as error:  # surfaced as a failed operation below
            writer_log["errors"].append(f"writer: {type(error).__name__}: {error}")

    try:
        plan = _zipf_plan(seed, len(read_names), size, 1, 1 << 19)
        reader = ClosedLoopClient(
            "reader", gateway, _zipf_query_fn(read_names, pools, plan),
            size.window, _capacity(seconds), tracer=tracer, request_base=1 << 32,
        )
        writer = threading.Thread(target=replay_guarded, name="bench-writer", daemon=True)
        before = gateway.stats()
        if tracer is not None:
            install(tracer)
        try:
            start = time.perf_counter()
            reader.start()
            writer.start()
            writer.join(seconds)
            stop = time.perf_counter()
            stop_event.set()
            reader.stop()
            writer.join(120.0)
            reader.join()
            if writer.is_alive():
                raise RuntimeError("tape writer did not stop")
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = gateway.stats()
        checks = sum(len(t.controller.checks) for t in tapes)
        adaptations = sum(len(t.controller.events) for t in tapes)

        learner_of = _version_loader(registry)
        tape_rows = {t.name: t.ticks for t in tapes}
        read_summary = _client_summary([reader], start, stop)
        read_mismatches = bitwise_mismatches(
            read_summary["samples"], lambda s, k: pools[s][k], learner_of, MAX_BATCH, corrupt
        )
        tape_samples = [(name, tick, p) for (name, tick), p in writer_log["samples"]]
        tape_mismatches = bitwise_mismatches(
            tape_samples, lambda s, k: tape_rows[s][k][0][0], learner_of, MAX_BATCH, corrupt
        )
        # √PEHE of each tape stream's served head on the domain it last adapted to.
        pehes = []
        for index, tape in enumerate(tapes):
            head = registry.head_version(tape.name)
            covariates = generator.generate_domain(
                tape.adapted_domain, n_units=500, repetition=10_000 + index
            ).covariates
            labelled = probe.label(covariates, key=10_000 + index)
            ite = learner_of(tape.name, head).predict(labelled.covariates).ite_hat
            pehes.append(float(np.sqrt(np.mean((ite - labelled.true_ite) ** 2))))
    finally:
        teardown(state)

    regressions = read_summary["regressions"] + version_regressions(
        np.asarray(writer_log["streams"]), np.asarray(writer_log["versions"])
    )
    mismatches = read_mismatches + tape_mismatches
    errors = writer_log["errors"] + read_summary["errors"]
    attempted = read_summary["attempted"] + writer_log["attempted"]
    failed = len(errors) + read_summary["timeouts"] + mismatches + regressions
    all_done = np.concatenate([writer_log["done_times"], read_summary["done_times"]])
    p50 = _ms(read_summary["latency_p50"])
    adapt_times = [x for t in tapes for x in t.adapt_s]
    lags = [x for t in tapes for x in t.lags]
    e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (chunked_rate(all_done, start, stop), "1/s"),
        "latency_p50_ms": (p50["value"], "ms"),
    }
    detail = {
        "setup_s_all": setup_all,
        "throughput_qps": {"value": e2e["throughput_per_s"][0], "unit": "q/s"},
        "latency_ms": {"p50": p50, "p99": _tail(_ms(read_summary["latency_p99"]))},
        "tape_latency_ms": {"p50": _ms(percentile(writer_log["latencies"], 50))},
        "adapt_s": {"value": statistics.median(adapt_times) if adapt_times else None,
                    "unit": "s", "n": len(adapt_times)},
        "detect_lag_ticks": {"value": statistics.median(lags) if lags else None,
                             "unit": "ticks", "all": lags},
        "adapt_pehe": {"value": float(np.mean(pehes)), "unit": "sqrt_pehe"},
        "adaptations": adaptations,
        "rollbacks": sum(t.rollbacks for t in tapes),
        "ticks_replayed": writer_log["ticks"],
        "failed_fraction": {"value": failed / attempted if attempted else 0.0, "unit": "ratio"},
        "failures": {
            "errors": len(errors),
            "first_errors": errors[:3],
            "timeouts": read_summary["timeouts"],
            "bitwise_mismatches": mismatches,
            "version_regressions": regressions,
            "verified_samples": len(read_summary["samples"]) + len(tape_samples),
        },
    }
    if not adapt_times:
        # The workload exists to exercise the swap path; a run without one
        # measured nothing it promises.
        failed += 1
        detail["failures"]["no_adaptation"] = True
    outcome = Outcome(attempted, failed, e2e, detail)
    if tracer is not None:
        outcome.layers = _layers(
            tracer,
            {
                **_stats_layers(before, after, MAX_BATCH),
                "monitor.checks": (float(checks), "count"),
                "monitor.adaptations": (float(adaptations), "count"),
            },
        )
    return outcome


WORKLOADS = {
    "train_stream": train_stream,
    "serve_inproc": serve_inproc,
    "serve_multiproc": serve_multiproc,
    "adapt_drift": adapt_drift,
}

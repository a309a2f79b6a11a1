"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping public calls of the program at the name the
caller binds (a class attribute such as ``Trainer.fit``, or a module global
such as ``repro.core.cerl.ipm_distance``).  Nothing inside ``src/`` is edited:
:func:`install` swaps the wrappers in, ``Tracer.uninstall`` puts the
originals back.

A span is ``(id, name, start, end, parent, request_id)`` with ``perf_counter``
times.  The parent is the innermost open span on the same thread, so a
layer's self time is its duration minus the durations of its children.
Spans are only appended to a list while the run is measured; they are written
to disk after the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.core.baseline as baseline_module
import repro.core.cerl as cerl_module
import repro.serve.fleet.frontdoor as frontdoor_module
from repro.core import CERL
from repro.engine import Trainer
from repro.engine.backend import TraceableLoss
from repro.memory import MemoryBuffer
from repro.monitor import DriftDetector
from repro.nn import Adam, Tensor
from repro.serve import ModelRegistry, MultiprocGateway, PredictionService, ServingGateway

BATCHER_THREAD_PREFIX = "repro-serve-batcher"


class Tracer:
    """Span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Optional[int]) -> None:
        """Tag the spans this thread opens next with ``request_id``."""
        self._local.request = request_id

    def wrap(self, fn: Callable, name: str, only_thread: Optional[str] = None) -> Callable:
        """``fn`` recording one span per call (optionally on matching threads only)."""
        spans = self.spans
        ids = self._ids
        local = self._local
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if only_thread is not None and not threading.current_thread().name.startswith(
                only_thread
            ):
                return fn(*args, **kwargs)
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            local.span_start = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, getattr(local, "request", None))
                )

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attribute: str, name: str, only_thread: Optional[str] = None) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, only_thread))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def queue_wait(self, request_id: int, submitted: float, pending) -> None:
        """Record submit → start of the batch that answered ``pending``.

        The done callback runs on the dispatcher thread right after the batch
        executed, so the batch's start is the last execute span opened there.
        A cache hit resolves on the caller's thread and waits for no batch.
        """
        spans = self.spans
        ids = self._ids
        local = self._local

        def done(_pending) -> None:
            if not threading.current_thread().name.startswith(BATCHER_THREAD_PREFIX):
                return
            start = getattr(local, "span_start", None)
            if start is not None:
                spans.append((next(ids), "serve.queue_wait", submitted, start, None, request_id))

        pending.add_done_callback(done)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def by_name(self) -> Dict[str, Dict[str, list]]:
        """``{name: {"duration": [...], "self": [...]}}`` over every span."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, list]] = defaultdict(lambda: {"duration": [], "self": []})
        for span_id, name, start, end, _, _ in self.spans:
            entry = out[name]
            entry["duration"].append(end - start)
            entry["self"].append(end - start - child_time.get(span_id, 0.0))
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    # Training: core, engine, nn, balance, memory.
    tracer.patch(CERL, "observe", "core.observe")
    tracer.patch(CERL, "evaluate_many", "core.evaluate")
    tracer.patch(Trainer, "fit", "engine.fit")
    tracer.patch(TraceableLoss, "eager_result", "engine.forward")
    tracer.patch(Tensor, "backward", "nn.backward")
    tracer.patch(Adam, "step", "nn.optim")
    tracer.patch(cerl_module, "ipm_distance", "balance.ipm")
    tracer.patch(baseline_module, "ipm_distance", "balance.ipm")
    tracer.patch(MemoryBuffer, "reduce", "memory.herding")
    # Serving: both front doors, the batch execute and the wire encode.
    tracer.patch(ServingGateway, "submit", "serve.gateway.submit")
    tracer.patch(MultiprocGateway, "submit", "serve.fleet.submit")
    tracer.patch(CERL, "predict", "serve.execute", only_thread=BATCHER_THREAD_PREFIX)
    tracer.patch(frontdoor_module, "write_frame_async", "serve.fleet.encode")
    # Lifecycle: drift scoring, calibration, registry I/O and hot swaps.
    tracer.patch(DriftDetector, "score", "monitor.score")
    tracer.patch(DriftDetector, "calibrate", "monitor.calibrate")
    tracer.patch(ModelRegistry, "save", "serve.registry.save")
    tracer.patch(ModelRegistry, "load", "serve.registry.load")
    tracer.patch(PredictionService, "reload", "serve.swap")

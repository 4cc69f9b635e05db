"""Fixed-latency stubs at the backend boundary.

``LatencyPolicy`` and ``LatencyRetriever`` wrap any ``PolicyBackend`` /
``RetrieverBackend``: each call sleeps for a fixed latency, then delegates.
The program only ever sees the two protocols. The stubs count calls per role,
failures, and the in-flight profile (policy and retrieval requests together),
which the correctness gate needs on every run. Distinct requests, waiting time
and the CPU spent inside the delegate are counted only when a tracer is given
(the traced run), so the timed runs carry as little bookkeeping as possible.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Tuple

from ragtree.policy import PolicyBackend, PolicyRequest, PolicyResponse
from ragtree.retrieval import RetrievalRequest, RetrieverBackend
from ragtree.types import Document
from spans import QID

ROLE_NAMES = {
    "termination_decision": "termination",
    "sub_question": "sub_question",
    "self_answer": "self_answer",
    "sub_query": "sub_query",
    "rollout": "rollout",
}


class InflightMonitor:
    """Time-weighted histogram of how many requests are in flight.

    Time is only accumulated between ``start()`` and ``stop()``, so the
    profile covers the program's own calls and not the benchmark's gaps.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._level = 0
        self._last = 0.0
        self._running = False
        self.peak = 0
        self.level_time: Dict[int, float] = {}

    def _advance(self, now: float) -> None:
        if self._running:
            self.level_time[self._level] = self.level_time.get(self._level, 0.0) + now - self._last
        self._last = now

    def start(self) -> None:
        with self._lock:
            self._running = True
            self._last = time.perf_counter()

    def stop(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self._running = False

    def enter(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self._level += 1
            self.peak = max(self.peak, self._level)

    def leave(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self._level -= 1

    def profile(self) -> Dict[str, float]:
        total = sum(self.level_time.values())
        if total <= 0:
            return {"mean": 0.0, "single_share": 0.0, "idle_share": 0.0}
        return {
            "mean": sum(level * t for level, t in self.level_time.items()) / total,
            "single_share": self.level_time.get(1, 0.0) / total,
            "idle_share": self.level_time.get(0, 0.0) / total,
        }


class _Stub:
    def __init__(self, latency_s: float, monitor: InflightMonitor, tracer):
        self.latency_s = latency_s
        self.monitor = monitor
        self.tracer = tracer
        self._lock = threading.Lock()
        self.calls = 0
        self.failed = 0
        self.wait_s = 0.0
        self.busy_s = 0.0
        self._distinct = set()

    def _call(self, span_name: str, key: Tuple, delegate: Callable):
        """Sleep, delegate, and book the call; ``delegate`` takes no arguments.

        When traced, a request is told apart by a 64-bit hash of ``key``
        within its question, the scope a per-build request memo would have;
        the bookkeeping stays inside the stub's own span.
        """
        span = self.tracer.open(span_name) if self.tracer is not None else None
        self.monitor.enter()
        try:
            if span is not None:
                started = time.perf_counter()
                if self.latency_s > 0:
                    time.sleep(self.latency_s)
                waited = time.perf_counter() - started
                cpu_started = time.thread_time()
                result = delegate()
                busy = time.thread_time() - cpu_started
                with self._lock:
                    self.wait_s += waited
                    self.busy_s += busy
                    self._distinct.add((span[QID], hash(key)))
            else:
                if self.latency_s > 0:
                    time.sleep(self.latency_s)
                result = delegate()
            with self._lock:
                self.calls += 1
            return result
        except Exception:
            with self._lock:
                self.calls += 1
                self.failed += 1
            raise
        finally:
            self.monitor.leave()
            if span is not None:
                self.tracer.close(span)

    @property
    def distinct(self) -> int:
        return len(self._distinct)


class LatencyPolicy(_Stub):
    """``PolicyBackend`` that sleeps ``latency_s`` per completion, then delegates."""

    def __init__(self, inner: PolicyBackend, latency_s: float, monitor: InflightMonitor,
                 tracer=None):
        super().__init__(latency_s, monitor, tracer)
        self.inner = inner
        self.calls_by_role = {name: 0 for name in ROLE_NAMES.values()}
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def complete(self, request: PolicyRequest) -> PolicyResponse:
        key = (request.role.value, request.prompt, request.seed, request.temperature,
               request.max_tokens, request.stop)
        response = self._call("policy.complete", key, lambda: self.inner.complete(request))
        with self._lock:
            self.calls_by_role[ROLE_NAMES[request.role.value]] += 1
            self.prompt_tokens += response.prompt_tokens
            self.completion_tokens += response.completion_tokens
        return response


class LatencyRetriever(_Stub):
    """``RetrieverBackend`` that sleeps ``latency_s`` per retrieval, then delegates."""

    def __init__(self, inner: RetrieverBackend, latency_s: float, monitor: InflightMonitor,
                 tracer=None):
        super().__init__(latency_s, monitor, tracer)
        self.inner = inner

    def retrieve(self, request: RetrievalRequest) -> List[Document]:
        key = (request.query, request.top_k)
        return self._call("retrieval.retrieve", key, lambda: self.inner.retrieve(request))

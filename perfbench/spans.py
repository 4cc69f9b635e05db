"""In-memory span tracer, installed around the program's public functions.

Each span records its name, start, end, parent span and question id. Spans
opened in a worker thread that has no open span of its own take as parent the
innermost open span of the thread that opened the outermost span (the batch
or evaluation caller), which is the layer that fanned the work out. Spans stay
in memory until ``write`` is called at the end of the run. A span's self time
is its duration minus the union of its children's intervals, since children
run in parallel threads can overlap.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Record layout: [span_id, parent_id, name, question_id, start, end]
ID, PARENT, NAME, QID, START, END = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._anchor: Optional[list] = None
        self.amounts: Dict[str, int] = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, question_id: Optional[str] = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            anchor = self._anchor
            parent = anchor[-1] if anchor else None
            if anchor is None:
                self._anchor = stack
        if question_id is None and parent is not None:
            question_id = parent[QID]
        with self._lock:
            span = [len(self.spans), None if parent is None else parent[ID], name,
                    question_id, time.perf_counter(), None]
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if not stack and self._anchor is stack:
            self._anchor = None

    def wrap(self, name: str, fn: Callable, question_id: Optional[Callable] = None,
             amount: Optional[Callable] = None) -> Callable:
        """``fn`` run inside a span.

        ``question_id(args)`` names the question, if the arguments carry it;
        ``amount(result)`` is summed into ``amounts[name]``.
        """

        def traced(*args, **kwargs):
            span = self.open(name, question_id(args) if question_id else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if amount is not None:
                with self._lock:
                    self.amounts[name] += amount(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------ analysis

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, summed duration and summed self time."""
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append((span[START], span[END]))
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            start, end = span[START], span[END]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span[ID], ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            entry = totals[span[NAME]]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


class Patches:
    """Swaps attributes for traced wrappers and puts the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, tracer: Tracer, name: str,
             question_id: Optional[Callable] = None, amount: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, question_id, amount))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Trace the layer boundaries that the program calls internally."""
    from ragtree import agent, batch, engine, snapshot

    patches = Patches()
    builder = engine.TreeBuilder
    patches.wrap(builder, "build_tree", tracer, "engine.build_tree", lambda a: a[1].id)
    patches.wrap(builder, "expand_termination", tracer, "engine.expand_termination")
    patches.wrap(builder, "expand_retrieval", tracer, "engine.expand_retrieval")
    patches.wrap(builder, "run_rollout", tracer, "engine.run_rollout")
    patches.wrap(engine, "run_agent", tracer, "agent.run_agent")
    patches.wrap(agent, "run_agent", tracer, "agent.run_agent", lambda a: a[0].id)
    patches.wrap(engine, "render_history", tracer, "history.render_history", amount=len)
    patches.wrap(agent, "render_history", tracer, "history.render_history", amount=len)
    patches.wrap(engine, "score_answer", tracer, "metrics.score_answer")
    patches.wrap(agent, "exact_match", tracer, "metrics.exact_match")
    patches.wrap(agent, "f1_score", tracer, "metrics.f1_score")
    patches.wrap(batch, "build_result_to_dict", tracer, "snapshot.encode", lambda a: a[0].question.id)
    patches.wrap(batch, "save_snapshot", tracer, "snapshot.save_snapshot")
    patches.wrap(snapshot, "dumps_snapshot", tracer, "snapshot.encode")
    return patches

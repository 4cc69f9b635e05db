"""The benchmark harness still runs against this checkout and passes its gate.

``perfbench`` imports and patches names across the program (the four
``TreeBuilder`` methods, ``engine.run_agent`` / ``render_history`` /
``score_answer``, ``batch.build_result_to_dict``, ``expand_batch``), checks
that traced and untraced runs write identical bytes, and checks the
closed-form counts. Short runs of both workloads, one of them traced,
exercise all of that in a fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that only the spans around the four TreeBuilder methods feed.
ENGINE_SPAN_METRICS = ("engine.build_s", "engine.termination_s", "engine.retrieval_s",
                       "engine.rollout_s")


def run_bench(workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # The gate includes byte-identical traced and untraced outputs when traced.
    assert result["correct"] is True, proc.stderr
    assert not (ROOT / ".perfbench_work").exists()
    return result


def test_pruning_wait_smoke_run_passes_the_gate():
    run_bench("pruning_wait", trace=0)


def test_evaluate_wait_smoke_run_passes_the_gate():
    run_bench("evaluate_wait", trace=0)


def test_traced_pruning_wait_smoke_run_passes_the_gate():
    metrics = run_bench("pruning_wait", trace=1)["metrics"]
    for name in ENGINE_SPAN_METRICS:
        assert metrics[name]["value"] > 0, name


def test_perfbench_patches_the_engine_and_the_snapshot_encoder(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    from ragtree import batch
    from ragtree.engine import TreeBuilder

    patches = spans.install(spans.Tracer())
    try:
        for method in ("build_tree", "expand_termination", "expand_retrieval", "run_rollout"):
            assert hasattr(getattr(TreeBuilder, method), "__wrapped__"), method
        assert hasattr(batch.build_result_to_dict, "__wrapped__")
    finally:
        patches.restore()
    assert not hasattr(TreeBuilder.build_tree, "__wrapped__")
    assert not hasattr(batch.build_result_to_dict, "__wrapped__")

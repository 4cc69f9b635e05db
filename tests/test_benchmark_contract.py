"""The benchmark harness still runs against this checkout and passes its gate.

``perfbench`` imports and patches names across the program (the four
``TreeBuilder`` methods, ``engine.run_agent`` / ``render_history`` /
``score_answer``, ``expand_batch``), checks that traced and untraced runs
write identical bytes, and checks the closed-form counts. A short
``pruning_wait`` run exercises all of that in a fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pruning_wait_smoke_run_passes_the_gate():
    argv = ["--workload", "pruning_wait", "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert not (ROOT / ".perfbench_work").exists()

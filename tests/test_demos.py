"""The shipped demos run end to end against the public ``TreeBuilder`` surface.

Each demo runs in a fresh interpreter, as a user would start it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demos_run_and_strategy_costs_close():
    assert "final answer: 'beta'" in run_demo("expand_and_export.py")

    rows = {}
    for line in run_demo("strategy_costs.py").splitlines():
        fields = line.split()
        if fields and fields[0] in ("pruning", "no_pruning", "full_node"):
            rows[fields[0]] = (int(fields[2]), int(fields[3]))
    assert rows == {"pruning": (624, 624), "no_pruning": (4680, 4680), "full_node": (576, 576)}

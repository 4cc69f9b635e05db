"""Offline runs never load the HTTP stack.

Each probe runs in a fresh interpreter, because this test session's
``sys.modules`` already holds whatever any other test imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

OFFLINE_RUN = """
import json, sys

HTTP_STACK = ("requests", "urllib3")

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in HTTP_STACK)

preloaded = loaded()

import ragtree, ragtree.cli
from ragtree.agent import evaluate_dataset
from ragtree.config import (
    PolicySettings, RetrieverSettings, RunConfig, build_policy_backend, build_retriever_backend,
)
from ragtree.engine import ExpansionConfig, TreeBuilder
from ragtree.export import export_dpo, export_sft
from ragtree.snapshot import build_result_to_dict, snapshot_from_dict
from ragtree.types import Question

question = Question(id="g1", text="what follows alpha?", gold_answers=("beta",))
config = RunConfig(
    expansion=ExpansionConfig(k=2, n=1, t_max=2),
    policy=PolicySettings(kind="scripted"),
    retriever=RetrieverSettings(kind="lexical"),
)
policy = build_policy_backend(config, [question])
retriever = build_retriever_backend(config)
result = TreeBuilder(policy, retriever, config.expansion).build_tree(question)
snapshot = snapshot_from_dict(build_result_to_dict(result))
export_sft(snapshot)
export_dpo(snapshot)
report = evaluate_dataset([question], policy, retriever)
assert report.n == 1 and report.failures == 0, report
offline = loaded()

# An HTTP backend still loads the stack on its first request.
from ragtree.errors import BackendUnavailable
from ragtree.retrieval import HttpRetrieverBackend, RetrievalRequest

backend = HttpRetrieverBackend("http://127.0.0.1:9", max_retries=0, timeout=0.2)
try:
    backend.retrieve(RetrievalRequest(query="gamma"))
except BackendUnavailable:
    pass
print(json.dumps({"preloaded": preloaded, "offline": offline, "http": loaded()}))
"""


def run_probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", OFFLINE_RUN],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_offline_run_never_imports_the_http_stack():
    modules = run_probe()
    assert modules["preloaded"] == [], "the interpreter loads the HTTP stack before ragtree"
    assert modules["offline"] == [], "an offline run imported the HTTP stack"
    assert "requests" in modules["http"]

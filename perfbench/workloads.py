"""The workloads, their correctness gate, and the metrics they report.

Each workload is a closed loop: one caller hands the program a generated
dataset (a batch), waits for it to finish, then hands it the next, until the
run's time is spent. Expand workloads drive ``expand_batch`` the way
``ragtree expand`` does, then the ``export-sft`` and ``export-dpo`` paths over
the batch's snapshots; the evaluation workload drives ``evaluate_dataset`` the
way ``ragtree evaluate`` does. Backends are the built-in scripted policy and
lexical retriever behind the fixed-latency stubs of ``backends``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ragtree.agent import evaluate_dataset
from ragtree.batch import Manifest, expand_batch
from ragtree.config import (
    PolicySettings,
    RetrieverSettings,
    RunConfig,
    build_policy_backend,
    build_retriever_backend,
    build_templates,
    load_dataset,
)
from ragtree.engine import ExpansionConfig, TreeBuilder, theoretical_counts
from ragtree.export import export_dpo, export_sft, write_dpo_jsonl, write_sft_jsonl
from ragtree.history import render_chain, serialize_state
from ragtree.snapshot import load_snapshot

import spans
from backends import InflightMonitor, LatencyPolicy, LatencyRetriever
from inputs import make_batch, write_dataset

# The closed-form regime: k candidates, n rollouts, depth l, k termination
# votes and fixed-horizon rollouts. The paper's counts at k=3, n=4.
K, N, DEPTH, FULL_NODE_DEPTH = 3, 4, 4, 2
EXPECTED_COUNTS = {"pruning": 624, "no_pruning": 4680, "full_node": 576}
DPO_MARGIN = 0.1  # the export-dpo default
MAX_INFLIGHT = 2  # nproc of the reference machine
SETUP_REPEATS = 5


class GateError(Exception):
    """The program's output failed the benchmark's correctness gate."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: Optional[str]  # None: evaluation, no tree engine
    batch_size: int
    policy_latency_s: float
    retrieval_latency_s: float
    rollout_concurrency: int


# ``no_pruning_cpu`` runs, but BENCHMARK.json does not list it: it is
# CPU-bound, and on a shared 2-vCPU host its times spread 18-45% between
# runs, more than any bound the benchmark may set (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pruning_wait", "pruning", 2, 0.002, 0.001, 2),
        Workload("evaluate_wait", None, 100, 0.002, 0.001, 1),
        Workload("no_pruning_cpu", "no_pruning", 2, 0.0, 0.0, 1),
    )
}


def run_config(workload: Workload, strategy: Optional[str] = None, depth: int = DEPTH) -> RunConfig:
    """The run config a user would pass to ``ragtree expand`` / ``evaluate``.

    One batch worker: the rollout pool is the only fan-out, so at most
    ``rollout_concurrency`` requests are in flight.
    """
    if workload.strategy is None:
        expansion = ExpansionConfig()
    else:
        expansion = ExpansionConfig(
            k=K,
            n=N,
            t_max=depth,
            strategy=strategy or workload.strategy,
            majority_samples=K,
            rollout_cap="fixed",
            concurrency=workload.rollout_concurrency,
        )
    return RunConfig(
        expansion=expansion,
        policy=PolicySettings(kind="scripted"),
        retriever=RetrieverSettings(kind="lexical"),
        concurrency=1,
    )


class Backends:
    """One pair of latency stubs that outlives the per-batch scripted backends."""

    def __init__(self, workload: Workload, tracer=None, latency: bool = True):
        self.monitor = InflightMonitor()
        self.policy = LatencyPolicy(
            None, workload.policy_latency_s if latency else 0.0, self.monitor, tracer
        )
        self.retriever = LatencyRetriever(
            None, workload.retrieval_latency_s if latency else 0.0, self.monitor, tracer
        )

    def load(self, config: RunConfig, questions) -> None:
        """Build the program's backends for one dataset, as ``ragtree expand`` does."""
        self.policy.inner = build_policy_backend(config, questions)
        self.retriever.inner = build_retriever_backend(config)


# --------------------------------------------------------------------- a batch


@dataclass
class BatchResult:
    index: int
    questions: list
    wall_s: float
    cpu_s: float
    export_wall_s: float
    out_dir: Path
    manifest: Optional[Manifest] = None
    report: Optional[dict] = None


class Runner:
    """Runs batches of one workload under one set of stubs, optionally traced."""

    def __init__(self, workload: Workload, seed: int, work: Path, tracer=None, latency=True):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.backends = Backends(workload, tracer, latency)
        self.config = run_config(workload)
        self.templates = build_templates(self.config)
        self.history = self.config.history_template()

    def _fn(self, name: str, fn):
        return self.tracer.wrap(name, fn) if self.tracer is not None else fn

    def dataset(self, index: int) -> Path:
        path = self.work / "data" / f"batch{index:03d}.jsonl"
        if not path.exists():
            records = make_batch(self.seed, index, self.workload.batch_size, self.workload.name)
            write_dataset(records, path)
        return path

    def run_batch(self, index: int, out_dir: Path) -> BatchResult:
        questions = load_dataset(str(self.dataset(index)))
        self.backends.load(self.config, questions)
        if self.workload.strategy is None:
            return self._evaluate(index, questions, out_dir)
        return self._expand(index, questions, out_dir)

    def _expand(self, index: int, questions, out_dir: Path) -> BatchResult:
        policy, retriever = self.backends.policy, self.backends.retriever
        config, templates, history = self.config, self.templates, self.history

        def builder_factory() -> TreeBuilder:
            return TreeBuilder(policy, retriever, config.expansion, templates, history)

        snapshots = out_dir / "snapshots"
        monitor = self.backends.monitor
        monitor.start()
        started, cpu_started = time.perf_counter(), time.process_time()
        manifest = self._fn("batch.expand_batch", expand_batch)(
            questions, builder_factory, str(snapshots), resume=config.resume,
            concurrency=config.concurrency,
        )
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
        monitor.stop()

        started = time.perf_counter()
        self.export(snapshots, out_dir / "sft.jsonl", out_dir / "dpo.jsonl")
        export_wall = time.perf_counter() - started
        return BatchResult(index, questions, wall, cpu, export_wall, out_dir, manifest=manifest)

    def export(self, snapshots: Path, sft_out: Path, dpo_out: Path) -> None:
        """``ragtree export-sft`` then ``ragtree export-dpo``, with CLI defaults."""
        load = self._fn("snapshot.load_snapshot", load_snapshot)
        files = sorted(p for p in snapshots.glob("*.json") if p.name != "manifest.json")
        examples = []
        for path in files:
            snapshot = load(str(path))
            if snapshot.failure is None:
                examples.extend(self._fn("export.export_sft", export_sft)(snapshot))
        self._fn("export.write_sft_jsonl", write_sft_jsonl)(examples, str(sft_out))
        pairs = []
        for path in files:
            pairs.extend(self._fn("export.export_dpo", export_dpo)(load(str(path)), margin=DPO_MARGIN))
        self._fn("export.write_dpo_jsonl", write_dpo_jsonl)(pairs, str(dpo_out))

    def _evaluate(self, index: int, questions, out_dir: Path) -> BatchResult:
        monitor = self.backends.monitor
        monitor.start()
        started, cpu_started = time.perf_counter(), time.process_time()
        # The defaults of ``ragtree evaluate``.
        report = self._fn("agent.evaluate_dataset", evaluate_dataset)(
            questions,
            self.backends.policy,
            self.backends.retriever,
            dataset_name=f"batch{index:03d}",
            templates=self.templates,
            history_template=self.history,
            max_steps=8,
            max_searches=4,
            top_k=self.config.expansion.top_k,
            temperature=0.0,
            seed=self.config.expansion.seed,
        )
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
        monitor.stop()
        # Evaluation exports nothing, so it has no export time.
        return BatchResult(index, questions, wall, cpu, 0.0, out_dir,
                           report=report.to_dict(include_items=True))


def set_up(name: str, dataset: Path) -> Runner:
    """What a run does before its first batch: load the dataset, build backends and a builder."""
    runner = Runner(WORKLOADS[name], 0, dataset.parent)
    questions = load_dataset(str(dataset))
    runner.backends.load(runner.config, questions)
    if runner.workload.strategy is not None:
        TreeBuilder(runner.backends.policy, runner.backends.retriever, runner.config.expansion,
                    runner.templates, runner.history)
    return runner


# --------------------------------------------------------------------- gate


def check_expand_batch(result: BatchResult, strategy: str) -> None:
    """Closed-form counts per question and the SFT / DPO export contracts."""
    expected = EXPECTED_COUNTS[strategy]
    for item in result.manifest.items:
        require(item.status == "ok", f"{item.question_id}: {item.status} ({item.error})")
        logical = item.ledger["policy_calls"] + item.ledger["rollout_calls"]
        require(logical == expected, f"{item.question_id}: count {logical} != {expected}")

    sft = _read_jsonl(result.out_dir / "sft.jsonl")
    dpo = _read_jsonl(result.out_dir / "dpo.jsonl")
    for question in result.questions:
        snapshot = load_snapshot(str(result.out_dir / "snapshots" / f"{question.id}.json"))
        text = render_chain(snapshot.trunk.final_state)[0]
        examples = [r for r in sft if r["id"] == question.id]
        require(bool(examples), f"{question.id}: no SFT segments")
        require([r["segment"] for r in examples] == list(range(len(examples))),
                f"{question.id}: SFT segments out of order")
        require(examples[-1]["input"] + examples[-1]["output"] == text,
                f"{question.id}: SFT segments do not concatenate to the chain")
        for r in examples:
            require(text.startswith(r["input"] + r["output"]), f"{question.id}: SFT segment off the chain")

        prefixes = set()
        for chain in snapshot.chains:
            for node in chain.nodes:
                prefix = serialize_state(node.state)
                prefixes.add(prefix)
                for candidate in node.sub_question_candidates:
                    if candidate.retained:
                        prefixes.add(prefix + f"Sub-question {node.layer}: {candidate.content}\n")
        pairs = [r for r in dpo if r["id"] == question.id]
        require(bool(pairs), f"{question.id}: no DPO pairs")
        for r in pairs:
            require(r["chosen_reward"] - r["rejected_reward"] >= DPO_MARGIN,
                    f"{question.id}: DPO pair under the margin")
            require(r["prompt"] in prefixes, f"{question.id}: DPO prompt is not a state prefix")
        again = [p.to_dict() for p in export_dpo(snapshot, margin=DPO_MARGIN)]
        require(again == pairs, f"{question.id}: DPO re-export differs from the written pairs")


def check_evaluate_batch(result: BatchResult) -> None:
    report = result.report
    require(report["failures"] == 0, f"batch {result.index}: {report['failures']} failed episodes")
    require(report["em"] == 1.0, f"batch {result.index}: EM {report['em']} != 1.0")


def check_closed_forms(work: Path) -> None:
    """One untimed question per strategy reproduces the paper's count.

    The full_node count is the leaf-node count of the snapshot ledger (the
    manifest ledger leaves it out). That snapshot is not exported:
    ``export_sft`` raises on a snapshot without a chain.
    """
    for strategy, depth in (("pruning", DEPTH), ("no_pruning", DEPTH), ("full_node", FULL_NODE_DEPTH)):
        config = run_config(WORKLOADS["pruning_wait"], strategy, depth)
        expected = EXPECTED_COUNTS[strategy]
        require(theoretical_counts(config.expansion, depth, strategy) == expected,
                f"theoretical_counts({strategy}) no longer gives {expected}")
        path = work / strategy / "dataset.jsonl"
        write_dataset(make_batch(0, 0, 1, strategy), path)
        questions = load_dataset(str(path))
        policy = build_policy_backend(config, questions)
        retriever = build_retriever_backend(config)
        out = work / strategy / "snapshots"
        expand_batch(questions, lambda: TreeBuilder(policy, retriever, config.expansion), str(out))
        ledger = json.loads((out / f"{questions[0].id}.json").read_text(encoding="utf-8"))["ledger"]
        require(ledger is not None, f"{strategy}: the untimed question failed")
        if strategy == "full_node":
            measured = ledger["leaf_nodes"]
        else:
            measured = ledger["policy_calls"] + ledger["rollout_calls"]
        require(measured == expected, f"{strategy}: count {measured} != {expected}")


def check_batches(workload: Workload, results: List[BatchResult], backends: Backends) -> None:
    for result in results:
        if workload.strategy is None:
            check_evaluate_batch(result)
        else:
            check_expand_batch(result, workload.strategy)
    require(backends.monitor.peak <= MAX_INFLIGHT,
            f"{backends.monitor.peak} requests in flight, bound is {MAX_INFLIGHT}")
    require(backends.policy.failed == 0 and backends.retriever.failed == 0, "backend calls failed")


def same_outputs(a: BatchResult, b: BatchResult) -> bool:
    """Byte-identical snapshots and exports, or equal evaluation items."""
    if a.report is not None:
        return a.report["items"] == b.report["items"]
    files = [Path("snapshots") / f"{q.id}.json" for q in a.questions] + ["sft.jsonl", "dpo.jsonl"]
    return all((a.out_dir / f).read_bytes() == (b.out_dir / f).read_bytes() for f in files)


# --------------------------------------------------------------------- metrics


def time_setup(root: Path, workload: Workload, dataset: Path) -> float:
    """Seconds a fresh interpreter spends on a run's set-up, as it reports them."""
    probe = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run(
        [sys.executable, str(probe), str(root), workload.name, str(dataset)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results: List[BatchResult], backends: Backends, setup_s: float, rss_mb: float,
               attempted: int, failed: int) -> Dict[str, dict]:
    # Only figures dominated by backend waiting, counts and memory are
    # end to end. The host's speed drifts by a quarter over seconds to
    # minutes, so pure CPU times (export throughput, CPU per question) spread
    # between runs as far as the widest bound allows; they are per-layer
    # metrics instead. Throughput is a total, which averages a run's fast and
    # slow stretches more steadily than a median of batches.
    questions = sum(len(r.questions) for r in results)
    values = {
        "setup_s": (setup_s, "s"),
        "questions_per_s": (questions / sum(r.wall_s for r in results), "q/s"),
        "policy_calls_per_question": (backends.policy.calls / questions, "count"),
        "retrieval_calls_per_question": (backends.retriever.calls / questions, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(tracer: spans.Tracer, backends: Backends, results: List[BatchResult],
              untraced: List[BatchResult], overhead: float) -> Dict[str, dict]:
    questions = sum(len(r.questions) for r in results)
    # CPU and export times come from the untraced pass, which spans do not slow.
    untraced_questions = sum(len(r.questions) for r in untraced)
    export_wall = sum(r.export_wall_s for r in untraced)
    totals = tracer.totals()
    policy, retriever = backends.policy, backends.retriever
    profile = backends.monitor.profile()

    def span(name: str, key: str = "total_s") -> float:
        return totals[name][key] if name in totals else 0.0

    def per_q(value: float) -> float:
        return value / questions

    engine_spans = ("engine.build_tree", "engine.expand_termination", "engine.expand_retrieval",
                    "engine.run_rollout")
    score_spans = ("metrics.score_answer", "metrics.exact_match", "metrics.f1_score")
    logical = expansion = 0
    snapshot_bytes = sft_records = dpo_pairs = 0
    for r in results:
        if r.manifest is not None:
            for item in r.manifest.items:
                ledger = item.ledger
                expansion += ledger["policy_calls"] + ledger["rollout_calls"]
                logical += ledger["policy_calls"] + ledger["rollout_calls"] + ledger["finalize_calls"]
            snapshot_bytes += sum(
                (r.out_dir / "snapshots" / f"{q.id}.json").stat().st_size for q in r.questions
            )
            sft_records += len(_read_jsonl(r.out_dir / "sft.jsonl"))
            dpo_pairs += len(_read_jsonl(r.out_dir / "dpo.jsonl"))

    metrics = {
        "process.cpu_s": (sum(r.cpu_s for r in untraced) / untraced_questions, "s"),
        "export.questions_per_s": (untraced_questions / export_wall if export_wall else 0.0, "q/s"),
        "policy.calls": (per_q(policy.calls), "count"),
        **{
            f"policy.calls.{role}": (per_q(count), "count")
            for role, count in policy.calls_by_role.items()
        },
        "policy.distinct_requests": (per_q(policy.distinct), "count"),
        "policy.wait_s": (per_q(policy.wait_s), "s"),
        "retrieval.wait_s": (per_q(retriever.wait_s), "s"),
        "backend.mean_inflight": (profile["mean"], "count"),
        "backend.peak_inflight": (backends.monitor.peak, "count"),
        "backend.single_inflight_share": (profile["single_share"], "ratio"),
        "backend.idle_share": (profile["idle_share"], "ratio"),
        "policy.busy_s": (per_q(policy.busy_s), "s"),
        "retrieval.busy_s": (per_q(retriever.busy_s), "s"),
        "policy.prompt_tokens": (per_q(policy.prompt_tokens), "count"),
        "policy.completion_tokens": (per_q(policy.completion_tokens), "count"),
        "policy.failed": (per_q(policy.failed), "count"),
        "retrieval.calls": (per_q(retriever.calls), "count"),
        "retrieval.distinct_queries": (per_q(retriever.distinct), "count"),
        "retrieval.failed": (per_q(retriever.failed), "count"),
        "engine.expansion_count": (per_q(expansion), "count"),
        "engine.logical_calls": (per_q(logical), "count"),
        "engine.build_s": (per_q(span("engine.build_tree")), "s"),
        "engine.termination_s": (per_q(span("engine.expand_termination")), "s"),
        "engine.retrieval_s": (per_q(span("engine.expand_retrieval")), "s"),
        "engine.rollout_s": (per_q(span("engine.run_rollout")), "s"),
        "engine.self_s": (per_q(sum(span(n, "self_s") for n in engine_spans)), "s"),
        "agent.episodes": (per_q(span("agent.run_agent", "count")), "count"),
        "agent.steps": (per_q(policy.calls_by_role["rollout"]), "count"),
        "agent.self_s": (per_q(span("agent.run_agent", "self_s")), "s"),
        "history.renders": (per_q(span("history.render_history", "count")), "count"),
        "history.render_s": (per_q(span("history.render_history")), "s"),
        "history.prompt_chars": (per_q(tracer.amounts["history.render_history"]), "count"),
        "metrics.score_calls": (per_q(sum(span(n, "count") for n in score_spans)), "count"),
        "metrics.score_s": (per_q(sum(span(n) for n in score_spans)), "s"),
        "batch.self_s": (per_q(span("batch.expand_batch", "self_s")), "s"),
        "snapshot.bytes_per_question": (per_q(snapshot_bytes), "B"),
        "snapshot.encode_s": (per_q(span("snapshot.encode")), "s"),
        "snapshot.write_s": (per_q(span("snapshot.save_snapshot", "self_s")), "s"),
        "snapshot.decode_s": (per_q(span("snapshot.load_snapshot")), "s"),
        "export.sft_records": (per_q(sft_records), "count"),
        "export.dpo_pairs": (per_q(dpo_pairs), "count"),
        "export.sft_s": (per_q(span("export.export_sft")), "s"),
        "export.dpo_s": (per_q(span("export.export_dpo")), "s"),
        "export.write_s": (per_q(span("export.write_sft_jsonl") + span("export.write_dpo_jsonl")), "s"),
        "trace.overhead_share": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _read_jsonl(path: Path) -> List[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# --------------------------------------------------------------------- runs


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workload = WORKLOADS[name]
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    outputs = root / ".perfbench_out"
    counters = {"attempted": 0, "failed": 0}
    try:
        if trace:
            metrics = _traced_run(workload, seed, seconds, root, work, outputs, counters)
        else:
            metrics = _timed_run(workload, seed, seconds, root, work, counters)
        correct = True
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    finally:
        _remove(work)
    return {"correct": correct, "attempted": max(1, counters["attempted"]),
            "failed": counters["failed"], "metrics": metrics}


def _count(results: List[BatchResult], counters: Dict[str, int]) -> None:
    counters["attempted"] = sum(len(r.questions) for r in results)
    failed = 0
    for r in results:
        if r.manifest is not None:
            failed += r.manifest.counts["failed"]
        else:
            failed += r.report["failures"]
    counters["failed"] = failed


def _batches(runner: Runner, label: str, seconds: Optional[float] = None, indices=None,
             between=None) -> List[BatchResult]:
    """Batches until ``seconds`` of batch time are spent, or exactly ``indices``.

    ``between(spent)`` runs before each batch, outside the batch's time.
    """
    results = []
    spent = 0.0
    while True:
        if indices is not None:
            if len(results) == len(indices):
                break
            batch = indices[len(results)]
        else:
            if results and spent >= seconds:
                break
            batch = len(results)
        runner.dataset(batch)  # generated outside the timed region
        if between is not None:
            between(spent)
        started = time.perf_counter()
        results.append(runner.run_batch(batch, runner.work / label / f"batch{batch:03d}"))
        spent += time.perf_counter() - started
    return results


def _timed_run(workload, seed, seconds, root, work, counters) -> Dict[str, dict]:
    runner = Runner(workload, seed, work)

    # Set-up probes are spread over the run, between batches, so that their
    # median samples the same mix of host speeds as the batches do.
    setup_times = []

    def probe(spent: float) -> None:
        if len(setup_times) < SETUP_REPEATS and spent >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(time_setup(root, workload, runner.dataset(0)))

    results = _batches(runner, "timed", seconds, between=probe)
    rss = peak_rss_mb()
    while len(setup_times) < SETUP_REPEATS:
        probe(seconds)
    _count(results, counters)
    check_batches(workload, results, runner.backends)
    check_closed_forms(work)

    # The traced path must write the same bytes as the timed one.
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        again = Runner(workload, seed, work, tracer, latency=False).run_batch(0, work / "retraced")
    finally:
        patches.restore()
    require(same_outputs(results[0], again), "traced run wrote different outputs than the timed run")

    setup_s = statistics.median(setup_times)
    return end_to_end(results, runner.backends, setup_s, rss, counters["attempted"], counters["failed"])


def _traced_run(workload, seed, seconds, root, work, outputs, counters) -> Dict[str, dict]:
    plain = Runner(workload, seed, work)
    untraced = _batches(plain, "untraced", seconds / 2)

    tracer = spans.Tracer()
    runner = Runner(workload, seed, work, tracer)
    patches = spans.install(tracer)
    try:
        traced = _batches(runner, "traced", indices=[r.index for r in untraced])
    finally:
        patches.restore()
    tracer.write(outputs / f"trace-{workload.name}.jsonl")

    _count(traced, counters)
    check_batches(workload, untraced, plain.backends)
    check_batches(workload, traced, runner.backends)
    check_closed_forms(work)
    for a, b in zip(untraced, traced):
        require(same_outputs(a, b), f"batch {a.index}: traced outputs differ from untraced ones")

    def wall(results):
        return sum(r.wall_s + r.export_wall_s for r in results)

    overhead = wall(traced) / wall(untraced) - 1.0
    return per_layer(tracer, runner.backends, traced, untraced, overhead)


def _remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = path.parent
    if parent.exists() and not any(parent.iterdir()):
        parent.rmdir()

"""CLI and batch orchestration: expand/resume, exports, bench CSV, evaluate."""

from __future__ import annotations

import csv
import itertools
import json
import re
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from ragtree import cli
from ragtree.batch import expand_batch, snapshot_path
from ragtree.cli import main
from ragtree.engine import BuildResult, ExpansionConfig, TreeBuilder, theoretical_counts
from ragtree.errors import BackendUnavailable, ConfigurationError, DatasetError
from ragtree.policy import PolicyRequest, ScriptedPolicyBackend
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.snapshot import build_result_to_dict, save_snapshot
from ragtree.templates import PolicyRole
from ragtree.types import Question


def write_dataset(tmp_path, n=3):
    path = tmp_path / "questions.jsonl"
    lines = [
        json.dumps(
            {"id": f"q{i}", "question": f"what is probe number {i}?", "golden_answers": [f"fact {i}"]}
        )
        for i in range(n)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_config(tmp_path, **expansion_overrides):
    expansion = {
        "k": 2,
        "n": 1,
        "t_max": 2,
        "majority_samples": 2,
        "rollout_cap": "fixed",
        **expansion_overrides,
    }
    config = {
        "expansion": expansion,
        "policy": {"kind": "scripted"},
        "retriever": {"kind": "lexical"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def forbid_backends(monkeypatch):
    """Make building either backend fail the test: a refused command calls neither."""

    def no_backend(*args, **kwargs):
        raise AssertionError("a backend was built")

    monkeypatch.setattr(cli, "build_policy_backend", no_backend)
    monkeypatch.setattr(cli, "build_retriever_backend", no_backend)


def _trunk_node(record, **changes):
    record["chains"][0]["nodes"][0].update(changes)
    return record


def _reward_as_string(record):
    record["chains"][0]["nodes"][0]["sub_question_candidates"][0]["reward"] = "0.5"
    return record


# Snapshot edits that give a value the wrong type or length, or add a key the
# program never writes.
MALFORMED = {
    "reward-string": _reward_as_string,
    "layer-string": lambda record: _trunk_node(record, layer="1"),
    "probe-string": lambda record: _trunk_node(record, terminate_probe="x"),
    "probe-short": lambda record: _trunk_node(record, terminate_probe=["x"]),
    "node-unknown-key": lambda record: _trunk_node(record, bogus=1),
    "config-unknown-key": lambda record: {**record, "config": {**record["config"], "bogus": 1}},
}


class TestExpandCommand:
    def test_batch_writes_snapshots_and_manifest(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        config = write_config(tmp_path)
        out = tmp_path / "snapshots"
        code = main(["expand", "--dataset", dataset, "--config", config, "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.glob("*.json"))
        assert files == ["manifest.json", "q0.json", "q1.json", "q2.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"ok": 3, "failed": 0, "skipped": 0}
        assert [item["status"] for item in manifest["items"]] == ["ok", "ok", "ok"]

    def test_rerun_with_resume_skips_everything(self, tmp_path):
        dataset = write_dataset(tmp_path)
        config = write_config(tmp_path)
        out = tmp_path / "snapshots"
        assert main(["expand", "--dataset", dataset, "--config", config, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.glob("q*.json")}
        assert main(["expand", "--dataset", dataset, "--config", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"ok": 0, "failed": 0, "skipped": 3}
        after = {p.name: p.read_bytes() for p in out.glob("q*.json")}
        assert before == after

    def test_failed_question_recorded_and_exit_nonzero(self, tmp_path):
        dataset = write_dataset(tmp_path, n=2)
        out = tmp_path / "snapshots"

        def sub_question(request: PolicyRequest) -> str:
            if "probe number 1" in request.prompt:
                return "never a tag"
            return f"<question> probe {request.seed} </question>"

        base = make_bench_policy({}, rollout_searches=1)
        handlers = dict(base.handlers)
        handlers[PolicyRole.SUB_QUESTION] = sub_question
        policy = ScriptedPolicyBackend(handlers)
        questions = [
            Question(id="q0", text="what is probe number 0?", gold_answers=("fact 0",)),
            Question(id="q1", text="what is probe number 1?", gold_answers=("fact 1",)),
        ]
        cfg = ExpansionConfig(k=2, n=1, t_max=1, majority_samples=1, malformed_retries=0)
        manifest = expand_batch(
            questions,
            lambda: TreeBuilder(policy, make_bench_retriever(), cfg),
            str(out),
            resume=False,
        )
        assert manifest.counts == {"ok": 1, "failed": 1, "skipped": 0}
        failed = json.loads((out / "q1.json").read_text())
        assert failed["failure"]["reason"]
        assert failed["chains"] == []

    def test_resume_reexpands_a_failed_snapshot(self, tmp_path):
        questions = [
            Question(id="q0", text="what is probe number 0?", gold_answers=("fact 0",)),
            Question(id="q1", text="what is probe number 1?", gold_answers=("fact 1",)),
        ]
        healthy = make_bench_policy({q.text: q.gold_answers[0] for q in questions})
        handlers = dict(healthy.handlers)
        handlers[PolicyRole.SUB_QUESTION] = lambda request: (
            "never a tag" if "probe number 1" in request.prompt
            else healthy.handlers[PolicyRole.SUB_QUESTION](request)
        )
        broken = ScriptedPolicyBackend(handlers)
        cfg = ExpansionConfig(k=2, n=1, t_max=1, majority_samples=1)
        out = str(tmp_path / "snapshots")

        retriever = make_bench_retriever()
        first = expand_batch(questions, lambda: TreeBuilder(broken, retriever, cfg), out)
        assert [i.status for i in first.items] == ["ok", "failed"]

        again = expand_batch(questions, lambda: TreeBuilder(healthy, retriever, cfg), out)
        assert [i.status for i in again.items] == ["skipped", "ok"]
        assert json.loads(snapshot_path(out, "q1").read_text())["failure"] is None

    def test_resume_makes_zero_backend_calls(self, tmp_path):
        questions = [
            Question(id="q0", text="what is probe number 0?", gold_answers=("fact 0",)),
            Question(id="q1", text="what is probe number 1?", gold_answers=("fact 1",)),
        ]
        policy = make_bench_policy(
            {q.text: q.gold_answers[0] for q in questions}, rollout_searches=0
        )
        retriever = make_bench_retriever()
        cfg = ExpansionConfig(k=2, n=1, t_max=1, majority_samples=1)
        out = str(tmp_path / "snapshots")

        expand_batch(questions, lambda: TreeBuilder(policy, retriever, cfg), out, resume=True)
        calls_after_first = sum(policy.calls_by_role.values())
        assert calls_after_first > 0

        manifest = expand_batch(
            questions, lambda: TreeBuilder(policy, retriever, cfg), out, resume=True
        )
        assert sum(policy.calls_by_role.values()) == calls_after_first
        assert manifest.counts["skipped"] == 2

    def test_resume_reexpands_a_snapshot_built_with_other_settings(self, tmp_path):
        dataset = write_dataset(tmp_path, n=1)
        config = write_config(tmp_path)
        out = tmp_path / "snapshots"
        argv = ["expand", "--dataset", dataset, "--config", config, "--out", str(out)]
        assert main(argv + ["--k", "2"]) == 0
        assert main(argv + ["--k", "3", "--resume"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [item["status"] for item in manifest["items"]] == ["ok"]
        assert json.loads((out / "q0.json").read_text())["config"]["k"] == 3
        assert main(argv + ["--k", "3", "--resume"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [item["status"] for item in manifest["items"]] == ["skipped"]

    @pytest.mark.parametrize(
        "changes", [{"question": "who wrote beta?"}, {"golden_answers": ["sappho"]}],
        ids=["text", "golds"],
    )
    def test_resume_reexpands_a_snapshot_of_another_question(self, tmp_path, changes):
        """A dataset edit that keeps a question's id but changes its text or its gold
        answers makes the old snapshot another question's: resume expands it again."""
        dataset = Path(write_dataset(tmp_path, n=1))
        out = tmp_path / "snapshots"
        argv = ["expand", "--dataset", str(dataset), "--config", write_config(tmp_path),
                "--out", str(out)]
        assert main(argv) == 0
        record = {**json.loads(dataset.read_text(encoding="utf-8")), **changes}
        dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [item["status"] for item in manifest["items"]] == ["ok"]
        question = json.loads((out / "q0.json").read_text())["question"]
        assert question == {"id": "q0", "text": record["question"],
                            "gold_answers": record["golden_answers"]}

    def test_resume_keeps_the_ledger_totals(self, tmp_path):
        dataset = write_dataset(tmp_path, n=1)
        config = write_config(tmp_path, n=2)
        out = tmp_path / "snapshots"
        argv = ["expand", "--dataset", dataset, "--config", config, "--out", str(out)]
        manifests = []
        for _ in range(2):
            assert main(argv) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        first, second = manifests
        assert [item["status"] for item in second["items"]] == ["skipped"]
        assert first["ledger_totals"]["policy_calls"] > 0
        assert second["ledger_totals"] == first["ledger_totals"]
        assert second["items"][0]["ledger"] == first["items"][0]["ledger"]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda record: [],
            lambda record: "x",
            lambda record: {**record, "question": "q0"},
            lambda record: {**record, "ledger": None},
            lambda record: {**record, "ledger": {"policy_calls": 1}},
            lambda record: {**record, "schema_version": 3},
            *MALFORMED.values(),
        ],
        ids=["list", "string", "question-not-object", "ledger-null", "ledger-short",
             "schema-3", *MALFORMED],
    )
    def test_resume_reexpands_an_unreadable_snapshot(self, tmp_path, corrupt):
        out = tmp_path / "snapshots"
        argv = ["expand", "--dataset", write_dataset(tmp_path, n=1), "--config",
                write_config(tmp_path), "--out", str(out)]
        assert main(argv) == 0
        snapshot = out / "q0.json"
        built = snapshot.read_bytes()
        snapshot.write_text(json.dumps(corrupt(json.loads(built))), encoding="utf-8")
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [item["status"] for item in manifest["items"]] == ["ok"]
        assert snapshot.read_bytes() == built

    def test_resume_reexpands_a_snapshot_built_at_another_doc_char_budget(self, tmp_path):
        dataset = write_dataset(tmp_path, n=1)
        out = tmp_path / "snapshots"
        for budget, status in ((10, "ok"), (1500, "ok"), (1500, "skipped")):
            config = write_config(tmp_path, doc_char_budget=budget)
            argv = ["expand", "--dataset", dataset, "--config", config, "--out", str(out)]
            assert main(argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert [item["status"] for item in manifest["items"]] == [status]
        assert json.loads((out / "q0.json").read_text())["config"]["doc_char_budget"] == 1500

    @pytest.mark.parametrize("concurrency", [1, 4])
    @pytest.mark.parametrize("backend", ["policy", "retriever"])
    def test_backend_error_in_a_rollout_fails_the_question(self, tmp_path, backend, concurrency):
        """A rollout cut short by its backend has no reward: the question fails, leaves
        no snapshot (an older build's is removed, so no export reads it), and the next
        run expands it again."""
        question = Question(id="q0", text="what is probe number 0?", gold_answers=("fact 0",))
        healthy = make_bench_policy({question.text: "fact 0"}, rollout_searches=1)
        retriever = make_bench_retriever()
        rollout_completions = itertools.count(1)

        class FlakyPolicy:
            """Fails every third rollout completion."""

            def complete(self, request):
                if request.role is PolicyRole.ROLLOUT and next(rollout_completions) % 3 == 0:
                    raise BackendUnavailable("policy endpoint down")
                return healthy.complete(request)

        class FlakyRetriever:
            """Fails every rollout search: the bench rollouts search ``alpha probe ...``."""

            def retrieve(self, request):
                if request.query.startswith("alpha probe"):
                    raise BackendUnavailable("retriever endpoint down")
                return retriever.retrieve(request)

        policy = FlakyPolicy() if backend == "policy" else healthy
        flaky_retriever = FlakyRetriever() if backend == "retriever" else retriever
        cfg = ExpansionConfig(k=2, n=2, t_max=2, majority_samples=2, rollout_cap="fixed",
                              concurrency=concurrency)
        out = str(tmp_path / "snapshots")
        older = replace(cfg, k=3)
        built = expand_batch([question], lambda: TreeBuilder(healthy, retriever, older), out)
        assert [i.status for i in built.items] == ["ok"]
        first = expand_batch([question], lambda: TreeBuilder(policy, flaky_retriever, cfg), out)
        assert [(i.status, i.error) for i in first.items] == [("failed", f"{backend} endpoint down")]
        assert not snapshot_path(out, "q0").exists()

        again = expand_batch([question], lambda: TreeBuilder(healthy, retriever, cfg), out)
        assert [i.status for i in again.items] == ["ok"]
        ledger = again.items[0].ledger
        assert ledger["policy_calls"] + ledger["rollout_calls"] == theoretical_counts(cfg, 2)

    def test_manifest_carries_the_full_node_count(self, tmp_path):
        dataset = write_dataset(tmp_path, n=1)
        out = tmp_path / "snapshots"
        argv = ["expand", "--dataset", dataset, "--config", write_config(tmp_path), "--out",
                str(out), "--strategy", "full_node", "--k", "3", "--tmax", "3"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ledger_totals"]["leaf_nodes"] == 13824
        assert manifest["items"][0]["ledger"]["leaf_nodes"] == 13824
        assert (out / "q0.json").stat().st_size < 2000

    def test_progress_is_reported_as_each_question_finishes(self, tmp_path):
        questions = [
            Question(id=f"q{i}", text=f"what is probe number {i}?", gold_answers=(f"fact {i}",))
            for i in range(3)
        ]
        policy = make_bench_policy({q.text: q.gold_answers[0] for q in questions})
        reported, seen_at_build = [], []

        class Watched(TreeBuilder):
            def build_tree(self, question, boundary):
                seen_at_build.append(list(reported))
                return super().build_tree(question, boundary)

        watched = Watched(policy, make_bench_retriever(), ExpansionConfig(k=2, n=1, t_max=1))
        manifest = expand_batch(
            questions, lambda: watched, str(tmp_path / "snapshots"), resume=False,
            on_progress=lambda qid, status: reported.append((qid, status)),
        )
        assert seen_at_build == [[], [("q0", "ok")], [("q0", "ok"), ("q1", "ok")]]
        assert [item.question_id for item in manifest.items] == ["q0", "q1", "q2"]

    def test_concurrency_matches_sequential_manifest(self, tmp_path):
        questions = [
            Question(id=f"q{i}", text=f"what is probe number {i}?", gold_answers=(f"fact {i}",))
            for i in range(4)
        ]
        # Rollouts search, so sibling rollouts in the pool share retrievals.
        policy = make_bench_policy(
            {q.text: q.gold_answers[0] for q in questions}, rollout_searches=1
        )
        retriever = make_bench_retriever()
        for strategy in ("pruning", "no_pruning", "full_node"):
            seq_cfg = ExpansionConfig(
                k=2, n=2, t_max=2, strategy=strategy, majority_samples=2, rollout_cap="fixed"
            )
            par_cfg = replace(seq_cfg, concurrency=4)
            seq_out, par_out = str(tmp_path / strategy / "seq"), str(tmp_path / strategy / "par")
            seq = expand_batch(
                questions, lambda: TreeBuilder(policy, retriever, seq_cfg), seq_out, resume=False
            )
            par = expand_batch(
                questions, lambda: TreeBuilder(policy, retriever, par_cfg), par_out, resume=False,
                concurrency=4,
            )
            assert [i.status for i in seq.items] == ["ok"] * len(questions)
            assert [i.question_id for i in seq.items] == [i.question_id for i in par.items]
            for question in questions:
                seq_bytes = snapshot_path(seq_out, question.id).read_bytes()
                par_bytes = snapshot_path(par_out, question.id).read_bytes()
                assert seq_bytes == par_bytes

    def test_config_file_concurrency_bounds_a_lone_question(self, tmp_path, monkeypatch):
        lock, inflight, peak, callers = threading.Lock(), [0], [0], set()
        build_policy = cli.build_policy_backend

        class Watched:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, request):
                with lock:
                    inflight[0] += 1
                    peak[0] = max(peak[0], inflight[0])
                    callers.add(threading.current_thread().name)
                try:
                    time.sleep(0.002)
                    return self.inner.complete(request)
                finally:
                    with lock:
                        inflight[0] -= 1

        monkeypatch.setattr(cli, "build_policy_backend", lambda *args: Watched(build_policy(*args)))
        config = json.loads(Path(write_config(tmp_path)).read_text(encoding="utf-8"))
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({**config, "concurrency": 4}), encoding="utf-8")
        argv = ["expand", "--dataset", write_dataset(tmp_path, n=1), "--config", str(config_path),
                "--out", str(tmp_path / "snapshots")]
        assert main(argv) == 0
        assert 1 < peak[0] <= 4
        assert callers and all(name.startswith("ragtree-send-") for name in callers), callers

    @pytest.mark.parametrize(
        "ids, needle",
        [(["q/1", "q0", "q_1"], "ids 'q/1' and 'q_1' both map to snapshot file q_1.json"),
         (["q0", "manifest"], "id 'manifest' maps to the manifest's file manifest.json")],
        ids=["two-ids", "manifest-id"],
    )
    def test_snapshot_file_clash_is_refused_before_any_build(self, tmp_path, ids, needle):
        questions = [Question(id=i, text=f"what is probe {i}?", gold_answers=("x",)) for i in ids]

        def no_builder() -> TreeBuilder:
            raise AssertionError("a builder was requested")

        out = tmp_path / "snapshots"
        with pytest.raises(DatasetError, match=re.escape(needle)):
            expand_batch(questions, no_builder, str(out), resume=False)
        assert not out.exists()

    @pytest.mark.parametrize("concurrency", [0, -3])
    def test_concurrency_below_one_is_refused_before_any_write(self, tmp_path, concurrency):
        question = Question(id="q0", text="what is probe number 0?", gold_answers=("fact 0",))

        def no_builder() -> TreeBuilder:
            raise AssertionError("a builder was requested")

        out = tmp_path / "snapshots"
        with pytest.raises(ConfigurationError, match="concurrency must be >= 1"):
            expand_batch([question], no_builder, str(out), concurrency=concurrency)
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("paths", "dataset"), ("retriever", "corpus_path")],
                             ids=["dataset", "corpus"])
    def test_a_flag_replaces_a_missing_path_of_the_config_file(self, tmp_path, section, key):
        config_path = write_config(tmp_path)
        record = json.loads(Path(config_path).read_text(encoding="utf-8"))
        record.setdefault(section, {})[key] = str(tmp_path / "gone.jsonl")
        Path(config_path).write_text(json.dumps(record), encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"title": "t", "text": "fact 0"}) + "\n", encoding="utf-8")
        out = tmp_path / "snapshots"
        code = main(["expand", "--config", config_path, "--dataset", write_dataset(tmp_path, n=1),
                     "--corpus", str(corpus), "--out", str(out)])
        assert code == 0
        assert (out / "q0.json").is_file()

    def test_dataset_without_questions_is_refused(self, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        out = tmp_path / "snapshots"
        argv = ["expand", "--dataset", str(dataset), "--config", write_config(tmp_path)]
        code = main(argv + ["--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no questions" in err, err
        assert not out.exists()

    def test_snapshot_file_clash_is_a_usage_error(self, tmp_path, capsys):
        dataset = tmp_path / "clash.jsonl"
        lines = [
            json.dumps({"id": qid, "question": f"what is probe {qid}?", "golden_answers": ["x"]})
            for qid in ("q/1", "q0", "q_1")
        ]
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "snapshots"
        argv = ["expand", "--dataset", str(dataset), "--config", write_config(tmp_path)]
        code = main(argv + ["--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'q/1' and 'q_1'" in err, err
        assert not out.exists()


class TestExportCommands:
    def _expanded(self, tmp_path):
        dataset = write_dataset(tmp_path)
        config = write_config(tmp_path)
        out = tmp_path / "snapshots"
        main(["expand", "--dataset", dataset, "--config", config, "--out", str(out)])
        return out

    def test_export_sft_writes_jsonl(self, tmp_path):
        out = self._expanded(tmp_path)
        sft = tmp_path / "sft.jsonl"
        assert main(["export-sft", "--snapshots", str(out), "--out", str(sft)]) == 0
        lines = sft.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert set(record) == {"id", "segment", "input", "output"}

    def test_export_dpo_writes_jsonl(self, tmp_path):
        out = self._expanded(tmp_path)
        dpo = tmp_path / "dpo.jsonl"
        assert main(["export-dpo", "--snapshots", str(out), "--out", str(dpo), "--margin", "0.1"]) == 0
        for line in dpo.read_text().splitlines():
            record = json.loads(line)
            assert record["chosen_reward"] - record["rejected_reward"] >= 0.1

    @pytest.mark.parametrize("command, noun", [("export-sft", "SFT examples"),
                                               ("export-dpo", "DPO pairs")])
    def test_export_counts_the_failed_snapshots_it_skips(self, tmp_path, capsys, command, noun):
        out = self._expanded(tmp_path)
        question = Question(id="q9", text="what is probe number 9?", gold_answers=("fact 9",))
        failure = {"layer": 1, "reason": "every sub-question candidate was malformed"}
        failed = BuildResult(question, ExpansionConfig(), ledger=None, failure=failure)
        save_snapshot(build_result_to_dict(failed), str(snapshot_path(str(out), "q9")))
        target = tmp_path / "out.jsonl"
        capsys.readouterr()
        assert main([command, "--snapshots", str(out), "--out", str(target)]) == 0
        printed = capsys.readouterr().out
        assert f"wrote {len(target.read_text().splitlines())} {noun} to {target}" in printed
        assert printed.rstrip().endswith("(1 failed snapshots skipped)"), printed

    @pytest.mark.parametrize("command", ["export-sft", "export-dpo"])
    def test_non_object_snapshot_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "snapshots"
        out.mkdir()
        (out / "q0.json").write_text("[]", encoding="utf-8")
        assert main([command, "--snapshots", str(out), "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a JSON object" in err, err

    @pytest.mark.parametrize("command", ["export-sft", "export-dpo"])
    @pytest.mark.parametrize("corrupt", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_snapshot_is_a_usage_error(self, tmp_path, capsys, command, corrupt):
        out = self._expanded(tmp_path)
        path = out / "q0.json"
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))), encoding="utf-8")
        assert main([command, "--snapshots", str(out), "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed snapshot" in err, err

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (MALFORMED["probe-short"], "malformed snapshot"),
            (MALFORMED["probe-short"], "chains.0.nodes.0.terminate_probe"),
            (lambda record: {**record, "schema_version": 2}, "re-run `ragtree expand`"),
            (lambda record: {**record, "schema_version": 3}, "re-run `ragtree expand`"),
        ],
        ids=["probe-short", "probe-short-path", "schema-2", "schema-3"],
    )
    def test_bad_snapshot_error_names_its_file(self, tmp_path, capsys, corrupt, needle):
        out = self._expanded(tmp_path)
        path = out / "q1.json"
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))), encoding="utf-8")
        assert main(["export-dpo", "--snapshots", str(out), "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and needle in err, err

    @pytest.mark.parametrize("command", ["export-sft", "export-dpo"])
    def test_export_cuts_documents_to_the_recorded_budget(self, tmp_path, command):
        out = tmp_path / "snapshots"
        config = write_config(tmp_path, doc_char_budget=10)
        assert main(["expand", "--dataset", write_dataset(tmp_path), "--config", config,
                     "--out", str(out)]) == 0
        target = tmp_path / "out.jsonl"
        assert main([command, "--snapshots", str(out), "--out", str(target)]) == 0
        texts = [
            text
            for line in target.read_text().splitlines()
            for value in json.loads(line).values() if isinstance(value, str)
            for text in re.findall(r'^Docs \d+: ".*"\n(.*)$', value, re.MULTILINE)
        ]
        assert texts and {len(text) for text in texts} == {10}, texts

    def test_export_on_missing_directory_errors(self, tmp_path):
        code = main(["export-sft", "--snapshots", str(tmp_path / "nope"), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2


class TestBenchCommand:
    def test_counts_match_formulas(self, tmp_path):
        dataset = write_dataset(tmp_path, n=2)
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench-expansion",
                "--dataset",
                dataset,
                "--out",
                str(out),
                "--strategies",
                "pruning,no_pruning,full_node",
                "--k",
                "3",
                "--n",
                "4",
                "--tmax",
                "2",
                "--full-node-tmax",
                "2",
            ]
        )
        assert code == 0
        with out.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["strategy"] for row in rows] == ["pruning", "no_pruning", "full_node"]
        for row in rows:
            assert int(row["measured_count"]) == int(row["theoretical_count"])
        cfg = ExpansionConfig(k=3, n=4)
        assert int(rows[0]["theoretical_count"]) == theoretical_counts(cfg, 2, "pruning")
        assert int(rows[1]["theoretical_count"]) == theoretical_counts(cfg, 2, "no_pruning")
        assert int(rows[2]["theoretical_count"]) == 576

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--strategies", "pruning,bogus"], "unknown strategy 'bogus'"),
            (["--strategies", ""], "no strategies"),
            (["--strategies", " , "], "no strategies"),
            (["--full-node-tmax", "0"], "full-node t_max"),
        ],
        ids=["unknown-strategy", "empty-list", "blank-list", "zero-full-node-tmax"],
    )
    def test_bad_input_is_refused_before_any_build(self, tmp_path, capsys, monkeypatch, flags,
                                                   needle):
        def no_build(self, question):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(TreeBuilder, "build_tree", no_build)
        out = tmp_path / "bench.csv"
        argv = ["bench-expansion", "--dataset", write_dataset(tmp_path, n=2), "--out", str(out)]
        code = main(argv + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", ["--policy-kind", "--retriever-kind", "--policy-url", "--retriever-url", "--model",
                 "--corpus", "--templates-dir"],
    )
    def test_backend_flags_are_usage_errors(self, tmp_path, capsys, flag):
        """The bench always runs the scripted backends, so it takes no backend flag."""
        value = "http" if flag.endswith("-kind") else str(tmp_path / "missing")
        argv = ["bench-expansion", "--dataset", write_dataset(tmp_path, n=1), "--out",
                str(tmp_path / "bench.csv"), flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    def test_dataset_without_questions_is_refused(self, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        out = tmp_path / "bench.csv"
        code = main(["bench-expansion", "--dataset", str(dataset), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no questions" in err, err
        assert not out.exists()


class TestEvaluateCommand:
    def test_scripted_evaluation_report(self, tmp_path):
        dataset = write_dataset(tmp_path, n=2)
        config = write_config(tmp_path)
        report_path = tmp_path / "report.json"
        transcripts = tmp_path / "transcripts.jsonl"
        code = main(
            [
                "evaluate",
                "--dataset",
                dataset,
                "--config",
                config,
                "--out",
                str(report_path),
                "--transcripts",
                str(transcripts),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["n"] == 2
        assert report["em"] == 1.0
        assert report["f1"] == 1.0
        assert report["failures"] == 0
        assert len(transcripts.read_text().splitlines()) == 2

    def test_concurrency_flag_reaches_evaluation(self, tmp_path, monkeypatch):
        dataset = write_dataset(tmp_path, n=4)
        config = write_config(tmp_path)
        seen = []
        original = cli.evaluate_dataset

        def spy(*args, **kwargs):
            seen.append(kwargs["concurrency"])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_dataset", spy)
        outputs = []
        for concurrency in ("1", "4"):
            report = tmp_path / f"report-{concurrency}.json"
            transcripts = tmp_path / f"transcripts-{concurrency}.jsonl"
            argv = ["evaluate", "--dataset", dataset, "--config", config, "--out", str(report)]
            argv += ["--transcripts", str(transcripts), "--concurrency", concurrency]
            assert main(argv) == 0
            outputs.append((report.read_bytes(), transcripts.read_bytes()))
        assert seen == [1, 4]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flag", [["--k", "9"], ["--n", "7"], ["--threshold", "0.1"], ["--strategy", "full_node"],
                 ["--metric", "em"]],
    )
    def test_tree_flags_are_usage_errors(self, tmp_path, capsys, flag):
        dataset = write_dataset(tmp_path, n=1)
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--dataset", dataset, "--config", config] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err

    def test_dataset_without_questions_is_refused(self, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("\n", encoding="utf-8")
        out = tmp_path / "report.json"
        argv = ["evaluate", "--dataset", str(dataset), "--config", write_config(tmp_path)]
        code = main(argv + ["--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no questions" in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-steps", "0"), ("--max-steps", "-3"), ("--max-searches", "-1"),
         ("--temperature", "-1")],
    )
    def test_out_of_range_flag_is_refused_before_any_backend_call(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        forbid_backends(monkeypatch)
        out = tmp_path / "report.json"
        argv = ["evaluate", "--dataset", write_dataset(tmp_path, n=1), "--config",
                write_config(tmp_path), "--out", str(out), flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err, err
        assert not out.exists()


class TestBadSettings:
    """Out-of-range or unknown settings end with ``error: ...`` and status 2."""

    def _expand(self, tmp_path, config_path, *flags):
        dataset = write_dataset(tmp_path, n=1)
        argv = ["expand", "--dataset", dataset, "--config", config_path]
        return main(argv + ["--out", str(tmp_path / "snapshots"), *flags])

    def _assert_error(self, capsys, code, needle):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err, err

    def test_out_of_range_flag(self, tmp_path, capsys):
        code = self._expand(tmp_path, write_config(tmp_path), "--k", "0")
        self._assert_error(capsys, code, "must be positive")

    def test_out_of_range_concurrency_flag(self, tmp_path, capsys):
        code = self._expand(tmp_path, write_config(tmp_path), "--concurrency", "0")
        self._assert_error(capsys, code, "concurrency")

    def _config_file(self, tmp_path, **changes):
        record = json.loads(Path(write_config(tmp_path)).read_text(encoding="utf-8"))
        for key, value in changes.items():
            if isinstance(value, dict):
                record.setdefault(key, {}).update(value)
            else:
                record[key] = value
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        return str(path)

    def test_top_level_concurrency_in_config_file(self, tmp_path, capsys):
        code = self._expand(tmp_path, self._config_file(tmp_path, concurrency=0))
        self._assert_error(capsys, code, "concurrency")
        assert not (tmp_path / "snapshots").exists()

    def test_expansion_concurrency_in_config_file(self, tmp_path, capsys, monkeypatch):
        forbid_backends(monkeypatch)
        code = self._expand(tmp_path, self._config_file(tmp_path, expansion={"concurrency": 4}))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and "['concurrency']" in err, err
        assert not (tmp_path / "snapshots").exists()

    @pytest.mark.parametrize(
        "record", [[1, 2], {"title": "t", "text": ""}], ids=["not-an-object", "empty-text"]
    )
    def test_bad_corpus_line_is_refused_before_any_build(self, tmp_path, capsys, record):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"title": "t", "text": "body"}) + "\n" + json.dumps(record)
                          + "\n", encoding="utf-8")
        code = self._expand(tmp_path, write_config(tmp_path), "--retriever-kind", "lexical",
                            "--corpus", str(corpus))
        self._assert_error(capsys, code, "line 2: ")
        assert not (tmp_path / "snapshots").exists()

    @pytest.mark.parametrize(
        "section, key",
        [("paths", "dataset"), ("retriever", "corpus_path"), ("paths", "templates_dir")],
        ids=["dataset", "corpus", "templates"],
    )
    def test_missing_path_in_config_file_is_refused_before_any_write(
        self, tmp_path, capsys, section, key
    ):
        missing = str(tmp_path / "gone")
        flags = [] if key == "dataset" else ["--dataset", write_dataset(tmp_path, n=1)]
        config = self._config_file(tmp_path, **{section: {key: missing}})
        code = main(["expand", "--config", config, *flags, "--out", str(tmp_path / "snapshots")])
        self._assert_error(capsys, code, missing)
        assert not (tmp_path / "snapshots").exists()

    def test_out_of_range_value_in_config_file(self, tmp_path, capsys):
        code = self._expand(tmp_path, self._config_file(tmp_path, expansion={"k": 0}))
        self._assert_error(capsys, code, "must be positive")

    @pytest.mark.parametrize(
        "expansion, needle",
        [
            ({"max_tokens": 0}, "max_tokens"),
            ({"malformed_retries": -1}, "malformed_retries"),
            ({"sampling_temperature": -0.5}, "sampling_temperature"),
            ({"answer_temperature": -1}, "answer_temperature"),
        ],
        ids=["zero-max-tokens", "negative-retries", "negative-sampling-temperature",
             "negative-answer-temperature"],
    )
    def test_out_of_range_expansion_value_is_refused_before_any_backend_call(
        self, tmp_path, capsys, monkeypatch, expansion, needle
    ):
        forbid_backends(monkeypatch)
        code = self._expand(tmp_path, self._config_file(tmp_path, expansion=expansion))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and needle in err, err
        assert not (tmp_path / "snapshots").exists()

    @pytest.mark.parametrize("section", ["policy", "retriever"])
    @pytest.mark.parametrize(
        "setting, needle",
        [({"timeout": 0}, "timeout must be > 0"), ({"timeout": -5.0}, "timeout must be > 0"),
         ({"max_retries": -1}, "max_retries must be >= 0"),
         ({"backoff_s": -1}, "backoff_s must be >= 0")],
        ids=["zero-timeout", "negative-timeout", "negative-retries", "negative-backoff"],
    )
    def test_out_of_range_http_setting_is_refused_before_any_backend_call(
        self, tmp_path, capsys, monkeypatch, section, setting, needle
    ):
        # at the HTTP client these fail late: urllib3 refuses the timeout, no request is
        # sent, or the first retry cannot sleep
        forbid_backends(monkeypatch)
        code = self._expand(tmp_path, self._config_file(tmp_path, **{section: setting}))
        self._assert_error(capsys, code, f"invalid config: config.{section}: {needle}")
        assert not (tmp_path / "snapshots").exists()

    def test_unknown_key_in_config_section(self, tmp_path, capsys):
        for key in ("bogus", "scripted_rollout_searches", "scripted_terminate_after"):
            code = self._expand(tmp_path, self._config_file(tmp_path, policy={key: 1}))
            self._assert_error(capsys, code, f"unknown config.policy keys: ['{key}']")

    @pytest.mark.parametrize(
        "changes, needle",
        [
            ({"expansion": {"k": "3"}}, "expansion.k"),
            ({"expansion": {"k": True}}, "expansion.k"),
            ({"expansion": {"tau": "0.5"}}, "expansion.tau"),
            ({"resume": "no"}, "config.resume"),
            ({"policy": {"model": None}}, "policy.model"),
        ],
        ids=["str-for-int", "bool-for-int", "str-for-float", "str-for-bool", "null-for-str"],
    )
    def test_wrongly_typed_value_in_config_file(self, tmp_path, capsys, changes, needle):
        code = self._expand(tmp_path, self._config_file(tmp_path, **changes))
        self._assert_error(capsys, code, needle)
        assert not (tmp_path / "snapshots").exists()

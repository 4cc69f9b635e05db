"""CLI and batch orchestration: expand/resume, exports, bench CSV, evaluate."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

from ragtree import cli
from ragtree.batch import expand_batch, snapshot_path
from ragtree.cli import main
from ragtree.engine import ExpansionConfig, TreeBuilder, theoretical_counts
from ragtree.policy import PolicyRequest, ScriptedPolicyBackend
from ragtree.scripted import make_bench_policy, make_bench_retriever
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
        calls_after_first = policy.total_calls
        assert calls_after_first > 0

        manifest = expand_batch(
            questions, lambda: TreeBuilder(policy, retriever, cfg), out, resume=True
        )
        assert policy.total_calls == calls_after_first
        assert manifest.counts["skipped"] == 2

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

"""Snapshot encoding: round trips, implicit node states, and failure records."""

from __future__ import annotations

import hashlib

import pytest

from conftest import GOLD, Scenario, overlap_answer
from ragtree.engine import ExpansionConfig, TreeBuilder, theoretical_counts
from ragtree.errors import ExportError
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.snapshot import (
    build_result_to_dict,
    dumps_snapshot,
    failure_to_dict,
    load_snapshot,
    save_snapshot,
    snapshot_from_dict,
)
from ragtree.types import Question


def build_fixture(strategy: str = "pruning", question_id: str = "snap-q"):
    question = Question(id=question_id, text="what follows alpha?", gold_answers=("beta",))
    cfg = ExpansionConfig(
        k=2, n=1, t_max=2, strategy=strategy, majority_samples=2, rollout_cap="fixed"
    )
    policy = make_bench_policy({question.text: "beta"}, rollout_searches=1)
    return TreeBuilder(policy, make_bench_retriever(), cfg).build_tree(question)


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", ["pruning", "no_pruning"])
    def test_chain_snapshots_round_trip(self, strategy):
        result = build_fixture(strategy)
        record = build_result_to_dict(result)
        snapshot = snapshot_from_dict(record)

        assert snapshot.question == result.question
        assert snapshot.strategy == strategy
        assert len(snapshot.chains) == len(result.chains)
        for loaded, original in zip(snapshot.chains, result.chains):
            assert loaded.final_answer == original.final_answer
            assert loaded.final_score == original.final_score
            assert loaded.final_state == original.final_state
            assert len(loaded.nodes) == len(original.nodes)
            for lnode, onode in zip(loaded.nodes, original.nodes):
                assert lnode.state == onode.state  # rebuilt from the chain's steps
                assert lnode.votes == onode.votes
                assert lnode.chosen_kind == onode.chosen_kind
                assert lnode.sub_question_candidates == onode.sub_question_candidates
                assert lnode.self_answer_candidates == onode.self_answer_candidates
                assert lnode.sub_query_candidates == onode.sub_query_candidates

    def test_reencoding_is_byte_stable(self):
        result = build_fixture()
        record = build_result_to_dict(result)
        text = dumps_snapshot(record)
        again = dumps_snapshot(build_result_to_dict(result))
        assert text == again

    def test_full_node_tree_round_trips(self):
        result = build_fixture("full_node")
        record = build_result_to_dict(result)
        snapshot = snapshot_from_dict(record)
        assert snapshot.full_root is not None

        def shape(node):
            return (
                len(node.branches),
                tuple(sorted(b.sub_question for b in node.branches)),
                tuple(shape(c) for c in node.children),
            )

        assert shape(snapshot.full_root) == shape(result.full_root)
        # child states rebuild from steps along the path
        first_child = snapshot.full_root.children[0]
        assert first_child.state.depth == 1

    def test_wall_time_is_not_serialized(self):
        result = build_fixture()
        record = build_result_to_dict(result)
        assert "wall_time" not in record["ledger"]

    def test_save_and_load(self, tmp_path):
        result = build_fixture()
        path = tmp_path / "snap.json"
        save_snapshot(build_result_to_dict(result), str(path))
        snapshot = load_snapshot(str(path))
        assert snapshot.question.id == "snap-q"
        assert snapshot.failure is None

    def test_unreadable_snapshot_raises_export_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ExportError):
            load_snapshot(str(path))

    def test_unsupported_schema_version_rejected(self):
        result = build_fixture()
        record = build_result_to_dict(result)
        record["schema_version"] = 999
        with pytest.raises(ExportError):
            snapshot_from_dict(record)


class TestFailureRecords:
    def test_failure_round_trip(self):
        question = Question(id="f-q", text="unanswerable?", gold_answers=("x",))
        record = failure_to_dict(question, ExpansionConfig(), layer=2, reason="all malformed")
        snapshot = snapshot_from_dict(record)
        assert snapshot.failure == {"layer": 2, "reason": "all malformed"}
        assert snapshot.chains == []


class TestTerminateBranchScoring:
    def test_probe_recorded_when_continuing(self, retriever):
        question = Question(id="probe-q", text="which tokens follow alpha?", gold_answers=(GOLD,))
        cfg = ExpansionConfig(k=2, n=1, t_max=1, majority_samples=1, score_terminate_branch=True)
        scenario = Scenario(config=cfg, question=question)
        scenario.set_candidates("sub_question", 1, ["find a", "find b"])
        scenario.rollout_answers = {"find a": overlap_answer(1), "find b": overlap_answer(2)}
        scenario.finalize_answer = GOLD
        builder = TreeBuilder(scenario.policy(), retriever, cfg)
        result = builder.build_tree(question)
        node = result.trunk.nodes[0]
        assert node.terminate_probe is not None
        answer, score = node.terminate_probe
        assert answer == GOLD
        assert score == 1.0
        # probes are finalization work, not expansion work
        assert result.ledger.finalize_calls >= 2  # probe + cap answer

    def test_continue_side_scored_when_vote_terminates(self, retriever):
        question = Question(id="probe-q2", text="which tokens follow alpha?", gold_answers=(GOLD,))
        cfg = ExpansionConfig(k=2, n=1, t_max=2, majority_samples=1, score_terminate_branch=True)
        scenario = Scenario(config=cfg, question=question)
        scenario.set_votes(1, ["terminate"])
        scenario.set_candidates("sub_question", 1, ["find a", "find b"])
        scenario.finalize_answer = GOLD
        builder = TreeBuilder(scenario.policy(), retriever, cfg)
        result = builder.build_tree(question)
        node = result.trunk.nodes[0]
        assert node.terminal_answer == GOLD
        assert len(node.sub_question_candidates) == 2

        # both outcomes scored -> the export yields a termination decision pair
        from ragtree.export import export_dpo
        from ragtree.snapshot import build_result_to_dict, snapshot_from_dict

        snapshot = snapshot_from_dict(build_result_to_dict(result))
        decisions = [p for p in export_dpo(snapshot, margin=0.1) if p.pair_type == "decision"]
        assert any(p.chosen.startswith("Final answer:") for p in decisions)


class TestGoldenSnapshots:
    """Pinned snapshot bytes: a change that moves them must say why."""

    # strategy -> (t_max, SHA-256 of the encoded snapshot), built with k=2, n=2,
    # a fixed rollout horizon and rollouts that search t_max - 1 times.
    GOLDEN = {
        "pruning": (3, "84cd2f827180b7a3ed1330e6e66ed306c3c06b896477c6829945cd00322a8ddc"),
        "no_pruning": (3, "353b28a8c5e07a559e3bbf2c35832684087263034bf2242928f38833455b844c"),
        "full_node": (2, "34b84616942feee43880ef607597af04b2c755e6025ee0679d76ca62d1ccd768"),
    }

    @pytest.mark.parametrize("concurrency", [1, 4])
    @pytest.mark.parametrize("strategy", sorted(GOLDEN))
    def test_snapshot_digest(self, strategy, concurrency):
        t_max, digest = self.GOLDEN[strategy]
        question = Question(id="golden-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(
            k=2, n=2, t_max=t_max, strategy=strategy, majority_samples=2,
            rollout_cap="fixed", concurrency=concurrency,
        )
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=t_max - 1)
        result = TreeBuilder(policy, make_bench_retriever(), cfg).build_tree(question)
        assert result.ledger.expansion_count(strategy) == theoretical_counts(cfg, t_max)
        encoded = dumps_snapshot(build_result_to_dict(result))
        assert hashlib.sha256(encoded.encode("utf-8")).hexdigest() == digest

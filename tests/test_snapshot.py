"""Snapshot encoding: round trips, implicit node states, and failure records."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLD, Scenario, overlap_answer
from ragtree.batch import expand_batch, snapshot_path
from ragtree.engine import (
    BuildResult,
    Candidate,
    ExpansionConfig,
    RolloutResult,
    TreeBuilder,
    theoretical_counts,
)
from ragtree.errors import ExportError
from ragtree.export import export_dpo, export_sft, write_dpo_jsonl, write_sft_jsonl
from ragtree.policy import ScriptedPolicyBackend
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.snapshot import (
    build_result_to_dict,
    decode,
    dumps_snapshot,
    encode,
    load_snapshot,
    save_snapshot,
    snapshot_from_dict,
)
from ragtree.templates import PolicyRole
from ragtree.types import Document, Question, Retrieved, SelfAnswer, Step


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
        assert snapshot.config.strategy == strategy
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

    @pytest.mark.parametrize("strategy", ["pruning", "no_pruning", "full_node", "failed"])
    def test_reencoding_a_decoded_snapshot_gives_the_record(self, strategy):
        if strategy == "failed":
            question = Question(id="f-q", text="unanswerable?", gold_answers=("x",))
            cfg = ExpansionConfig(k=2, malformed_retries=0, max_tokens=64)
            result = BuildResult(question, cfg, ledger=None, failure={"layer": 1, "reason": "r"})
        else:
            result = build_fixture(strategy)
        record = build_result_to_dict(result)
        decoded = snapshot_from_dict(json.loads(dumps_snapshot(record)))
        assert decoded.ledger == result.ledger
        assert decoded == result  # states, config and ledger included
        assert build_result_to_dict(decoded) == record

    @pytest.mark.parametrize(
        "strategy, sft_strategies",
        [("pruning", ["retained"]), ("no_pruning", ["retained", "most", "least"])],
    )
    def test_exports_agree_on_live_and_decoded_results(self, strategy, sft_strategies):
        result = build_fixture(strategy)
        decoded = snapshot_from_dict(build_result_to_dict(result))
        for sft_strategy in sft_strategies:
            live = export_sft(result, strategy=sft_strategy)
            assert live and live == export_sft(decoded, strategy=sft_strategy)
        live_pairs = export_dpo(result, margin=0.0)
        assert live_pairs and live_pairs == export_dpo(decoded, margin=0.0)

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

    def test_malformed_record_raises_export_error(self):
        record = build_result_to_dict(build_fixture())
        del record["chains"][0]["nodes"][0]["votes"]
        with pytest.raises(ExportError, match="malformed snapshot"):
            snapshot_from_dict(record)

    def test_unsupported_schema_version_rejected(self):
        result = build_fixture()
        record = build_result_to_dict(result)
        for version in (999, 1, 2, 3):
            record["schema_version"] = version
            with pytest.raises(ExportError, match=f"version: {version}") as excinfo:
                snapshot_from_dict(record)
            assert ("re-run `ragtree expand`" in str(excinfo.value)) == (version in (1, 2, 3))

    def test_rollouts_keep_no_text(self):
        """A rollout is recorded by its answer, score and steps; its transcript is not
        kept, since no reader of a snapshot needs it."""
        question = Question(id="slim-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=3, n=4, t_max=4, majority_samples=3, rollout_cap="fixed")
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=3)
        result = TreeBuilder(policy, make_bench_retriever(), cfg).build_tree(question)
        record = build_result_to_dict(result)
        rollout = record["chains"][0]["nodes"][0]["sub_question_candidates"][0]["rollouts"][0]
        assert rollout == {"final_answer": "beta", "score": 1.0, "steps_taken": 4}
        text = dumps_snapshot(record)
        assert "<search>" not in text and "<information>" not in text
        assert len(text.encode("utf-8")) < 50_000

    def test_config_round_trips_but_concurrency(self):
        question = Question(id="c-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=2, n=1, t_max=1, majority_samples=1, malformed_retries=0,
                              max_tokens=64, concurrency=4)
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=0)
        result = TreeBuilder(policy, make_bench_retriever(), cfg).build_tree(question)
        record = build_result_to_dict(result)
        assert "concurrency" not in record["config"]
        assert snapshot_from_dict(record).config == replace(cfg, concurrency=1)


class TestCodec:
    """``decode(encode(x)) == x`` for the engine's value types, through JSON."""

    text = st.text(min_size=1) | st.sampled_from(["{question}", "{}", "}{"])
    number = st.floats(allow_nan=False, allow_infinity=False)
    documents = st.lists(st.builds(Document, title=st.text(), text=text, score=number), max_size=3)
    resolution = st.builds(SelfAnswer, text) | st.builds(
        Retrieved, text, documents.map(tuple)
    )
    step = st.builds(Step, text, resolution)
    rollout = st.builds(RolloutResult, st.none() | st.text(), number, st.integers(0, 9))
    candidate = st.builds(
        Candidate, st.sampled_from(["sub_question", "self_answer", "sub_query"]), st.text(),
        st.lists(rollout, max_size=2).map(tuple), number, st.booleans(), documents.map(tuple),
    )

    @settings(max_examples=200, deadline=None)
    @given(value=st.one_of(step, candidate))
    def test_round_trip(self, value):
        assert decode(type(value), json.loads(json.dumps(encode(value)))) == value


class TestFailureRecords:
    # SHA-256 of the record ``failed_record`` writes: a failed build's file format is pinned.
    DIGEST = "e3f1eb0335ad7ddc19109c1fa4e1915e9446c432fe1cc4141214cee749506732"

    @staticmethod
    def failed_record(tmp_path) -> bytes:
        """The snapshot a batch writes for a question whose sub-questions are all malformed."""
        handlers = dict(make_bench_policy({}, rollout_searches=1).handlers)
        handlers[PolicyRole.SUB_QUESTION] = lambda request: "never a tag"
        policy = ScriptedPolicyBackend(handlers)
        question = Question(id="f-q", text="unanswerable?", gold_answers=("x",))
        cfg = ExpansionConfig(k=2, n=1, t_max=2, majority_samples=1, malformed_retries=0)
        manifest = expand_batch(
            [question], lambda: TreeBuilder(policy, make_bench_retriever(), cfg), str(tmp_path),
            resume=False,
        )
        assert manifest.counts["failed"] == 1
        return snapshot_path(str(tmp_path), question.id).read_bytes()

    def test_failure_bytes_are_pinned(self, tmp_path):
        assert hashlib.sha256(self.failed_record(tmp_path)).hexdigest() == self.DIGEST

    def test_failure_round_trip(self, tmp_path):
        text = self.failed_record(tmp_path).decode("utf-8")
        record = json.loads(text)
        snapshot = snapshot_from_dict(record)
        assert snapshot.failure == {
            "layer": 1, "reason": "every sub-question candidate was malformed"
        }
        assert snapshot.chains == [] and snapshot.ledger is None
        assert build_result_to_dict(snapshot) == record
        assert dumps_snapshot(build_result_to_dict(snapshot)) == text


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
        "pruning": (3, "a8abd1a47d9175e670f2f0d63b6ada0b26f6c1b5183bcc387fde7e2b48fa8940"),
        "no_pruning": (3, "bf6f80b9f12ee7026f8a7d28369dd09014da5aad28a3af0a1cd4649c72deda89"),
        "full_node": (2, "2486fdcd94bced04c8a0971877700f347ca6427d555ce2e84fe525d79cea35aa"),
    }

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
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


class TestNoPruningCharacterization:
    """no_pruning paths the golden digests miss, pinned by snapshot bytes."""

    DIGESTS = {
        "cap_without_answer": "dc709c887b9a414c9e93c134435efc101a7c07296056386eed94cb7cc62f1c41",
        "vote_at_layer_two": "3ec0ac6cd233f2302555c41c96ec4199db8861bf7b5fe39a5fe66b284debd9e7",
    }

    @staticmethod
    def encode(scenario, retriever) -> dict:
        result = TreeBuilder(scenario.policy(), retriever, scenario.config).build_tree(
            scenario.question
        )
        record = build_result_to_dict(result)
        assert build_result_to_dict(snapshot_from_dict(record)) == record
        return record

    @staticmethod
    def digest(record: dict) -> str:
        return hashlib.sha256(dumps_snapshot(record).encode("utf-8")).hexdigest()

    def test_failed_finalization_keeps_cap_chain_steps(self, scenario, retriever):
        scenario.config = ExpansionConfig(
            k=2, n=1, t_max=2, majority_samples=2, strategy="no_pruning", malformed_retries=0
        )
        scenario.finalize_answer = ""  # an empty <answer> parses as malformed
        record = self.encode(scenario, retriever)
        assert len(record["chains"]) == 3
        for chain in record["chains"]:
            assert chain["terminated_by"] == "cap"
            assert chain["final_answer"] is None
            assert len(chain["final_state"]["steps"]) == scenario.config.t_max
        assert self.digest(record) == self.DIGESTS["cap_without_answer"]

    def test_votes_terminate_at_layer_two(self, scenario, retriever):
        scenario.config = ExpansionConfig(
            k=2, n=1, t_max=3, majority_samples=2, strategy="no_pruning"
        )
        scenario.set_votes(2, ["terminate", "terminate"])
        scenario.finalize_answer = GOLD
        record = self.encode(scenario, retriever)
        assert [c["terminated_by"] for c in record["chains"]] == ["vote", "vote"]
        assert [c["fork_layer"] for c in record["chains"]] == [0, 1]
        for chain in record["chains"]:
            assert chain["final_answer"] == GOLD
            assert len(chain["final_state"]["steps"]) == 1
        assert self.digest(record) == self.DIGESTS["vote_at_layer_two"]


class TestExportDigests:
    """Pinned SFT and DPO export bytes of the golden builds, read back from their records.

    A snapshot schema change must leave these alone: the exporters see the same
    ``BuildResult`` whatever the file looks like.
    """

    # strategy -> t_max, as in ``TestGoldenSnapshots``.
    DEPTHS = {"pruning": 3, "no_pruning": 3, "full_node": 2}
    # (strategy, export) -> SHA-256 of the JSONL file the export writes. A full_node
    # build keeps no chains, so its DPO file is empty and it has no SFT chain.
    DIGESTS = {
        ("pruning", "sft-retained"): "b27c1f83f702cbfac9b776809ab8482a1c8cb3e1ccf99185d105bc949ba24a42",
        ("pruning", "dpo"): "8e4e16c7662491cf6b758fa65e12ae0f6d8decaf6351eef2ff77e8b17c174153",
        ("no_pruning", "sft-retained"): "b27c1f83f702cbfac9b776809ab8482a1c8cb3e1ccf99185d105bc949ba24a42",
        ("no_pruning", "sft-most"): "b27c1f83f702cbfac9b776809ab8482a1c8cb3e1ccf99185d105bc949ba24a42",
        ("no_pruning", "sft-least"): "e789d79cbdc8cbb9e4f088c568385e74c3ce2e915caabcbcf83ee1d75252bd66",
        ("no_pruning", "dpo"): "4b3ba4e027841c2f78cc22f5a524f07a6099365a20008b2710886bde7bd73322",
        ("full_node", "dpo"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }

    @staticmethod
    def build(strategy: str, concurrency: int = 1):
        t_max = TestExportDigests.DEPTHS[strategy]
        question = Question(id="golden-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(
            k=2, n=2, t_max=t_max, strategy=strategy, majority_samples=2, rollout_cap="fixed",
            concurrency=concurrency,
        )
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=t_max - 1)
        return TreeBuilder(policy, make_bench_retriever(), cfg).build_tree(question)

    @staticmethod
    def written(records, writer, path) -> bytes:
        writer(records, str(path))
        return path.read_bytes()

    @pytest.mark.parametrize("strategy, export", sorted(DIGESTS))
    def test_export_digest(self, strategy, export, tmp_path):
        result = self.build(strategy)
        decoded = snapshot_from_dict(build_result_to_dict(result))
        if export == "dpo":
            live, read = export_dpo(result), export_dpo(decoded)
            data = self.written(read, write_dpo_jsonl, tmp_path / "dpo.jsonl")
        else:
            sft_strategy = export.split("-", 1)[1]
            live = export_sft(result, strategy=sft_strategy)
            read = export_sft(decoded, strategy=sft_strategy)
            data = self.written(read, write_sft_jsonl, tmp_path / "sft.jsonl")
        assert read == live
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[(strategy, export)]

    @pytest.mark.parametrize("concurrency", [2, 4])
    @pytest.mark.parametrize("strategy, export", sorted(DIGESTS))
    def test_export_digest_at_concurrency(self, strategy, export, concurrency, tmp_path):
        result = self.build(strategy, concurrency)
        if export == "dpo":
            data = self.written(export_dpo(result), write_dpo_jsonl, tmp_path / "dpo.jsonl")
        else:
            sft = export_sft(result, strategy=export.split("-", 1)[1])
            data = self.written(sft, write_sft_jsonl, tmp_path / "sft.jsonl")
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[(strategy, export)]

    def test_full_node_has_no_sft_chain(self):
        decoded = snapshot_from_dict(build_result_to_dict(self.build("full_node")))
        with pytest.raises(ExportError):
            export_sft(decoded)

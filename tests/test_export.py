"""Dataset export: chain extraction, SFT segmentation, and DPO pair construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from ragtree.engine import (
    BuildResult, Candidate, ChainRecord, ExpansionConfig, RolloutResult, TerminationVotes, TreeNode,
    TreeBuilder,
)
from ragtree.errors import ExportError
from ragtree.export import (
    export_dpo,
    export_sft,
    extract_chain,
    write_dpo_jsonl,
    write_jsonl,
    write_sft_jsonl,
)
from ragtree.history import (
    QUESTION_BLOCK, SUB_QUERY_LINE, HistoryTemplate, render_chain, serialize_state,
)
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.types import Document, Question, Retrieved, SelfAnswer, State, Step

Q = Question(id="exp-q", text="what is established?", gold_answers=("the fact",))

DOC = Document(title="source", text="a short passage of evidence", score=1.0)


def cand(kind: str, content: str, reward: float, retained: bool = False, documents=()) -> Candidate:
    rollouts = tuple(
        RolloutResult(final_answer=content, score=reward, steps_taken=1)
        for _ in range(2)
    )
    return Candidate(
        kind=kind, content=content, rollouts=rollouts, reward=reward, retained=retained,
        documents=tuple(documents),
    )


def plain_node(layer: int, steps, **overrides) -> TreeNode:
    fields = dict(
        layer=layer,
        state=State(Q, tuple(steps[: layer - 1])),
        votes=TerminationVotes(terminate=0, continue_=3),
    )
    fields.update(overrides)
    return TreeNode(**fields)


def chain_snapshot(steps, answer: str, final_score: float = 1.0, nodes=None, strategy="pruning",
                   extra_chains=()) -> BuildResult:
    chain = ChainRecord(
        chain_id=0,
        fork_layer=0,
        fork_kind=None,
        nodes=list(nodes or []),
        final_answer=answer,
        final_score=final_score,
        terminated_by="cap",
        final_state=State(Q, tuple(steps), answer),
    )
    return BuildResult(
        question=Q, config=ExpansionConfig(strategy=strategy), chains=[chain, *extra_chains]
    )


def retrieved_step(i: int) -> Step:
    return Step(f"hop {i}?", Retrieved(f"query {i}", (DOC,)))


def self_step(i: int) -> Step:
    return Step(f"hop {i}?", SelfAnswer(f"fact {i}"))


class TestExtractChain:
    def test_two_layer_chain(self):
        steps = (retrieved_step(1), self_step(2))
        snapshot = chain_snapshot(steps, "the fact")
        extracted, answer = extract_chain(snapshot)
        assert extracted == steps
        assert answer == "the fact"

    def test_immediate_termination_yields_empty_steps(self):
        snapshot = chain_snapshot((), "the fact")
        extracted, answer = extract_chain(snapshot)
        assert extracted == ()
        assert answer == "the fact"

    def test_failure_snapshot_raises(self):
        snapshot = chain_snapshot((), "x")
        snapshot.failure = {"layer": 1, "reason": "all candidates malformed"}
        with pytest.raises(ExportError):
            extract_chain(snapshot)

    def test_unterminated_snapshot_raises(self):
        snapshot = chain_snapshot((), "x")
        snapshot.chains[0].final_answer = None
        snapshot.chains[0].final_state = None
        with pytest.raises(ExportError):
            extract_chain(snapshot)


class TestSftSegmentation:
    def test_retrievals_at_steps_one_and_three(self):
        steps = (retrieved_step(1), self_step(2), retrieved_step(3), self_step(4))
        snapshot = chain_snapshot(steps, "the fact")
        examples = export_sft(snapshot)
        assert [e.segment_index for e in examples] == [0, 1, 2]

        text, cuts = render_chain(snapshot.trunk.final_state)
        question_end, sub_query_1, docs_1, sub_query_3, docs_3 = cuts
        # segment 0: question only -> through step 1's sub-query
        assert examples[0].input == "Question: what is established?\n"
        assert examples[0].output == text[question_end:sub_query_1]
        assert examples[0].output.endswith("Sub-query: query 1\n")
        # segment 1: prefix through step 1's docs -> steps 2..3 through step 3's sub-query
        assert examples[1].input == text[:docs_1]
        assert text[docs_1:].startswith("Sub-question 2: hop 2?\n")
        assert examples[1].output == text[docs_1:sub_query_3]
        assert "Answer: fact 2\n" in examples[1].output
        assert examples[1].output.endswith("Sub-query: query 3\n")
        # segment 2: prefix through step 3's docs -> step 4 and the final answer
        assert examples[2].input == text[:docs_3]
        assert examples[2].output.endswith("Final answer: the fact\n")

    def test_zero_retrievals_single_segment(self):
        steps = (self_step(1), self_step(2))
        snapshot = chain_snapshot(steps, "the fact")
        examples = export_sft(snapshot)
        assert len(examples) == 1
        assert examples[0].input == "Question: what is established?\n"
        full = render_chain(snapshot.trunk.final_state)[0]
        assert examples[0].input + examples[0].output == full

    def test_segments_reconstruct_chain(self):
        steps = (retrieved_step(1), self_step(2), retrieved_step(3))
        snapshot = chain_snapshot(steps, "the fact")
        examples = export_sft(snapshot)
        text = render_chain(snapshot.trunk.final_state)[0]
        for example in examples:
            joined = example.input + example.output
            assert text.startswith(joined)
        last = examples[-1]
        assert last.input + last.output == text
        # inputs grow strictly: each later input extends the previous through a docs block
        for earlier, later in zip(examples, examples[1:]):
            assert later.input.startswith(earlier.input + earlier.output)

    def test_zero_score_chain_dropped(self):
        snapshot = chain_snapshot((self_step(1),), "wrong", final_score=0.0)
        assert export_sft(snapshot) == []

    def test_most_and_least_retrieval_cost(self):
        trunk_steps = (retrieved_step(1), retrieved_step(2))
        dev_a = ChainRecord(
            chain_id=1, fork_layer=1, fork_kind="self_answer", nodes=[],
            final_answer="the fact", final_score=1.0, terminated_by="cap",
            final_state=State(Q, (self_step(1), self_step(2)), "the fact"),
        )
        dev_b = ChainRecord(
            chain_id=2, fork_layer=2, fork_kind="self_answer", nodes=[],
            final_answer="half", final_score=0.5, terminated_by="cap",
            final_state=State(Q, (retrieved_step(1), self_step(2)), "half"),
        )
        snapshot = chain_snapshot(
            trunk_steps, "the fact", strategy="no_pruning", extra_chains=(dev_a, dev_b)
        )
        most = export_sft(snapshot, strategy="most")
        least = export_sft(snapshot, strategy="least")
        # max-reward chains are the trunk (2 retrievals) and dev_a (0)
        assert most[0].output.endswith("Sub-query: query 1\n")  # trunk picked
        assert len(most) == 3
        assert len(least) == 1  # dev_a: no retrievals, single segment
        assert "Answer: fact 1\n" in least[0].output

    def test_alternative_strategies_need_no_pruning_snapshot(self):
        snapshot = chain_snapshot((self_step(1),), "the fact", strategy="pruning")
        with pytest.raises(ExportError):
            export_sft(snapshot, strategy="most")

    def test_unknown_strategy_rejected(self):
        snapshot = chain_snapshot((), "the fact")
        with pytest.raises(ExportError):
            export_sft(snapshot, strategy="best")


_words = st.text(alphabet="ab \n", min_size=1, max_size=12)
_documents = st.lists(st.builds(Document, title=_words, text=_words), max_size=3)
_steps = st.lists(
    st.one_of(
        st.builds(Step, _words, st.builds(SelfAnswer, _words)),
        st.builds(Step, _words, st.builds(Retrieved, _words, _documents.map(tuple))),
    ),
    max_size=6,
)


class TestSftSlicingProperty:
    """Every terminal chain slices into one segment per retrieval plus one, each
    input ending where a retrieval's documents end and each non-final output at
    the next retrieval's sub-query line."""

    @settings(max_examples=examples(200), deadline=None)
    @given(steps=_steps, answer=_words, budget=st.integers(min_value=1, max_value=20))
    def test_segments_cut_at_the_retrievals(self, steps, answer, budget):
        config = ExpansionConfig(doc_char_budget=budget)
        state = State(Q, tuple(steps), answer)
        chain = ChainRecord(chain_id=0, fork_layer=0, fork_kind=None, nodes=[],
                            final_answer=answer, final_score=1.0, terminated_by="cap",
                            final_state=state)
        examples = export_sft(BuildResult(question=Q, config=config, chains=[chain]))

        template = HistoryTemplate(budget)
        question_block = QUESTION_BLOCK.format(question=Q.text)
        retrievals = [i for i, step in enumerate(steps) if isinstance(step.resolution, Retrieved)]
        assert [e.segment_index for e in examples] == list(range(len(retrievals) + 1))
        assert examples[0].input == question_block
        for example, at in zip(examples[1:], retrievals):
            through_docs = serialize_state(State(Q, tuple(steps[: at + 1])), template)
            assert example.input == question_block + through_docs
        for example, at in zip(examples, retrievals):
            sub_query = SUB_QUERY_LINE.format(sub_query=steps[at].resolution.sub_query)
            assert example.output.endswith(sub_query)
        assert examples[-1].input + examples[-1].output == render_chain(state, template)[0]


class TestDpoExecutionPairs:
    def _node_with_sub_questions(self):
        candidates = (
            cand("sub_question", "strong probe", 0.75, retained=True),
            cand("sub_question", "weak probe", 0.25),
            cand("sub_question", "middle probe", 0.50),
        )
        return plain_node(1, (), sub_question_candidates=candidates, chosen_kind="self_answer",
                          self_answer_candidates=(cand("self_answer", "resolved", 0.9, retained=True),))

    def test_margin_filters_pairs(self):
        node = self._node_with_sub_questions()
        snapshot = chain_snapshot((self_step(1),), "the fact", nodes=[node])
        pairs = [p for p in export_dpo(snapshot, margin=0.1) if p.pair_type == "execution"
                 and p.chosen == "strong probe"]
        assert len(pairs) == 2
        assert {p.rejected for p in pairs} == {"weak probe", "middle probe"}
        for pair in pairs:
            assert pair.chosen_reward - pair.rejected_reward >= 0.1

    def test_equal_rewards_produce_no_pairs(self):
        candidates = (
            cand("sub_question", "a probe", 0.5, retained=True),
            cand("sub_question", "b probe", 0.5),
            cand("sub_question", "c probe", 0.5),
        )
        node = plain_node(1, (), sub_question_candidates=candidates)
        snapshot = chain_snapshot((self_step(1),), "the fact", nodes=[node])
        assert export_dpo(snapshot, margin=0.1) == []

    def test_prefix_is_serialized_shared_state(self):
        steps = (self_step(1),)
        node = plain_node(
            2,
            steps,
            sub_question_candidates=(
                cand("sub_question", "deep probe", 0.8, retained=True),
                cand("sub_question", "shallow probe", 0.1),
            ),
        )
        snapshot = chain_snapshot(steps + (self_step(2),), "the fact", nodes=[node])
        pairs = export_dpo(snapshot, margin=0.1)
        assert pairs
        expected_prefix = serialize_state(State(Q, steps))
        for pair in pairs:
            assert pair.prompt == expected_prefix

    def test_resolution_pairs_share_sub_question_prefix(self):
        node = plain_node(
            1,
            (),
            sub_question_candidates=(cand("sub_question", "hop 1?", 0.9, retained=True),),
            chosen_kind="self_answer",
            self_answer_candidates=(
                cand("self_answer", "good recall", 0.9, retained=True),
                cand("self_answer", "bad recall", 0.2),
            ),
        )
        snapshot = chain_snapshot((self_step(1),), "the fact", nodes=[node])
        pairs = [p for p in export_dpo(snapshot, margin=0.1) if p.chosen == "good recall"]
        assert len(pairs) == 1
        assert pairs[0].prompt == "Sub-question 1: hop 1?\n"

    def test_pair_count_bounded_by_k_minus_one(self):
        node = self._node_with_sub_questions()
        snapshot = chain_snapshot((self_step(1),), "the fact", nodes=[node])
        pairs = export_dpo(snapshot, margin=0.0)
        by_kind = {}
        for pair in pairs:
            if pair.pair_type == "execution":
                by_kind.setdefault(pair.chosen, []).append(pair)
        for chosen, group in by_kind.items():
            assert len(group) <= 2  # k - 1 with k = 3


class TestDpoDecisionPairs:
    def test_retrieval_taken_prefers_sub_query(self):
        node = plain_node(
            1,
            (),
            sub_question_candidates=(cand("sub_question", "hop 1?", 0.8, retained=True),),
            chosen_kind="sub_query",
            self_answer_candidates=(
                cand("self_answer", "thin recall", 0.2),
                cand("self_answer", "thinner recall", 0.1),
            ),
            sub_query_candidates=(
                cand("sub_query", "query 1", 0.8, retained=True, documents=(DOC,)),
            ),
        )
        snapshot = chain_snapshot((retrieved_step(1),), "the fact", nodes=[node])
        decisions = [p for p in export_dpo(snapshot, margin=0.1) if p.pair_type == "decision"]
        assert len(decisions) == 1
        pair = decisions[0]
        assert pair.chosen == "Sub-query: query 1\n"
        assert pair.rejected == "Answer: thin recall\n"
        assert pair.chosen_reward == 0.8
        assert pair.rejected_reward == 0.2

    def test_skip_case_has_no_decision_pair_without_sub_queries(self):
        node = plain_node(
            1,
            (),
            sub_question_candidates=(cand("sub_question", "hop 1?", 0.9, retained=True),),
            chosen_kind="self_answer",
            self_answer_candidates=(cand("self_answer", "confident", 0.9, retained=True),),
        )
        snapshot = chain_snapshot((self_step(1),), "the fact", nodes=[node])
        assert [p for p in export_dpo(snapshot) if p.pair_type == "decision"] == []

    def test_termination_pair_from_probe(self):
        node = plain_node(
            1,
            (),
            sub_question_candidates=(cand("sub_question", "hop 1?", 0.3, retained=True),),
            chosen_kind="self_answer",
            self_answer_candidates=(cand("self_answer", "resolved", 0.9, retained=True),),
            terminate_probe=("early call", 0.9),
        )
        snapshot = chain_snapshot((self_step(1),), "the fact", nodes=[node])
        decisions = [p for p in export_dpo(snapshot, margin=0.1) if p.pair_type == "decision"]
        assert len(decisions) == 1
        pair = decisions[0]
        assert pair.chosen == "Final answer: early call\n"
        assert pair.rejected == "Sub-question 1: hop 1?\n"
        assert pair.chosen_reward == 0.9


class TestDpoInvariantsAndWriters:
    def test_margin_inequality_holds_for_every_pair(self):
        node = plain_node(
            1,
            (),
            sub_question_candidates=(
                cand("sub_question", "strong probe", 0.75, retained=True),
                cand("sub_question", "weak probe", 0.25),
            ),
            chosen_kind="sub_query",
            self_answer_candidates=(cand("self_answer", "thin recall", 0.2),),
            sub_query_candidates=(
                cand("sub_query", "query 1", 0.8, retained=True, documents=(DOC,)),
                cand("sub_query", "query x", 0.3),
            ),
        )
        snapshot = chain_snapshot((retrieved_step(1),), "the fact", nodes=[node])
        margin = 0.15
        pairs = export_dpo(snapshot, margin=margin)
        assert pairs
        for pair in pairs:
            assert pair.chosen_reward - pair.rejected_reward >= margin

    def test_negative_margin_rejected(self):
        snapshot = chain_snapshot((), "the fact")
        with pytest.raises(ExportError):
            export_dpo(snapshot, margin=-0.1)

    def test_re_export_is_byte_identical(self, tmp_path):
        node = plain_node(
            1,
            (),
            sub_question_candidates=(
                cand("sub_question", "strong probe", 0.75, retained=True),
                cand("sub_question", "weak probe", 0.25),
            ),
        )
        snapshot = chain_snapshot((retrieved_step(1), self_step(2)), "the fact", nodes=[node])
        sft_a, sft_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_sft_jsonl(export_sft(snapshot), str(sft_a))
        write_sft_jsonl(export_sft(snapshot), str(sft_b))
        assert sft_a.read_bytes() == sft_b.read_bytes()

        dpo_a, dpo_b = tmp_path / "da.jsonl", tmp_path / "db.jsonl"
        write_dpo_jsonl(export_dpo(snapshot), str(dpo_a))
        write_dpo_jsonl(export_dpo(snapshot), str(dpo_b))
        assert dpo_a.read_bytes() == dpo_b.read_bytes()

    def test_a_failed_write_keeps_the_old_file(self, tmp_path):
        # the second record cannot be encoded: the old file stays whole, and the
        # temp file the new one was streamed to is gone
        path = tmp_path / "sft.jsonl"
        write_jsonl([{"id": "old", "segment": 0}], str(path))
        old = path.read_bytes()
        with pytest.raises(TypeError):
            write_jsonl([{"id": "new"}, {"id": object()}], str(path))
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_jsonl_field_layout(self, tmp_path):
        import json

        node = plain_node(
            1,
            (),
            sub_question_candidates=(
                cand("sub_question", "strong probe", 0.75, retained=True),
                cand("sub_question", "weak probe", 0.25),
            ),
        )
        snapshot = chain_snapshot((self_step(1),), "the fact", nodes=[node])
        sft_path = tmp_path / "sft.jsonl"
        dpo_path = tmp_path / "dpo.jsonl"
        write_sft_jsonl(export_sft(snapshot), str(sft_path))
        write_dpo_jsonl(export_dpo(snapshot), str(dpo_path))
        sft_record = json.loads(sft_path.read_text().splitlines()[0])
        assert list(sft_record) == ["id", "segment", "input", "output"]
        dpo_record = json.loads(dpo_path.read_text().splitlines()[0])
        assert list(dpo_record) == [
            "id", "layer", "pair_type", "prompt", "chosen", "rejected",
            "chosen_reward", "rejected_reward",
        ]

    def test_failure_snapshot_exports_nothing(self):
        snapshot = chain_snapshot((), "x")
        snapshot.failure = {"layer": 1, "reason": "boom"}
        assert export_dpo(snapshot) == []


class TestExportsShowWhatThePolicySaw:
    """Export prompts are history text that the policy received while the tree grew."""

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_pruning_build(self, concurrency):
        question = Question(id="seen-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(
            k=3, n=1, t_max=3, majority_samples=2, rollout_cap="fixed", concurrency=concurrency
        )
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=2)
        prompts = []
        complete = policy.complete
        policy.complete = lambda request: prompts.append(request.prompt) or complete(request)
        result = TreeBuilder(policy, make_bench_retriever(), cfg).build_tree(question)

        def seen(text: str) -> bool:
            return any(text in prompt for prompt in prompts)

        pairs = export_dpo(result, margin=0.0)
        examples = export_sft(result)
        question_block = f"Question: {question.text}\n"
        assert len(pairs) == 15 and len(examples) == 4
        assert all(seen(pair.prompt) for pair in pairs)
        for example in examples:
            assert example.input.startswith(question_block)
            assert seen(example.input[len(question_block):])

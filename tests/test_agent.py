"""Agent loop: protocol grammar, caps, and dataset evaluation aggregates."""

from __future__ import annotations

import gc
import json
import re
import threading

import pytest

from ragtree import agent
from ragtree.agent import AgentTranscript, evaluate_dataset
from ragtree.errors import BackendUnavailable, ConfigurationError
from ragtree.policy import PolicyRequest, ScriptedPolicyBackend
from ragtree.retrieval import LexicalRetriever
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.templates import PolicyRole, load_default_templates
from ragtree.types import Question

from conftest import TEST_CORPUS, episode

Q = Question(id="agent-q", text="what follows alpha?", gold_answers=("beta",))


def rollout_policy(fn) -> ScriptedPolicyBackend:
    return ScriptedPolicyBackend({PolicyRole.ROLLOUT: fn})


def search_then_answer(searches: int, answer: str) -> ScriptedPolicyBackend:
    def handler(request: PolicyRequest) -> str:
        done = request.prompt.count("\n<information>\n")
        if done < searches:
            return f"<think> need round {done} </think> <search> beta follows </search>"
        return f"<think> settled </think> <answer> {answer} </answer>"

    return rollout_policy(handler)


@pytest.fixture
def retriever():
    return LexicalRetriever(TEST_CORPUS)


class TestRunAgent:
    def test_search_then_answer_event_shape(self, retriever):
        transcript = episode(Q, search_then_answer(1, "beta"), retriever)
        kinds = [e.kind for e in transcript.events]
        assert kinds == ["think", "search", "information", "think", "answer"]
        assert transcript.terminated
        assert transcript.final_answer == "beta"
        assert transcript.searches_used == 1
        assert transcript.steps_taken == 2

    def test_immediate_answer_no_search(self, retriever):
        transcript = episode(Q, search_then_answer(0, "beta"), retriever)
        assert [e.kind for e in transcript.events] == ["think", "answer"]
        assert transcript.searches_used == 0

    def test_search_budget_truncates(self, retriever):
        transcript = episode(
            Q, search_then_answer(10, "beta"), retriever, max_searches=4, max_steps=20
        )
        assert transcript.searches_used == 4
        assert not transcript.terminated
        assert transcript.final_answer is None
        assert transcript.failure == "search budget exhausted"

    def test_step_budget_truncates(self, retriever):
        transcript = episode(
            Q, search_then_answer(10, "beta"), retriever, max_searches=10, max_steps=3
        )
        assert transcript.steps_taken == 3
        assert not transcript.terminated
        assert transcript.failure == "step budget exhausted without an answer"

    def test_malformed_completion_fails_episode(self, retriever):
        policy = rollout_policy(lambda req: "rambling with no action tags")
        transcript = episode(Q, policy, retriever)
        assert not transcript.terminated
        assert "no <search> or <answer>" in transcript.failure

    def test_every_search_is_followed_by_information(self, retriever):
        transcript = episode(Q, search_then_answer(3, "beta"), retriever)
        events = transcript.events
        for index, event in enumerate(events):
            if event.kind == "search":
                assert events[index + 1].kind == "information"
                assert len(events[index + 1].documents) == 3

    def test_information_carries_top_k_documents(self, retriever):
        transcript = episode(Q, search_then_answer(1, "beta"), retriever, top_k=2)
        info = next(e for e in transcript.events if e.kind == "information")
        assert len(info.documents) == 2

    def test_initial_state_seeds_history(self, retriever):
        from ragtree.types import SelfAnswer, State, Step

        state = State(Q, (Step("first hop?", SelfAnswer("established fact")),))
        seen = {}

        def handler(request: PolicyRequest) -> str:
            seen["prompt"] = request.prompt
            return "<answer> beta </answer>"

        episode(Q, rollout_policy(handler), retriever, initial_state=state)
        assert "Sub-question 1: first hop?" in seen["prompt"]
        assert "Answer: established fact" in seen["prompt"]

    def test_unclosed_stop_stripped_search_is_tolerated(self, retriever):
        def handler(request: PolicyRequest) -> str:
            if request.prompt.count("\n<information>\n") == 0:
                return "<think> hmm </think> <search> beta follows"  # closer stripped
            return "<answer> beta </answer>"

        transcript = episode(Q, rollout_policy(handler), retriever)
        assert transcript.terminated
        assert transcript.searches_used == 1


    @pytest.mark.parametrize("side", ["policy", "retriever"])
    def test_a_backend_error_ends_the_episode_and_stays_on_it(self, retriever, side):
        down = BackendUnavailable(f"{side} down")

        class Down:
            def complete(self, request):
                raise down

            retrieve = complete

        if side == "policy":
            transcript = episode(Q, Down(), retriever)
            assert transcript.failure == "policy backend failed: policy down"
        else:
            transcript = episode(Q, search_then_answer(1, "beta"), Down())
            assert transcript.failure == "retriever failed: retriever down"
        assert transcript.error is down
        assert "error" not in transcript.to_dict()


class TestEvaluateDataset:
    def _questions(self):
        return [
            Question(id="e1", text="first question text", gold_answers=("right one",)),
            Question(id="e2", text="second question text", gold_answers=("other gold",)),
        ]

    def test_all_correct(self, retriever):
        answers = {"first question text": "right one", "second question text": "other gold"}

        def handler(request: PolicyRequest) -> str:
            import re

            q = re.search(r"### Question\n(.*?)\n\n### Previous Iteration", request.prompt).group(1)
            return f"<answer> {answers[q]} </answer>"

        report = evaluate_dataset(self._questions(), rollout_policy(handler), retriever)
        assert report.n == 2
        assert report.em == 1.0
        assert report.f1 == 1.0
        assert report.failures == 0

    def test_mixed_scores_average(self, retriever):
        questions = [
            Question(id="e1", text="first question text", gold_answers=("tok1 tok2",)),
            Question(id="e2", text="second question text", gold_answers=("tok1 tok2 tok3 tok4",)),
        ]
        answers = {
            "first question text": "tok1 tok2",  # F1 1.0
            "second question text": "tok1 tok2",  # F1 0.6667
        }

        def handler(request: PolicyRequest) -> str:
            import re

            q = re.search(r"### Question\n(.*?)\n\n### Previous Iteration", request.prompt).group(1)
            return f"<answer> {answers[q]} </answer>"

        report = evaluate_dataset(questions, rollout_policy(handler), retriever)
        assert report.f1 == pytest.approx((1.0 + 2 * (1.0 * 0.5) / 1.5) / 2, abs=1e-4)
        assert report.f1 == pytest.approx(0.8333, abs=1e-4)
        assert report.em == 0.5

    def test_backend_error_is_an_episode_failure(self, retriever):
        def handler(request: PolicyRequest) -> str:
            raise BackendUnavailable("policy endpoint down")

        report = evaluate_dataset(self._questions(), rollout_policy(handler), retriever)
        assert report.em == 0.0 and report.failures == 2
        failures = [item["failure"] for item in report.per_item]
        assert failures == ["policy backend failed: policy endpoint down"] * 2

    def test_the_default_templates_load_once_per_run(self, retriever, monkeypatch):
        loads = []

        def counted():
            loads.append(1)
            return load_default_templates()

        monkeypatch.setattr(agent, "load_default_templates", counted)
        questions = [Question(id=f"t{i}", text=f"question {i} text", gold_answers=("beta",))
                     for i in range(5)]
        report = evaluate_dataset(questions, search_then_answer(1, "beta"), retriever)
        assert (report.n, report.em) == (5, 1.0)
        assert len(loads) == 1

    def test_truncated_item_scores_zero(self, retriever):
        def handler(request: PolicyRequest) -> str:
            return "<search> alpha </search>"  # never answers

        report = evaluate_dataset(
            self._questions(), rollout_policy(handler), retriever, max_steps=2, max_searches=4
        )
        assert report.em == 0.0
        assert report.failures == 2

    @pytest.mark.parametrize(
        "limit, value",
        [("max_steps", 0), ("max_steps", -3), ("max_searches", -1), ("top_k", 0),
         ("temperature", -1), ("concurrency", 0), ("concurrency", -2)],
    )
    def test_out_of_range_limit_is_refused_before_any_backend_call(self, limit, value):
        calls = []

        def handler(request: PolicyRequest) -> str:
            calls.append(request)
            return "<answer> right one </answer>"

        class NoRetriever:
            def retrieve(self, request):
                calls.append(request)
                return []

        with pytest.raises(ConfigurationError, match=f"{limit} must be >= "):
            evaluate_dataset(self._questions(), rollout_policy(handler), NoRetriever(),
                             **{limit: value})
        assert calls == []

    def test_report_schema_and_transcripts(self, retriever, tmp_path):
        transcripts_path = tmp_path / "transcripts.jsonl"
        report = evaluate_dataset(
            self._questions(),
            search_then_answer(1, "right one"),
            retriever,
            dataset_name="fixture",
            transcripts_path=str(transcripts_path),
        )
        record = report.to_dict()
        assert list(record) == ["dataset", "n", "em", "f1", "avg_searches", "avg_steps", "failures"]
        assert record["dataset"] == "fixture"
        assert record["n"] == 2

        lines = transcripts_path.read_text().splitlines()
        assert len(lines) == 2
        parsed = json.loads(lines[0])
        assert parsed["question_id"] == "e1"
        assert parsed["events"][0]["kind"] == "think"
        assert parsed["searches_used"] == 1


    def test_transcripts_are_kept_only_when_written(self, retriever):
        # each completion counts the transcripts alive; a serial batch that keeps
        # none for writing holds only the running question's
        inner = search_then_answer(1, "right one")
        alive = []

        class Counting:
            def complete(self, request):
                alive.append(sum(isinstance(o, AgentTranscript) for o in gc.get_objects()))
                return inner.complete(request)

        questions = [Question(id=f"t{i}", text=f"probe {i}?", gold_answers=("x",)) for i in range(4)]
        report = evaluate_dataset(questions, Counting(), retriever)
        assert report.n == 4
        assert max(alive) == 1


class TestEvaluateConcurrency:
    """Question-level fan-out keeps the report and transcripts of a serial run."""

    QUESTIONS = [
        Question(id=f"c{i}", text=f"what is probe number {i}?", gold_answers=(f"fact {i}",))
        for i in range(8)
    ]

    @staticmethod
    def seeded_policy() -> ScriptedPolicyBackend:
        """Output depends on the request seed: a malformed completion when it is
        a multiple of 5, otherwise searches while it is odd, then an answer that
        is right when the seed is a multiple of 4."""

        def handler(request: PolicyRequest) -> str:
            number = re.search(r"probe number (\d+)", request.prompt).group(1)
            if request.seed % 5 == 0:
                return "no action here"
            if request.seed % 2:
                return f"<think> seed {request.seed} </think> <search> beta {number} </search>"
            answer = number if request.seed % 4 == 0 else request.seed
            return f"<answer> fact {answer} </answer>"

        return rollout_policy(handler)

    def _run(self, policy, retriever, concurrency, tmp_path):
        path = tmp_path / f"transcripts-{concurrency}.jsonl"
        report = evaluate_dataset(
            self.QUESTIONS,
            policy,
            retriever,
            seed=3,
            transcripts_path=str(path),
            concurrency=concurrency,
        )
        return report.to_dict(include_items=True), path.read_bytes()

    @pytest.mark.parametrize("backends", ["bench", "seeded"])
    def test_fan_out_matches_serial(self, backends, tmp_path):
        if backends == "bench":
            gold = {q.text: q.gold_answers[0] for q in self.QUESTIONS[::2]}
            make = lambda: (make_bench_policy(gold, rollout_searches=2), make_bench_retriever())
        else:
            make = lambda: (self.seeded_policy(), LexicalRetriever(TEST_CORPUS))
        serial = self._run(*make(), 1, tmp_path)
        fanned = self._run(*make(), 4, tmp_path)
        assert fanned == serial
        report = serial[0]
        assert [item["id"] for item in report["items"]] == [q.id for q in self.QUESTIONS]
        assert 0 < report["em"] < 1

    def test_questions_run_concurrently(self, retriever):
        # Each question's first completion waits for all four; run serially,
        # the first wait times out and its BrokenBarrierError fails the test.
        barrier = threading.Barrier(4, timeout=10)

        def handler(request: PolicyRequest) -> str:
            if "<information>" not in request.prompt:
                barrier.wait()
            return "<answer> fact 0 </answer>"

        report = evaluate_dataset(
            self.QUESTIONS[:4], rollout_policy(handler), retriever, concurrency=4
        )
        assert report.failures == 0
        assert report.em == 0.25

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_calls_leave_from_the_boundary(self, concurrency):
        callers = set()
        inner_policy, inner_retriever = search_then_answer(1, "fact 0"), LexicalRetriever(TEST_CORPUS)

        class Recording:
            def complete(self, request):
                callers.add(threading.current_thread())
                return inner_policy.complete(request)

            def retrieve(self, request):
                callers.add(threading.current_thread())
                return inner_retriever.retrieve(request)

        report = evaluate_dataset(self.QUESTIONS, Recording(), Recording(), concurrency=concurrency)
        assert report.avg_searches == 1 and report.failures == 0
        if concurrency == 1:
            assert callers == {threading.current_thread()}
        else:
            assert 1 < len(callers) <= concurrency
            assert all(thread.name.startswith("ragtree-send-") for thread in callers)

"""Expansion engine: decision expansion, retention, gating, chains, counters."""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLD, TEST_CORPUS, CountingRetriever, Scenario, examples, overlap_answer
from ragtree.agent import episode_prompt, evaluate_dataset
from ragtree.batch import expand_batch
from ragtree import batch, engine, scripted
from ragtree.driver import Build, gather
from ragtree.engine import (
    Boundary, Candidate, ExpansionConfig, TerminationVotes, TreeBuilder, TreeNode, _Build,
    _reward_bounds, _skips_retrieval, _vote_outcome, _winner, best_candidate, derive_seed,
    theoretical_counts,
)
from ragtree.errors import BackendUnavailable, NodeExpansionFailed
from ragtree.policy import PolicyRequest, PolicyResponse, ScriptedPolicyBackend
from ragtree.retrieval import LexicalRetriever, RetrievalRequest
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.templates import PolicyRole
from ragtree.types import Question, Retrieved, SelfAnswer, State


def make_builder(scenario: Scenario, retriever) -> TreeBuilder:
    return TreeBuilder(scenario.policy(), retriever, scenario.config)


@pytest.fixture
def drive():
    """Run a builder's step to its end on a build of its own, once every task of the
    build has ended (so its nodes are filled): ``drive(builder.run_rollout, question,
    *args)`` is ``builder.run_rollout(*args, build)``'s value."""

    def run(step, question: Question, *args, concurrency: int = 1):
        builder = step.__self__
        with Boundary(concurrency) as boundary:
            build = _Build(question, builder.policy, builder.retriever, boundary)
            return boundary.run([build.run(step(*args, build))])[0]

    return run


def rollout_args(builder: TreeBuilder, state: State, pending, layer: int, parts: tuple) -> tuple:
    """``run_rollout``'s arguments before the build, as ``_candidates`` makes them, for a
    rollout from ``state`` with the sub-question ``pending`` (or None) at seed ``parts``."""
    prompt = episode_prompt(state, builder.templates, builder.history_template, pending)
    seed = derive_seed(builder.config.seed, state.question.id, "rollout", *parts)
    return prompt, state.depth + (pending is not None), layer, seed


def resolve(drive, builder: TreeBuilder, scenario: Scenario, force_both: bool = False,
            concurrency: int = 1) -> TreeNode:
    """A layer-1 node whose retained sub-question is ``probe?``, resolved by ``builder``."""
    probe = Candidate("sub_question", "probe?", retained=True)
    node = TreeNode(1, State(scenario.question), TerminationVotes(),
                    sub_question_candidates=(probe,))
    drive(builder.expand_retrieval, scenario.question, node, force_both, concurrency=concurrency)
    return node


class TestTheoreticalCounts:
    def test_pruning_closed_form(self):
        cfg = ExpansionConfig(k=3, n=4)
        assert theoretical_counts(cfg, 4, "pruning") == (4 * 3 + 3 * 3 * 4 * 4) * 4 == 624

    def test_no_pruning_summation(self):
        cfg = ExpansionConfig(k=3, n=4)
        assert theoretical_counts(cfg, 4, "no_pruning") == 156 * (1 + 4 + 9 + 16) == 4680

    def test_full_node_power(self):
        cfg = ExpansionConfig(k=3, n=4)
        assert theoretical_counts(cfg, 4, "full_node") == (2 * 3 * 4) ** 4 == 331776
        assert theoretical_counts(cfg, 2, "full_node") == 576

    def test_l_must_be_positive(self):
        with pytest.raises(ValueError):
            theoretical_counts(ExpansionConfig(), 0)


class TestConfigValidation:
    def test_tau_range(self):
        with pytest.raises(ValueError):
            ExpansionConfig(tau=0.0)
        with pytest.raises(ValueError):
            ExpansionConfig(tau=1.5)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            ExpansionConfig(k=0)

    def test_metric_names(self):
        with pytest.raises(ValueError):
            ExpansionConfig(score_metric="bleu")

    def test_builder_renders_at_the_config_budget(self, retriever):
        cfg = ExpansionConfig(doc_char_budget=10)
        policy = make_bench_policy({})
        assert TreeBuilder(policy, retriever, cfg).history_template == cfg.history_template()
        with pytest.raises(ValueError, match="doc_char_budget"):
            TreeBuilder(policy, retriever, cfg, None, ExpansionConfig().history_template())


class TestMajorityVote:
    def test_three_of_five_terminates(self, scenario, retriever, drive):
        scenario.config = ExpansionConfig(k=3, n=1, t_max=2, majority_samples=5)
        scenario.set_votes(1, ["terminate", "terminate", "terminate", "continue", "continue"])
        scenario.finalize_answer = GOLD
        builder = make_builder(scenario, retriever)
        node = drive(builder.expand_termination, scenario.question, State(scenario.question), 1)
        assert node.votes.terminate == 3
        assert node.votes.continue_ == 2
        assert node.terminal_answer == GOLD

    def test_two_of_four_continues(self, scenario, retriever, drive):
        scenario.config = ExpansionConfig(k=2, n=1, t_max=2, majority_samples=4)
        scenario.set_votes(1, ["terminate", "terminate", "continue", "continue"])
        scenario.set_candidates("sub_question", 1, ["find a", "find b"])
        builder = make_builder(scenario, retriever)
        node = drive(builder.expand_termination, scenario.question, State(scenario.question), 1)
        assert node.terminal_answer is None
        assert node.votes.terminate == 2

    def test_malformed_votes_dropped_from_tally(self, scenario, retriever, drive):
        scenario.config = ExpansionConfig(
            k=2, n=1, t_max=2, majority_samples=3, malformed_retries=1
        )
        scenario.set_votes(1, ["terminate", "malformed", "malformed"], attempts=2)
        scenario.set_candidates("sub_question", 1, ["find a", "find b"])
        builder = make_builder(scenario, retriever)
        node = drive(builder.expand_termination, scenario.question, State(scenario.question), 1)
        # 1 terminate of 1 valid vote: strict majority
        assert node.terminal_answer is not None
        assert node.votes.total == 1


class TestRetention:
    def test_argmax_candidate_retained(self, scenario, retriever, drive):
        scenario.set_candidates("sub_question", 1, ["find m0", "find m1", "find m2"])
        scenario.rollout_answers = {
            "find m0": overlap_answer(1),  # F1 0.25
            "find m1": overlap_answer(3),  # F1 0.75
            "find m2": overlap_answer(2),  # F1 0.50
        }
        builder = make_builder(scenario, retriever)
        node = drive(builder.expand_termination, scenario.question, State(scenario.question), 1)
        rewards = [c.reward for c in node.sub_question_candidates]
        assert rewards == pytest.approx([0.25, 0.75, 0.5])
        assert node.retained("sub_question").content == "find m1"
        assert [c.retained for c in node.sub_question_candidates] == [False, True, False]

    def test_reward_ties_break_to_lowest_index(self, scenario, retriever, drive):
        scenario.set_candidates("sub_question", 1, ["find t0", "find t1", "find t2"])
        scenario.rollout_answers = {
            "find t0": overlap_answer(2),
            "find t1": overlap_answer(2),
            "find t2": overlap_answer(1),
        }
        builder = make_builder(scenario, retriever)
        node = drive(builder.expand_termination, scenario.question, State(scenario.question), 1)
        assert node.retained("sub_question").content == "find t0"

    def test_reward_is_mean_of_rollouts(self, scenario, retriever, drive):
        scenario.set_candidates("sub_question", 1, ["find m0"])
        scenario.rollout_answers = {"find m0": overlap_answer(3)}
        builder = make_builder(scenario, retriever)
        node = drive(builder.expand_termination, scenario.question, State(scenario.question), 1)
        candidate = node.sub_question_candidates[0]
        assert len(candidate.rollouts) == scenario.config.n
        mean = sum(r.score for r in candidate.rollouts) / len(candidate.rollouts)
        assert candidate.reward == pytest.approx(mean, abs=1e-12)

    def test_duplicate_candidates_merged(self, scenario, retriever, drive):
        scenario.set_candidates("sub_question", 1, ["Same Thing", "same thing!", "other probe"])
        builder = make_builder(scenario, retriever)
        node = drive(builder.expand_termination, scenario.question, State(scenario.question), 1)
        assert [c.content for c in node.sub_question_candidates] == ["Same Thing", "other probe"]

    def test_all_candidates_malformed_fails_expansion(self, scenario, retriever, drive):
        scenario.config = ExpansionConfig(k=2, n=1, t_max=2, majority_samples=1, malformed_retries=1)
        scenario.set_candidates("sub_question", 1, ["<malformed>", "<malformed>"], attempts=2)
        builder = make_builder(scenario, retriever)
        with pytest.raises(NodeExpansionFailed):
            drive(builder.expand_termination, scenario.question, State(scenario.question), 1)

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_a_set_with_no_candidate_raises_the_given_error(self, scenario, retriever,
                                                            concurrency):
        # best() on a set whose samples all came back malformed raises the caller's
        # error once they are read, rather than waiting on no candidate
        scenario.config = ExpansionConfig(k=2, n=1, majority_samples=1, malformed_retries=0)
        scenario.set_candidates("sub_question", 1, ["<malformed>", "<malformed>"])
        builder = make_builder(scenario, retriever)

        def main(build: _Build):
            empty = builder._candidates(build, PolicyRole.SUB_QUESTION, scenario.question.text,
                                        1, "sub_question", State(scenario.question))
            return (yield from empty.best(lambda: LookupError("no candidate was read")))

        with Boundary(concurrency) as boundary:
            build = _Build(scenario.question, builder.policy, retriever, boundary)
            with pytest.raises(LookupError, match="no candidate was read"):
                boundary.run([build.run(main(build))])


class TestRetrievalGate:
    def test_high_self_answer_skips_retrieval(self, scenario, retriever, drive):
        scenario.set_candidates("self_answer", 1, ["sa strong", "sa weak", "sa zero"])
        scenario.rollout_answers = {
            "sa strong": overlap_answer(3),  # 0.75 >= tau 0.7
            "sa weak": overlap_answer(1),
            "sa zero": "offtrack",
        }
        counting = CountingRetriever(retriever)
        builder = make_builder(scenario, counting)
        node = resolve(drive, builder, scenario)
        assert node.chosen_kind == "self_answer"
        assert node.retained("self_answer").content == "sa strong"
        assert node.sub_query_candidates == ()
        assert counting.requests == []

    def test_low_self_answers_expand_sub_queries(self, scenario, retriever, drive):
        scenario.set_candidates("self_answer", 1, ["sa a", "sa b", "sa c"])
        scenario.set_candidates("sub_query", 1, ["mq a", "mq b", "mq c"])
        scenario.rollout_answers = {"mq a": overlap_answer(2)}
        counting = CountingRetriever(retriever)
        builder = make_builder(scenario, counting)
        node = resolve(drive, builder, scenario)
        assert node.chosen_kind == "sub_query"
        assert len(node.sub_query_candidates) == 3
        # one retrieval per deduplicated sub-query
        assert [r.query for r in counting.requests] == ["mq a", "mq b", "mq c"]
        # retrieved documents attach to the candidate and its chain step
        assert len(node.retained("sub_query").documents) == scenario.config.top_k

    def test_sub_query_ties_break_to_lowest_index(self, scenario, retriever, drive):
        scenario.set_candidates("self_answer", 1, ["sa a", "sa b", "sa c"])
        scenario.set_candidates("sub_query", 1, ["mq t0", "mq t1", "mq t2"])
        scenario.rollout_answers = {
            "mq t0": overlap_answer(1),  # 0.25
            "mq t1": overlap_answer(2),  # 0.50
            "mq t2": overlap_answer(2),  # 0.50
        }
        builder = make_builder(scenario, retriever)
        node = resolve(drive, builder, scenario)
        assert node.retained("sub_query").content == "mq t1"

    def test_gate_is_threshold_inclusive(self, scenario, retriever, drive):
        scenario.config = ExpansionConfig(k=1, n=4, t_max=2, majority_samples=1, tau=0.75)
        scenario.set_candidates("self_answer", 1, ["sa edge"])
        scenario.rollout_answers = {"sa edge": overlap_answer(3)}  # exactly 0.75
        counting = CountingRetriever(retriever)
        node = resolve(drive, make_builder(scenario, counting), scenario)
        assert node.chosen_kind == "self_answer"
        assert node.sub_query_candidates == ()
        assert counting.requests == []

    @pytest.mark.parametrize("case", ["skip", "threshold-inclusive"])
    def test_a_concurrent_skip_sends_no_sub_query(self, scenario, retriever, case, drive):
        if case == "skip":
            scenario.set_candidates("self_answer", 1, ["sa strong", "sa weak", "sa zero"])
            scenario.rollout_answers = {"sa strong": overlap_answer(3), "sa weak": overlap_answer(1)}
        else:
            scenario.config = ExpansionConfig(k=1, n=4, t_max=2, majority_samples=1, tau=0.75)
            scenario.set_candidates("self_answer", 1, ["sa edge"])
            scenario.rollout_answers = {"sa edge": overlap_answer(3)}  # exactly 0.75
        inner, roles = scenario.policy(), []

        class Recording:
            def complete(self, request):
                roles.append(request.role)
                return inner.complete(request)

        counting = CountingRetriever(retriever)
        builder = TreeBuilder(Recording(), counting, scenario.config)
        node = resolve(drive, builder, scenario, concurrency=4)
        assert node.chosen_kind == "self_answer"
        assert node.sub_query_candidates == ()
        assert PolicyRole.SUB_QUERY not in roles
        assert counting.requests == []

    def test_all_sub_queries_malformed_fails_expansion(self, scenario, retriever, drive):
        scenario.config = ExpansionConfig(
            k=2, n=1, t_max=2, majority_samples=1, malformed_retries=1
        )
        scenario.set_candidates("self_answer", 1, ["sa a", "sa b"])
        scenario.set_candidates("sub_query", 1, ["<malformed>", "<malformed>"], attempts=2)
        builder = make_builder(scenario, retriever)
        with pytest.raises(NodeExpansionFailed):
            resolve(drive, builder, scenario)

    def test_force_both_prefers_self_answer_on_tie(self, scenario, retriever, drive):
        scenario.set_candidates("self_answer", 1, ["sa even"])
        scenario.set_candidates("sub_query", 1, ["mq even"])
        scenario.config = ExpansionConfig(k=1, n=2, t_max=2, majority_samples=1)
        scenario.rollout_answers = {
            "sa even": overlap_answer(2),
            "mq even": overlap_answer(2),
        }
        builder = make_builder(scenario, retriever)
        node = resolve(drive, builder, scenario, force_both=True)
        assert node.chosen_kind == "self_answer"
        assert node.retained("self_answer").content == "sa even"
        # the sub-query branch was expanded too, and stays the unretained alternative
        assert best_candidate(node.sub_query_candidates).content == "mq even"
        assert node.retained("sub_query") is None


class TestRollout:
    def test_immediate_correct_answer(self, scenario, retriever, drive):
        scenario.default_rollout_answer = GOLD
        builder = make_builder(scenario, retriever)
        result = drive(builder.run_rollout, scenario.question,
                       *rollout_args(builder, State(scenario.question), None, 1, ("t",)))
        assert result.score == 1.0
        assert result.final_answer == GOLD
        assert result.steps_taken == 1

    def test_cap_without_answer_scores_zero(self, scenario, retriever, drive):
        handlers = {
            role: (lambda req: "<think> still digging </think> <search> alpha </search>")
            for role in PolicyRole
        }
        builder = TreeBuilder(ScriptedPolicyBackend(handlers), retriever, scenario.config)
        result = drive(builder.run_rollout, scenario.question,
                       *rollout_args(builder, State(scenario.question), None, 1, ("t",)))
        assert result.score == 0.0
        assert result.final_answer is None

    def test_partial_answer_scores_f1(self, scenario, retriever, drive):
        scenario.default_rollout_answer = "g1 g2"
        builder = make_builder(scenario, retriever)
        result = drive(builder.run_rollout, scenario.question,
                       *rollout_args(builder, State(scenario.question), None, 1, ("t",)))
        assert result.score == pytest.approx(2 * (1.0 * 0.5) / 1.5, abs=1e-6)

    def test_em_metric_configurable(self, scenario, retriever, drive):
        scenario.config = ExpansionConfig(k=1, n=1, t_max=2, majority_samples=1, score_metric="em")
        scenario.default_rollout_answer = "g1 g2"
        builder = make_builder(scenario, retriever)
        result = drive(builder.run_rollout, scenario.question,
                       *rollout_args(builder, State(scenario.question), None, 1, ("t",)))
        assert result.score == 0.0  # partial overlap is not an exact match

    def test_residual_horizon_shrinks_with_depth(self, scenario, retriever, drive):
        handlers = {
            role: (lambda req: "<think> still digging </think> <search> alpha </search>")
            for role in PolicyRole
        }
        cfg = ExpansionConfig(k=1, n=1, t_max=4, majority_samples=1, rollout_cap="residual")
        builder = TreeBuilder(ScriptedPolicyBackend(handlers), retriever, cfg)
        deep_state = State(
            scenario.question,
            tuple(SelfStep(i) for i in range(3)),
        )
        result = drive(builder.run_rollout, scenario.question,
                       *rollout_args(builder, deep_state, "pending?", 4, ("t",)))
        # effective depth 4 of t_max 4: horizon 1
        assert result.steps_taken == 1

    def test_fixed_horizon_ignores_depth(self, scenario, retriever, drive):
        handlers = {
            role: (lambda req: "<think> still digging </think> <search> alpha </search>")
            for role in PolicyRole
        }
        cfg = ExpansionConfig(k=1, n=1, t_max=4, majority_samples=1, rollout_cap="fixed")
        builder = TreeBuilder(ScriptedPolicyBackend(handlers), retriever, cfg)
        deep_state = State(scenario.question, tuple(SelfStep(i) for i in range(3)))
        result = drive(builder.run_rollout, scenario.question,
                       *rollout_args(builder, deep_state, "pending?", 4, ("t",)))
        assert result.steps_taken == 4


def SelfStep(i: int):
    from ragtree.types import SelfAnswer, Step

    return Step(f"step {i}?", SelfAnswer(f"fact {i}"))


class TestBuildTree:
    def _two_layer_scenario(self, scenario: Scenario) -> Scenario:
        scenario.config = ExpansionConfig(k=3, n=2, t_max=2, majority_samples=3)
        scenario.set_candidates("sub_question", 1, ["find m0", "find m1", "find m2"])
        scenario.set_candidates("self_answer", 1, ["sa a", "sa b", "sa c"])
        scenario.set_candidates("sub_query", 1, ["mq a", "mq b", "mq c"])
        scenario.set_candidates("sub_question", 2, ["next n0", "next n1", "next n2"])
        scenario.set_candidates("self_answer", 2, ["deep strong", "deep weak", "deep zero"])
        scenario.rollout_answers = {
            # layer 1: sub-question m1 wins; self-answers all score 0 -> retrieve; mq b wins
            "find m0": overlap_answer(1),
            "find m1": overlap_answer(3),
            "find m2": overlap_answer(2),
            "sa a": "offtrack",
            "sa b": "offtrack",
            "sa c": "offtrack",
            "mq a": overlap_answer(1),
            "mq b": overlap_answer(2),
            "mq c": overlap_answer(0),
            # layer 2: sub-question n0 wins; self-answer "deep strong" clears tau
            "next n0": overlap_answer(3),
            "next n1": overlap_answer(1),
            "next n2": overlap_answer(2),
            "deep strong": overlap_answer(4),
            "deep weak": overlap_answer(1),
            "deep zero": "offtrack",
        }
        scenario.finalize_answer = GOLD
        return scenario

    def test_two_layer_retained_chain(self, scenario, retriever):
        scenario = self._two_layer_scenario(scenario)
        builder = make_builder(scenario, retriever)
        result = builder.build_tree(scenario.question)
        trunk = result.trunk
        assert trunk.terminated_by == "cap"
        assert trunk.final_answer == GOLD
        assert trunk.final_score == 1.0

        steps = trunk.final_state.steps
        assert len(steps) == 2
        assert steps[0].sub_question == "find m1"
        assert isinstance(steps[0].resolution, Retrieved)
        assert steps[0].resolution.sub_query == "mq b"
        assert steps[1].sub_question == "next n0"
        assert isinstance(steps[1].resolution, SelfAnswer)
        assert steps[1].resolution.answer == "deep strong"

        # the chain's nodes are the retained path, in layer order
        assert [node.layer for node in trunk.nodes] == [1, 2]
        assert trunk.nodes[0].chosen_kind == "sub_query"
        assert trunk.nodes[1].chosen_kind == "self_answer"
        # layer 2 skipped retrieval entirely
        assert trunk.nodes[1].sub_query_candidates == ()

    def test_immediate_termination_single_node(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=2, n=1, t_max=3, majority_samples=3)
        scenario.set_votes(1, ["terminate", "terminate", "terminate"])
        scenario.finalize_answer = GOLD
        builder = make_builder(scenario, retriever)
        result = builder.build_tree(scenario.question)
        trunk = result.trunk
        assert trunk.terminated_by == "vote"
        assert len(trunk.nodes) == 1
        assert trunk.nodes[0].terminal_answer == GOLD
        assert trunk.final_state.steps == ()
        assert trunk.final_state.final_answer == GOLD

    def test_cap_forces_answer_at_t_max_one(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=2, n=1, t_max=1, majority_samples=1)
        scenario.finalize_answer = "forced"
        builder = make_builder(scenario, retriever)
        result = builder.build_tree(scenario.question)
        trunk = result.trunk
        assert len(trunk.nodes) == 1
        assert trunk.terminated_by == "cap"
        assert trunk.final_answer == "forced"

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_a_lone_sub_query_wins_with_its_documents(self, concurrency):
        # with k = 1 the one sub-query is the winner before its retrieval returns
        question = Question(id="lone-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=1, n=1, t_max=1, majority_samples=1, rollout_cap="fixed",
                              concurrency=concurrency)
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=0)
        retriever = make_bench_retriever()
        node = TreeBuilder(policy, retriever, cfg).build_tree(question).trunk.nodes[0]
        query = node.retained("sub_query")
        assert node.chosen_kind == "sub_query"
        assert query.documents == tuple(retriever.retrieve(RetrievalRequest(query.content, 3)))

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    def test_a_rollout_backend_error_is_the_one_raised(self, concurrency):
        question = Question(id="down-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=2, n=2, t_max=2, majority_samples=2, concurrency=concurrency)
        inner = make_bench_policy({question.text: "beta"}, rollout_searches=1)
        raised = []

        class RolloutsDown:
            def complete(self, request):
                if request.role is PolicyRole.ROLLOUT:
                    raised.append(BackendUnavailable("rollout backend down"))
                    raise raised[-1]
                return inner.complete(request)

        with pytest.raises(BackendUnavailable) as excinfo:
            TreeBuilder(RolloutsDown(), make_bench_retriever(), cfg).build_tree(question)
        assert any(error is excinfo.value for error in raised)

    def test_node_expansion_failure_propagates(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=1, n=1, t_max=1, majority_samples=1, malformed_retries=0)
        scenario.set_candidates("sub_question", 1, ["<malformed>"], attempts=1)
        builder = make_builder(scenario, retriever)
        with pytest.raises(NodeExpansionFailed) as excinfo:
            builder.build_tree(scenario.question)
        assert excinfo.value.question_id == scenario.question.id

    def test_missing_cap_answer_fails_a_pruning_build(self, scenario, retriever):
        # no_pruning keeps such a chain with no answer (TestNoPruningCharacterization).
        scenario.config = ExpansionConfig(k=2, n=1, t_max=2, majority_samples=2, malformed_retries=0)
        scenario.finalize_answer = ""  # an empty <answer> parses as malformed
        builder = make_builder(scenario, retriever)
        with pytest.raises(NodeExpansionFailed) as excinfo:
            builder.build_tree(scenario.question)
        assert (excinfo.value.layer, excinfo.value.reason) == (
            2, "no terminal answer at the iteration cap"
        )

    def test_an_earlier_steps_error_outranks_a_later_failure(self, scenario, retriever):
        # "find a" wins layer 1 at once, so its resolution runs, comes back all
        # malformed and fails the layer while the last rollout of "find c" is
        # still out; that rollout then fails, as it would have first in a serial run
        scenario.config = ExpansionConfig(k=3, n=2, t_max=2, majority_samples=1,
                                          malformed_retries=0, concurrency=2)
        scenario.set_candidates("sub_question", 1, ["find a", "find b", "find c"])
        scenario.set_candidates("self_answer", 1, ["<malformed>"] * 3)
        scenario.set_candidates("sub_query", 1, ["<malformed>"] * 3)
        scenario.rollout_answers = {"find a": GOLD}
        late = derive_seed(0, scenario.question.id, "rollout", 1, "sub_question", 2, 1)
        inner = scenario.policy()

        class FailingLate:  # the request of the first steps of "find c"'s rollouts
            def complete(self, request):
                if late in [sample.seed for sample in request.samples()]:
                    time.sleep(0.3)
                    raise BackendUnavailable("the last rollout failed")
                return inner.complete(request)

        with pytest.raises(BackendUnavailable, match="the last rollout failed"):
            TreeBuilder(FailingLate(), retriever, scenario.config).build_tree(scenario.question)


class TestNoPruningStrategy:
    def test_chains_and_deviations(self, scenario, retriever):
        scenario.config = ExpansionConfig(
            k=2, n=1, t_max=2, majority_samples=2, strategy="no_pruning"
        )
        scenario.finalize_answer = GOLD
        builder = make_builder(scenario, retriever)
        result = builder.build_tree(scenario.question)
        # trunk + one deviation per round
        assert len(result.chains) == 3
        assert result.chains[0].fork_layer == 0
        assert sorted(c.fork_layer for c in result.chains[1:]) == [1, 2]
        for chain in result.chains:
            assert chain.final_answer == GOLD
            assert len(chain.final_state.steps) == 2
        # the deviation takes the opposite branch at its fork layer
        trunk_kind = result.chains[0].nodes[0].chosen_kind
        dev1 = next(c for c in result.chains if c.fork_layer == 1)
        assert dev1.nodes[0].chosen_kind != trunk_kind
        assert dev1.fork_kind == dev1.nodes[0].chosen_kind

    def test_both_branches_scored_every_layer(self, scenario, retriever):
        scenario.config = ExpansionConfig(
            k=2, n=1, t_max=2, majority_samples=2, strategy="no_pruning"
        )
        builder = make_builder(scenario, retriever)
        result = builder.build_tree(scenario.question)
        for node in result.chains[0].nodes:
            assert node.self_answer_candidates
            assert node.sub_query_candidates


class TestEq1MeanProperty:
    def test_reward_equals_mean_on_randomized_fixtures(self):
        rng = random.Random(11)
        for _ in range(1000):
            scores = [rng.random() for _ in range(rng.randint(1, 12))]
            reward = TreeBuilder.mean_reward(scores)
            assert abs(reward - sum(scores) / len(scores)) <= 1e-12
            assert 0.0 <= reward <= 1.0

    def test_empty_scores_mean_zero(self):
        assert TreeBuilder.mean_reward([]) == 0.0


# mostly a coarse grid, so that rewards tie and bounds meet
SCORES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0]),
                   st.floats(0.0, 1.0))


class TestSettleRules:
    """A decision settled on part of the results is the one all of them make."""

    @settings(max_examples=examples(500), deadline=None)
    @given(st.data())
    def test_an_early_winner_or_gate_is_the_final_one(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        scores = data.draw(st.lists(st.lists(SCORES, min_size=n, max_size=n), max_size=4), label="scores")
        read = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                  min_size=len(scores), max_size=len(scores)), label="read")
        tau = data.draw(st.floats(0.0, 1.0, exclude_min=True), label="tau")
        final = [Candidate("self_answer", str(i), reward=TreeBuilder.mean_reward(s))
                 for i, s in enumerate(scores)]
        best = best_candidate(final)
        skips = best is not None and best.reward >= tau
        partial = [
            _reward_bounds([x for x, seen in zip(s, mask) if seen], mask.count(False))
            for s, mask in zip(scores, read)
        ]
        complete = [_reward_bounds(s, 0) for s in scores]
        for bounds in (partial, complete):
            winner = _winner(bounds)
            if winner is not None:
                assert final[winner] is best
            gate = _skips_retrieval(bounds, tau)
            if gate is not None:
                assert gate == skips
        assert _skips_retrieval(complete, tau) is skips
        if final:
            assert final[_winner(complete)] is best

    @settings(max_examples=examples(300), deadline=None)
    @given(st.data())
    def test_an_early_vote_outcome_is_the_majority(self, data):
        kinds = data.draw(st.lists(st.sampled_from(["terminate", "continue", None]), min_size=1,
                                   max_size=7), label="kinds")
        read = data.draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)), label="read")
        seen = [kind for kind, r in zip(kinds, read) if r]
        majority = TerminationVotes(kinds.count("terminate"), kinds.count("continue")).majority_terminate
        outcome = _vote_outcome(seen.count("terminate"), seen.count("continue"), len(kinds) - len(seen))
        if outcome is not None:
            assert outcome == majority
        assert _vote_outcome(kinds.count("terminate"), kinds.count("continue"), 0) == majority


class TestDeterminism:
    def test_same_seed_builds_identical_trees(self, scenario, retriever):
        from ragtree.snapshot import build_result_to_dict, dumps_snapshot

        def build_once() -> str:
            fresh = Scenario(config=scenario.config, question=scenario.question)
            fresh.set_candidates("sub_question", 1, ["find a", "find b", "find c"])
            fresh.rollout_answers = {"find a": overlap_answer(2)}
            fresh.finalize_answer = GOLD
            builder = TreeBuilder(fresh.policy(), retriever, fresh.config)
            return dumps_snapshot(build_result_to_dict(builder.build_tree(fresh.question)))

        assert build_once() == build_once()

    def test_different_seed_changes_auto_candidates(self, scenario, retriever):
        from dataclasses import replace

        from ragtree.snapshot import build_result_to_dict, dumps_snapshot

        def build_with(seed: int) -> str:
            cfg = replace(scenario.config, seed=seed)
            fresh = Scenario(config=cfg, question=scenario.question)
            builder = TreeBuilder(fresh.policy(), retriever, cfg)
            return dumps_snapshot(build_result_to_dict(builder.build_tree(fresh.question)))

        assert build_with(0) != build_with(1)

    @pytest.mark.parametrize("parts", [(), (0,), (7, "q1", "vote", 1, 2, 0), ("cand", "é", None, 2.5)])
    def test_derive_seed_is_the_sha256_prefix(self, parts):
        import hashlib

        digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
        assert derive_seed(*parts) == int.from_bytes(digest[:8], "big") >> 1


class TestConcurrency:
    def test_concurrent_rollouts_match_sequential(self, scenario, retriever):
        from dataclasses import replace

        from ragtree.snapshot import build_result_to_dict, dumps_snapshot

        def build_with(workers: int) -> str:
            cfg = replace(scenario.config, concurrency=workers)
            fresh = Scenario(config=cfg, question=scenario.question)
            fresh.set_candidates("sub_question", 1, ["find a", "find b", "find c"])
            fresh.rollout_answers = {"find b": overlap_answer(3)}
            fresh.finalize_answer = GOLD
            builder = TreeBuilder(fresh.policy(), retriever, cfg)
            return dumps_snapshot(build_result_to_dict(builder.build_tree(fresh.question)))

        # ledger totals and tree contents join deterministically by index
        assert build_with(1) == build_with(4)


class TestRetrievalMemo:
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_backend_sees_each_distinct_request_once(self, concurrency):
        question = Question(id="memo-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(
            k=3, n=4, t_max=4, majority_samples=3, rollout_cap="fixed", concurrency=concurrency
        )
        retriever = CountingRetriever(make_bench_retriever())
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=cfg.t_max - 1)
        result = TreeBuilder(policy, retriever, cfg).build_tree(question)
        assert result.ledger.expansion_count("pruning") == 624
        # 12 sub-query candidates plus 432 rollout searches, logically
        assert result.ledger.retrieval_calls == 444
        distinct = {(r.query, r.top_k) for r in retriever.requests}
        assert len(retriever.requests) == len(distinct) == 15

    def test_a_direct_call_sends_each_distinct_retrieval_once(self, drive):
        question = Question(id="memo-one-call", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=3, n=4, t_max=4, rollout_cap="fixed", tau=1.0)
        retriever = CountingRetriever(make_bench_retriever())
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=cfg.t_max - 1)
        builder = TreeBuilder(policy, retriever, cfg)
        probe = Candidate("sub_question", "probe?", retained=True)
        node = TreeNode(1, State(question), TerminationVotes(), sub_question_candidates=(probe,))
        drive(builder.expand_retrieval, question, node, False)
        assert node.chosen_kind is not None and node.sub_query_candidates
        # 3 sub-queries plus 3 searches in each of 24 rollouts, logically
        distinct = {(r.query, r.top_k) for r in retriever.requests}
        assert len(retriever.requests) == len(distinct) == 6

    def test_calls_outside_build_tree_are_not_memoized(self, drive):
        question = Question(id="memo-direct", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=2, n=2, t_max=3, rollout_cap="fixed")
        retriever = CountingRetriever(make_bench_retriever())
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=cfg.t_max - 1)
        builder = TreeBuilder(policy, retriever, cfg)
        builder.build_tree(question)
        sent = len(retriever.requests)
        for index in range(2):
            drive(builder.run_rollout, question,
                  *rollout_args(builder, State(question), None, 0, ("direct", index)))
        # each rollout searches twice, for two queries; neither the last build's
        # memo nor a builder-wide one serves them, only each call's own
        assert len(retriever.requests) - sent == 4


def retrievals(retriever, *tasks, concurrency: int = 1) -> list:
    """Each task's value, the tasks run at once on one build that calls ``retriever``."""

    def main(build: Build):
        started = [build.spawn(task) for task in tasks]
        yield from gather(started)
        return [task.value for task in started]

    with Boundary(concurrency) as boundary:
        build = Build(None, retriever, boundary)
        return boundary.run([build.run(main(build))])[0]


def retrieve(*requests: RetrievalRequest):
    """A task that sends ``requests`` one after another; each reply, or the error."""
    replies = []
    for request in requests:
        try:
            replies.append((yield request))
        except BackendUnavailable as exc:
            replies.append(exc)
    return replies


class TestBuildRetrieve:
    """A build's single-flight retrieval memo."""

    GAMMA = RetrievalRequest(query="gamma", top_k=2)

    def test_concurrent_callers_share_one_call(self):
        inner = CountingRetriever(LexicalRetriever(TEST_CORPUS), delay_s=0.05)
        results = retrievals(inner, *[retrieve(self.GAMMA) for _ in range(8)], concurrency=2)
        assert len(inner.requests) == 1
        expected = LexicalRetriever(TEST_CORPUS).retrieve(self.GAMMA)
        assert all(docs == [expected] for docs in results)

    def test_failure_raises_and_is_not_cached(self):
        inner = CountingRetriever(LexicalRetriever(TEST_CORPUS), fail_first=1)
        ((failed, docs),) = retrievals(inner, retrieve(self.GAMMA, self.GAMMA))
        assert isinstance(failed, BackendUnavailable)
        assert [d.title for d in docs] == ["gamma", "alpha"]
        assert len(inner.requests) == 2

    def test_waiters_of_a_failed_call_get_its_error(self):
        # the failure stops the build, so nothing waiting on it calls again
        inner = CountingRetriever(LexicalRetriever(TEST_CORPUS), delay_s=0.1, fail_first=1)
        results = retrievals(inner, retrieve(self.GAMMA), retrieve(self.GAMMA), concurrency=2)
        assert [type(reply) for (reply,) in results] == [BackendUnavailable] * 2
        assert len(inner.requests) == 1

    def test_top_k_is_part_of_the_key(self):
        inner = CountingRetriever(LexicalRetriever(TEST_CORPUS))
        one = RetrievalRequest(query="gamma", top_k=1)
        ((first, second),) = retrievals(inner, retrieve(one, self.GAMMA))
        assert (len(first), len(second)) == (1, 2)
        assert [r.top_k for r in inner.requests] == [1, 2]

    def test_callers_get_distinct_lists(self):

        def mutate():
            first = yield self.GAMMA
            second = yield self.GAMMA
            first.clear()
            return first, second, (yield self.GAMMA)

        ((first, second, third),) = retrievals(LexicalRetriever(TEST_CORPUS), mutate())
        assert first == [] and len(second) == 2 and third == second and third is not second


class SlowPolicy:
    """Sleeps before each completion so concurrent builds interleave."""

    def __init__(self, inner, delay_s: float = 0.001):
        self.inner = inner
        self.delay_s = delay_s

    def complete(self, request):
        time.sleep(self.delay_s)
        return self.inner.complete(request)


class TestBuilderHoldsNoBuildState:
    def test_direct_calls_leave_a_finished_ledger_alone(self, drive):
        question = Question(id="ledger-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=2, n=2, t_max=3, majority_samples=2, rollout_cap="fixed")
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=cfg.t_max - 1)
        builder = TreeBuilder(policy, make_bench_retriever(), cfg)
        result = builder.build_tree(question)
        before = asdict(result.ledger)
        drive(builder.run_rollout, question,
              *rollout_args(builder, State(question), None, 1, ("direct", 0)))
        drive(builder.expand_termination, question, State(question), 1)
        assert asdict(result.ledger) == before

    @pytest.mark.parametrize("concurrency", [1, 2])
    @pytest.mark.parametrize("strategy", ["pruning", "no_pruning", "full_node"])
    def test_one_builder_shared_by_concurrent_builds(self, strategy, concurrency):
        from ragtree.snapshot import build_result_to_dict, dumps_snapshot

        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        questions = [
            Question(id=f"shared-{a}", text=f"what follows {a}?", gold_answers=(b,))
            for a, b in zip(words, words[1:])
        ]
        cfg = ExpansionConfig(
            k=2, n=1, t_max=2, majority_samples=2, rollout_cap="fixed", strategy=strategy,
            concurrency=concurrency,
        )
        gold = {q.text: q.gold_answers[0] for q in questions}
        policy = SlowPolicy(make_bench_policy(gold, rollout_searches=1))
        retriever = make_bench_retriever()

        def snapshot(builder: TreeBuilder, question: Question) -> str:
            return dumps_snapshot(build_result_to_dict(builder.build_tree(question)))

        expected = [snapshot(TreeBuilder(policy, retriever, cfg), q) for q in questions]
        shared = TreeBuilder(policy, retriever, cfg)
        barrier = threading.Barrier(len(questions))

        def build(question: Question) -> str:
            barrier.wait(timeout=10)
            return snapshot(shared, question)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(questions)) as pool:
                built = list(pool.map(build, questions))
        finally:
            sys.setswitchinterval(interval)
        assert built == expected


class InFlightProbe:
    """Policy and retriever in one: each call sleeps ``delay_s`` first and is
    logged as ("start"/"end", role), and its seeds in ``requests``, with the most
    samples in flight per role (a retrieval is one), the most calls in flight of
    every role ("all"), and the threads that made the calls.

    ``hold`` makes a call wait for others without relying on timing: it maps a
    seed to (role2, count), and the first call that carries that seed (a
    no_pruning rebuild repeats seeds) waits (for at most ``HOLD_S``) until
    ``count`` samples of role2 have started. A serial scheduler cannot
    meet the condition, so it runs late, and ``held`` records of each held call
    whether its condition was met in time. The first rollout completion raises
    ``BackendUnavailable`` when ``fail_rollout``; ``failed_at`` is then the
    number of events logged up to its end.
    """

    HOLD_S = 0.5

    def __init__(self, policy, retriever, delay_s=0.001, hold=None, fail_rollout=False):
        self.policy = policy
        self.retriever = retriever
        self.delay_s = delay_s
        self.hold = hold or {}
        self.fail_rollout = fail_rollout
        self.events = []
        self.requests = []  # (role, the seeds of a policy call's samples), in start order
        self.started = {}  # role -> samples started
        self.inflight = {}  # role -> samples in flight; "all" -> calls of every role
        self.peak = {}  # role or "all" -> the most in flight at once
        self.threads = set()  # the threads that called
        self.most_threads = 0  # the most threads alive at a call's start
        self.failed_at = None
        self.held = {}  # the seed of a held call -> whether what it waited for came in time
        self._changed = threading.Condition()

    def _call(self, role, call, request, seeds=(None,)):
        counts = ((role, len(seeds)), ("all", 1))
        with self._changed:
            self.started[role] = self.started.get(role, 0) + len(seeds)
            for key, count in counts:
                self.inflight[key] = self.inflight.get(key, 0) + count
                self.peak[key] = max(self.peak.get(key, 0), self.inflight[key])
            self.events.append(("start", role))
            self.threads.add(threading.current_thread())
            self.most_threads = max(self.most_threads, threading.active_count())
            fail = self.fail_rollout and role == PolicyRole.ROLLOUT
            if fail:
                self.fail_rollout = False
            self._changed.notify_all()
            key = next((seed for seed in seeds if seed in self.hold and seed not in self.held), None)
            if key is not None:
                awaited, count = self.hold[key]
                self.held[key] = self._changed.wait_for(
                    lambda: self.started.get(awaited, 0) >= count, self.HOLD_S
                )
        try:
            time.sleep(self.delay_s)
            if fail:
                raise BackendUnavailable("rollout backend down")
            return call(request)
        finally:
            with self._changed:
                for key, count in counts:
                    self.inflight[key] -= count
                self.events.append(("end", role))
                if fail:
                    self.failed_at = len(self.events)

    def complete(self, request):
        seeds = [sample.seed for sample in request.samples()]
        with self._changed:
            self.requests.append((request.role, seeds))
        return self._call(request.role, self.policy.complete, request, seeds)

    def retrieve(self, request):
        return self._call("retrieval", self.retriever.retrieve, request)


class TestBuildScheduler:
    QUESTION = Question(id="sched-q", text="what follows alpha?", gold_answers=("beta",))

    def probe_build(self, concurrency: int, strategy: str = "pruning", policy=None,
                    **probe_options) -> InFlightProbe:
        cfg = ExpansionConfig(k=3, n=2, t_max=2, majority_samples=3, rollout_cap="fixed",
                              strategy=strategy, concurrency=concurrency)
        policy = policy or make_bench_policy({self.QUESTION.text: "beta"}, rollout_searches=1)
        probe = InFlightProbe(policy, make_bench_retriever(), **probe_options)
        TreeBuilder(probe, probe, cfg).build_tree(self.QUESTION)
        return probe

    def test_votes_and_samples_fan_out(self):
        # a layer's votes leave in one request, as do a candidate set's samples,
        # so every sample of each is in flight at once
        probe = self.probe_build(concurrency=2)
        assert probe.peak[PolicyRole.TERMINATION] == 3
        assert probe.peak[PolicyRole.SUB_QUESTION] == 3
        votes = [derive_seed(0, self.QUESTION.id, "vote", 1, v, 0) for v in range(3)]
        assert probe.requests[0] == (PolicyRole.TERMINATION, votes)

    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_one_build_stays_within_its_bound(self, concurrency):
        probe = self.probe_build(concurrency)
        assert 1 < probe.peak["all"] <= concurrency
        # the calls leave from the build's senders alone, never from the threads that prepare them
        assert 1 < len(probe.threads) <= concurrency

    def test_serial_build_calls_from_the_caller_and_starts_no_thread(self):
        threads = threading.active_count()
        probe = self.probe_build(concurrency=1)
        assert probe.threads == {threading.current_thread()}
        assert probe.peak["all"] == 1
        assert probe.most_threads == threading.active_count() == threads

    def test_rollouts_start_while_samples_are_in_flight(self):
        # the first layer's last (k-th) sub-question sample comes back malformed, so
        # it is asked again alone, and that request waits for a rollout to start
        def seed(attempt: int) -> int:
            return derive_seed(0, self.QUESTION.id, "cand", "sub_question", 1, 2, attempt)

        bench = make_bench_policy({self.QUESTION.text: "beta"}, rollout_searches=1)

        class MalformedFirst:
            def complete(self, request):
                response = bench.complete(request)
                response.texts = tuple("no tags" if sample.seed == seed(0) else text
                                       for sample, text in zip(request.samples(), response.texts))
                return response

        probe = self.probe_build(concurrency=2, policy=MalformedFirst(),
                                 hold={seed(1): (PolicyRole.ROLLOUT, 1)})
        events = probe.events
        first_rollout = events.index(("start", PolicyRole.ROLLOUT))
        sample_ends = [i for i, e in enumerate(events) if e == ("end", PolicyRole.SUB_QUESTION)]
        assert first_rollout < sample_ends[1]  # the set's first request, then the sample's
        assert probe.held == {seed(1): True}

    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_the_next_step_leaves_before_the_last_rollout_returns(self, concurrency):
        # Every rollout scores 1 and every self-answer 0, so candidate 0 wins each
        # set and the layer searches. The last rollout step of layer 1's last
        # sub-question waits for the first self-answer sample, and that of its
        # last sub-query for layer 2's first vote (the 4th vote sample); a build
        # that waits for every rollout of a step before the next meets neither.
        def last_step(kind: str) -> int:
            return derive_seed(0, self.QUESTION.id, "rollout", 1, kind, 2, 1) + 1

        hold = {last_step("sub_question"): (PolicyRole.SELF_ANSWER, 1),
                last_step("sub_query"): (PolicyRole.TERMINATION, 4)}
        probe = self.probe_build(concurrency, hold=hold)
        assert probe.held == {key: True for key in hold}

    def test_a_fork_waits_for_no_other_task(self):
        # Every rollout scores 1, so layer 2's first sub-question wins once its own
        # rollouts are in. The first steps of the rollouts of the trunk's last layer-2
        # sub-question wait for the 10th vote sample: round 1 sends 3, the trunk's
        # round-2 rebuild 6, and the 10th is the first of the round-1 deviation's rebuild,
        # which runs after the trunk forks at layer 2. A fork that waits for every
        # task of the build meets it only once the hold has timed out.
        held = derive_seed(0, self.QUESTION.id, "rollout", 2, "sub_question", 2, 0)
        hold = {held: (PolicyRole.TERMINATION, 10)}
        probe = self.probe_build(4, strategy="no_pruning", hold=hold)
        assert probe.held == {held: True}

    def test_failed_build_stops_spending(self, tmp_path):
        policy = make_bench_policy({self.QUESTION.text: "beta"}, rollout_searches=1)

        def probe() -> InFlightProbe:
            return InFlightProbe(policy, make_bench_retriever(), delay_s=0.005, fail_rollout=True)

        for concurrency in (2, 4):
            cfg = ExpansionConfig(k=3, n=4, t_max=4, majority_samples=3, concurrency=concurrency)
            failing = probe()
            threads = set(threading.enumerate())
            with pytest.raises(BackendUnavailable, match="rollout backend down"):
                TreeBuilder(failing, failing, cfg).build_tree(self.QUESTION)
            calls = len(failing.events)
            time.sleep(0.05)
            assert len(failing.events) == calls
            assert failing.inflight["all"] == 0
            assert set(threading.enumerate()) <= threads
            # only calls already past the boundary may start once the failing call has returned
            started_after = [e for e in failing.events[failing.failed_at:] if e[0] == "start"]
            assert len(started_after) <= concurrency - 1

            failing = probe()
            out = tmp_path / f"c{concurrency}"
            manifest = expand_batch([self.QUESTION], lambda: TreeBuilder(failing, failing, cfg),
                                    str(out))
            assert manifest.items[0].status == "failed"
            assert "rollout backend down" in manifest.items[0].error

    def test_a_closed_build_runs_nothing_more(self):
        # one call fails while another is out and four are queued: the build's
        # generators are closed, and none of the queued calls starts
        started, resumed, closed = [], [], []

        class Policy:
            def complete(self, request):
                started.append(request.seed)
                time.sleep(0.05 if request.seed else 0.01)
                if request.seed == 0:
                    raise BackendUnavailable("the first call failed")
                return PolicyResponse(text="<answer> ok </answer>")

        def call(seed: int):
            try:
                yield PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seed=seed)
                resumed.append(seed)
            finally:
                closed.append(seed)

        def main(build: Build):
            yield from gather([build.spawn(call(seed)) for seed in range(6)])

        with Boundary(2) as boundary:
            build = Build(Policy(), None, boundary)
            with pytest.raises(BackendUnavailable, match="the first call failed"):
                boundary.run([build.run(main(build))])
        assert sorted(started) == [0, 1]
        assert resumed == []
        assert sorted(closed) == list(range(6))


    def test_a_main_line_error_is_the_one_raised(self):
        # the main line's call fails while three calls of the tasks it spawned are
        # queued: a serial run makes those first, so they are made, and the build
        # raises the main line's error, not a refusal
        class Policy:
            def complete(self, request):
                time.sleep(0.01 if request.seed == 0 else 0.05)
                if request.seed == 0:
                    raise BackendUnavailable("the main line's call failed")
                return PolicyResponse(text="<answer> ok </answer>")

        def call(seed: int):
            yield PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seed=seed)

        def main(build: Build):
            for seed in range(1, 5):
                build.spawn(call(seed))
            yield PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seed=0)

        with Boundary(2) as boundary:
            build = Build(Policy(), None, boundary)
            with pytest.raises(BackendUnavailable, match="the main line's call failed"):
                boundary.run([build.run(main(build))])

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    def test_the_serially_first_error_is_raised(self, concurrency):
        # main spawns a, then b: b's call fails first, but a serial run makes both of
        # a's calls before b's, so the build raises a's second call's error
        class Policy:
            def complete(self, label):
                if label == "a: ok":
                    time.sleep(0.02)
                    return label
                raise BackendUnavailable(label)

        def calls(*labels: str):
            for label in labels:
                yield label

        def main(build: Build):
            yield from gather([build.spawn(calls("a: ok", "a: failed")),
                               build.spawn(calls("b: failed"))])

        with Boundary(concurrency) as boundary:
            build = Build(Policy(), None, boundary)
            with pytest.raises(BackendUnavailable, match="a: failed"):
                boundary.run([build.run(main(build))])

    def test_a_sender_never_moves_the_failure_later(self, monkeypatch):
        # main spawns x, e, p and l; p spawns q, so the places run x, e, q, l. l's call
        # fails in a sender, which finds l ahead of every failure and is held there
        # until the driver has recorded e's earlier failure (e raises once l has
        # ended). q's call, queued behind l's while x's holds the other sender, must
        # then be refused: a sender that stores l's place after its check moves the
        # failure back behind q, and q's call is made
        made, tasks, places = [], {}, {}
        recorded, q_taken = threading.Event(), threading.Event()
        behind, raised = Build.behind, Boundary._raised

        class Policy:
            def complete(self, label):
                made.append(label)
                if label == "x":
                    q_taken.wait(5)
                if label == "l":
                    raise BackendUnavailable("l failed")
                return label

        def sender_behind(build, at):
            if not threading.current_thread().name.startswith("ragtree-send"):
                return behind(build, at)
            if at == places.get("q"):  # a sender takes q's call once e's failure is recorded
                recorded.wait(5)
                q_taken.set()
                return behind(build, at)
            result = behind(build, at)
            if at == places["l"] and "l" in made:  # the check after l's call, before the store
                recorded.wait(5)
            return result

        def driver_raised(boundary, task, error):
            raised(boundary, task, error)
            if task is tasks["e"]:
                recorded.set()

        monkeypatch.setattr(Build, "behind", sender_behind)
        monkeypatch.setattr(Boundary, "_raised", driver_raised)

        def call(label: str):
            yield label

        def fail_after_l():
            yield from gather([tasks["l"]])
            raise ValueError("e failed")

        def spawn_q(build: Build):
            tasks["q"] = build.spawn(call("q"))
            places["q"] = tasks["q"].at
            yield from ()

        def main(build: Build):
            for name, steps in (("x", call("x")), ("e", fail_after_l()), ("p", spawn_q(build)),
                                ("l", call("l"))):
                tasks[name] = build.spawn(steps)
            places["l"] = tasks["l"].at
            yield from gather(list(tasks.values()))

        with Boundary(2) as boundary:
            build = Build(Policy(), None, boundary)
            with pytest.raises(ValueError, match="e failed"):
                boundary.run([build.run(main(build))])
        assert recorded.is_set() and q_taken.is_set()
        assert sorted(made) == ["l", "x"]
        assert build.failed_at == tasks["e"].at

    def test_a_retrieval_refused_behind_the_failure_is_made_for_a_task_ahead(self):
        # x's retrieval is queued behind q's call when f fails, so it is refused, but p,
        # ahead of f, waits on that same retrieval: it is made for p, and the build
        # raises f's error, as a serial run does, not the refusal
        class Backends:
            def complete(self, label):
                time.sleep({"p": 0.005, "f": 0.03, "q": 0.05}[label])
                if label == "f":
                    raise BackendUnavailable("f failed")
                return label

            def retrieve(self, request):
                return [request.query]

        def call(*requests):
            for request in requests:
                reply = yield request
            return reply

        def main(build: Build):
            found = RetrievalRequest(query="r", top_k=1)
            tasks = [build.spawn(call(*requests))
                     for requests in (("p", found), ("f",), ("q",), (found,))]
            yield from gather(tasks)

        with Boundary(2) as boundary:
            backends = Backends()
            build = Build(backends, backends, boundary)
            with pytest.raises(BackendUnavailable, match="f failed"):
                boundary.run([build.run(main(build))])

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["no_pruning", "full_node"])
    def test_a_resolutions_first_error_in_serial_order_is_raised(self, strategy, concurrency):
        # both resolution sets are sampled at once, self-answers first: the first
        # sub-query sample fails at once, but a serial run meets the first
        # self-answer sample's error, 50 ms later, first
        inner = make_bench_policy({self.QUESTION.text: "beta"}, rollout_searches=0)
        lock, seen = threading.Lock(), set()

        class FirstSamplesFail:
            def complete(self, request):
                with lock:
                    first = request.role not in seen
                    seen.add(request.role)
                if first and request.role is PolicyRole.SELF_ANSWER:
                    time.sleep(0.05)
                    raise BackendUnavailable("the first self-answer sample failed")
                if first and request.role is PolicyRole.SUB_QUERY:
                    raise BackendUnavailable("the first sub-query sample failed")
                return inner.complete(request)

        cfg = ExpansionConfig(k=2, n=1, t_max=1, strategy=strategy, concurrency=concurrency)
        with pytest.raises(BackendUnavailable, match="self-answer"):
            TreeBuilder(FirstSamplesFail(), make_bench_retriever(), cfg).build_tree(self.QUESTION)


class TestSettledDecisions:
    @pytest.mark.parametrize("strategy", ["pruning", "no_pruning", "full_node"])
    def test_every_concurrency_sends_the_serial_requests(self, strategy):
        # settling a step early starts no call that a serial build would not make
        question = Question(id="settle-q", text="what follows alpha?", gold_answers=("beta",))
        inner = make_bench_policy({question.text: "beta"}, rollout_searches=1)

        def requests(concurrency: int) -> list:
            seen = []

            class Recording:
                def complete(self, request):
                    seen.append((request.role.value, request.prompt, request.seed, request.temperature))
                    return inner.complete(request)

            cfg = ExpansionConfig(k=2, n=2, t_max=2, majority_samples=3, rollout_cap="fixed",
                                  strategy=strategy, concurrency=concurrency)
            TreeBuilder(Recording(), make_bench_retriever(), cfg).build_tree(question)
            return sorted(seen)

        serial = requests(1)
        assert requests(2) == serial
        assert requests(4) == serial


class TestMaxTokens:
    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_every_request_carries_the_configured_budget(self, concurrency):
        question = Question(id="tokens-q", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=2, n=2, t_max=2, majority_samples=2, max_tokens=64,
                              concurrency=concurrency)
        inner = make_bench_policy({question.text: "beta"}, rollout_searches=1)
        seen = []

        class Recording:
            def complete(self, request):
                seen.append((request.role, request.max_tokens))
                return inner.complete(request)

        TreeBuilder(Recording(), make_bench_retriever(), cfg).build_tree(question)
        assert {role for role, _ in seen} == set(PolicyRole)
        assert {tokens for _, tokens in seen} == {64}


class TestRunBoundary:
    """The builds of a batch share one boundary: ``concurrency`` c requests in flight."""

    QUESTIONS = [
        Question(id=f"run-{i}", text=f"what is probe number {i}?", gold_answers=(f"fact {i}",))
        for i in range(8)
    ]

    @staticmethod
    def config(concurrency: int) -> ExpansionConfig:
        return ExpansionConfig(
            k=3, n=2, t_max=2, majority_samples=3, rollout_cap="fixed", concurrency=concurrency
        )

    def shared_probe(self) -> InFlightProbe:
        gold = {q.text: q.gold_answers[0] for q in self.QUESTIONS}
        return InFlightProbe(make_bench_policy(gold, rollout_searches=1), make_bench_retriever())

    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_a_batch_stays_within_one_bound(self, concurrency, tmp_path):
        cfg = self.config(concurrency)
        probe = self.shared_probe()
        threads = threading.active_count()
        manifest = expand_batch(self.QUESTIONS, lambda: TreeBuilder(probe, probe, cfg),
                                str(tmp_path), concurrency=concurrency)
        assert manifest.counts["ok"] == len(self.QUESTIONS)
        assert 1 < probe.peak["all"] <= concurrency
        assert 1 < len(probe.threads) <= concurrency
        # the c senders are the only threads the run starts
        assert probe.most_threads - threads <= concurrency

    def test_an_evaluation_stays_within_one_bound(self):
        concurrency, probe = 4, self.shared_probe()
        threads = threading.active_count()
        report = evaluate_dataset(self.QUESTIONS, probe, probe, concurrency=concurrency)
        assert report.failures == 0 and report.em == 1.0
        assert 1 < probe.peak["all"] <= concurrency
        assert 1 < len(probe.threads) <= concurrency
        assert probe.most_threads - threads <= concurrency

    def test_a_lone_build_stays_within_one_bound(self):
        concurrency, probe = 4, self.shared_probe()
        threads = threading.active_count()
        result = TreeBuilder(probe, probe, self.config(concurrency)).build_tree(self.QUESTIONS[0])
        assert result.trunk.final_score == 1.0
        assert 1 < probe.peak["all"] <= concurrency
        assert 1 < len(probe.threads) <= concurrency
        assert probe.most_threads - threads <= concurrency

    def test_a_failed_question_stops_only_its_own_build(self, tmp_path):
        concurrency, questions = 4, self.QUESTIONS[:4]
        failing = questions[1]
        shared = self.shared_probe()
        # each question's calls pass through a probe of its own on their way to the shared one
        probes = {
            q.id: InFlightProbe(shared, shared, delay_s=0, fail_rollout=q is failing)
            for q in questions
        }
        cfg = self.config(concurrency)

        class PerQuestion(TreeBuilder):
            def build_tree(self, question, *boundary):
                probe = probes[question.id]
                return TreeBuilder(probe, probe, self.config).build_tree(question, *boundary)

        clean_cfg = self.config(1)
        clean = expand_batch(questions, lambda: TreeBuilder(shared, shared, clean_cfg),
                             str(tmp_path / "clean"))
        assert clean.counts["ok"] == len(questions)
        shared.peak.clear()
        batch = expand_batch(questions, lambda: PerQuestion(shared, shared, cfg),
                             str(tmp_path / "batch"), concurrency=concurrency)
        assert [item.status for item in batch.items] == ["ok", "failed", "ok", "ok"]
        assert "rollout backend down" in batch.items[1].error
        for item, reference in zip(batch.items, clean.items):
            if item.status == "ok":
                assert Path(item.snapshot).read_bytes() == Path(reference.snapshot).read_bytes()
        assert shared.peak["all"] <= concurrency
        # only calls already past the boundary may start once the failing call has returned
        failed = probes[failing.id]
        started_after = [e for e in failed.events[failed.failed_at:] if e[0] == "start"]
        assert len(started_after) <= concurrency - 1

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_a_batch_makes_one_builder(self, concurrency, tmp_path):
        probe, cfg = self.shared_probe(), self.config(concurrency)
        made = []

        def factory() -> TreeBuilder:
            made.append(TreeBuilder(probe, probe, cfg))
            return made[-1]

        manifest = expand_batch(self.QUESTIONS[:3], factory, str(tmp_path), concurrency=concurrency)
        assert manifest.counts["ok"] == 3
        assert len(made) == 1

    def test_successive_runs_return_their_own_values_in_order(self):
        # the first job of each run asks for two documents, which come 50 ms late,
        # so it ends after the jobs behind it
        lexical = LexicalRetriever(TEST_CORPUS)

        class Retriever:
            def retrieve(self, request):
                time.sleep(0.05 if request.top_k == 2 else 0)
                return lexical.retrieve(request)

        def job(boundary: Boundary, query: str, top_k: int):
            def step():
                docs = yield RetrievalRequest(query=query, top_k=top_k)
                return docs[0].title

            return Build(None, Retriever(), boundary).run(step())

        with Boundary(2) as boundary:
            first = boundary.run([job(boundary, "gamma", 2), job(boundary, "beta", 1),
                                  job(boundary, "alpha", 1)])
            second = boundary.run([job(boundary, "beta", 2), job(boundary, "gamma", 1)])
        assert first == ["gamma", "beta", "alpha"]
        assert second == ["beta", "gamma"]

    def test_the_next_job_starts_while_a_call_is_out(self):
        # job a's call waits for job b's to start: with a slot free and no task ready,
        # the run starts b while a's call is out
        b_started = threading.Event()

        class Policy:
            def complete(self, label):
                if label == "b":
                    b_started.set()
                    return True
                return b_started.wait(timeout=2)

        def job(boundary: Boundary, label: str):
            def step():
                return (yield label)

            return Build(Policy(), None, boundary).run(step())

        with Boundary(2) as boundary:
            assert boundary.run([job(boundary, "a"), job(boundary, "b")]) == [True, True]

    def test_a_failed_build_with_calls_out_lets_the_next_job_start(self):
        # job a's build fails while its two other calls are out: with no task ready and
        # c calls still counted, b starts only because no job is live
        release = threading.Event()

        class Policy:
            def complete(self, label):
                if label == "fail":
                    raise BackendUnavailable("down")
                if label == "hold":
                    release.wait(timeout=5)
                return label

        def call(label: str):
            return (yield label)

        def job(boundary: Boundary, labels: list):
            build = Build(Policy(), None, boundary)

            def main():
                tasks = [build.spawn(call(label)) for label in labels]
                yield from gather(tasks)
                return [task.value for task in tasks]

            try:
                return (yield from build.run(main()))
            except BackendUnavailable as exc:
                return f"failed: {exc}"

        with Boundary(2) as boundary:
            try:
                values = boundary.run([job(boundary, ["fail", "hold", "hold"]),
                                       job(boundary, ["b"]), job(boundary, ["c"])])
            finally:
                release.set()
        assert values == ["failed: down", ["b"], ["c"]]

    def test_a_serial_boundary_runs_one_question_at_a_time(self, tmp_path):
        probe, cfg = self.shared_probe(), self.config(1)
        threads = threading.active_count()
        manifest = expand_batch(self.QUESTIONS[:4], lambda: TreeBuilder(probe, probe, cfg),
                                str(tmp_path), concurrency=4)
        assert manifest.counts["ok"] == 4
        assert probe.peak["all"] == 1
        assert probe.threads == {threading.current_thread()}
        assert probe.most_threads == threads

    def test_strategy_costs_runs_every_build_on_one_boundary(self, monkeypatch):
        made = []

        class Counted(Boundary):
            def __init__(self, concurrency=1):
                made.append(concurrency)
                super().__init__(concurrency)

        monkeypatch.setattr(engine, "Boundary", Counted)
        monkeypatch.setattr(scripted, "Boundary", Counted, raising=False)
        cfg = ExpansionConfig(k=2, n=1, t_max=2, concurrency=2)
        costs = scripted.strategy_costs(self.QUESTIONS[:3], cfg, ("pruning", "full_node"), 1)
        assert [cost.measured for cost in costs] == [cost.theoretical for cost in costs]
        assert made == [2]

    def test_a_jobs_own_error_ends_the_run(self, monkeypatch, tmp_path):
        # writing the second question's snapshot fails while other questions' builds
        # are out: the error is raised, and the run stops its calls and its threads
        concurrency, questions = 2, self.QUESTIONS[:4]
        probe, cfg = self.shared_probe(), self.config(concurrency)
        failed_at, real_save = [], batch.save_snapshot

        def save_snapshot(record, path):
            if Path(path).stem == questions[1].id:
                failed_at.append(len(probe.events))
                raise OSError("the disk is full")
            real_save(record, path)

        monkeypatch.setattr(batch, "save_snapshot", save_snapshot)
        with pytest.raises(OSError, match="the disk is full"):
            expand_batch(questions, lambda: TreeBuilder(probe, probe, cfg), str(tmp_path),
                         concurrency=concurrency)
        assert not [t for t in threading.enumerate() if t.name.startswith("ragtree-")]
        started_after = [e for e in probe.events[failed_at[0]:] if e[0] == "start"]
        assert len(started_after) <= concurrency - 1

    def test_an_interrupt_stops_the_whole_batch(self, tmp_path):
        # the second question's 10th call raises KeyboardInterrupt while the first
        # question's build is still running beside it
        concurrency, questions = 2, self.QUESTIONS[:4]
        gold = {q.text: q.gold_answers[0] for q in questions}
        inner = make_bench_policy(gold, rollout_searches=1)
        lock, starts, interrupted_at = threading.Lock(), [], []

        class Interrupting:
            def complete(self, request):
                with lock:
                    starts.append(request.prompt)
                    nth = sum(questions[1].text in prompt for prompt in starts)
                    if questions[1].text in request.prompt and nth == 10:
                        interrupted_at.append(len(starts))
                        raise KeyboardInterrupt
                time.sleep(0.001)
                return inner.complete(request)

        cfg = self.config(concurrency)
        with pytest.raises(KeyboardInterrupt):
            expand_batch(questions, lambda: TreeBuilder(Interrupting(), make_bench_retriever(), cfg),
                         str(tmp_path), concurrency=concurrency)
        calls = len(starts)
        time.sleep(0.05)
        assert len(starts) == calls
        # only calls already past the boundary may start once the interrupt is raised
        assert len(starts) - interrupted_at[0] <= concurrency - 1

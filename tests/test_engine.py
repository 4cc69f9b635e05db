"""Expansion engine: decision expansion, retention, gating, chains, counters."""

from __future__ import annotations

import random

import pytest

from conftest import GOLD, CountingRetriever, Scenario, overlap_answer
from ragtree.engine import ExpansionConfig, TreeBuilder, theoretical_counts
from ragtree.errors import NodeExpansionFailed
from ragtree.policy import ScriptedPolicyBackend
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.templates import PolicyRole
from ragtree.types import Question, Retrieved, SelfAnswer, State


def make_builder(scenario: Scenario, retriever) -> TreeBuilder:
    return TreeBuilder(scenario.policy(), retriever, scenario.config)


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


class TestMajorityVote:
    def test_three_of_five_terminates(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=3, n=1, t_max=2, majority_samples=5)
        scenario.set_votes(1, ["terminate", "terminate", "terminate", "continue", "continue"])
        scenario.finalize_answer = GOLD
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_termination(State(scenario.question), 1)
        assert expansion.terminated
        assert expansion.votes.terminate == 3
        assert expansion.votes.continue_ == 2
        assert expansion.terminal_answer == GOLD

    def test_two_of_four_continues(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=2, n=1, t_max=2, majority_samples=4)
        scenario.set_votes(1, ["terminate", "terminate", "continue", "continue"])
        scenario.set_candidates("sub_question", 1, ["find a", "find b"])
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_termination(State(scenario.question), 1)
        assert not expansion.terminated
        assert expansion.votes.terminate == 2

    def test_malformed_votes_dropped_from_tally(self, scenario, retriever):
        scenario.config = ExpansionConfig(
            k=2, n=1, t_max=2, majority_samples=3, malformed_retries=1
        )
        scenario.set_votes(1, ["terminate", "malformed", "malformed"], attempts=2)
        scenario.set_candidates("sub_question", 1, ["find a", "find b"])
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_termination(State(scenario.question), 1)
        # 1 terminate of 1 valid vote: strict majority
        assert expansion.terminated
        assert expansion.votes.total == 1


class TestRetention:
    def test_argmax_candidate_retained(self, scenario, retriever):
        scenario.set_candidates("sub_question", 1, ["find m0", "find m1", "find m2"])
        scenario.rollout_answers = {
            "find m0": overlap_answer(1),  # F1 0.25
            "find m1": overlap_answer(3),  # F1 0.75
            "find m2": overlap_answer(2),  # F1 0.50
        }
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_termination(State(scenario.question), 1)
        rewards = [c.reward for c in expansion.candidates]
        assert rewards == pytest.approx([0.25, 0.75, 0.5])
        assert expansion.chosen.content == "find m1"
        assert [c.retained for c in expansion.candidates] == [False, True, False]

    def test_reward_ties_break_to_lowest_index(self, scenario, retriever):
        scenario.set_candidates("sub_question", 1, ["find t0", "find t1", "find t2"])
        scenario.rollout_answers = {
            "find t0": overlap_answer(2),
            "find t1": overlap_answer(2),
            "find t2": overlap_answer(1),
        }
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_termination(State(scenario.question), 1)
        assert expansion.chosen.content == "find t0"

    def test_reward_is_mean_of_rollouts(self, scenario, retriever):
        scenario.set_candidates("sub_question", 1, ["find m0"])
        scenario.rollout_answers = {"find m0": overlap_answer(3)}
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_termination(State(scenario.question), 1)
        candidate = expansion.candidates[0]
        assert len(candidate.rollouts) == scenario.config.n
        mean = sum(r.score for r in candidate.rollouts) / len(candidate.rollouts)
        assert candidate.reward == pytest.approx(mean, abs=1e-12)

    def test_duplicate_candidates_merged(self, scenario, retriever):
        scenario.set_candidates("sub_question", 1, ["Same Thing", "same thing!", "other probe"])
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_termination(State(scenario.question), 1)
        assert [c.content for c in expansion.candidates] == ["Same Thing", "other probe"]

    def test_all_candidates_malformed_fails_expansion(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=2, n=1, t_max=2, majority_samples=1, malformed_retries=1)
        scenario.set_candidates("sub_question", 1, ["<malformed>", "<malformed>"], attempts=2)
        builder = make_builder(scenario, retriever)
        with pytest.raises(NodeExpansionFailed):
            builder.expand_termination(State(scenario.question), 1)


class TestRetrievalGate:
    def test_high_self_answer_skips_retrieval(self, scenario, retriever):
        scenario.set_candidates("self_answer", 1, ["sa strong", "sa weak", "sa zero"])
        scenario.rollout_answers = {
            "sa strong": overlap_answer(3),  # 0.75 >= tau 0.7
            "sa weak": overlap_answer(1),
            "sa zero": "offtrack",
        }
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_retrieval(State(scenario.question), 1, "probe?")
        assert expansion.skipped_retrieval
        assert expansion.chosen_kind == "self_answer"
        assert expansion.chosen.content == "sa strong"
        assert expansion.sub_query_candidates == ()
        assert builder._ledger.retrieval_calls == 0

    def test_low_self_answers_expand_sub_queries(self, scenario, retriever):
        scenario.set_candidates("self_answer", 1, ["sa a", "sa b", "sa c"])
        scenario.set_candidates("sub_query", 1, ["mq a", "mq b", "mq c"])
        scenario.rollout_answers = {"mq a": overlap_answer(2)}
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_retrieval(State(scenario.question), 1, "probe?")
        assert not expansion.skipped_retrieval
        assert expansion.chosen_kind == "sub_query"
        assert len(expansion.sub_query_candidates) == 3
        # one retrieval per deduplicated sub-query
        assert builder._ledger.retrieval_calls == 3
        # retrieved documents attach to the candidate and its chain step
        assert len(expansion.chosen.documents) == scenario.config.top_k

    def test_sub_query_ties_break_to_lowest_index(self, scenario, retriever):
        scenario.set_candidates("self_answer", 1, ["sa a", "sa b", "sa c"])
        scenario.set_candidates("sub_query", 1, ["mq t0", "mq t1", "mq t2"])
        scenario.rollout_answers = {
            "mq t0": overlap_answer(1),  # 0.25
            "mq t1": overlap_answer(2),  # 0.50
            "mq t2": overlap_answer(2),  # 0.50
        }
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_retrieval(State(scenario.question), 1, "probe?")
        assert expansion.chosen.content == "mq t1"

    def test_gate_is_threshold_inclusive(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=1, n=4, t_max=2, majority_samples=1, tau=0.75)
        scenario.set_candidates("self_answer", 1, ["sa edge"])
        scenario.rollout_answers = {"sa edge": overlap_answer(3)}  # exactly 0.75
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_retrieval(State(scenario.question), 1, "probe?")
        assert expansion.skipped_retrieval

    def test_all_sub_queries_malformed_fails_expansion(self, scenario, retriever):
        scenario.config = ExpansionConfig(
            k=2, n=1, t_max=2, majority_samples=1, malformed_retries=1
        )
        scenario.set_candidates("self_answer", 1, ["sa a", "sa b"])
        scenario.set_candidates("sub_query", 1, ["<malformed>", "<malformed>"], attempts=2)
        builder = make_builder(scenario, retriever)
        with pytest.raises(NodeExpansionFailed):
            builder.expand_retrieval(State(scenario.question), 1, "probe?")

    def test_force_both_prefers_self_answer_on_tie(self, scenario, retriever):
        scenario.set_candidates("self_answer", 1, ["sa even"])
        scenario.set_candidates("sub_query", 1, ["mq even"])
        scenario.config = ExpansionConfig(k=1, n=2, t_max=2, majority_samples=1)
        scenario.rollout_answers = {
            "sa even": overlap_answer(2),
            "mq even": overlap_answer(2),
        }
        builder = make_builder(scenario, retriever)
        expansion = builder.expand_retrieval(
            State(scenario.question), 1, "probe?", force_both=True
        )
        assert expansion.chosen_kind == "self_answer"
        assert expansion.alt_kind == "sub_query"
        assert not expansion.skipped_retrieval


class TestRollout:
    def test_immediate_correct_answer(self, scenario, retriever):
        scenario.default_rollout_answer = GOLD
        builder = make_builder(scenario, retriever)
        result = builder.run_rollout(State(scenario.question), None, 1, ("t",))
        assert result.score == 1.0
        assert result.final_answer == GOLD
        assert result.steps_taken == 1

    def test_cap_without_answer_scores_zero(self, scenario, retriever):
        handlers = {
            role: (lambda req: "<think> still digging </think> <search> alpha </search>")
            for role in PolicyRole
        }
        builder = TreeBuilder(ScriptedPolicyBackend(handlers), retriever, scenario.config)
        result = builder.run_rollout(State(scenario.question), None, 1, ("t",))
        assert result.score == 0.0
        assert result.final_answer is None

    def test_partial_answer_scores_f1(self, scenario, retriever):
        scenario.default_rollout_answer = "g1 g2"
        builder = make_builder(scenario, retriever)
        result = builder.run_rollout(State(scenario.question), None, 1, ("t",))
        assert result.score == pytest.approx(2 * (1.0 * 0.5) / 1.5, abs=1e-6)

    def test_em_metric_configurable(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=1, n=1, t_max=2, majority_samples=1, score_metric="em")
        scenario.default_rollout_answer = "g1 g2"
        builder = make_builder(scenario, retriever)
        result = builder.run_rollout(State(scenario.question), None, 1, ("t",))
        assert result.score == 0.0  # partial overlap is not an exact match

    def test_residual_horizon_shrinks_with_depth(self, scenario, retriever):
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
        result = builder.run_rollout(deep_state, "pending?", 4, ("t",))
        # effective depth 4 of t_max 4: horizon 1
        assert result.steps_taken == 1

    def test_fixed_horizon_ignores_depth(self, scenario, retriever):
        handlers = {
            role: (lambda req: "<think> still digging </think> <search> alpha </search>")
            for role in PolicyRole
        }
        cfg = ExpansionConfig(k=1, n=1, t_max=4, majority_samples=1, rollout_cap="fixed")
        builder = TreeBuilder(ScriptedPolicyBackend(handlers), retriever, cfg)
        deep_state = State(scenario.question, tuple(SelfStep(i) for i in range(3)))
        result = builder.run_rollout(deep_state, "pending?", 4, ("t",))
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

        # node links form the retained path
        assert trunk.nodes[0].child is trunk.nodes[1]
        assert trunk.nodes[1].child is None
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

    def test_node_expansion_failure_propagates(self, scenario, retriever):
        scenario.config = ExpansionConfig(k=1, n=1, t_max=1, majority_samples=1, malformed_retries=0)
        scenario.set_candidates("sub_question", 1, ["<malformed>"], attempts=1)
        builder = make_builder(scenario, retriever)
        with pytest.raises(NodeExpansionFailed) as excinfo:
            builder.build_tree(scenario.question)
        assert excinfo.value.question_id == scenario.question.id


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

    def test_calls_outside_build_tree_are_not_memoized(self):
        question = Question(id="memo-direct", text="what follows alpha?", gold_answers=("beta",))
        cfg = ExpansionConfig(k=2, n=2, t_max=3, rollout_cap="fixed")
        retriever = CountingRetriever(make_bench_retriever())
        policy = make_bench_policy({question.text: "beta"}, rollout_searches=cfg.t_max - 1)
        builder = TreeBuilder(policy, retriever, cfg)
        builder.build_tree(question)
        sent = len(retriever.requests)
        for index in range(2):
            builder.run_rollout(State(question), None, layer=0, seed_parts=("direct", index))
        # each rollout searches twice; neither the last build's memo nor a
        # builder-wide one serves them
        assert len(retriever.requests) - sent == 4

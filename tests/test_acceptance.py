"""Acceptance suite: one test per primary criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass lines.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from conftest import GOLD, Scenario, StubPolicyServer, StubRetrieverServer, episode, overlap_answer
from ragtree.cli import main
from ragtree.engine import ExpansionConfig, TreeBuilder, theoretical_counts
from ragtree.export import export_dpo, export_sft, write_dpo_jsonl, write_sft_jsonl
from ragtree.history import render_chain, serialize_state
from ragtree.metrics import exact_match, f1_score, normalize_answer
from ragtree.parsing import find_first_action, parse_self_answer, parse_termination
from ragtree.retrieval import LexicalRetriever
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.snapshot import build_result_to_dict, dumps_snapshot, snapshot_from_dict
from ragtree.types import Question

COUNT_QUESTION = Question(id="acc-count", text="what follows alpha?", gold_answers=("beta",))


def _pass(name: str) -> None:
    print(f"PASS: {name}")


def bench_build(strategy: str, l: int, k: int = 3, n: int = 4):
    cfg = ExpansionConfig(
        k=k, n=n, t_max=l, strategy=strategy, majority_samples=k, rollout_cap="fixed"
    )
    policy = make_bench_policy({COUNT_QUESTION.text: "beta"}, rollout_searches=l - 1)
    builder = TreeBuilder(policy, make_bench_retriever(), cfg)
    return builder.build_tree(COUNT_QUESTION), cfg


def test_expansion_count_reproduction():
    """Criterion 1: measured counts equal the closed forms, in under 10 seconds."""
    started = time.monotonic()

    pruning, cfg = bench_build("pruning", 4)
    assert pruning.ledger.expansion_count("pruning") == 624
    assert theoretical_counts(cfg, 4, "pruning") == 624

    no_pruning, cfg = bench_build("no_pruning", 4)
    assert no_pruning.ledger.expansion_count("no_pruning") == 4680
    assert theoretical_counts(cfg, 4, "no_pruning") == 4680

    for l, expected in ((1, 24), (2, 576)):
        full, cfg = bench_build("full_node", l)
        assert full.ledger.expansion_count("full_node") == expected
        assert theoretical_counts(cfg, l, "full_node") == expected

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"scripted count reproduction took {elapsed:.1f}s"
    _pass(
        "expansion-count reproduction: pruning 624, no-pruning 4680, "
        f"full-node 576 at l=2 ({elapsed:.2f}s)"
    )


def test_relative_efficiency_ratio():
    """Criterion 2: the no-pruning / pruning call-count ratio is exactly 7.5.

    The production wall-time ratio is service-bound and is reported, not
    asserted.
    """
    pruning, _ = bench_build("pruning", 4)
    no_pruning, _ = bench_build("no_pruning", 4)
    p = pruning.ledger.expansion_count("pruning")
    np_ = no_pruning.ledger.expansion_count("no_pruning")
    assert np_ / p == 7.5
    _pass(f"relative efficiency: call-count ratio {np_}/{p} = {np_ / p}")


def test_reward_mean_property_suite():
    """Criterion 3: candidate reward is the rollout mean, within 1e-12, in [0, 1]."""
    rng = random.Random(42)
    for _ in range(1000):
        scores = [rng.random() for _ in range(rng.randint(1, 16))]
        reward = TreeBuilder.mean_reward(scores)
        assert abs(reward - sum(scores) / len(scores)) <= 1e-12
        assert 0.0 <= reward <= 1.0

    # and the engine stores exactly that mean on every candidate it builds
    result, _ = bench_build("pruning", 2)
    checked = 0
    for node in result.trunk.nodes:
        for kind in ("sub_question", "self_answer", "sub_query"):
            for candidate in node.candidates_of(kind):
                mean = sum(r.score for r in candidate.rollouts) / len(candidate.rollouts)
                assert abs(candidate.reward - mean) <= 1e-12
                assert 0.0 <= candidate.reward <= 1.0
                checked += 1
    assert checked > 0
    _pass(f"reward-mean property: 1000 randomized fixtures + {checked} engine candidates")


def _random_scenario(case_index: int):
    rng = random.Random(9000 + case_index)
    k = rng.choice([2, 3])
    n = rng.choice([1, 2])
    t_max = rng.choice([1, 2, 3])
    cfg = ExpansionConfig(
        k=k,
        n=n,
        t_max=t_max,
        tau=rng.choice([0.3, 0.7, 1.0]),
        majority_samples=rng.choice([1, 3, 5]),
    )
    question = Question(
        id=f"rand{case_index}", text=f"randomized case {case_index}?", gold_answers=(GOLD,)
    )
    scenario = Scenario(config=cfg, question=question)
    scenario.finalize_answer = GOLD
    for layer in range(1, t_max + 1):
        scenario.set_votes(
            layer,
            [rng.choice(["terminate", "continue"]) for _ in range(cfg.majority_samples)],
        )
        for kind, tag in (("sub_question", "sq"), ("self_answer", "sa"), ("sub_query", "mq")):
            contents = [f"case{case_index} layer{layer} {tag}{i}" for i in range(k)]
            scenario.set_candidates(kind, layer, contents)
            for content in contents:
                scenario.rollout_answers[content] = overlap_answer(rng.randint(0, 4))
    return scenario


def test_pruning_invariants_on_randomized_trees():
    """Criterion 4: retention, gate, and termination invariants on 200 scripted trees."""
    retriever = make_bench_retriever()
    trees = 0
    for case_index in range(200):
        scenario = _random_scenario(case_index)
        builder = TreeBuilder(scenario.policy(), retriever, scenario.config)
        result = builder.build_tree(scenario.question)
        trunk = result.trunk
        tau = scenario.config.tau
        for node in trunk.nodes:
            if node.terminal_answer is not None:
                assert node.votes.majority_terminate
                continue
            assert not node.votes.majority_terminate

            # retained sub-question is the argmax, ties to the lowest index
            subq = node.sub_question_candidates
            retained_index = next(i for i, c in enumerate(subq) if c.retained)
            rewards = [c.reward for c in subq]
            assert rewards[retained_index] == max(rewards)
            assert retained_index == rewards.index(max(rewards))

            # retrieval happens iff the best self-answer reward is below tau
            sa_rewards = [c.reward for c in node.self_answer_candidates]
            layer_retrievals = result.ledger.per_layer[node.layer]["retrieval_calls"]
            if node.chosen_kind == "self_answer":
                assert max(sa_rewards) >= tau
                assert node.sub_query_candidates == ()
                assert layer_retrievals == 0
            else:
                assert node.chosen_kind == "sub_query"
                assert max(sa_rewards) < tau
                assert layer_retrievals == len(node.sub_query_candidates)
                sq = node.sub_query_candidates
                retained_sq = next(i for i, c in enumerate(sq) if c.retained)
                sq_rewards = [c.reward for c in sq]
                assert sq_rewards[retained_sq] == max(sq_rewards)
                assert retained_sq == sq_rewards.index(max(sq_rewards))

        # termination: vote majority, or the depth cap
        if trunk.terminated_by == "vote":
            assert trunk.nodes[-1].votes.majority_terminate
        else:
            assert trunk.terminated_by == "cap"
            assert len(trunk.final_state.steps) == scenario.config.t_max
        trees += 1
    assert trees == 200
    _pass("pruning invariants: 200 randomized scripted trees")


def test_export_contracts():
    """Criterion 5: SFT concatenation, DPO margin and shared prefix, byte-stable re-export."""
    margin = 0.05
    snapshots = []
    for strategy in ("pruning", "no_pruning"):
        for case_index in (3, 7, 11):
            scenario = _random_scenario(case_index)
            from dataclasses import replace

            scenario.config = replace(scenario.config, strategy=strategy)
            builder = TreeBuilder(scenario.policy(), make_bench_retriever(), scenario.config)
            record = build_result_to_dict(builder.build_tree(scenario.question))
            snapshots.append(snapshot_from_dict(record))

    sft_total = dpo_total = 0
    for snapshot in snapshots:
        examples = export_sft(snapshot, min_final_score=-1.0)
        if examples:
            text = render_chain(snapshot.trunk.final_state)[0]
            last = examples[-1]
            assert last.input + last.output == text
            for example in examples:
                assert text.startswith(example.input + example.output)
            sft_total += len(examples)

        expected_prefixes = set()
        for chain in snapshot.chains:
            for node in chain.nodes:
                state_prefix = serialize_state(node.state)
                expected_prefixes.add(state_prefix)
                for candidate in node.sub_question_candidates:
                    if candidate.retained:
                        expected_prefixes.add(
                            state_prefix
                            + f"Sub-question {node.layer}: {candidate.content}\n"
                        )
        pairs = export_dpo(snapshot, margin=margin)
        for pair in pairs:
            assert pair.chosen_reward - pair.rejected_reward >= margin
            assert pair.prompt in expected_prefixes
        dpo_total += len(pairs)

        assert export_dpo(snapshot, margin=margin) == pairs  # pure re-export

    assert sft_total > 0 and dpo_total > 0
    _pass(f"export contracts: {sft_total} SFT segments, {dpo_total} DPO pairs verified")


def oracle_f1(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    pool = list(gold_tokens)
    overlap = 0
    for token in pred_tokens:
        if token in pool:
            pool.remove(token)
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def test_metric_oracle_agreement():
    """Criterion 6: EM/F1 agree with a brute-force oracle; the worked example holds."""
    assert f1_score("united states", ["united states of america"]) == pytest.approx(
        2 * (1.0 * 0.5) / 1.5, abs=1e-6
    )

    rng = random.Random(77)
    vocab = ["the", "a", "an", "iron", "Gate!", "river", "42", "of", "north", ""]
    cases = 0
    for _ in range(1000):
        prediction = " ".join(rng.choice(vocab) for _ in range(rng.randrange(7)))
        gold = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 7)))
        assert f1_score(prediction, [gold]) == pytest.approx(
            oracle_f1(prediction, gold), abs=1e-12
        )
        expected_em = 1.0 if normalize_answer(prediction) == normalize_answer(gold) else 0.0
        assert exact_match(prediction, [gold]) == expected_em
        cases += 1
    assert cases == 1000
    _pass("metric oracle: 1000 randomized cases + worked example 0.6667")


def test_protocol_conformance():
    """Criterion 7: transcript grammar and the literal tag formats."""
    # the parsers accept the protocol's literal formats
    parsed = parse_termination(
        "<reasoning> the second film was a remake </reasoning>. <answer> yes </answer>"
    )
    assert parsed.kind == "terminate" and parsed.answer == "yes"
    parsed = parse_termination(
        "<reasoning> one name is still unknown </reasoning>. <question> who directed the remake? </question>"
    )
    assert parsed.kind == "continue"
    assert parse_self_answer(
        "To determine the capital, I recall the region's history. <answer> Lisbon </answer>"
    ) == "Lisbon"
    assert find_first_action("<search> filmmaker nationality </search>") == (
        "search",
        "filmmaker nationality",
        len("<search> filmmaker nationality </search>"),
    )

    # transcripts follow the event grammar: search is always followed by
    # information, and a terminated episode ends in answer
    question = Question(id="proto", text="what follows alpha?", gold_answers=("beta",))
    policy = make_bench_policy({question.text: "beta"}, rollout_searches=2)
    transcript = episode(question, policy, make_bench_retriever(), max_steps=6, max_searches=4)
    assert transcript.terminated
    events = transcript.events
    assert events[-1].kind == "answer"
    for index, event in enumerate(events):
        if event.kind == "search":
            assert events[index + 1].kind == "information"
    assert transcript.searches_used == 2
    _pass("protocol conformance: tag formats parsed, transcript grammar verified")


def test_determinism_byte_identical_runs(tmp_path):
    """Criterion 8: identical seed + scripted backends give byte-identical artifacts."""
    def run_once(out_dir: Path) -> dict:
        questions = [
            Question(id=f"d{i}", text=f"determinism probe {i}?", gold_answers=(f"fact {i}",))
            for i in range(3)
        ]
        policy = make_bench_policy(
            {q.text: q.gold_answers[0] for q in questions}, rollout_searches=1
        )
        cfg = ExpansionConfig(k=2, n=2, t_max=2, majority_samples=2, seed=7, rollout_cap="fixed")
        blobs = {}
        for question in questions:
            builder = TreeBuilder(policy, make_bench_retriever(), cfg)
            record = build_result_to_dict(builder.build_tree(question))
            blobs[question.id] = dumps_snapshot(record)
            snapshot = snapshot_from_dict(record)
            sft_path = out_dir / f"{question.id}.sft.jsonl"
            dpo_path = out_dir / f"{question.id}.dpo.jsonl"
            write_sft_jsonl(export_sft(snapshot, min_final_score=-1.0), str(sft_path))
            write_dpo_jsonl(export_dpo(snapshot, margin=0.0), str(dpo_path))
            blobs[f"{question.id}.sft"] = sft_path.read_bytes()
            blobs[f"{question.id}.dpo"] = dpo_path.read_bytes()
        return blobs

    first = run_once(tmp_path / "run1")
    second = run_once(tmp_path / "run2")
    assert first == second
    _pass("determinism: snapshots and exports byte-identical across seeded runs")


def test_end_to_end_against_http_stubs(tmp_path):
    """Criterion 9: expand -> export-sft -> export-dpo -> evaluate over HTTP stubs."""
    started = time.monotonic()
    questions = [
        {"id": f"e2e{i}", "question": f"integration probe {i}?", "golden_answers": [f"fact {i}"]}
        for i in range(10)
    ]
    dataset = tmp_path / "e2e.jsonl"
    dataset.write_text("\n".join(json.dumps(q) for q in questions) + "\n", encoding="utf-8")

    gold = {q["question"]: q["golden_answers"][0] for q in questions}
    policy_server = StubPolicyServer(make_bench_policy(gold, rollout_searches=1))
    retriever_server = StubRetrieverServer(LexicalRetriever([("alpha", "alpha passage text")]))
    try:
        config = {
            "expansion": {
                "k": 2,
                "n": 1,
                "t_max": 2,
                "majority_samples": 2,
                "rollout_cap": "fixed",
            },
            "policy": {"kind": "http", "base_url": policy_server.base_url, "model": "stub"},
            "retriever": {"kind": "http", "base_url": retriever_server.base_url},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")

        snapshots = tmp_path / "snapshots"
        sft_out = tmp_path / "sft.jsonl"
        dpo_out = tmp_path / "dpo.jsonl"
        report_out = tmp_path / "report.json"

        assert main(
            ["expand", "--dataset", str(dataset), "--config", str(config_path), "--out", str(snapshots)]
        ) == 0
        manifest = json.loads((snapshots / "manifest.json").read_text())
        assert manifest["counts"]["failed"] == 0
        assert manifest["counts"]["ok"] == 10

        assert main(["export-sft", "--snapshots", str(snapshots), "--out", str(sft_out)]) == 0
        assert main(["export-dpo", "--snapshots", str(snapshots), "--out", str(dpo_out)]) == 0
        assert sft_out.exists() and dpo_out.exists()
        assert len(sft_out.read_text().splitlines()) >= 10

        assert main(
            [
                "evaluate",
                "--dataset",
                str(dataset),
                "--config",
                str(config_path),
                "--out",
                str(report_out),
            ]
        ) == 0
        report = json.loads(report_out.read_text())
        assert report["n"] == 10
        assert report["failures"] == 0
        assert report["em"] == 1.0
    finally:
        policy_server.close()
        retriever_server.close()

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"end-to-end pipeline took {elapsed:.1f}s"
    _pass(f"end-to-end over HTTP stubs: 10 questions, zero hard failures ({elapsed:.1f}s)")

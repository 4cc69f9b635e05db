"""Expansion-count closure: measured work matches the closed forms exactly.

Regime: majority_samples == k (the termination decision is sampled k times),
fixed rollout horizon t_max with scripted rollouts running their full length,
distinct candidates (no dedup collisions), no early termination, and
self-answer rewards below tau (no retrieval skip). Counted work is policy
completions during expansion: votes + candidate generations + rollout steps.
"""

from __future__ import annotations

import tempfile
import threading
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from ragtree import agent, engine
from ragtree.batch import Manifest, expand_batch
from ragtree.engine import ExpansionConfig, TreeBuilder, theoretical_counts
from ragtree.errors import BackendUnavailable, RagTreeError
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.snapshot import load_snapshot
from ragtree.templates import PolicyRole
from ragtree.types import Question

QUESTION = Question(id="count-q", text="what follows alpha?", gold_answers=("beta",))


def build(strategy: str, l: int, k: int = 3, n: int = 4):
    cfg = ExpansionConfig(
        k=k,
        n=n,
        t_max=l,
        strategy=strategy,
        majority_samples=k,
        rollout_cap="fixed",
    )
    policy = make_bench_policy({QUESTION.text: "beta"}, rollout_searches=l - 1)
    builder = TreeBuilder(policy, make_bench_retriever(), cfg)
    return builder.build_tree(QUESTION), cfg


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_pruning_counts_close_exactly(l):
    result, cfg = build("pruning", l)
    ledger = result.ledger
    assert ledger.expansion_count("pruning") == theoretical_counts(cfg, l, "pruning")
    # the count decomposes per layer as (k votes + 3k generations) + 3kn rollouts of l steps
    per_layer = 4 * cfg.k + 3 * cfg.k * cfg.n * l
    for layer in range(1, l + 1):
        counters = ledger.per_layer[layer]
        assert counters["policy_calls"] + counters["rollout_calls"] == per_layer
    # chain finalization is tracked separately and excluded from the count
    assert ledger.finalize_calls == 1


def test_pruning_headline_at_table_settings():
    result, cfg = build("pruning", 4)
    assert result.ledger.expansion_count("pruning") == 624


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_no_pruning_counts_close_exactly(l):
    result, cfg = build("no_pruning", l)
    assert result.ledger.expansion_count("no_pruning") == theoretical_counts(cfg, l, "no_pruning")


def test_no_pruning_headline_at_table_settings():
    result, cfg = build("no_pruning", 4)
    assert result.ledger.expansion_count("no_pruning") == 4680
    # trunk plus one deviation per round, all finalized
    assert len(result.chains) == 5
    assert result.ledger.finalize_calls == 5


def test_no_pruning_layer_growth_is_quadratic():
    """Each round rebuilds i chains over i layers: layer-1 work accumulates 1+2+..+l rebuilds."""
    result, cfg = build("no_pruning", 3)
    per_unit = 4 * cfg.k + 3 * cfg.k * cfg.n * 3
    layer_totals = {
        layer: c["policy_calls"] + c["rollout_calls"] for layer, c in result.ledger.per_layer.items()
    }
    # layer 1 is re-derived by every chain in every round: (1 + 2 + 3) expansions
    assert layer_totals[1] == 6 * per_unit
    # layer 2 from rounds 2 and 3: (2 + 3) expansions
    assert layer_totals[2] == 5 * per_unit
    # layer 3 only in round 3: 3 expansions
    assert layer_totals[3] == 3 * per_unit


def test_call_ratio_no_pruning_over_pruning_is_7_5():
    pruning, _ = build("pruning", 4)
    no_pruning, _ = build("no_pruning", 4)
    ratio = no_pruning.ledger.expansion_count("no_pruning") / pruning.ledger.expansion_count(
        "pruning"
    )
    assert ratio == 7.5


@pytest.mark.parametrize("l,expected", [(1, 24), (2, 576)])
def test_full_node_leaf_counts(l, expected):
    result, cfg = build("full_node", l)
    ledger = result.ledger
    assert ledger.leaf_nodes == expected
    assert ledger.expansion_count("full_node") == theoretical_counts(cfg, l, "full_node")
    assert ledger.rollout_calls == 0  # full-node search omits rollouts

    # states expanded per layer follow the 2k(k+1) branching factor
    branching = 2 * cfg.k * (cfg.k + 1)
    for layer in range(1, l + 1):
        assert ledger.per_layer[layer]["nodes_expanded"] == branching ** (layer - 1)


def test_full_node_makes_every_request_of_a_layer():
    """Depth 1: k sub-questions, then k self-answers and k sub-queries for each of the
    k + 1 branches (the question itself is the direct one), and 2k(k+1) leaves.
    Each set of k samples is one request."""
    k = 3
    cfg = ExpansionConfig(k=k, t_max=1, strategy="full_node", majority_samples=k)
    bench = make_bench_policy({QUESTION.text: "beta"}, rollout_searches=0)
    requests = []

    class Recording:
        def complete(self, request):
            requests.append(request)
            return bench.complete(request)

    result = TreeBuilder(Recording(), make_bench_retriever(), cfg).build_tree(QUESTION)
    assert all(len(r.samples()) == k for r in requests)
    roles = [r.role for r in requests for _ in r.samples()]
    assert roles.count(PolicyRole.SUB_QUESTION) == k
    assert roles.count(PolicyRole.SELF_ANSWER) == (k + 1) * k
    assert roles.count(PolicyRole.SUB_QUERY) == (k + 1) * k
    assert len(roles) == k + 2 * (k + 1) * k  # no votes, rollouts or finalization
    assert len(requests) == 1 + 2 * (k + 1)  # one request per set
    direct = [
        sample for r in requests for sample in r.samples()
        if r.role == PolicyRole.SELF_ANSWER and f"### Question\n{QUESTION.text}\n" in r.prompt
    ]
    assert len(direct) == k
    assert result.ledger.leaf_nodes == 2 * k * (k + 1)


@pytest.mark.parametrize("concurrency", [1, 2, 4])
@pytest.mark.parametrize("strategy, l, requests, samples, logical", [
    ("pruning", 4, 485, 625, 624),
    ("no_pruning", 4, 3635, 4685, 4680),
    ("full_node", 2, 225, 675, 576),
])
def test_requests_per_question_at_table_settings(strategy, l, requests, samples, logical,
                                                 concurrency):
    # A layer's votes, a candidate set's samples and the first steps of a candidate's
    # rollouts are one request each. Per layer of pruning that is 1 + 3(1 + k(1 + n(l - 1)))
    # requests for 4k + 3knl samples, 121 for 156, plus the chain's finalize call.
    # Every sample is still asked for, one request each before they were grouped.
    cfg = ExpansionConfig(k=3, n=4, t_max=l, strategy=strategy, majority_samples=3,
                          rollout_cap="fixed", concurrency=concurrency)
    bench = make_bench_policy({QUESTION.text: "beta"}, rollout_searches=l - 1)
    sent = []

    class Recording:
        def complete(self, request):
            sent.append(request)  # list.append is atomic: the senders share it
            return bench.complete(request)

    result = TreeBuilder(Recording(), make_bench_retriever(), cfg).build_tree(QUESTION)
    assert len(sent) == requests
    assert result.ledger.expansion_count(strategy) == logical
    assert sum(len(r.samples()) for r in sent) == sum(bench.calls_by_role.values()) == samples


@pytest.mark.parametrize("strategy, renders", [("pruning", 41), ("no_pruning", 305)])
def test_each_prompt_history_is_rendered_once(strategy, renders, monkeypatch):
    # A pruning layer renders its votes' prompt and the episode prompt of each of its
    # 3k candidates, 10 renders, and the chain's finalize prompt is one more: 4 * 10 + 1.
    # Each rollout continues its candidate's prompt and renders none.
    calls = []
    for module in (agent, engine):
        def counted(*args, _render=module.render_history, **kwargs):
            calls.append(args)
            return _render(*args, **kwargs)

        monkeypatch.setattr(module, "render_history", counted)
    build(strategy, 4)
    assert len(calls) == renders


@st.composite
def build_shapes(draw) -> ExpansionConfig:
    strategy = draw(st.sampled_from(["pruning", "no_pruning", "full_node"]))
    k = draw(st.integers(1, 2))
    return ExpansionConfig(
        k=k, n=draw(st.integers(1, 2)), strategy=strategy, majority_samples=k,
        rollout_cap="fixed", t_max=draw(st.integers(1, 2 if strategy == "full_node" else 3)),
        concurrency=draw(st.sampled_from([2, 4])),
    )


SHAPE_QUESTIONS = [Question(id=f"shape-{a}", text=f"what follows {a}?", gold_answers=(b,))
                   for a, b in [("alpha", "beta"), ("beta", "gamma")]]


def shape_batch(cfg: ExpansionConfig, concurrency: int, out: Path, first_policy=None) -> Manifest:
    """A batch of the two shape questions at ``concurrency``, on the bench backends.
    Given ``first_policy``, the first question's calls go to ``first_policy(bench policy)``."""
    run = ExpansionConfig(**{**cfg.__dict__, "concurrency": concurrency})
    policy = make_bench_policy({q.text: q.gold_answers[0] for q in SHAPE_QUESTIONS},
                               rollout_searches=cfg.t_max - 1)

    class FirstApart(TreeBuilder):
        def build_tree(self, question, *boundary):
            if first_policy is None or question is not SHAPE_QUESTIONS[0]:
                return super().build_tree(question, *boundary)
            return TreeBuilder(first_policy(policy), self.retriever, run).build_tree(question, *boundary)

    return expand_batch(SHAPE_QUESTIONS, lambda: FirstApart(policy, make_bench_retriever(), run),
                        str(out), concurrency=concurrency)


@settings(max_examples=examples(25), deadline=None)
@given(cfg=build_shapes())
def test_every_build_shape_writes_the_serial_snapshots_at_the_closed_form(cfg):
    # a batch at c = 2 or 4 writes the c = 1 batch's bytes, and each question spends
    # exactly the closed-form count
    def snapshots(concurrency: int, out: Path) -> list:
        manifest = shape_batch(cfg, concurrency, out)
        assert manifest.counts["ok"] == len(SHAPE_QUESTIONS)
        return [Path(item.snapshot) for item in manifest.items]

    with tempfile.TemporaryDirectory() as tmp:
        serial = snapshots(1, Path(tmp, "c1"))
        concurrent = snapshots(cfg.concurrency, Path(tmp, "c"))
        assert [p.read_bytes() for p in concurrent] == [p.read_bytes() for p in serial]
        for path in concurrent:
            ledger = load_snapshot(str(path)).ledger
            assert ledger.expansion_count(cfg.strategy) == theoretical_counts(cfg, cfg.t_max)


@settings(max_examples=examples(20), deadline=None)
@given(cfg=build_shapes(), failing=st.integers(0, 4))
def test_a_failed_call_fails_only_its_own_question(cfg, failing):
    # one of the first question's first five policy calls raises: that question is
    # failed with its error, the other writes the clean serial bytes at the closed
    # form, and at most c - 1 of the failed question's calls start after the error
    lock, starts, failed_at = threading.Lock(), [], []

    class Failing:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            with lock:
                nth = len(starts)
                starts.append(nth)
            time.sleep(0.001)  # each call is out long enough for the stop to reach it
            if nth == failing:
                time.sleep(0.02)  # and the build queues calls behind it, which it must refuse
                with lock:
                    failed_at.append(len(starts))
                raise BackendUnavailable(f"call {failing} failed")
            return self.inner.complete(request)

    with tempfile.TemporaryDirectory() as tmp:
        clean = shape_batch(cfg, 1, Path(tmp, "clean"))
        faulty = shape_batch(cfg, cfg.concurrency, Path(tmp, "faulty"), Failing)
        first, second = faulty.items
        assert first.status == "failed" and f"call {failing} failed" in first.error
        assert second.status == "ok"
        assert Path(second.snapshot).read_bytes() == Path(clean.items[1].snapshot).read_bytes()
        ledger = load_snapshot(second.snapshot).ledger
        assert ledger.expansion_count(cfg.strategy) == theoretical_counts(cfg, cfg.t_max)
    assert len(starts) - failed_at[0] <= cfg.concurrency - 1


@settings(max_examples=examples(25), deadline=None)
@given(cfg=build_shapes(), salt=st.integers(0, 2**16))
def test_a_failed_build_raises_the_serial_builds_error(cfg, salt):
    # about one policy call in 10 fails, chosen by a hash of the request, and each
    # call takes 0 to 2 ms, keyed on it too: at c = 2 or 4 a build raises the error
    # that it raises at c = 1, or none when that one raises none
    policy = make_bench_policy({QUESTION.text: "beta"}, rollout_searches=cfg.t_max - 1)

    class Failing:
        def complete(self, request):
            key = zlib.crc32(f"{salt} {request.role.value} {request.seed} {request.prompt}".encode())
            time.sleep(key % 3 / 1000)
            if key % 10 == 0:
                raise BackendUnavailable(f"{request.role.value} call {key} failed")
            return policy.complete(request)

    def raised(concurrency: int):
        run = ExpansionConfig(**{**cfg.__dict__, "concurrency": concurrency})
        try:
            TreeBuilder(Failing(), make_bench_retriever(), run).build_tree(QUESTION)
        except RagTreeError as exc:
            return type(exc), str(exc)
        return None

    assert raised(cfg.concurrency) == raised(1)

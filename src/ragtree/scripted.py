"""Deterministic scripted backends for benchmarks, demos, and offline tests.

The bench policy reproduces the regime the expansion-count closed forms
assume: candidates never collide after deduplication, termination votes never
win, self-answer rollouts score below the skip threshold, and every rollout
runs its full horizon (``rollout_searches`` searches, then an answer). Output
is a pure function of the request, so identical seeds give byte-identical
trees. ``strategy_costs`` measures every strategy in that regime.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Sequence

from .engine import Boundary, ExpansionConfig, TreeBuilder, theoretical_counts
from .errors import ConfigurationError, DatasetError
from .policy import PolicyRequest, ScriptedPolicyBackend
from .retrieval import LexicalRetriever
from .templates import PolicyRole
from .types import Question

_QUESTION_RE = re.compile(r"### Question\n(.*?)\n\n### Previous Iteration", re.DOTALL)
_QUESTION_ONLY_RE = re.compile(r"### Question\n(.*?)\n\n### Your Output", re.DOTALL)
_STEP_HEADER_RE = re.compile(r"^Sub-question \d+:", re.MULTILINE)

# Small corpus for the lexical retriever; text avoids the history markers
# ("Answer:", "Sub-query:") the scripted rollout keys on.
BENCH_CORPUS = [
    ("alpha", "alpha is the first letter of the greek alphabet"),
    ("beta", "beta follows alpha in the greek alphabet"),
    ("gamma", "gamma follows beta in the greek alphabet"),
]


def make_bench_retriever() -> LexicalRetriever:
    return LexicalRetriever(BENCH_CORPUS)


def _extract_question(prompt: str) -> Optional[str]:
    match = _QUESTION_RE.search(prompt) or _QUESTION_ONLY_RE.search(prompt)
    return match.group(1).strip() if match else None


def _last_marker(prompt: str) -> str:
    """What the iteration history ends with: a resolution kind or a dangling sub-question."""
    positions = {
        "self_answer": prompt.rfind("\nAnswer: "),
        "sub_query": prompt.rfind("\nSub-query: "),
        "sub_question": max(
            (m.start() for m in _STEP_HEADER_RE.finditer(prompt)), default=-1
        ),
    }
    kind, position = max(positions.items(), key=lambda item: item[1])
    return kind if position >= 0 else "empty"


def make_bench_policy(gold: Mapping[str, str], rollout_searches: int = 3) -> ScriptedPolicyBackend:
    """Scripted policy for counting benchmarks and end-to-end fixtures.

    ``gold`` maps question text to the answer the scripted rollouts should
    produce on branches meant to score well. Termination votes always say
    continue; only finalization (temperature 0) answers.
    """
    table = dict(gold)

    def gold_for(prompt: str) -> str:
        return table.get(_extract_question(prompt), "unknown")

    def termination(request: PolicyRequest) -> str:
        if request.temperature == 0.0:
            return (
                "<reasoning> the gathered evidence settles the question </reasoning> "
                f"<answer> {gold_for(request.prompt)} </answer>"
            )
        return (
            "<reasoning> the history is not yet sufficient </reasoning> "
            f"<question> what does probe {request.seed} establish? </question>"
        )

    def sub_question(request: PolicyRequest) -> str:
        return f"The next fact to pin down. <question> probe {request.seed} </question>"

    def self_answer(request: PolicyRequest) -> str:
        return f"Recalling what I know. <answer> guess {request.seed} </answer>"

    def sub_query(request: PolicyRequest) -> str:
        return f"lookup {request.seed}"

    def rollout(request: PolicyRequest) -> str:
        # The rollout template mentions the tags in prose; rendered blocks are
        # newline-delimited, so count those.
        searches_done = request.prompt.count("\n<information>\n")
        if searches_done < rollout_searches:
            return (
                f"<think> need more evidence, round {searches_done} </think> "
                f"<search> alpha probe {searches_done} </search>"
            )
        marker = _last_marker(request.prompt)
        if marker == "self_answer":
            return "<think> the recalled answer does not hold up </think> <answer> offtrack </answer>"
        return f"<think> the evidence suffices </think> <answer> {gold_for(request.prompt)} </answer>"

    return ScriptedPolicyBackend(
        {
            PolicyRole.TERMINATION: termination,
            PolicyRole.SUB_QUESTION: sub_question,
            PolicyRole.SELF_ANSWER: self_answer,
            PolicyRole.SUB_QUERY: sub_query,
            PolicyRole.ROLLOUT: rollout,
        }
    )


@dataclass(frozen=True)
class StrategyCost:
    strategy: str
    depth: int
    measured: int  # mean expansion count per question, rounded down
    theoretical: int
    seconds: float  # the strategy's run wall time per question


def strategy_costs(
    questions: Sequence[Question],
    config: ExpansionConfig,
    strategies: Sequence[str] = ("pruning", "no_pruning", "full_node"),
    full_node_t_max: int = 2,
) -> List[StrategyCost]:
    """Build every question under each strategy in the closed-form regime.

    The regime pins ``majority_samples`` to ``k`` and runs scripted rollouts to
    the fixed horizon ``t_max``, so each measured count should equal
    ``theoretical_counts``. full_node builds to ``full_node_t_max`` instead,
    because its cost is exponential in depth. One ``Boundary`` at the config's
    ``concurrency`` runs every build on the caller's thread and makes its calls,
    each strategy's questions in one ``run``. At c > 1 its questions may overlap,
    so ``seconds`` is the run's wall time per question. Every input is checked
    before the first build.
    """
    if not questions:
        raise DatasetError("no questions to bench")
    if not strategies:
        raise ConfigurationError("no strategies to bench")
    if full_node_t_max < 1:
        raise ConfigurationError("full-node t_max must be >= 1")
    try:
        expansions = [
            replace(
                config, strategy=strategy, majority_samples=config.k, rollout_cap="fixed",
                t_max=full_node_t_max if strategy == "full_node" else config.t_max,
            )
            for strategy in strategies
        ]
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    gold = {q.text: q.gold_answers[0] for q in questions}
    retriever = make_bench_retriever()
    costs = []
    with Boundary(config.concurrency) as boundary:
        for expansion in expansions:
            strategy, depth = expansion.strategy, expansion.t_max
            policy = make_bench_policy(gold, rollout_searches=depth - 1)
            builder = TreeBuilder(policy, retriever, expansion)
            started = time.monotonic()
            results = boundary.run(builder.build_tree(question, boundary) for question in questions)
            seconds = time.monotonic() - started
            measured = sum(result.ledger.expansion_count(strategy) for result in results)
            theoretical = theoretical_counts(expansion, depth, strategy)
            count = len(questions)
            costs.append(StrategyCost(strategy, depth, measured // count, theoretical,
                                      seconds / count))
    return costs

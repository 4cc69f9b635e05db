"""Training-data extraction from expansion results.

The exporters read a ``BuildResult``: live from ``build_tree``, or decoded
from its snapshot, with the same output either way. They render documents at
the ``doc_char_budget`` its config records, the budget its prompts used.

SFT examples slice the retained chain at the offsets ``history.render_chain``
returns with it: each input is the rendered prefix through the question block
or a retrieval's documents, each output continues through the next retrieval's
sub-query (documents are injected by the live retriever at inference time) or
through the final answer. DPO pairs come from the candidate sets generated
before pruning: same-kind execution siblings and opposing decision branches
that were both scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .engine import BuildResult, ChainRecord, TreeNode, best_candidate
from .errors import ExportError
from .history import (
    FINAL_ANSWER_BLOCK, STEP_HEADER, HistoryTemplate, render_chain, render_history, resolution_line,
    serialize_state,
)
from .snapshot import write_jsonl
from .types import Step

SFT_STRATEGIES = ("retained", "most", "least")
Side = Tuple[str, float]  # a DPO pair side: (text, reward)


@dataclass(frozen=True)
class SftExample:
    question_id: str
    segment_index: int
    input: str
    output: str

    def to_dict(self) -> dict:
        return {
            "id": self.question_id,
            "segment": self.segment_index,
            "input": self.input,
            "output": self.output,
        }


@dataclass(frozen=True)
class DpoPair:
    question_id: str
    layer: int
    pair_type: str  # "execution" | "decision"
    prompt: str
    chosen: str
    rejected: str
    chosen_reward: float
    rejected_reward: float

    def to_dict(self) -> dict:
        return {
            "id": self.question_id,
            "layer": self.layer,
            "pair_type": self.pair_type,
            "prompt": self.prompt,
            "chosen": self.chosen,
            "rejected": self.rejected,
            "chosen_reward": self.chosen_reward,
            "rejected_reward": self.rejected_reward,
        }


def extract_chain(result: BuildResult) -> Tuple[Tuple[Step, ...], str]:
    """The retained root-to-leaf path of a result as a flat step list plus answer."""
    if result.failure is not None:
        raise ExportError(
            f"snapshot for question {result.question.id!r} records a failure: "
            f"{result.failure.get('reason')}"
        )
    trunk = result.trunk
    if trunk is None or trunk.final_state is None or trunk.final_answer is None:
        raise ExportError(f"snapshot for question {result.question.id!r} has no terminal chain")
    return trunk.final_state.steps, trunk.final_answer


def _select_chain(
    result: BuildResult, strategy: str, min_final_score: float
) -> Optional[ChainRecord]:
    if strategy not in SFT_STRATEGIES:
        raise ExportError(f"unknown SFT strategy {strategy!r}; expected one of {SFT_STRATEGIES}")
    if strategy == "retained":
        extract_chain(result)  # validates terminality
        trunk = result.trunk
        return trunk if trunk.final_score > min_final_score else None

    if result.config.strategy != "no_pruning":
        raise ExportError(
            f"SFT strategy {strategy!r} needs alternative complete chains; "
            f"snapshot was built with the {result.config.strategy!r} strategy"
        )
    complete = [
        c
        for c in result.chains
        if c.final_answer is not None and c.final_state is not None
        and c.final_score > min_final_score
    ]
    if not complete:
        return None
    best = max(c.final_score for c in complete)
    contenders = [c for c in complete if c.final_score == best]
    key = (lambda c: (-c.retrieval_steps(), c.chain_id)) if strategy == "most" else (
        lambda c: (c.retrieval_steps(), c.chain_id)
    )
    return sorted(contenders, key=key)[0]


def export_sft(
    result: BuildResult, strategy: str = "retained", min_final_score: float = 0.0
) -> List[SftExample]:
    """SFT examples for one result; empty when no chain clears the score filter.

    ``render_chain``'s cuts, closed by the chain's end, pair up as each segment's
    (input end, output end): the input is the chain up to the first, the output
    the text between the two.
    """
    chain = _select_chain(result, strategy, min_final_score)
    if chain is None:
        return []
    text, cuts = render_chain(chain.final_state, result.config.history_template())
    ends = [*cuts, len(text)]
    return [
        SftExample(result.question.id, index, text[:start], text[start:end])
        for index, (start, end) in enumerate(zip(ends[::2], ends[1::2]))
    ]


# ----------------------------------------------------------------------- DPO


def _node_pairs(
    node: TreeNode,
    question_id: str,
    margin: float,
    template: HistoryTemplate,
    chain_final_score: float,
) -> List[DpoPair]:
    pairs: List[DpoPair] = []

    def pair(pair_type: str, prompt: str, chosen: Side, rejected: Side) -> None:
        """Keep the (text, reward) pair when ``chosen`` wins by at least the margin."""
        if chosen[1] - rejected[1] >= margin:
            pairs.append(DpoPair(question_id, node.layer, pair_type, prompt, chosen[0],
                                 rejected[0], chosen[1], rejected[1]))

    def ranked(first: Side, second: Side) -> Tuple[Side, Side]:
        """(winner, loser); a tie goes to ``first``."""
        return (first, second) if first[1] >= second[1] else (second, first)

    state_prefix = serialize_state(node.state, template)
    chosen_sub_question = node.retained("sub_question")
    resolution_prefix = None
    if chosen_sub_question is not None:
        resolution_prefix = render_history(node.state, chosen_sub_question.content, template)

    # Execution pairs: the retained candidate against each same-kind sibling.
    for kind in ("sub_question", "self_answer", "sub_query"):
        retained = node.retained(kind)
        prefix = state_prefix if kind == "sub_question" else resolution_prefix
        if retained is None or prefix is None:
            continue
        for sibling in node.candidates_of(kind):
            if sibling is not retained:
                pair("execution", prefix, (retained.content, retained.reward),
                     (sibling.content, sibling.reward))

    # Retrieval decision pair: both resolution branches scored at this node; equal
    # rewards prefer the cheaper self-answer branch.
    best_sa = best_candidate(node.self_answer_candidates)
    best_sq = best_candidate(node.sub_query_candidates)
    if best_sa is not None and best_sq is not None and resolution_prefix is not None:
        pair("decision", resolution_prefix, *ranked(
            (resolution_line("self_answer", best_sa.content), best_sa.reward),
            (resolution_line("sub_query", best_sq.content), best_sq.reward),
        ))

    # Termination decision pair: both outcomes scored; ties prefer terminating.
    terminate_side: Optional[Side] = None
    if node.terminate_probe is not None:
        terminate_side = node.terminate_probe
    elif node.terminal_answer is not None and node.sub_question_candidates:
        terminate_side = (node.terminal_answer, chain_final_score)
    continue_side = chosen_sub_question or best_candidate(node.sub_question_candidates)
    if terminate_side is not None and continue_side is not None:
        pair("decision", state_prefix, *ranked(
            (FINAL_ANSWER_BLOCK.format(answer=terminate_side[0]), terminate_side[1]),
            (STEP_HEADER.format(index=node.layer, sub_question=continue_side.content),
             continue_side.reward),
        ))
    return pairs


def export_dpo(result: BuildResult, margin: float = 0.1) -> List[DpoPair]:
    """All preference pairs of a result, deterministically ordered and deduplicated.

    Deviation chains of no-pruning results contribute only their fork-onward
    nodes; prefix nodes are memoryless re-derivations of the trunk and would
    duplicate its pairs.
    """
    if margin < 0:
        raise ExportError("margin must be >= 0")
    if result.failure is not None:
        return []
    template = result.config.history_template()
    pairs: List[DpoPair] = []
    seen = set()
    for chain in result.chains:
        nodes = chain.nodes if chain.fork_layer == 0 else chain.nodes[chain.fork_layer - 1 :]
        for node in nodes:
            for pair in _node_pairs(node, result.question.id, margin, template, chain.final_score):
                key = (pair.layer, pair.pair_type, pair.prompt, pair.chosen, pair.rejected)
                if key not in seen:
                    seen.add(key)
                    pairs.append(pair)
    return pairs


# --------------------------------------------------------------------- writers


def write_sft_jsonl(examples: Sequence[SftExample], path: str) -> None:
    write_jsonl([e.to_dict() for e in examples], path)


def write_dpo_jsonl(pairs: Sequence[DpoPair], path: str) -> None:
    write_jsonl([p.to_dict() for p in pairs], path)

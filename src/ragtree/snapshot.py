"""Versioned JSON snapshots of expansion results.

A snapshot encodes one ``BuildResult`` (a failed build included) and decodes
back to one that encodes to the same record, so a batch can be re-exported
without re-expansion; the decoded config holds only the echoed fields.
Node states are stored implicitly: each node's state is the question plus a
prefix of the chain's path steps, so the file carries every step once. Ledger
wall time is deliberately omitted so identical-seed runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from .engine import (
    BuildResult,
    Candidate,
    ChainRecord,
    ExpansionConfig,
    ExpansionLedger,
    FullBranch,
    FullNode,
    RolloutResult,
    TerminationVotes,
    TreeNode,
)
from .errors import ExportError
from .types import Document, Question, Resolution, Retrieved, SelfAnswer, State, Step

SCHEMA_VERSION = 1

# The ExpansionConfig fields a snapshot echoes, in their on-disk order.
_CONFIG_ECHO = (
    "k", "n", "t_max", "tau", "score_metric", "strategy", "seed", "majority_samples",
    "rollout_cap", "top_k",
)


# --------------------------------------------------------------------- encode


def _document_to_dict(doc: Document) -> dict:
    return {"title": doc.title, "text": doc.text, "score": doc.score}


def _resolution_to_dict(res: Resolution) -> dict:
    if isinstance(res, SelfAnswer):
        return {"type": "self_answer", "answer": res.answer}
    return {
        "type": "retrieved",
        "sub_query": res.sub_query,
        "documents": [_document_to_dict(d) for d in res.documents],
    }


def _step_to_dict(step: Step) -> dict:
    return {"sub_question": step.sub_question, "resolution": _resolution_to_dict(step.resolution)}


def _rollout_to_dict(rollout: RolloutResult) -> dict:
    return {
        "transcript": rollout.transcript,
        "final_answer": rollout.final_answer,
        "score": rollout.score,
        "steps_taken": rollout.steps_taken,
    }


def _candidate_to_dict(candidate: Candidate) -> dict:
    return {
        "kind": candidate.kind,
        "content": candidate.content,
        "reward": candidate.reward,
        "retained": candidate.retained,
        "documents": [_document_to_dict(d) for d in candidate.documents],
        "rollouts": [_rollout_to_dict(r) for r in candidate.rollouts],
    }


def _node_to_dict(node: TreeNode) -> dict:
    return {
        "layer": node.layer,
        "votes": {"terminate": node.votes.terminate, "continue": node.votes.continue_},
        "chosen_kind": node.chosen_kind,
        "terminal_answer": node.terminal_answer,
        "terminate_probe": (
            None
            if node.terminate_probe is None
            else {"answer": node.terminate_probe[0], "score": node.terminate_probe[1]}
        ),
        "sub_question_candidates": [_candidate_to_dict(c) for c in node.sub_question_candidates],
        "self_answer_candidates": [_candidate_to_dict(c) for c in node.self_answer_candidates],
        "sub_query_candidates": [_candidate_to_dict(c) for c in node.sub_query_candidates],
    }


def _chain_to_dict(chain: ChainRecord) -> dict:
    steps = chain.final_state.steps if chain.final_state is not None else ()
    return {
        "chain_id": chain.chain_id,
        "fork_layer": chain.fork_layer,
        "fork_kind": chain.fork_kind,
        "terminated_by": chain.terminated_by,
        "final_answer": chain.final_answer,
        "final_score": chain.final_score,
        "steps": [_step_to_dict(s) for s in steps],
        "nodes": [_node_to_dict(n) for n in chain.nodes],
    }


def _full_node_to_dict(node: FullNode, step: Optional[Step]) -> dict:
    # Children are stored with the step that produced them; states rebuild on load.
    return {
        "step": None if step is None else _step_to_dict(step),
        "branches": [
            {
                "sub_question": b.sub_question,
                "origin": b.origin,
                "self_answers": list(b.self_answers),
                "sub_queries": [
                    {"query": q, "documents": [_document_to_dict(d) for d in docs]}
                    for q, docs in b.sub_queries
                ],
            }
            for b in node.branches
        ],
        "children": [_full_node_to_dict(child, child.state.steps[-1]) for child in node.children],
    }


def build_result_to_dict(result: BuildResult) -> dict:
    question, config = result.question, result.config
    return {
        "schema_version": SCHEMA_VERSION,
        "question": {
            "id": question.id,
            "text": question.text,
            "gold_answers": list(question.gold_answers),
        },
        "strategy": config.strategy,
        "config": {name: getattr(config, name) for name in _CONFIG_ECHO},
        "failure": result.failure,
        "chains": [_chain_to_dict(c) for c in result.chains],
        "full_tree": (
            None if result.full_root is None else _full_node_to_dict(result.full_root, None)
        ),
        "ledger": None if result.ledger is None else result.ledger.to_dict(),
    }


def dumps_snapshot(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, indent=2) + "\n"


def save_snapshot(record: dict, path: str) -> None:
    """Atomic write: a crash mid-write never leaves a truncated snapshot."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(dumps_snapshot(record), encoding="utf-8")
    tmp.replace(target)


# --------------------------------------------------------------------- decode


def _document_from_dict(record: dict) -> Document:
    return Document(title=record["title"], text=record["text"], score=record["score"])


def _resolution_from_dict(record: dict) -> Resolution:
    if record["type"] == "self_answer":
        return SelfAnswer(record["answer"])
    return Retrieved(
        record["sub_query"], tuple(_document_from_dict(d) for d in record["documents"])
    )


def _step_from_dict(record: dict) -> Step:
    return Step(record["sub_question"], _resolution_from_dict(record["resolution"]))


def _candidate_from_dict(record: dict) -> Candidate:
    return Candidate(
        kind=record["kind"],
        content=record["content"],
        rollouts=tuple(
            RolloutResult(
                transcript=r["transcript"],
                final_answer=r["final_answer"],
                score=r["score"],
                steps_taken=r["steps_taken"],
            )
            for r in record["rollouts"]
        ),
        reward=record["reward"],
        retained=record["retained"],
        documents=tuple(_document_from_dict(d) for d in record["documents"]),
    )


def _node_from_dict(record: dict, question: Question, steps: List[Step]) -> TreeNode:
    layer = record["layer"]
    probe = record["terminate_probe"]
    return TreeNode(
        layer=layer,
        state=State(question, tuple(steps[: layer - 1])),
        votes=TerminationVotes(
            terminate=record["votes"]["terminate"], continue_=record["votes"]["continue"]
        ),
        sub_question_candidates=tuple(
            _candidate_from_dict(c) for c in record["sub_question_candidates"]
        ),
        self_answer_candidates=tuple(
            _candidate_from_dict(c) for c in record["self_answer_candidates"]
        ),
        sub_query_candidates=tuple(
            _candidate_from_dict(c) for c in record["sub_query_candidates"]
        ),
        chosen_kind=record["chosen_kind"],
        terminal_answer=record["terminal_answer"],
        terminate_probe=None if probe is None else (probe["answer"], probe["score"]),
    )


def _chain_from_dict(record: dict, question: Question) -> ChainRecord:
    steps = [_step_from_dict(s) for s in record["steps"]]
    return ChainRecord(
        chain_id=record["chain_id"],
        fork_layer=record["fork_layer"],
        fork_kind=record["fork_kind"],
        nodes=[_node_from_dict(n, question, steps) for n in record["nodes"]],
        final_answer=record["final_answer"],
        final_score=record["final_score"],
        terminated_by=record["terminated_by"],
        final_state=State(question, tuple(steps), record["final_answer"]),
    )


def _full_node_from_dict(record: dict, state: State) -> FullNode:
    branches = tuple(
        FullBranch(
            sub_question=b["sub_question"],
            origin=b["origin"],
            self_answers=tuple(b["self_answers"]),
            sub_queries=tuple(
                (q["query"], tuple(_document_from_dict(d) for d in q["documents"]))
                for q in b["sub_queries"]
            ),
        )
        for b in record["branches"]
    )
    children = tuple(
        _full_node_from_dict(child, state.with_step(_step_from_dict(child["step"])))
        for child in record["children"]
    )
    return FullNode(state=state, branches=branches, children=children)


def snapshot_from_dict(record: dict) -> BuildResult:
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ExportError(f"unsupported snapshot schema version: {version!r}")
    q = record["question"]
    question = Question(id=q["id"], text=q["text"], gold_answers=tuple(q["gold_answers"]))
    config = ExpansionConfig(**{name: record["config"][name] for name in _CONFIG_ECHO})
    full_tree, ledger = record.get("full_tree"), record.get("ledger")
    return BuildResult(
        question=question,
        config=config,
        chains=[_chain_from_dict(c, question) for c in record["chains"]],
        full_root=None if full_tree is None else _full_node_from_dict(full_tree, State(question)),
        ledger=None if ledger is None else ExpansionLedger.from_dict(ledger),
        failure=record.get("failure"),
    )


def load_snapshot(path: str) -> BuildResult:
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ExportError(f"cannot read snapshot {path}: {exc}")
    return snapshot_from_dict(record)

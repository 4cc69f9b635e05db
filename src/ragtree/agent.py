"""Inference-side iterative agent loop.

The agent repeatedly asks the policy to continue the transcript; a completion
ending in ``<search> query </search>`` triggers a retrieval whose documents
are appended inside ``<information>`` tags, and ``<answer> ... </answer>``
terminates the episode. The same loop drives rollout simulations during tree
expansion and the evaluation of trained models.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from .history import DEFAULT_TEMPLATE, HistoryTemplate, render_history
from .metrics import exact_match, f1_score
from .parsing import find_first_action, think_blocks
from .policy import PolicyBackend, PolicyRequest
from .retrieval import RetrievalRequest, RetrieverBackend
from .templates import PolicyRole, PromptTemplateSet, load_default_templates
from .types import Document, Question, State
from .errors import RagTreeError

STOP_SEQUENCES = ("</search>", "</answer>")


@dataclass(frozen=True)
class AgentEvent:
    kind: str  # "think" | "search" | "information" | "answer"
    text: str = ""
    documents: Tuple[Document, ...] = ()


@dataclass
class AgentTranscript:
    question_id: str
    events: List[AgentEvent] = field(default_factory=list)
    searches_used: int = 0
    steps_taken: int = 0
    terminated: bool = False
    final_answer: Optional[str] = None
    failure: Optional[str] = None
    raw_text: str = ""

    def to_dict(self) -> dict:
        events = []
        for event in self.events:
            record = {"kind": event.kind, "text": event.text}
            if event.kind == "information":
                record["docs"] = [
                    {"title": d.title, "text": d.text, "score": d.score} for d in event.documents
                ]
            events.append(record)
        return {
            "question_id": self.question_id,
            "events": events,
            "searches_used": self.searches_used,
            "steps_taken": self.steps_taken,
            "terminated": self.terminated,
            "final_answer": self.final_answer,
            "failure": self.failure,
        }


def _render_information(docs: Sequence[Document], template: HistoryTemplate) -> str:
    lines = ["<information>"]
    for j, doc in enumerate(docs, start=1):
        body = doc.text[: template.doc_char_budget]
        lines.append(f'Docs {j}: "{doc.title}"')
        lines.append(body)
    lines.append("</information>")
    return "\n".join(lines)


def run_agent(
    question: Question,
    policy: PolicyBackend,
    retriever: RetrieverBackend,
    templates: Optional[PromptTemplateSet] = None,
    history_template: HistoryTemplate = DEFAULT_TEMPLATE,
    initial_state: Optional[State] = None,
    pending_sub_question: Optional[str] = None,
    max_steps: int = 8,
    max_searches: int = 4,
    top_k: int = 3,
    temperature: float = 0.7,
    seed: Optional[int] = None,
    on_policy_call: Optional[Callable[[], None]] = None,
    on_retrieval_call: Optional[Callable[[], None]] = None,
) -> AgentTranscript:
    """Drive one episode until ``<answer>``, a cap, or a failure.

    ``initial_state`` / ``pending_sub_question`` seed the transcript with prior
    iteration history, which is how rollouts resume from a partial solution.
    """
    templates = templates or load_default_templates()
    state = initial_state or State(question)
    base_prompt = templates.render(
        PolicyRole.ROLLOUT,
        question=question.text,
        iter_history=render_history(state, pending_sub_question, history_template),
    )

    transcript = AgentTranscript(question_id=question.id)
    continuation = ""
    for step in range(max_steps):
        request = PolicyRequest(
            role=PolicyRole.ROLLOUT,
            prompt=base_prompt + continuation,
            temperature=temperature,
            seed=None if seed is None else seed + step,
            stop=STOP_SEQUENCES,
        )
        try:
            response = policy.complete(request)
        except RagTreeError as exc:
            transcript.failure = f"policy backend failed: {exc}"
            break
        if on_policy_call:
            on_policy_call()
        transcript.steps_taken += 1

        text = response.text
        action = find_first_action(text)
        prefix = text if action is None else text[: action[2]]
        for block in think_blocks(prefix):
            transcript.events.append(AgentEvent("think", block))

        if action is None:
            transcript.failure = "completion carried no <search> or <answer> action"
            transcript.raw_text += text
            break

        kind, content, end = action
        transcript.raw_text += text[:end]
        if kind == "answer":
            transcript.events.append(AgentEvent("answer", content))
            transcript.final_answer = content
            transcript.terminated = True
            break

        # search action
        if transcript.searches_used >= max_searches:
            transcript.failure = "search budget exhausted"
            break
        try:
            docs = retriever.retrieve(RetrievalRequest(query=content, top_k=top_k))
        except RagTreeError as exc:
            transcript.failure = f"retriever failed: {exc}"
            break
        if on_retrieval_call:
            on_retrieval_call()
        transcript.searches_used += 1
        transcript.events.append(AgentEvent("search", content))
        transcript.events.append(AgentEvent("information", "", tuple(docs)))
        info_text = _render_information(docs, history_template)
        transcript.raw_text += "\n" + info_text + "\n"
        continuation = transcript.raw_text
    else:
        if not transcript.terminated and transcript.failure is None:
            transcript.failure = "step budget exhausted without an answer"

    if not transcript.terminated and transcript.failure is None:
        transcript.failure = "episode ended without an answer"
    return transcript


@dataclass
class EvaluationReport:
    dataset: str
    n: int
    em: float
    f1: float
    avg_searches: float
    avg_steps: float
    failures: int
    per_item: List[dict] = field(default_factory=list)

    def to_dict(self, include_items: bool = False) -> dict:
        record = {
            "dataset": self.dataset,
            "n": self.n,
            "em": self.em,
            "f1": self.f1,
            "avg_searches": self.avg_searches,
            "avg_steps": self.avg_steps,
            "failures": self.failures,
        }
        if include_items:
            record["items"] = self.per_item
        return record


def evaluate_dataset(
    questions: Sequence[Question],
    policy: PolicyBackend,
    retriever: RetrieverBackend,
    dataset_name: str = "dataset",
    templates: Optional[PromptTemplateSet] = None,
    history_template: HistoryTemplate = DEFAULT_TEMPLATE,
    max_steps: int = 8,
    max_searches: int = 4,
    top_k: int = 3,
    temperature: float = 0.0,
    seed: Optional[int] = 0,
    exclude_failures_from_means: bool = False,
    transcripts_path: Optional[str] = None,
    concurrency: int = 1,
) -> EvaluationReport:
    """Run the agent on every question and aggregate EM/F1.

    Unanswered episodes (caps, failures) score 0 unless
    ``exclude_failures_from_means`` drops them from the averages. With
    ``concurrency`` above 1, questions run on a pool of that many threads.
    Each question's seed comes from its index, so items and transcripts keep
    the input order, and backends that answer a request the same way each
    time give the same contents at any concurrency.
    """

    def run_one(index: int, question: Question) -> Tuple[AgentTranscript, dict]:
        transcript = run_agent(
            question,
            policy,
            retriever,
            templates=templates,
            history_template=history_template,
            max_steps=max_steps,
            max_searches=max_searches,
            top_k=top_k,
            temperature=temperature,
            seed=None if seed is None else seed * 100003 + index,
        )
        answered = transcript.final_answer is not None
        em = exact_match(transcript.final_answer, question.gold_answers) if answered else 0.0
        f1 = f1_score(transcript.final_answer, question.gold_answers) if answered else 0.0
        item = {
            "id": question.id,
            "answer": transcript.final_answer,
            "em": em,
            "f1": f1,
            "searches": transcript.searches_used,
            "steps": transcript.steps_taken,
            "failure": transcript.failure,
        }
        return transcript, item

    if concurrency > 1 and len(questions) > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            done = list(pool.map(run_one, range(len(questions)), questions))
    else:
        done = [run_one(index, question) for index, question in enumerate(questions)]
    transcripts = [transcript for transcript, _ in done]
    items = [item for _, item in done]

    scored = [i for i in items if not (exclude_failures_from_means and i["failure"])]
    denom = max(1, len(scored))
    report = EvaluationReport(
        dataset=dataset_name,
        n=len(items),
        em=sum(i["em"] for i in scored) / denom,
        f1=sum(i["f1"] for i in scored) / denom,
        avg_searches=sum(i["searches"] for i in scored) / denom,
        avg_steps=sum(i["steps"] for i in scored) / denom,
        failures=sum(1 for i in items if i["failure"]),
        per_item=items,
    )

    if transcripts_path:
        path = Path(transcripts_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for transcript in transcripts:
                handle.write(json.dumps(transcript.to_dict(), ensure_ascii=False) + "\n")

    return report

"""Inference-side iterative agent loop.

The agent repeatedly asks the policy to continue the transcript; a completion
ending in ``<search> query </search>`` triggers a retrieval whose documents
are appended inside ``<information>`` tags, and ``<answer> ... </answer>``
terminates the episode. The same loop drives rollout simulations during tree
expansion and the evaluation of trained models. It is a generator of its backend
calls, which a ``driver.Boundary`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

from .driver import Boundary, Build, Steps
from .history import DEFAULT_TEMPLATE, HistoryTemplate, render_documents, render_history
from .metrics import exact_match, f1_score
from .parsing import find_first_action, think_blocks
from .policy import PolicyBackend, PolicyRequest
from .retrieval import RetrievalRequest, RetrieverBackend
from .snapshot import write_jsonl
from .templates import PolicyRole, PromptTemplateSet, load_default_templates
from .types import Document, Question, State
from .errors import RagTreeError, check_at_least

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
    searches_used: int = 0  # completed retrieval calls
    steps_taken: int = 0  # completed policy calls
    terminated: bool = False
    final_answer: Optional[str] = None
    failure: Optional[str] = None
    # the backend error behind ``failure``, not written, without the traceback that
    # would hold the episode's frame and so this transcript
    error: Optional[RagTreeError] = None

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


def run_agent(
    question: Question,
    templates: Optional[PromptTemplateSet] = None,
    history_template: HistoryTemplate = DEFAULT_TEMPLATE,
    initial_state: Optional[State] = None,
    pending_sub_question: Optional[str] = None,
    max_steps: int = 8,
    max_searches: int = 4,
    top_k: int = 3,
    temperature: float = 0.7,
    seed: Optional[int] = None,
    max_tokens: int = PolicyRequest.max_tokens,
) -> Steps[AgentTranscript]:
    """One episode until ``<answer>``, a cap, or a failure, as a generator of its
    calls: it yields each ``PolicyRequest`` and ``RetrievalRequest`` and is sent the
    reply, or has the call's error thrown in.

    ``initial_state`` / ``pending_sub_question`` seed the transcript with prior
    iteration history, which is how rollouts resume from a partial solution.
    A backend error fails the episode, and the transcript keeps it as ``error``.
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
            max_tokens=max_tokens,
            seed=None if seed is None else seed + step,
            stop=STOP_SEQUENCES,
        )
        try:
            response = yield request
        except RagTreeError as exc:
            transcript.failure = f"policy backend failed: {exc}"
            transcript.error = exc.with_traceback(None)
            break
        transcript.steps_taken += 1

        text = response.text
        action = find_first_action(text)
        prefix = text if action is None else text[: action[2]]
        for block in think_blocks(prefix):
            transcript.events.append(AgentEvent("think", block))

        if action is None:
            transcript.failure = "completion carried no <search> or <answer> action"
            break

        kind, content, end = action
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
            docs = yield RetrievalRequest(query=content, top_k=top_k)
        except RagTreeError as exc:
            transcript.failure = f"retriever failed: {exc}"
            transcript.error = exc.with_traceback(None)
            break
        transcript.searches_used += 1
        transcript.events.append(AgentEvent("search", content))
        transcript.events.append(AgentEvent("information", "", tuple(docs)))
        info_text = render_documents(docs, history_template)
        continuation += text[:end] + "\n<information>\n" + info_text + "</information>\n"
    else:  # every break above ends the episode with an answer or a failure
        transcript.failure = "step budget exhausted without an answer"
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
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_item"}
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
    transcripts_path: Optional[str] = None,
    concurrency: int = 1,
) -> EvaluationReport:
    """Run the agent on every question and aggregate EM/F1.

    Unanswered episodes (caps, failures) score 0 and count in the means. Each
    question is one ``Build``, with its own retrieval memo, and one ``Boundary``
    at ``concurrency`` c runs them, starting the next when no step is ready and
    fewer than c calls are out (``Boundary.run``). An episode has at most one call
    out, so c episodes run at once (one at c = 1). Each question's seed comes
    from its index, so items and transcripts keep the input order, and backends
    that answer a request the same way each time give the same contents at any
    concurrency. A question's transcript is kept only when ``transcripts_path``
    will write it. Limits out of range raise :class:`ConfigurationError` before
    any backend call.
    """
    check_at_least(("max_steps", max_steps, 1), ("max_searches", max_searches, 0),
                   ("top_k", top_k, 1), ("temperature", temperature, 0),
                   ("concurrency", concurrency, 1))
    templates = templates or load_default_templates()

    def run_one(index: int, question: Question) -> Steps[Tuple[Optional[AgentTranscript], dict]]:
        transcript = yield from Build(policy, retriever, boundary).run(run_agent(
            question,
            templates=templates,
            history_template=history_template,
            max_steps=max_steps,
            max_searches=max_searches,
            top_k=top_k,
            temperature=temperature,
            seed=None if seed is None else seed * 100003 + index,
        ))
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
        return (transcript if transcripts_path else None), item

    with Boundary(concurrency) as boundary:
        done = boundary.run(run_one(index, q) for index, q in enumerate(questions))
    items = [item for _, item in done]

    denom = max(1, len(items))
    report = EvaluationReport(
        dataset=dataset_name,
        n=len(items),
        em=sum(i["em"] for i in items) / denom,
        f1=sum(i["f1"] for i in items) / denom,
        avg_searches=sum(i["searches"] for i in items) / denom,
        avg_steps=sum(i["steps"] for i in items) / denom,
        failures=sum(1 for i in items if i["failure"]),
        per_item=items,
    )

    if transcripts_path:
        write_jsonl([transcript.to_dict() for transcript, _ in done], transcripts_path)

    return report

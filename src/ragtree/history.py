"""Deterministic textual rendering of solution states.

The rendered history fills the ``{iter_history}`` placeholder of the prompt
templates and is also the canonical chain text that SFT exports slice into
input/output segments, so the format is frozen: byte-identical output for
identical states. No other module writes history text, and none decides where
a chain is cut: ``render_chain`` returns the offsets with the text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .types import Document, Retrieved, SelfAnswer, State, Step


# The history format: one per block, the same in prompts, rollouts and exports.
QUESTION_BLOCK = "Question: {question}\n"
STEP_HEADER = "Sub-question {index}: {sub_question}\n"
SELF_ANSWER_BLOCK = "Answer: {answer}\n"
SUB_QUERY_LINE = "Sub-query: {sub_query}\n"
DOC_BLOCK = 'Docs {doc_index}: "{title}"\n{text}\n'
FINAL_ANSWER_BLOCK = "Final answer: {answer}\n"


@dataclass(frozen=True)
class HistoryTemplate:
    """How much of each retrieved document the history shows.

    ``doc_char_budget`` truncates each document's text before it is rendered;
    retrieval services return long passages and prompts need a bound.
    """

    doc_char_budget: int = 1500


DEFAULT_TEMPLATE = HistoryTemplate()


def render_documents(documents: Sequence[Document], template: HistoryTemplate) -> str:
    """One ``DOC_BLOCK`` per document, its text cut to the template's budget."""
    budget = template.doc_char_budget
    return "".join(
        DOC_BLOCK.format(doc_index=j, title=doc.title, text=doc.text[:budget])
        for j, doc in enumerate(documents, start=1)
    )


def resolution_line(kind: str, content: str) -> str:
    """A step's resolution without documents: the ``self_answer`` or the ``sub_query``."""
    if kind == "self_answer":
        return SELF_ANSWER_BLOCK.format(answer=content)
    return SUB_QUERY_LINE.format(sub_query=content)


def _render_step(template: HistoryTemplate, index: int, step: Step) -> Tuple[str, int]:
    """Render one step; returns (text, offset of the resolution's doc section).

    For retrieved steps the returned offset marks the end of the sub-query
    line within ``text`` (the point where the docs begin); for self-answered
    steps it equals len(text).
    """
    text = STEP_HEADER.format(index=index, sub_question=step.sub_question)
    res = step.resolution
    if isinstance(res, SelfAnswer):
        text += resolution_line("self_answer", res.answer)
        return text, len(text)
    assert isinstance(res, Retrieved)
    text += resolution_line("sub_query", res.sub_query)
    return text + render_documents(res.documents, template), len(text)


def serialize_state(state: State, template: HistoryTemplate = DEFAULT_TEMPLATE) -> str:
    """Render the step history (and final answer, if terminal) of a state."""
    parts = []
    for i, step in enumerate(state.steps, start=1):
        text, _ = _render_step(template, i, step)
        parts.append(text)
    if state.final_answer is not None:
        parts.append(FINAL_ANSWER_BLOCK.format(answer=state.final_answer))
    return "".join(parts)


def render_history(
    state: State,
    pending_sub_question: Optional[str] = None,
    template: HistoryTemplate = DEFAULT_TEMPLATE,
) -> str:
    """History text for prompts, optionally with a trailing unresolved sub-question.

    Rollouts launched from a sub-question candidate see the question posed but
    not yet resolved.
    """
    text = serialize_state(state, template)
    if pending_sub_question is not None:
        text += STEP_HEADER.format(index=state.depth + 1, sub_question=pending_sub_question)
    return text


def render_chain(
    state: State, template: HistoryTemplate = DEFAULT_TEMPLATE
) -> Tuple[str, List[int]]:
    """Render a terminal chain with the offsets that SFT export slices it at.

    Returns (text, cuts). The text is the question block, every step block, then
    the final-answer block. The cuts are the end of the question block, then, for
    each retrieval step, the end of its sub-query line and the end of its documents.
    """
    if state.final_answer is None:
        raise ValueError("render_chain requires a terminal state")
    text = QUESTION_BLOCK.format(question=state.question.text)
    cuts = [len(text)]
    for i, step in enumerate(state.steps, start=1):
        step_text, pre_docs = _render_step(template, i, step)
        if isinstance(step.resolution, Retrieved):
            cuts += [len(text) + pre_docs, len(text) + len(step_text)]
        text += step_text
    return text + FINAL_ANSWER_BLOCK.format(answer=state.final_answer), cuts

"""Deterministic textual rendering of solution states.

The rendered history fills the ``{iter_history}`` placeholder of the prompt
templates and is also the canonical chain text that SFT exports slice into
input/output segments, so the format is frozen: byte-identical output for
identical states. No other module writes history text.
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


@dataclass(frozen=True)
class ChainMark:
    """Slice offsets for one step within a rendered chain."""

    is_retrieval: bool
    start: int
    after_sub_query: int  # == end for self-answered steps
    end: int


def render_chain(
    state: State, template: HistoryTemplate = DEFAULT_TEMPLATE
) -> Tuple[str, List[ChainMark], int]:
    """Render a terminal chain with per-step slice marks.

    Returns (text, marks, final_block_start). The text is the question block,
    every step block, then the final-answer block; SFT segmentation slices it
    at the marks.
    """
    if state.final_answer is None:
        raise ValueError("render_chain requires a terminal state")
    parts = [QUESTION_BLOCK.format(question=state.question.text)]
    offset = len(parts[0])
    marks: List[ChainMark] = []
    for i, step in enumerate(state.steps, start=1):
        text, pre_docs = _render_step(template, i, step)
        marks.append(
            ChainMark(
                is_retrieval=isinstance(step.resolution, Retrieved),
                start=offset,
                after_sub_query=offset + pre_docs,
                end=offset + len(text),
            )
        )
        parts.append(text)
        offset += len(text)
    final_block_start = offset
    parts.append(FINAL_ANSWER_BLOCK.format(answer=state.final_answer))
    return "".join(parts), marks, final_block_start

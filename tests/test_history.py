"""State serialization: golden renderings, stability, and round-trip checks."""

from __future__ import annotations

from dataclasses import replace

import pytest

from ragtree.history import (
    DEFAULT_TEMPLATE,
    HistoryTemplate,
    render_chain,
    render_history,
    serialize_state,
)
from ragtree.types import Document, Question, Retrieved, SelfAnswer, State, Step

Q = Question(id="q", text="who wrote it?", gold_answers=("someone",))


def _retrieved_step() -> Step:
    return Step(
        "where was it published?",
        Retrieved(
            "publication venue",
            (
                Document(title="venues", text="it appeared in a small journal", score=2.0),
                Document(title="authors", text="the author list is disputed", score=1.0),
            ),
        ),
    )


def test_empty_state_renders_empty():
    assert serialize_state(State(Q)) == ""


def test_self_answer_step_golden():
    state = State(Q, (Step("who is the author?", SelfAnswer("a recluse")),))
    assert serialize_state(state) == (
        "Sub-question 1: who is the author?\n"
        "Answer: a recluse\n"
    )


def test_retrieved_step_golden():
    state = State(Q, (_retrieved_step(),))
    assert serialize_state(state) == (
        "Sub-question 1: where was it published?\n"
        "Sub-query: publication venue\n"
        'Docs 1: "venues"\nit appeared in a small journal\n'
        'Docs 2: "authors"\nthe author list is disputed\n'
    )


def test_terminal_state_appends_final_answer():
    state = State(Q, (Step("who is the author?", SelfAnswer("a recluse")),), "a recluse")
    rendered = serialize_state(state)
    assert rendered.endswith("Final answer: a recluse\n")
    assert rendered.startswith("Sub-question 1:")


def test_render_is_deterministic():
    state = State(Q, (_retrieved_step(), Step("q2", SelfAnswer("w2"))), "done")
    assert serialize_state(state) == serialize_state(state)


def test_pending_sub_question_renders_dangling_header():
    state = State(Q, (Step("first?", SelfAnswer("yes")),))
    rendered = render_history(state, pending_sub_question="second?")
    assert rendered.endswith("Sub-question 2: second?\n")
    assert "Answer: yes\n" in rendered


def test_doc_truncation_budget():
    template = replace(DEFAULT_TEMPLATE, doc_char_budget=5)
    state = State(
        Q, (Step("q?", Retrieved("e", (Document(title="t", text="0123456789", score=0.0),))),)
    )
    rendered = serialize_state(state, template)
    assert "01234" in rendered
    assert "012345" not in rendered


def test_distinct_states_render_distinct_text():
    # Injectivity over engine-produced shapes: differing content anywhere shows
    # up in the rendering.
    base = State(Q, (_retrieved_step(),), "done")
    variants = [
        State(Q, (Step("other?", base.steps[0].resolution),), "done"),
        State(Q, (Step(base.steps[0].sub_question, SelfAnswer("answered instead")),), "done"),
        State(Q, (_retrieved_step(),), "different answer"),
        State(Q, (), "done"),
    ]
    renderings = {serialize_state(s) for s in [base, *variants]}
    assert len(renderings) == len(variants) + 1


def test_render_chain_marks_slice_cleanly():
    state = State(Q, (_retrieved_step(), Step("q2", SelfAnswer("w2"))), "done")
    text, cuts = render_chain(state)
    # One retrieval: the question's end, then its sub-query's and its documents' ends.
    question_end, after_sub_query, docs_end = cuts
    assert text[:question_end] == "Question: who wrote it?\n"
    # the sub-query cut lands right before the docs block
    assert text[after_sub_query:].startswith('Docs 1: "venues"')
    assert text[question_end:after_sub_query] == (
        "Sub-question 1: where was it published?\nSub-query: publication venue\n"
    )
    # The documents end where the next step begins; the final block closes the text.
    assert text[docs_end:] == "Sub-question 2: q2\nAnswer: w2\nFinal answer: done\n"


def test_the_document_budget_is_the_only_setting():
    assert HistoryTemplate(5) == HistoryTemplate(doc_char_budget=5)
    with pytest.raises(TypeError):
        HistoryTemplate(step_header="Step {index}: {sub_question}\n")

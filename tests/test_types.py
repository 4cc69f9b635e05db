"""Domain type invariants."""

from __future__ import annotations

import pytest

from ragtree.types import (
    Document,
    Question,
    Retrieved,
    SelfAnswer,
    State,
    Step,
)

Q = Question(id="t", text="anything?", gold_answers=("yes",))


class TestQuestion:
    def test_requires_gold_answers(self):
        with pytest.raises(ValueError):
            Question(id="x", text="t?", gold_answers=())

    def test_requires_text_and_id(self):
        with pytest.raises(ValueError):
            Question(id="", text="t?", gold_answers=("a",))
        with pytest.raises(ValueError):
            Question(id="x", text="", gold_answers=("a",))


class TestResolutions:
    def test_document_requires_text(self):
        with pytest.raises(ValueError):
            Document(title="t", text="")

    def test_self_answer_requires_content(self):
        with pytest.raises(ValueError):
            SelfAnswer("")

    def test_retrieved_requires_query(self):
        with pytest.raises(ValueError):
            Retrieved("")

    def test_step_requires_sub_question(self):
        with pytest.raises(ValueError):
            Step("", SelfAnswer("a"))


class TestState:
    def test_terminal_iff_final_answer(self):
        state = State(Q)
        assert not state.is_terminal
        terminal = state.with_answer("yes")
        assert terminal.is_terminal
        assert terminal.final_answer == "yes"

    def test_terminal_state_cannot_extend(self):
        terminal = State(Q).with_answer("yes")
        with pytest.raises(ValueError):
            terminal.with_step(Step("more?", SelfAnswer("no")))
        with pytest.raises(ValueError):
            terminal.with_answer("again")

    def test_with_step_is_persistent(self):
        base = State(Q)
        extended = base.with_step(Step("q1?", SelfAnswer("a1")))
        assert base.depth == 0
        assert extended.depth == 1


"""Parsers accept the agent protocol's literal tag formats and never raise."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from ragtree.parsing import (
    find_first_action,
    parse_self_answer,
    parse_sub_query,
    parse_sub_question,
    parse_termination,
    think_blocks,
)


class TestTermination:
    def test_terminate_with_padded_tags(self):
        parsed = parse_termination("<reasoning> because </reasoning> <answer> yes </answer>")
        assert parsed.kind == "terminate"
        assert parsed.answer == "yes"

    def test_continue_with_sub_question(self):
        parsed = parse_termination(
            "<reasoning> more needed </reasoning> <question> Who directed the sequel? </question>"
        )
        assert parsed.kind == "continue"
        assert parsed.sub_question == "Who directed the sequel?"

    def test_no_tags_is_malformed(self):
        assert parse_termination("no tags at all").kind == "malformed"

    def test_answer_takes_precedence_over_question(self):
        parsed = parse_termination("<answer> done </answer> <question> unused </question>")
        assert parsed.kind == "terminate"

    def test_empty_answer_falls_through_to_question(self):
        parsed = parse_termination("<answer>  </answer> <question> next </question>")
        assert parsed.kind == "continue"
        assert parsed.sub_question == "next"

    def test_first_well_formed_occurrence_wins(self):
        parsed = parse_termination("<answer></answer><answer> second </answer>")
        assert parsed.answer == "second"

    def test_multiline_content(self):
        parsed = parse_termination("<answer>\nline one\nline two\n</answer>")
        assert parsed.answer == "line one\nline two"


class TestSelfAnswer:
    def test_answer_extracted(self):
        assert parse_self_answer("...reasoning... <answer> Lisbon </answer>") == "Lisbon"

    def test_empty_content_is_malformed(self):
        assert parse_self_answer("<answer></answer>") is None

    def test_plain_text_is_malformed(self):
        assert parse_self_answer("plain text") is None


class TestSubQuery:
    def test_whole_output_is_query(self):
        assert parse_sub_query("filmmaker birthplace") == "filmmaker birthplace"

    def test_empty_is_malformed(self):
        assert parse_sub_query("") is None
        assert parse_sub_query("   ") is None

    def test_trimming(self):
        assert parse_sub_query("  q  ") == "q"


class TestSubQuestion:
    def test_question_extracted(self):
        assert parse_sub_question("think <question> what next? </question>") == "what next?"

    def test_missing_tag(self):
        assert parse_sub_question("bare") is None


class TestAgentActions:
    def test_search_action(self):
        action = find_first_action("<think> hmm </think> <search> filmmaker birthplace </search>")
        assert action[0] == "search"
        assert action[1] == "filmmaker birthplace"

    def test_answer_action(self):
        action = find_first_action("<think> settled </think> <answer> yes </answer>")
        assert action[0] == "answer"
        assert action[1] == "yes"

    def test_first_action_wins(self):
        action = find_first_action("<search> q1 </search> <answer> a </answer>")
        assert action[0] == "search"

    def test_unclosed_trailing_tag_tolerated(self):
        action = find_first_action("reasoning <search> stripped by stop sequence")
        assert action == ("search", "stripped by stop sequence", len("reasoning <search> stripped by stop sequence"))

    def test_no_action(self):
        assert find_first_action("just prose") is None

    def test_think_blocks(self):
        assert think_blocks("<think> a </think> x <think> b </think>") == ("a", "b")


@settings(max_examples=examples(500))
@given(st.text(max_size=200))
def test_parsers_never_raise(raw):
    parse_termination(raw)
    parse_self_answer(raw)
    parse_sub_query(raw)
    parse_sub_question(raw)
    find_first_action(raw)
    think_blocks(raw)


@settings(max_examples=examples(200))
@given(st.text(max_size=50))
def test_every_string_maps_to_exactly_one_termination_kind(raw):
    assert parse_termination(raw).kind in ("terminate", "continue", "malformed")

"""Config round-trips, dataset validation, templates, and backend wiring."""

from __future__ import annotations

import json

import pytest

from ragtree.config import (
    PathSettings,
    PolicySettings,
    RetrieverSettings,
    RunConfig,
    build_policy_backend,
    build_retriever_backend,
    load_dataset,
)
from ragtree.engine import ExpansionConfig
from ragtree.errors import ConfigurationError, DatasetError
from ragtree.policy import ScriptedPolicyBackend
from ragtree.retrieval import LexicalRetriever
from ragtree.templates import PolicyRole, PromptTemplateSet, load_default_templates, load_templates


class TestRunConfig:
    def test_round_trip_is_lossless(self):
        config = RunConfig(
            expansion=ExpansionConfig(k=2, n=3, t_max=2, tau=0.5, strategy="no_pruning"),
            policy=PolicySettings(kind="scripted"),
            retriever=RetrieverSettings(kind="lexical"),
            paths=PathSettings(dataset="questions.jsonl"),
            concurrency=2,
            resume=False,
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_file_round_trip(self, tmp_path):
        config = RunConfig(policy=PolicySettings(kind="scripted"), retriever=RetrieverSettings(kind="lexical"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        assert RunConfig.from_file(str(path)) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict({"surprise": 1})

    def test_int_for_float_and_null_for_optional_accepted(self):
        config = RunConfig.from_dict(
            {"expansion": {"tau": 1}, "policy": {"timeout": 5, "self_answer_model": None}}
        )
        assert config.expansion.tau == 1 and config.policy.timeout == 5
        assert config.policy.self_answer_model is None

    def test_doc_char_budget_flows_into_template(self):
        expansion = ExpansionConfig(doc_char_budget=77)
        assert RunConfig(expansion=expansion).history_template().doc_char_budget == 77
        assert expansion.history_template().doc_char_budget == 77
        assert RunConfig.from_dict({"expansion": {"doc_char_budget": 77}}).expansion == expansion
        with pytest.raises(ConfigurationError, match=r"unknown config keys: \['doc_char_budget'\]"):
            RunConfig.from_dict({"doc_char_budget": 77})


class TestLoadDataset:
    def _write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_happy_path(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                json.dumps({"id": "a", "question": "q one?", "golden_answers": ["x"]}),
                json.dumps({"id": "b", "question": "q two?", "golden_answers": ["y", "z"]}),
            ],
        )
        questions = load_dataset(path)
        assert [q.id for q in questions] == ["a", "b"]
        assert questions[1].gold_answers == ("y", "z")

    def test_missing_field_reports_line(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                json.dumps({"id": "a", "question": "q?", "golden_answers": ["x"]}),
                json.dumps({"id": "b", "question": "q?"}),
            ],
        )
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line == 2
        assert "golden_answers" in str(excinfo.value)

    def test_duplicate_id_rejected(self, tmp_path):
        record = json.dumps({"id": "dup", "question": "q?", "golden_answers": ["x"]})
        path = self._write(tmp_path, [record, record])
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(path)
        assert "duplicate" in str(excinfo.value)

    def test_empty_answers_rejected(self, tmp_path):
        path = self._write(
            tmp_path, [json.dumps({"id": "a", "question": "q?", "golden_answers": []})]
        )
        with pytest.raises(DatasetError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "changes, needle",
        [
            ({"question": None}, "question must be a non-empty string"),
            ({"question": {"a": 1}}, "question must be a non-empty string"),
            ({"question": ""}, "question must be a non-empty string"),
            ({"question": " \t\n"}, "question must be a non-empty string"),
            ({"golden_answers": [None]}, "golden_answers must be a non-empty list"),
            ({"golden_answers": ["alpha", ["beta"]]}, "golden_answers must be a non-empty list"),
            ({"golden_answers": [3]}, "golden_answers must be a non-empty list"),
            ({"id": None}, "id must be a non-empty string or an integer"),
            ({"id": True}, "id must be a non-empty string or an integer"),
            ({"id": 1.5}, "id must be a non-empty string or an integer"),
            ({"id": ""}, "id must be a non-empty string or an integer"),
        ],
        ids=["null-question", "object-question", "empty-question", "blank-question", "null-gold", "list-gold",
             "number-gold", "null-id", "bool-id", "float-id", "empty-id"],
    )
    def test_a_value_that_is_not_a_string_is_refused(self, tmp_path, changes, needle):
        good = {"id": "a", "question": "q?", "golden_answers": ["x"]}
        path = self._write(tmp_path, [json.dumps(good), json.dumps({**good, "id": "b", **changes})])
        with pytest.raises(DatasetError, match=needle) as excinfo:
            load_dataset(path)
        assert excinfo.value.line == 2

    def test_an_integer_id_is_read_as_text(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"id": 7, "question": "q?", "golden_answers": ["x"]})])
        assert load_dataset(path)[0].id == "7"

    def test_file_without_questions_rejected(self, tmp_path):
        path = self._write(tmp_path, ["", "   "])
        with pytest.raises(DatasetError, match="no questions"):
            load_dataset(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = self._write(tmp_path, ["{not json"])
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line == 1

    def test_missing_file(self):
        with pytest.raises(DatasetError):
            load_dataset("/nonexistent/data.jsonl")


class TestTemplates:
    def test_defaults_carry_required_placeholders(self):
        templates = load_default_templates()
        for role in PolicyRole:
            assert "{question}" in templates.template_for(role)

    def test_render_leaves_no_placeholder_residue(self):
        templates = load_default_templates()
        rendered = templates.render(PolicyRole.TERMINATION, question="q?", iter_history="")
        assert "{question}" not in rendered
        assert "{iter_history}" not in rendered

    def test_render_preserves_braces_in_content(self):
        templates = load_default_templates()
        rendered = templates.render(PolicyRole.SUB_QUESTION, question="what is {x}?")
        assert "what is {x}?" in rendered

    def test_missing_placeholder_rejected(self):
        with pytest.raises(ConfigurationError):
            PromptTemplateSet(
                termination_decision="no placeholders",
                sub_question="{question}",
                self_answer="{question}",
                sub_query="{question}",
                rollout="{question} {iter_history}",
            )

    def test_load_from_directory(self, tmp_path):
        defaults = load_default_templates()
        for role in PolicyRole:
            (tmp_path / f"{role.value}.txt").write_text(
                defaults.template_for(role), encoding="utf-8"
            )
        loaded = load_templates(str(tmp_path))
        assert loaded == defaults

    def test_missing_template_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_templates(str(tmp_path))


class TestBackendWiring:
    def test_scripted_policy_and_lexical_retriever(self):
        config = RunConfig(
            policy=PolicySettings(kind="scripted"),
            retriever=RetrieverSettings(kind="lexical"),
        )
        policy = build_policy_backend(config, [])
        retriever = build_retriever_backend(config)
        assert isinstance(policy, ScriptedPolicyBackend)
        assert isinstance(retriever, LexicalRetriever)

    def test_unknown_kinds_rejected(self):
        for settings in (PolicySettings, RetrieverSettings):
            with pytest.raises(ValueError, match="unknown kind 'ouija'; expected one of"):
                settings(kind="ouija")
        for section in ("policy", "retriever"):
            with pytest.raises(ConfigurationError, match="unknown kind 'ouija'"):
                RunConfig.from_dict({section: {"kind": "ouija"}})

    def test_routed_backend_when_trainee_endpoint_set(self):
        from ragtree.policy import RoutedPolicyBackend

        config = RunConfig(
            policy=PolicySettings(
                kind="http",
                base_url="http://main",
                self_answer_base_url="http://trainee",
                self_answer_model="small",
            )
        )
        backend = build_policy_backend(config, [])
        assert isinstance(backend, RoutedPolicyBackend)
        assert backend.self_answer is not None

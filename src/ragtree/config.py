"""Run configuration, dataset loading, and backend construction.

The config file is JSON and round-trips losslessly through
``RunConfig.from_dict`` / ``to_dict``. CLI flags override individual fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Literal, Optional

from .engine import ExpansionConfig
from .errors import ConfigurationError, DatasetError, json_objects
from .history import HistoryTemplate
from .httpclient import check_http_settings
from .policy import HttpPolicyBackend, PolicyBackend, RoutedPolicyBackend
from .retrieval import HttpRetrieverBackend, LexicalRetriever, RetrieverBackend, load_corpus_jsonl
from .snapshot import decode, encode
from .templates import PromptTemplateSet, load_templates
from .types import Question, check_choices


class _HttpSettings:
    """Checked when made: the ``Literal`` choices, and the HTTP client's ranges."""

    def __post_init__(self):
        check_choices(self)
        check_http_settings(self.timeout, self.max_retries, self.backoff_s)


@dataclass(frozen=True)
class PolicySettings(_HttpSettings):
    kind: Literal["http", "scripted"] = "http"
    base_url: str = "http://127.0.0.1:8000/v1"
    model: str = "policy-model"
    auth_env: str = "RAGTREE_POLICY_TOKEN"
    timeout: float = 60.0
    max_retries: int = 3
    backoff_s: float = 0.25
    # Optional second endpoint serving self-knowledge answers (the trainee model).
    self_answer_base_url: Optional[str] = None
    self_answer_model: Optional[str] = None


@dataclass(frozen=True)
class RetrieverSettings(_HttpSettings):
    kind: Literal["http", "lexical"] = "http"
    base_url: str = "http://127.0.0.1:8001"
    corpus_path: Optional[str] = None
    timeout: float = 30.0
    max_retries: int = 3
    backoff_s: float = 0.25


@dataclass(frozen=True)
class PathSettings:
    dataset: Optional[str] = None
    templates_dir: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    policy: PolicySettings = field(default_factory=PolicySettings)
    retriever: RetrieverSettings = field(default_factory=RetrieverSettings)
    paths: PathSettings = field(default_factory=PathSettings)
    concurrency: int = 1
    resume: bool = True

    def __post_init__(self):
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")

    def to_dict(self) -> dict:
        """The file form: ``expansion.concurrency`` is left out, as from snapshots."""
        return encode(self)

    @classmethod
    def from_dict(cls, record: dict) -> "RunConfig":
        """``record`` laid over the defaults' ``to_dict``, so a key it lacks takes its
        default, and decoded by ``snapshot.decode``: a key ``to_dict`` never writes or a
        wrongly typed value is refused by its path, such as ``config.expansion.k``."""
        try:
            return decode(cls, _laid_over(encode(cls()), record), ("config",))
        except ValueError as exc:
            raise ConfigurationError(f"invalid config: {exc}") from None

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """The file's config. Its paths are checked where they are read (``load_dataset``,
        ``load_corpus_jsonl``, ``load_templates``), so a flag can replace a missing one."""
        try:
            record = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}")
        return cls.from_dict(record)

    def history_template(self) -> HistoryTemplate:
        return self.expansion.history_template()


def _laid_over(defaults: Any, record: Any) -> Any:
    """``record`` with every key it lacks taken from ``defaults``, section by section."""
    if not (isinstance(defaults, dict) and isinstance(record, dict)):
        return record
    return {**defaults, **{key: _laid_over(defaults.get(key), value) for key, value in record.items()}}


def load_dataset(path: str) -> List[Question]:
    """Parse a question file: one ``{"id", "question", "golden_answers"}`` per line, with
    a question and gold answers that are strings of more than whitespace and an id that
    is a non-empty string or an integer; any other line raises :class:`DatasetError`
    naming it."""
    questions: List[Question] = []
    seen: Dict[str, int] = {}
    for line_no, record in json_objects(path, "dataset"):
        missing = [k for k in ("id", "question", "golden_answers") if k not in record]
        if missing:
            raise DatasetError(f"missing fields: {missing}", line=line_no)
        qid, text, golds = record["id"], record["question"], record["golden_answers"]
        if isinstance(qid, bool) or not isinstance(qid, (str, int)) or qid == "":
            raise DatasetError("id must be a non-empty string or an integer", line=line_no)
        qid = str(qid)
        if qid in seen:
            raise DatasetError(
                f"duplicate question id {qid!r} (first seen on line {seen[qid]})", line=line_no
            )
        seen[qid] = line_no
        if not (isinstance(text, str) and text.strip()):
            raise DatasetError("question must be a non-empty string", line=line_no)
        if not (isinstance(golds, list) and golds
                and all(isinstance(g, str) and g.strip() for g in golds)):
            raise DatasetError("golden_answers must be a non-empty list of non-empty strings", line=line_no)
        questions.append(Question(id=qid, text=text, gold_answers=tuple(golds)))
    if not questions:
        raise DatasetError(f"dataset {path} has no questions")
    return questions


def build_policy_backend(config: RunConfig, questions: Optional[List[Question]] = None) -> PolicyBackend:
    settings = config.policy
    if settings.kind == "http":

        def client(base_url: str, model: str) -> HttpPolicyBackend:
            return HttpPolicyBackend(
                base_url, model, settings.auth_env, settings.timeout, settings.max_retries,
                settings.backoff_s,
            )

        default = client(settings.base_url, settings.model)
        if not settings.self_answer_base_url:
            return default
        trainee = client(settings.self_answer_base_url, settings.self_answer_model or settings.model)
        return RoutedPolicyBackend(default=default, self_answer=trainee)
    from .scripted import make_bench_policy

    gold = {q.text: q.gold_answers[0] for q in questions or []}
    return make_bench_policy(gold, rollout_searches=config.expansion.t_max - 1)


def build_retriever_backend(config: RunConfig) -> RetrieverBackend:
    settings = config.retriever
    if settings.kind == "http":
        return HttpRetrieverBackend(
            base_url=settings.base_url,
            timeout=settings.timeout,
            max_retries=settings.max_retries,
            backoff_s=settings.backoff_s,
        )
    if settings.corpus_path:
        corpus = load_corpus_jsonl(settings.corpus_path)
    else:
        from .scripted import BENCH_CORPUS

        corpus = BENCH_CORPUS
    return LexicalRetriever(corpus)


def build_templates(config: RunConfig) -> PromptTemplateSet:
    return load_templates(config.paths.templates_dir)

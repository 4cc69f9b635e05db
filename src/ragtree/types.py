"""Core domain types for the decision/execution search process.

A solution state is the original question plus an ordered list of resolved
steps. Each step pairs a sub-question with its resolution: either an answer
drawn from the model's own knowledge, or a search-engine sub-query together
with the documents it retrieved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Literal, Mapping, Optional, Tuple, Union, get_args, get_origin, get_type_hints

# Field metadata: snapshots leave the field out. Load rebuilds it from the rest of
# the file, or gives it its default when it does not shape the tree.
UNWRITTEN = MappingProxyType({"snapshot": False})


@lru_cache(maxsize=None)
def _accepted(hint: Any) -> Tuple[type, ...]:
    """The types a value of ``hint`` may have: a generic's origin, the types of a
    Literal's choices, and int as well as float."""
    origin = get_origin(hint)
    if origin is Union:
        return tuple(t for arg in get_args(hint) for t in _accepted(arg))
    if origin is Literal:
        return tuple({type(choice) for choice in get_args(hint)})
    return (int, float) if hint is float else (origin or hint,)


def has_type(value: Any, hint: Any) -> bool:
    """Whether a JSON value fits ``hint``: a bool is no number, and null fits only an
    Optional hint. ``check_choices`` checks the value of a Literal."""
    accepted = _accepted(hint)
    return isinstance(value, accepted) and (bool in accepted or not isinstance(value, bool))


@lru_cache(maxsize=None)
def type_hints(cls: type) -> Mapping[str, Any]:
    """``get_type_hints(cls)``, resolved once per class."""
    return MappingProxyType(get_type_hints(cls))


def check_choices(obj: Any) -> None:
    """Refuse a dataclass whose ``Literal`` fields hold a value outside their choices."""
    for name, hint in type_hints(type(obj)).items():
        value, choices = getattr(obj, name), get_args(hint)
        if get_origin(hint) is Literal and value not in choices:
            raise ValueError(f"unknown {name} {value!r}; expected one of {list(choices)}")


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    gold_answers: Tuple[str, ...]

    def __post_init__(self):
        if not self.id:
            raise ValueError("question id must be non-empty")
        if not self.text:
            raise ValueError("question text must be non-empty")
        if not self.gold_answers:
            raise ValueError(f"question {self.id!r} has no gold answers")
        object.__setattr__(self, "gold_answers", tuple(self.gold_answers))


@dataclass(frozen=True)
class Document:
    title: str
    text: str
    score: float = 0.0

    def __post_init__(self):
        if not self.text:
            raise ValueError("document text must be non-empty")


@dataclass(frozen=True)
class SelfAnswer:
    """A sub-question answered from the model's own knowledge."""

    answer: str

    def __post_init__(self):
        if not self.answer:
            raise ValueError("self-answer must be non-empty")


@dataclass(frozen=True)
class Retrieved:
    """A sub-question resolved by issuing a search-engine sub-query."""

    sub_query: str
    documents: Tuple[Document, ...] = ()

    def __post_init__(self):
        if not self.sub_query:
            raise ValueError("sub-query must be non-empty")
        object.__setattr__(self, "documents", tuple(self.documents))


Resolution = Union[SelfAnswer, Retrieved]


@dataclass(frozen=True)
class Step:
    sub_question: str
    resolution: Resolution

    def __post_init__(self):
        if not self.sub_question:
            raise ValueError("sub-question must be non-empty")


@dataclass(frozen=True)
class State:
    """A partial solution: the question plus the steps resolved so far.

    ``final_answer`` is set exactly when the state is terminal.
    """

    question: Question = field(metadata=UNWRITTEN)  # a snapshot's states share its question
    steps: Tuple[Step, ...] = ()
    final_answer: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def is_terminal(self) -> bool:
        return self.final_answer is not None

    def with_step(self, step: Step) -> "State":
        if self.is_terminal:
            raise ValueError("cannot extend a terminal state")
        return State(self.question, self.steps + (step,), None)

    def with_answer(self, answer: str) -> "State":
        if self.is_terminal:
            raise ValueError("state already terminal")
        return State(self.question, self.steps, answer)


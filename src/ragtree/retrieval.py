"""Retriever backends: an HTTP client for a dense-retrieval service and an
in-memory lexical index used as an auditable test oracle. Each engine build
memoizes its own retrievals in front of either (``driver.Build``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Sequence, Tuple

from .errors import DatasetError, json_objects
from .httpclient import HttpJsonClient
from .metrics import normalize_answer
from .types import Document


@dataclass(frozen=True)
class RetrievalRequest:
    query: str
    top_k: int = 3

    def __post_init__(self):
        if not self.query:
            raise ValueError("query must be non-empty")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


class RetrieverBackend(Protocol):
    def retrieve(self, request: RetrievalRequest) -> List[Document]: ...


class HttpRetrieverBackend(HttpJsonClient):
    """POSTs ``{base_url}/retrieve`` with ``{"query", "top_k"}``.

    Expects ``{"docs": [{"title", "text", "score"}, ...]}`` ordered by
    descending score, with a string title (default "") and text. Retries as
    :class:`HttpJsonClient` does.
    """

    endpoint = "retriever"

    def retrieve(self, request: RetrievalRequest) -> List[Document]:
        payload = {"query": request.query, "top_k": request.top_k}
        return self._post("/retrieve", payload, self._parse_body)[: request.top_k]

    @staticmethod
    def _parse_body(body) -> List[Document]:
        docs = []
        for doc in body["docs"]:
            title, text = doc.get("title", ""), doc["text"]
            if not (isinstance(title, str) and isinstance(text, str)):
                raise TypeError("a document's title and text must be str")
            docs.append(Document(title, text, float(doc.get("score", 0.0))))
        return docs


class LexicalRetriever:
    """Scores documents by how many distinct normalized query tokens they contain.

    Ties break by corpus insertion order. This is a deliberately simple,
    hand-checkable ranking for tests and demos, not a retrieval-quality claim.
    """

    def __init__(self, corpus: Sequence[Tuple[str, str]]):
        self._docs = []
        for title, text in corpus:
            tokens = frozenset(normalize_answer(f"{title} {text}").split())
            self._docs.append((title, text, tokens))

    def retrieve(self, request: RetrievalRequest) -> List[Document]:
        query_tokens = set(normalize_answer(request.query).split())
        scored = []
        for index, (title, text, tokens) in enumerate(self._docs):
            score = float(len(query_tokens & tokens))
            scored.append((-score, index, title, text, score))
        scored.sort()
        return [
            Document(title=title, text=text, score=score)
            for (_neg, _index, title, text, score) in scored[: request.top_k]
        ]


def load_corpus_jsonl(path: str) -> List[Tuple[str, str]]:
    """Load a lexical corpus: one ``{"title", "text"}`` JSON object per line, with a
    string title (default "") and a string text of more than whitespace; any other line
    raises :class:`DatasetError` naming it."""
    corpus: List[Tuple[str, str]] = []
    for line_no, record in json_objects(path, "corpus"):
        title, text = record.get("title", ""), record.get("text")
        if not (isinstance(title, str) and isinstance(text, str) and text.strip()):
            raise DatasetError("a corpus record needs a string title and a non-empty string "
                               "text", line=line_no)
        corpus.append((title, text))
    return corpus

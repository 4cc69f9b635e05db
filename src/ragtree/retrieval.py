"""Retriever backends: an HTTP client for a dense-retrieval service, an
in-memory lexical index used as an auditable test oracle, and the per-build
single-flight memo the engine puts in front of either."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Protocol, Sequence, Tuple

from .errors import BackendUnavailable, DatasetError
from .httpclient import HttpJsonClient
from .metrics import normalize_answer
from .types import Document

if TYPE_CHECKING:
    import requests


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
    descending score. Retries as :class:`HttpJsonClient` does.
    """

    endpoint = "retriever"

    def retrieve(self, request: RetrievalRequest) -> List[Document]:
        resp = self._post("/retrieve", {"query": request.query, "top_k": request.top_k})
        return self._parse_body(resp, request.top_k)

    @staticmethod
    def _parse_body(resp: requests.Response, top_k: int) -> List[Document]:
        try:
            docs = resp.json()["docs"]
            parsed = [
                Document(title=d.get("title", ""), text=d["text"], score=float(d.get("score", 0.0)))
                for d in docs
            ]
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendUnavailable(f"malformed retriever response body: {exc}")
        return parsed[:top_k]


class MemoRetriever:
    """Single-flight memo over a retriever, keyed by ``(query, top_k)``.

    Each key has its own lock: the caller holding it calls the inner
    retriever, and callers of the same key wait for the lock, then read the
    stored result. Only successes are stored, so after a failure the next
    waiter calls the inner retriever itself. Every caller gets its own list;
    documents are frozen and shared.

    This assumes retrieval is a pure function of the request, which holds for
    a fixed index over the span of one build; keep one memo per build.
    """

    def __init__(self, inner: RetrieverBackend):
        self.inner = inner
        self._lock = threading.Lock()
        self._locks: Dict[Tuple[str, int], threading.Lock] = {}
        self._done: Dict[Tuple[str, int], Tuple[Document, ...]] = {}

    def retrieve(self, request: RetrievalRequest) -> List[Document]:
        key = (request.query, request.top_k)
        with self._lock:
            key_lock = self._locks.setdefault(key, threading.Lock())
        with key_lock:
            if key not in self._done:
                self._done[key] = tuple(self.inner.retrieve(request))
            return list(self._done[key])


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

    def __len__(self) -> int:
        return len(self._docs)

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
    """Load a lexical corpus: one ``{"title", "text"}`` JSON object per line."""
    corpus: List[Tuple[str, str]] = []
    file_path = Path(path)
    if not file_path.is_file():
        raise DatasetError(f"corpus file not found: {path}")
    with file_path.open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                corpus.append((obj.get("title", ""), obj["text"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetError(f"bad corpus record ({exc})", line=line_no)
    return corpus

"""Shared fixtures: questions, scripted scenario policies, a counting retriever,
and HTTP stubs."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import pytest

from ragtree.engine import ExpansionConfig, derive_seed
from ragtree.errors import BackendUnavailable
from ragtree.policy import PolicyRequest, ScriptedPolicyBackend
from ragtree.retrieval import LexicalRetriever, RetrievalRequest, RetrieverBackend
from ragtree.scripted import infer_role
from ragtree.templates import PolicyRole
from ragtree.types import Question

# Gold with four tokens: a four-token prediction overlapping o of them has
# F1 = o/4 exactly (precision o/4, recall o/4), so candidate rewards like
# 0.25 / 0.50 / 0.75 / 1.00 are one engineered answer away.
GOLD = "g1 g2 g3 g4"


def overlap_answer(overlap: int) -> str:
    """A four-token answer with the given gold-token overlap (F1 = overlap/4)."""
    gold_tokens = GOLD.split()
    fillers = ["x1", "x2", "x3", "x4"]
    return " ".join(gold_tokens[:overlap] + fillers[: 4 - overlap])


@pytest.fixture
def question() -> Question:
    return Question(id="q1", text="which tokens follow alpha?", gold_answers=(GOLD,))


@dataclass
class Scenario:
    """Scripted policy with per-sample control, addressed by the engine's seeds.

    Candidate contents are keyed by (kind, layer, sample index), termination
    votes by (layer, vote index); rollout answers are looked up by the marker
    substring of the candidate the rollout extends (latest match in the prompt
    wins). Everything stays a pure function of the request.
    """

    config: ExpansionConfig
    question: Question
    candidates: Dict[Tuple[str, int, int], str] = field(default_factory=dict)
    votes: Dict[Tuple[int, int], str] = field(default_factory=dict)
    rollout_answers: Dict[str, str] = field(default_factory=dict)
    default_rollout_answer: str = "offtrack"
    finalize_answer: str = "unsettled"
    vote_answer: str = "unsettled"
    _cand_attempts: Dict[Tuple[str, int, int], int] = field(default_factory=dict)
    _vote_attempts: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def cand_seed(self, kind: str, layer: int, index: int, attempt: int = 0) -> int:
        return derive_seed(
            self.config.seed, self.question.id, "cand", kind, layer, index, attempt
        )

    def vote_seed(self, layer: int, vote: int, attempt: int = 0) -> int:
        return derive_seed(self.config.seed, self.question.id, "vote", layer, vote, attempt)

    def set_candidates(self, kind: str, layer: int, contents, attempts: int = 1) -> None:
        for index, content in enumerate(contents):
            self.candidates[(kind, layer, index)] = content
            self._cand_attempts[(kind, layer, index)] = attempts

    def set_votes(self, layer: int, choices, attempts: int = 1) -> None:
        for index, choice in enumerate(choices):
            self.votes[(layer, index)] = choice
            self._vote_attempts[(layer, index)] = attempts

    def policy(self) -> ScriptedPolicyBackend:
        cand_by_seed = {}
        for (kind, layer, index), content in self.candidates.items():
            for attempt in range(self._cand_attempts.get((kind, layer, index), 1)):
                cand_by_seed[self.cand_seed(kind, layer, index, attempt)] = content
        vote_by_seed = {}
        for (layer, index), choice in self.votes.items():
            for attempt in range(self._vote_attempts.get((layer, index), 1)):
                vote_by_seed[self.vote_seed(layer, index, attempt)] = choice

        def termination(request: PolicyRequest) -> str:
            if request.temperature == 0.0:
                return f"<reasoning> wrapping up </reasoning> <answer> {self.finalize_answer} </answer>"
            choice = vote_by_seed.get(request.seed, "continue")
            if choice == "terminate":
                return f"<reasoning> enough </reasoning> <answer> {self.vote_answer} </answer>"
            if choice == "malformed":
                return "no tags here"
            return "<reasoning> keep going </reasoning> <question> and then? </question>"

        def content_for(request: PolicyRequest) -> Optional[str]:
            return cand_by_seed.get(request.seed)

        def sub_question(request: PolicyRequest) -> str:
            content = content_for(request)
            if content is None:
                return f"thinking <question> auto {request.seed} </question>"
            if content == "<malformed>":
                return "no tags"
            return f"thinking <question> {content} </question>"

        def self_answer(request: PolicyRequest) -> str:
            content = content_for(request)
            if content is None:
                return f"recalling <answer> auto {request.seed} </answer>"
            if content == "<malformed>":
                return "no tags"
            return f"recalling <answer> {content} </answer>"

        def sub_query(request: PolicyRequest) -> str:
            content = content_for(request)
            if content is None:
                return f"auto {request.seed}"
            if content == "<malformed>":
                return ""
            return content

        def rollout(request: PolicyRequest) -> str:
            best_marker, best_pos = None, -1
            for marker in self.rollout_answers:
                pos = request.prompt.rfind(marker)
                if pos > best_pos:
                    best_marker, best_pos = marker, pos
            answer = (
                self.rollout_answers[best_marker]
                if best_marker is not None
                else self.default_rollout_answer
            )
            return f"<think> following the trail </think> <answer> {answer} </answer>"

        return ScriptedPolicyBackend(
            {
                PolicyRole.TERMINATION: termination,
                PolicyRole.SUB_QUESTION: sub_question,
                PolicyRole.SELF_ANSWER: self_answer,
                PolicyRole.SUB_QUERY: sub_query,
                PolicyRole.ROLLOUT: rollout,
            }
        )


@pytest.fixture
def scenario(question) -> Scenario:
    return Scenario(config=ExpansionConfig(k=3, n=4, t_max=2, majority_samples=3), question=question)


TEST_CORPUS = [
    ("alpha", "alpha is the first letter of the greek alphabet"),
    ("beta", "beta follows alpha in the greek alphabet"),
    ("gamma", "gamma follows beta in the greek alphabet"),
]


@pytest.fixture
def retriever() -> LexicalRetriever:
    return LexicalRetriever(TEST_CORPUS)


class CountingRetriever:
    """Records every request that reaches it, then delegates.

    Each call sleeps ``delay_s`` first, so concurrent callers overlap; the
    first ``fail_first`` calls raise :class:`BackendUnavailable` instead.
    """

    def __init__(self, inner: RetrieverBackend, delay_s: float = 0.0, fail_first: int = 0):
        self.inner = inner
        self.delay_s = delay_s
        self.fail_first = fail_first
        self.requests = []
        self._lock = threading.Lock()

    def retrieve(self, request: RetrievalRequest):
        with self._lock:
            self.requests.append(request)
            fail = len(self.requests) <= self.fail_first
        time.sleep(self.delay_s)
        if fail:
            raise BackendUnavailable("scripted retriever failure")
        return self.inner.retrieve(request)


# ------------------------------------------------------------------ HTTP stubs


class StubPolicyServer:
    """Chat-completions endpoint backed by a scripted policy.

    ``fail_first`` makes the first N requests return HTTP 500 (retry tests).
    """

    def __init__(self, scripted: ScriptedPolicyBackend, fail_first: int = 0):
        self.scripted = scripted
        self.requests_seen = 0
        self._fail_remaining = fail_first
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.requests_seen += 1
                    if outer._fail_remaining > 0:
                        outer._fail_remaining -= 1
                        self.send_response(500)
                        self.end_headers()
                        self.wfile.write(b"boom")
                        return
                prompt = payload["messages"][-1]["content"]
                request = PolicyRequest(
                    role=infer_role(prompt),
                    prompt=prompt,
                    temperature=payload.get("temperature", 0.0),
                    max_tokens=payload.get("max_tokens", 512),
                    seed=payload.get("seed"),
                )
                response = outer.scripted.complete(request)
                body = json.dumps(
                    {
                        "choices": [{"message": {"role": "assistant", "content": response.text}}],
                        "usage": {
                            "prompt_tokens": response.prompt_tokens,
                            "completion_tokens": response.completion_tokens,
                        },
                    }
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}/v1"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


class StubRetrieverServer:
    def __init__(self, retriever: LexicalRetriever):
        outer = self
        self.retriever = retriever
        self.requests_seen = 0
        self._lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.requests_seen += 1
                from ragtree.retrieval import RetrievalRequest

                docs = outer.retriever.retrieve(
                    RetrievalRequest(query=payload["query"], top_k=payload["top_k"])
                )
                body = json.dumps(
                    {
                        "docs": [
                            {"title": d.title, "text": d.text, "score": d.score} for d in docs
                        ]
                    }
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()

"""Retriever backends: lexical oracle ranking, clamping, and the HTTP client."""

from __future__ import annotations

import json

import pytest

from conftest import StubRetrieverServer, TEST_CORPUS
from ragtree.errors import BackendUnavailable, ConfigurationError, DatasetError
from ragtree.retrieval import (
    HttpRetrieverBackend,
    LexicalRetriever,
    RetrievalRequest,
    load_corpus_jsonl,
)


class TestRequestValidation:
    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            RetrievalRequest(query="")

    def test_zero_top_k_rejected(self):
        with pytest.raises(ValueError):
            RetrievalRequest(query="q", top_k=0)


class TestLexical:
    def test_title_match_ranks_first(self):
        retriever = LexicalRetriever(TEST_CORPUS)
        docs = retriever.retrieve(RetrievalRequest(query="gamma", top_k=3))
        # hand-computed: "gamma" appears only in the gamma doc; the zero-score
        # tie breaks by insertion order
        assert docs[0].title == "gamma"
        assert [d.score for d in docs] == [1.0, 0.0, 0.0]
        assert docs[1].title == "alpha"

    def test_overlap_count_hand_computed(self):
        retriever = LexicalRetriever(TEST_CORPUS)
        docs = retriever.retrieve(RetrievalRequest(query="alpha beta letter", top_k=3))
        # alpha doc holds {alpha, letter}; beta doc holds {beta, alpha}; gamma doc holds {beta}
        assert [(d.title, d.score) for d in docs] == [
            ("alpha", 2.0),
            ("beta", 2.0),
            ("gamma", 1.0),
        ]

    def test_top_k_clamps_to_corpus_size(self):
        retriever = LexicalRetriever(TEST_CORPUS[:2])
        docs = retriever.retrieve(RetrievalRequest(query="alpha", top_k=3))
        assert len(docs) == 2

    def test_empty_corpus_returns_empty(self):
        retriever = LexicalRetriever([])
        assert retriever.retrieve(RetrievalRequest(query="anything", top_k=3)) == []

    def test_scores_non_increasing_and_deterministic(self):
        retriever = LexicalRetriever(TEST_CORPUS)
        first = retriever.retrieve(RetrievalRequest(query="greek alphabet", top_k=3))
        second = retriever.retrieve(RetrievalRequest(query="greek alphabet", top_k=3))
        assert [d.title for d in first] == [d.title for d in second]
        scores = [d.score for d in first]
        assert scores == sorted(scores, reverse=True)

    def test_ties_break_by_insertion_order(self):
        retriever = LexicalRetriever([("one", "same text"), ("two", "same text")])
        docs = retriever.retrieve(RetrievalRequest(query="same", top_k=2))
        assert [d.title for d in docs] == ["one", "two"]


class TestHttpRetriever:
    def test_round_trip_against_stub(self):
        server = StubRetrieverServer(LexicalRetriever(TEST_CORPUS))
        try:
            backend = HttpRetrieverBackend(base_url=server.base_url)
            docs = backend.retrieve(RetrievalRequest(query="gamma", top_k=2))
            assert len(docs) == 2
            assert docs[0].title == "gamma"
            assert docs[0].score >= docs[1].score
        finally:
            server.close()

    def test_transient_500s_then_success(self):
        server = StubRetrieverServer(LexicalRetriever(TEST_CORPUS), fail_first=2)
        try:
            backend = HttpRetrieverBackend(base_url=server.base_url, max_retries=2, backoff_s=0.01)
            docs = backend.retrieve(RetrievalRequest(query="gamma", top_k=1))
            assert [d.title for d in docs] == ["gamma"]
            assert server.requests_seen == 3
        finally:
            server.close()

    @pytest.mark.parametrize("status", [429, 408], ids=["too-many-requests", "request-timeout"])
    def test_a_rate_limit_or_timeout_reply_is_retried(self, status):
        # a rate-limited endpoint asks the client to come back later, as a 5xx does
        server = StubRetrieverServer(LexicalRetriever(TEST_CORPUS), fail_first=1, fail_status=status)
        try:
            backend = HttpRetrieverBackend(base_url=server.base_url, max_retries=3, backoff_s=0.01)
            docs = backend.retrieve(RetrievalRequest(query="gamma", top_k=1))
            assert [d.title for d in docs] == ["gamma"]
            assert server.requests_seen == 2
        finally:
            server.close()

    def test_exhausted_retries_raise_backend_unavailable(self):
        server = StubRetrieverServer(LexicalRetriever(TEST_CORPUS), fail_first=10)
        try:
            backend = HttpRetrieverBackend(base_url=server.base_url, max_retries=2, backoff_s=0.01)
            with pytest.raises(BackendUnavailable):
                backend.retrieve(RetrievalRequest(query="gamma"))
            assert server.requests_seen == 3
        finally:
            server.close()

    def test_unreachable_endpoint_raises_backend_unavailable(self):
        backend = HttpRetrieverBackend(
            base_url="http://127.0.0.1:9", max_retries=1, backoff_s=0.01, timeout=0.2
        )
        with pytest.raises(BackendUnavailable):
            backend.retrieve(RetrievalRequest(query="gamma"))

    def test_4xx_raises_configuration_error_without_retry(self):
        server = StubRetrieverServer(LexicalRetriever(TEST_CORPUS), fail_first=1, fail_status=400)
        try:
            backend = HttpRetrieverBackend(base_url=server.base_url, backoff_s=0.01)
            with pytest.raises(ConfigurationError):
                backend.retrieve(RetrievalRequest(query="gamma"))
            assert server.requests_seen == 1
        finally:
            server.close()


    @pytest.mark.parametrize(
        "doc",
        [
            {"title": None, "text": "alpha"},
            {"title": 3, "text": "alpha"},
            {"title": "alpha", "text": 7},
            {"title": "alpha", "text": ["alpha"]},
            "alpha",
        ],
        ids=["null-title", "number-title", "number-text", "list-text", "text-record"],
    )
    def test_a_document_that_is_not_text_fails_the_call(self, reply_server, doc):
        backend = HttpRetrieverBackend(reply_server({"docs": [doc]}), max_retries=0)
        with pytest.raises(BackendUnavailable, match="malformed retriever response body"):
            backend.retrieve(RetrievalRequest(query="alpha"))


class TestCorpusLoader:
    def test_load_and_skip_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"title": "t1", "text": "body one"})
            + "\n\n"
            + json.dumps({"title": "t2", "text": "body two"})
            + "\n",
            encoding="utf-8",
        )
        corpus = load_corpus_jsonl(str(path))
        assert corpus == [("t1", "body one"), ("t2", "body two")]

    def test_missing_text_field_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"title": "t"}\n', encoding="utf-8")
        with pytest.raises(DatasetError) as excinfo:
            load_corpus_jsonl(str(path))
        assert excinfo.value.line == 1

    @pytest.mark.parametrize(
        "record, needle",
        [([1, 2], "not an object"), ("text", "not an object"),
         ({"title": 3, "text": "body"}, "title"), ({"title": "t", "text": 5}, "text"),
         ({"title": "t", "text": None}, "text"), ({"title": "t", "text": ""}, "text"),
         ({"title": "t", "text": "  \n "}, "text")],
        ids=["list", "string", "int-title", "int-text", "null-text", "empty-text", "blank-text"],
    )
    def test_bad_record_is_refused_with_its_line(self, tmp_path, record, needle):
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"title": "t1", "text": "body one"}), json.dumps(record)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=needle) as excinfo:
            load_corpus_jsonl(str(path))
        assert excinfo.value.line == 2

    def test_missing_file(self):
        with pytest.raises(DatasetError):
            load_corpus_jsonl("/nonexistent/corpus.jsonl")

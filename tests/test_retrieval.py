"""Retriever backends: lexical oracle ranking, clamping, the HTTP client, and the
single-flight memo."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from conftest import CountingRetriever, StubRetrieverServer, TEST_CORPUS
from ragtree.errors import BackendUnavailable, DatasetError
from ragtree.retrieval import (
    HttpRetrieverBackend,
    LexicalRetriever,
    MemoRetriever,
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



class TestMemoRetriever:
    def test_concurrent_callers_share_one_call(self):
        inner = CountingRetriever(LexicalRetriever(TEST_CORPUS), delay_s=0.05)
        memo = MemoRetriever(inner)
        workers = 8
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def call(slot):
            barrier.wait(timeout=10)
            results[slot] = memo.retrieve(RetrievalRequest(query="gamma", top_k=2))

        threads = [threading.Thread(target=call, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(inner.requests) == 1
        expected = LexicalRetriever(TEST_CORPUS).retrieve(RetrievalRequest(query="gamma", top_k=2))
        assert all(docs == expected for docs in results)

    def test_failure_raises_and_is_not_cached(self):
        inner = CountingRetriever(LexicalRetriever(TEST_CORPUS), fail_first=1)
        memo = MemoRetriever(inner)
        request = RetrievalRequest(query="gamma", top_k=2)
        with pytest.raises(BackendUnavailable):
            memo.retrieve(request)
        assert [d.title for d in memo.retrieve(request)] == ["gamma", "alpha"]
        assert len(inner.requests) == 2

    def test_waiter_calls_backend_when_leader_fails(self):
        inner = CountingRetriever(LexicalRetriever(TEST_CORPUS), delay_s=0.1, fail_first=1)
        memo = MemoRetriever(inner)
        request = RetrievalRequest(query="gamma", top_k=2)
        outcome = {}

        def leader():
            try:
                memo.retrieve(request)
            except BackendUnavailable as exc:
                outcome["leader"] = exc

        def waiter():
            outcome["waiter"] = memo.retrieve(request)

        first = threading.Thread(target=leader)
        first.start()
        deadline = time.monotonic() + 10
        while not inner.requests and time.monotonic() < deadline:
            time.sleep(0.001)
        second = threading.Thread(target=waiter)
        second.start()
        first.join(timeout=10)
        second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert isinstance(outcome["leader"], BackendUnavailable)
        assert [d.title for d in outcome["waiter"]] == ["gamma", "alpha"]
        assert len(inner.requests) == 2

    def test_top_k_is_part_of_the_key(self):
        inner = CountingRetriever(LexicalRetriever(TEST_CORPUS))
        memo = MemoRetriever(inner)
        one = memo.retrieve(RetrievalRequest(query="gamma", top_k=1))
        two = memo.retrieve(RetrievalRequest(query="gamma", top_k=2))
        assert (len(one), len(two)) == (1, 2)
        assert [r.top_k for r in inner.requests] == [1, 2]

    def test_callers_get_distinct_lists(self):
        memo = MemoRetriever(LexicalRetriever(TEST_CORPUS))
        request = RetrievalRequest(query="gamma", top_k=2)
        first = memo.retrieve(request)
        second = memo.retrieve(request)
        assert first == second and first is not second
        first.clear()
        assert memo.retrieve(request) == second


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

    def test_missing_file(self):
        with pytest.raises(DatasetError):
            load_corpus_jsonl("/nonexistent/corpus.jsonl")

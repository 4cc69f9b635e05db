"""Policy backends: scripted purity, HTTP wire format, retries, and routing."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import TEST_CORPUS, Scenario, StubPolicyServer
from ragtree.agent import evaluate_dataset
from ragtree.batch import expand_batch
from ragtree.engine import ExpansionConfig, TreeBuilder
from ragtree.errors import BackendUnavailable, ConfigurationError
from ragtree.policy import (
    HttpPolicyBackend,
    PolicyRequest,
    RoutedPolicyBackend,
    ScriptedPolicyBackend,
)
from ragtree.retrieval import HttpRetrieverBackend, LexicalRetriever
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.templates import PolicyRole, load_default_templates
from ragtree.types import Question


def _echo_backend() -> ScriptedPolicyBackend:
    return ScriptedPolicyBackend(
        {role: (lambda req: f"{req.role.value}:{req.seed}:{req.prompt[:10]}") for role in PolicyRole}
    )


class TestScripted:
    def test_pure_function_of_request(self):
        backend = _echo_backend()
        request = PolicyRequest(role=PolicyRole.SUB_QUERY, prompt="find the venue", seed=7)
        first = backend.complete(request)
        second = backend.complete(request)
        assert first.text == second.text

    def test_distinct_seeds_distinct_outputs(self):
        backend = _echo_backend()
        a = backend.complete(PolicyRequest(role=PolicyRole.SUB_QUERY, prompt="p", seed=1))
        b = backend.complete(PolicyRequest(role=PolicyRole.SUB_QUERY, prompt="p", seed=2))
        assert a.text != b.text

    def test_counts_calls_by_role(self):
        backend = _echo_backend()
        backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))
        backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))
        assert backend.calls_by_role[PolicyRole.ROLLOUT] == 2
        assert sum(backend.calls_by_role.values()) == 2

    def test_each_sample_is_answered_and_counted_at_its_own_seed(self):
        backend = _echo_backend()
        group = backend.complete(PolicyRequest(role=PolicyRole.SUB_QUERY, prompt="p q", seeds=(4, 1, 9)))
        alone = [backend.complete(PolicyRequest(role=PolicyRole.SUB_QUERY, prompt="p q", seed=seed))
                 for seed in (4, 1, 9)]
        assert group.texts == tuple(response.text for response in alone)
        assert group.text == alone[0].text
        assert group.prompt_tokens == sum(response.prompt_tokens for response in alone) == 6
        assert group.completion_tokens == sum(response.completion_tokens for response in alone)
        assert backend.calls_by_role[PolicyRole.SUB_QUERY] == 6

    def test_missing_handler_is_configuration_error(self):
        backend = ScriptedPolicyBackend({})
        with pytest.raises(ConfigurationError):
            backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))


class TestRequestValidation:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            PolicyRequest(role=PolicyRole.ROLLOUT, prompt="")

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", temperature=-0.1)

    def test_seed_is_the_first_of_seeds(self):
        group = PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seeds=[5, 6])
        assert (group.seed, group.seeds) == (5, (5, 6))
        assert [sample.seed for sample in group.samples()] == [5, 6]
        assert all(sample.seeds == () for sample in group.samples())
        with pytest.raises(ValueError, match="seed must be the first of seeds"):
            PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seed=6, seeds=(5, 6))

    def test_one_seed_is_a_one_sample_request(self):
        one = PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seeds=(5,))
        assert one == PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seed=5)
        assert one.samples() == (one,)


class TestHttpBackend:
    def test_round_trip_against_stub(self, question):
        scenario = Scenario(config=ExpansionConfig(), question=question)
        server = StubPolicyServer(scenario.policy())
        try:
            backend = HttpPolicyBackend(base_url=server.base_url, model="stub-model")
            templates = load_default_templates()
            prompt = templates.render(PolicyRole.SUB_QUESTION, question=question.text)
            response = backend.complete(
                PolicyRequest(role=PolicyRole.SUB_QUESTION, prompt=prompt, seed=3)
            )
            assert "<question>" in response.text
            assert response.completion_tokens > 0
        finally:
            server.close()

    def test_transient_500s_then_success(self, question):
        scenario = Scenario(config=ExpansionConfig(), question=question)
        server = StubPolicyServer(scenario.policy(), fail_first=3)
        try:
            backend = HttpPolicyBackend(
                base_url=server.base_url, model="stub-model", max_retries=3, backoff_s=0.01
            )
            templates = load_default_templates()
            prompt = templates.render(PolicyRole.SUB_QUESTION, question=question.text)
            response = backend.complete(PolicyRequest(role=PolicyRole.SUB_QUESTION, prompt=prompt))
            assert response.text
            assert server.requests_seen == 4
        finally:
            server.close()

    def test_exhausted_retries_raise_backend_unavailable(self, question):
        scenario = Scenario(config=ExpansionConfig(), question=question)
        server = StubPolicyServer(scenario.policy(), fail_first=10)
        try:
            backend = HttpPolicyBackend(
                base_url=server.base_url, model="stub-model", max_retries=2, backoff_s=0.01
            )
            with pytest.raises(BackendUnavailable):
                backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))
        finally:
            server.close()

    def test_unreachable_endpoint_raises_backend_unavailable(self):
        backend = HttpPolicyBackend(
            base_url="http://127.0.0.1:9", model="m", max_retries=1, backoff_s=0.01, timeout=0.2
        )
        with pytest.raises(BackendUnavailable):
            backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))

    @pytest.mark.parametrize(
        "setting, needle",
        [({"timeout": 0}, "timeout must be > 0"), ({"max_retries": -1}, "max_retries must be >= 0"),
         ({"backoff_s": -1}, "backoff_s must be >= 0")],
    )
    def test_a_client_refuses_an_out_of_range_setting_when_made(self, setting, needle):
        # not late, at the first request: urllib3 refuses the timeout, no request is
        # sent, or the first retry cannot sleep
        with pytest.raises(ValueError, match=needle):
            HttpPolicyBackend("http://127.0.0.1:9", "m", **setting)
        with pytest.raises(ValueError, match=needle):
            HttpRetrieverBackend("http://127.0.0.1:9", **setting)

    def test_4xx_raises_configuration_error(self):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                body = b'{"error": "bad request"}'
                self.send_response(400)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            backend = HttpPolicyBackend(
                base_url=f"http://127.0.0.1:{server.server_port}/v1", model="m", backoff_s=0.01
            )
            with pytest.raises(ConfigurationError):
                backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))
        finally:
            server.shutdown()
            server.server_close()


def _reply(message: dict, usage=None) -> dict:
    body = {"choices": [{"message": {"role": "assistant", **message}}]}
    if usage is not None:
        body["usage"] = usage
    return body


class TestReplyShape:
    """A reply of the wrong shape fails its call, never the run that made it."""

    @pytest.mark.parametrize(
        "body",
        [
            _reply({"content": None}),
            _reply({"content": 7}),
            _reply({"content": ["<answer> a </answer>"]}),
            _reply({"content": "fine"}, usage=[3, 4]),
            _reply({"content": "fine"}, usage={"prompt_tokens": "many"}),
        ],
        ids=["null-content", "number-content", "list-content", "list-usage", "text-count"],
    )
    def test_a_body_of_the_wrong_shape_fails_the_call(self, reply_server, body):
        backend = HttpPolicyBackend(reply_server(body), model="m", max_retries=0)
        with pytest.raises(BackendUnavailable, match="malformed policy endpoint response body"):
            backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))

    @pytest.mark.parametrize(
        "usage, tokens",
        [
            ({"prompt_tokens": None, "completion_tokens": 4}, (0, 4)),
            ({"prompt_tokens": 3, "completion_tokens": None}, (3, 0)),
            ({"prompt_tokens": None}, (0, 0)),
        ],
    )
    def test_a_null_token_count_reads_as_zero(self, reply_server, usage, tokens):
        backend = HttpPolicyBackend(reply_server(_reply({"content": "fine"}, usage)), model="m")
        response = backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))
        assert (response.text, response.prompt_tokens, response.completion_tokens) == ("fine", *tokens)

    def test_a_batch_and_an_evaluation_record_the_failed_calls(self, reply_server, tmp_path):
        policy = HttpPolicyBackend(reply_server(_reply({"content": None})), model="m")
        retriever = LexicalRetriever(TEST_CORPUS)
        questions = [Question(id=f"q{i}", text=f"question {i}", gold_answers=("a",))
                     for i in range(2)]
        cfg = ExpansionConfig(k=2, n=1, t_max=1, majority_samples=1)
        manifest = expand_batch(questions, lambda: TreeBuilder(policy, retriever, cfg),
                                str(tmp_path))
        assert manifest.counts == {"ok": 0, "failed": 2, "skipped": 0}
        assert all("malformed policy endpoint response body" in item.error
                   for item in manifest.items)
        assert (tmp_path / "manifest.json").is_file()
        report = evaluate_dataset(questions, policy, retriever)
        assert report.failures == 2
        failure = "policy backend failed: malformed policy endpoint response body"
        assert all(item["failure"].startswith(failure) for item in report.per_item)


def _choices(*texts: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": text}} for text in texts],
            "usage": {"prompt_tokens": 5, "completion_tokens": 6}}


class TestSamplesPerRequest:
    """A request of several samples asks for ``n`` choices; one sample sends no ``n``."""

    def test_a_group_sends_n_and_its_first_seed(self, reply_server):
        backend = HttpPolicyBackend(reply_server(_choices("a", "b", "c")), model="m")
        response = backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p",
                                                  seeds=(7, 3, 9), stop=("</answer>",)))
        assert (response.text, response.texts) == ("a", ("a", "b", "c"))
        assert (response.prompt_tokens, response.completion_tokens) == (5, 6)
        assert reply_server.received == [{
            "model": "m", "messages": [{"role": "user", "content": "p"}], "temperature": 0.0,
            "max_tokens": 512, "seed": 7, "n": 3, "stop": ["</answer>"],
        }]

    def test_one_sample_sends_no_n(self, reply_server):
        backend = HttpPolicyBackend(reply_server(_choices("a")), model="m")
        backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seed=7))
        backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))
        assert reply_server.received == [
            {"model": "m", "messages": [{"role": "user", "content": "p"}], "temperature": 0.0,
             "max_tokens": 512, "seed": 7},
            {"model": "m", "messages": [{"role": "user", "content": "p"}], "temperature": 0.0,
             "max_tokens": 512},
        ]

    @pytest.mark.parametrize("seeds, texts", [((1, 2, 3), ("a", "b")), ((1, 2), ("a", "b", "c")),
                                              ((1,), ("a", "b"))])
    def test_other_than_one_choice_per_sample_fails_the_call(self, reply_server, seeds, texts):
        backend = HttpPolicyBackend(reply_server(_choices(*texts)), model="m", max_retries=0)
        with pytest.raises(BackendUnavailable, match=f"want {len(seeds)} str contents"):
            backend.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p", seeds=seeds))

    def test_a_server_that_ignores_n_fails_each_build_not_the_batch(self, reply_server, tmp_path):
        # it answers one choice to every request: each build fails at its first
        # group (the layer's votes), and an evaluation, one sample a request, runs
        policy = HttpPolicyBackend(reply_server(_choices("<answer> a </answer>")), model="m")
        retriever = LexicalRetriever(TEST_CORPUS)
        questions = [Question(id=f"q{i}", text=f"question {i}", gold_answers=("a",))
                     for i in range(2)]
        cfg = ExpansionConfig(k=2, n=1, t_max=1, majority_samples=2)
        manifest = expand_batch(questions, lambda: TreeBuilder(policy, retriever, cfg),
                                str(tmp_path))
        assert manifest.counts == {"ok": 0, "failed": 2, "skipped": 0}
        assert all("want 2 str contents, not ['str']" in item.error for item in manifest.items)
        report = evaluate_dataset(questions, policy, retriever)
        assert (report.failures, report.em) == (0, 1.0)

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_a_backend_that_answers_one_seed_fails_each_build_not_the_batch(self, tmp_path,
                                                                            concurrency):
        # a backend written for one sample a request answers a group's first seed only
        class OneSample:
            def complete(self, request):
                return inner.complete(replace(request, seeds=()))

        inner = make_bench_policy({}, rollout_searches=1)
        questions = [Question(id=f"q{i}", text=f"question {i}", gold_answers=("a",))
                     for i in range(2)]
        cfg = ExpansionConfig(k=2, n=2, t_max=2, majority_samples=2, concurrency=concurrency)
        manifest = expand_batch(questions, lambda: TreeBuilder(OneSample(), make_bench_retriever(),
                                                               cfg), str(tmp_path))
        assert manifest.counts == {"ok": 0, "failed": 2, "skipped": 0}
        assert all("answered 1 texts for 2 samples" in item.error for item in manifest.items)


class TestRoutedBackend:
    def test_self_answer_goes_to_trainee(self):
        default = _echo_backend()
        trainee = ScriptedPolicyBackend(
            {role: (lambda req: "trainee") for role in PolicyRole}
        )
        routed = RoutedPolicyBackend(default=default, self_answer=trainee)
        sa = routed.complete(PolicyRequest(role=PolicyRole.SELF_ANSWER, prompt="p"))
        other = routed.complete(PolicyRequest(role=PolicyRole.ROLLOUT, prompt="p"))
        assert sa.text == "trainee"
        assert other.text != "trainee"

    def test_without_trainee_everything_uses_default(self):
        routed = RoutedPolicyBackend(default=_echo_backend())
        sa = routed.complete(PolicyRequest(role=PolicyRole.SELF_ANSWER, prompt="p"))
        assert sa.text.startswith("self_answer")

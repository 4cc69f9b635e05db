"""Policy backends: a chat-completions HTTP client and a deterministic scripted fake.

All backends expose a single ``complete(request)`` method and must be safe to
share across concurrent in-flight requests. The scripted backend is a pure
function of the request, which is what makes seeded reruns byte-identical.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Protocol, Tuple

from .errors import ConfigurationError
from .httpclient import HttpJsonClient
from .templates import PolicyRole


@dataclass(frozen=True)
class PolicyRequest:
    """One prompt to sample at ``seed``, or at each of ``seeds``: samples that differ
    only by seed (a layer's votes, a candidate set, the first steps of a candidate's
    rollouts) are one request. ``seeds`` is empty for one sample; ``seed`` is the first."""

    role: PolicyRole
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 512
    seed: Optional[int] = None
    stop: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = ()

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        object.__setattr__(self, "stop", tuple(self.stop))
        if self.seeds:
            if self.seed not in (None, self.seeds[0]):
                raise ValueError("seed must be the first of seeds")
            object.__setattr__(self, "seed", self.seeds[0])
            object.__setattr__(self, "seeds", tuple(self.seeds) if len(self.seeds) > 1 else ())

    def samples(self) -> Tuple["PolicyRequest", ...]:
        """Each sample as a request of its own."""
        return tuple(replace(self, seed=seed, seeds=()) for seed in self.seeds) or (self,)


@dataclass
class PolicyResponse:
    """Each sample's text in seed order (``text`` is the first), with summed token counts."""

    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    texts: Tuple[str, ...] = ()

    def __post_init__(self):
        self.texts = tuple(self.texts) or (self.text,)


class PolicyBackend(Protocol):
    def complete(self, request: PolicyRequest) -> PolicyResponse: ...


class HttpPolicyBackend(HttpJsonClient):
    """Client for a chat-completions-compatible endpoint.

    POSTs ``{base_url}/chat/completions`` with ``model``, ``messages``,
    ``temperature``, ``max_tokens`` and optional ``seed`` / ``stop``, retrying
    as :class:`HttpJsonClient` does. A request of several samples sends ``n`` and
    its first seed, and reads one choice per sample, in order.
    """

    endpoint = "policy endpoint"

    def __init__(
        self,
        base_url: str,
        model: str,
        auth_env: str = "RAGTREE_POLICY_TOKEN",
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_s: float = 0.25,
    ):
        super().__init__(base_url, timeout, max_retries, backoff_s)
        self.model = model
        self.auth_env = auth_env

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def complete(self, request: PolicyRequest) -> PolicyResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        if request.seeds:
            payload["n"] = len(request.seeds)
        if request.stop:
            payload["stop"] = list(request.stop)
        return self._post("/chat/completions", payload,
                          lambda body: self._parse_body(body, payload.get("n", 1)), self._headers())

    @staticmethod
    def _parse_body(body, samples: int) -> PolicyResponse:
        texts = tuple(choice["message"]["content"] for choice in body["choices"])
        if len(texts) != samples or not all(isinstance(text, str) for text in texts):
            raise ValueError(f"want {samples} str contents, not {[type(t).__name__ for t in texts]}")
        usage = body.get("usage") or {}  # a missing or null count reads as 0
        return PolicyResponse(texts[0], int(usage.get("prompt_tokens") or 0),
                              int(usage.get("completion_tokens") or 0), texts)


Handler = Callable[[PolicyRequest], str]


class ScriptedPolicyBackend:
    """Deterministic fake: output is a pure function of the request.

    ``handlers`` maps each role to a callable producing one sample's text, at its
    seed. Samples per role are counted (thread-safe) in ``calls_by_role`` so tests
    can assert that, for instance, a resumed batch issues zero requests.
    """

    def __init__(self, handlers: Mapping[PolicyRole, Handler]):
        self.handlers = dict(handlers)
        self.calls_by_role = {role: 0 for role in PolicyRole}
        self._lock = threading.Lock()

    def complete(self, request: PolicyRequest) -> PolicyResponse:
        try:
            handler = self.handlers[request.role]
        except KeyError:
            raise ConfigurationError(f"scripted backend has no handler for role {request.role}")
        texts = tuple(handler(sample) for sample in request.samples())
        with self._lock:
            self.calls_by_role[request.role] += len(texts)
        return PolicyResponse(texts[0], len(request.prompt.split()) * len(texts),
                              sum(len(text.split()) for text in texts), texts)


@dataclass
class RoutedPolicyBackend:
    """Routes self-knowledge answering to a dedicated (trainee) endpoint.

    Answering sub-questions from the model's own knowledge probes the trainee
    model's knowledge boundary, so it may target a different endpoint than the
    stronger model used for every other role.
    """

    default: PolicyBackend
    self_answer: Optional[PolicyBackend] = None

    def complete(self, request: PolicyRequest) -> PolicyResponse:
        backend = self.default
        if self.self_answer is not None and request.role == PolicyRole.SELF_ANSWER:
            backend = self.self_answer
        return backend.complete(request)

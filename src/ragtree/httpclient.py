"""JSON POST with retries, shared by the HTTP policy and retriever clients.

``requests`` is imported on the first POST, not with the package, so runs on
the scripted and lexical backends never load the HTTP stack.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, TypeVar

from .errors import BackendUnavailable, ConfigurationError

T = TypeVar("T")


class HttpJsonClient:
    """POSTs JSON through one ``requests.Session`` per thread.

    Transport errors and 5xx, 408 (request timeout) and 429 (too many requests)
    responses are retried with exponential backoff (``backoff_s * 2**attempt``);
    other 4xx responses are configuration errors and are not retried, nor is a
    body of the wrong shape. ``endpoint`` names the service in error messages.
    """

    endpoint = "endpoint"

    def __init__(
        self, base_url: str, timeout: float = 30.0, max_retries: int = 3, backoff_s: float = 0.25
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._local = threading.local()

    def _post(self, path: str, payload: dict, parse: Callable[[object], T],
              headers: Optional[dict] = None) -> T:
        """``parse`` of the JSON body the endpoint answers ``payload`` with. A body
        ``parse`` cannot read (it raises ``ValueError``, ``LookupError``, ``TypeError``
        or ``AttributeError``) raises :class:`BackendUnavailable`, unretried."""
        import requests

        if not hasattr(self._local, "session"):
            self._local.session = requests.Session()
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            try:
                resp = self._local.session.post(
                    f"{self.base_url}{path}", json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                if resp.status_code < 300:
                    break
                if 400 <= resp.status_code < 500 and resp.status_code not in (408, 429):
                    raise ConfigurationError(
                        f"{self.endpoint} rejected request ({resp.status_code}): {resp.text[:500]}"
                    )
                last_error = BackendUnavailable(f"{self.endpoint} returned {resp.status_code}")
            if attempt < self.max_retries:
                time.sleep(self.backoff_s * (2**attempt))
        else:
            raise BackendUnavailable(
                f"{self.endpoint} unreachable after {self.max_retries + 1} attempts: {last_error}"
            )
        try:
            return parse(resp.json())
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise BackendUnavailable(f"malformed {self.endpoint} response body: {exc}")

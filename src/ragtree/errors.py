"""Exception types shared across the package, the range check that raises one, and
the JSONL reader that refuses a line that is not an object."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Tuple


class RagTreeError(Exception):
    """Base class for all package errors."""


class ConfigurationError(RagTreeError):
    """Invalid configuration, or a non-retryable (4xx) backend response."""


def check_at_least(*limits: Tuple[str, float, float]) -> None:
    """Refuse the first ``(name, value, low)`` whose value lies below ``low``."""
    for name, value, low in limits:
        if value < low:
            raise ConfigurationError(f"{name} must be >= {low}, not {value}")


class BackendUnavailable(RagTreeError):
    """A backend could not be reached after exhausting retries."""


class BuildStopped(RagTreeError):
    """A backend call refused: its task is behind its build's failure, or the run halted."""


class NodeExpansionFailed(RagTreeError):
    """Every candidate for a tree layer was malformed; the question is abandoned.

    Carries enough context for the batch manifest to record a useful
    per-question failure.
    """

    def __init__(self, question_id: str, layer: int, reason: str):
        super().__init__(f"question {question_id!r}, layer {layer}: {reason}")
        self.question_id = question_id
        self.layer = layer
        self.reason = reason


class ExportError(RagTreeError):
    """A snapshot cannot yield the requested training records."""


class DatasetError(RagTreeError):
    """A dataset file failed validation."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def json_objects(path: str, kind: str) -> Iterator[Tuple[int, dict]]:
    """Each non-blank line of the JSONL file at ``path`` as (line number, object). A
    missing file, invalid JSON or a line that is not an object raises
    :class:`DatasetError`; ``kind`` names the file in the first."""
    file_path = Path(path)
    if not file_path.is_file():
        raise DatasetError(f"{kind} file not found: {path}")
    with file_path.open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise DatasetError(f"invalid JSON ({exc})", line=line_no)
            if not isinstance(record, dict):
                raise DatasetError("record is not an object", line=line_no)
            yield line_no, record

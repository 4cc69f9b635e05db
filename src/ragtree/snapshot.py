"""Versioned JSON snapshots of expansion results.

A snapshot encodes one ``BuildResult`` (a failed build included) and decodes
back to an equal one, so a batch can be re-exported without re-expansion.
One generic codec does the work: a dataclass is written as an object of its
fields in declaration order, minus the fields marked ``UNWRITTEN``.

A snapshot holds what the exporters and resume read. A rollout keeps its
answer, score and steps, not its transcript; the config records the
``doc_char_budget`` exports render at. Node states are implicit: each chain
writes its steps once, in its final state, and load rebuilds every node state
from those and the question. A full_node build keeps no tree, so its snapshot
is the question, the config and the ledger. The config's ``concurrency`` is
not written, since it does not shape the tree, so snapshots built at any
concurrency are byte-identical. Ledger wall time is never recorded, so
identical-seed runs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Optional, Tuple, Union, get_args, get_origin

from .engine import BuildResult
from .errors import ExportError
from .types import State, has_type, type_hints

SCHEMA_VERSION = 4


@lru_cache(maxsize=None)
def _written(cls: Any) -> Optional[Tuple[str, ...]]:
    """The written field names of a dataclass type, or None for any other type."""
    if not is_dataclass(cls):
        return None
    return tuple(f.name for f in fields(cls) if f.metadata.get("snapshot", True))


@lru_cache(maxsize=None)
def _decode_plan(cls: type) -> Tuple[Tuple[Tuple[str, Any], ...], Mapping[str, None]]:
    """A dataclass's written fields with their type hints, and its unwritten fields
    without a default, which decode as None until load rebuilds them."""
    hints = type_hints(cls)
    unset = {
        f.name: None
        for f in fields(cls)
        if f.name not in _written(cls) and f.default is MISSING and f.default_factory is MISSING
    }
    return tuple((name, hints[name]) for name in _written(cls)), MappingProxyType(unset)


def encode(value: Any) -> Any:
    """A JSON-ready copy of ``value``. Dict keys are sorted, so a ledger's per-layer
    counters keep one order whichever thread counted first."""
    names = _written(type(value))
    if names is not None:
        return {name: encode(getattr(value, name)) for name in names}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in sorted(value.items())}
    return value


def decode(hint: Any, data: Any) -> Any:
    """The value of type ``hint`` that ``encode`` wrote as ``data``. A union of
    dataclasses takes the arm whose written field names are the record's keys. Every
    other value decodes to itself, and must have the hint's type (``has_type``), so a
    file with a string for a number is malformed here, not a crash in an exporter."""
    if isinstance(data, (dict, list)):
        origin, args = get_origin(hint), get_args(hint)
        if origin is Union:
            arms = [arm for arm in args if arm is not type(None)]
            if len(arms) > 1:
                arms = [arm for arm in arms if set(_written(arm)) == set(data)]
            return decode(arms[0], data)
        if _written(hint) is not None:
            written, unset = _decode_plan(hint)
            return hint(**{name: decode(h, data[name]) for name, h in written}, **unset)
        if origin is tuple and args[-1:] == (Ellipsis,):
            return tuple(decode(args[0], item) for item in data)
        if origin is tuple:
            return tuple(decode(arg, item) for arg, item in zip(args, data, strict=True))
        if origin is list:
            return [decode(args[0], item) for item in data]
        if origin is dict and args:
            return {args[0](key): decode(args[1], item) for key, item in data.items()}
    if type(data) is not hint and not has_type(data, hint):
        raise TypeError(f"expected {getattr(hint, '__name__', hint)}, not {data!r}")
    return data


def build_result_to_dict(result: BuildResult) -> dict:
    return {"schema_version": SCHEMA_VERSION, **encode(result)}


def dumps_snapshot(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, indent=2) + "\n"


def save_snapshot(record: dict, path: str) -> None:
    """Atomic write: a crash mid-write never leaves a truncated snapshot."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(dumps_snapshot(record), encoding="utf-8")
    tmp.replace(target)


def snapshot_from_dict(record: dict) -> BuildResult:
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        stale = version in range(1, SCHEMA_VERSION)
        rerun = "; re-run `ragtree expand` on its directory" if stale else ""
        raise ExportError(f"unsupported snapshot schema version: {version!r}{rerun}")
    try:
        result = decode(BuildResult, record)
    except (LookupError, AttributeError, TypeError, ValueError) as exc:
        raise ExportError(f"malformed snapshot: {exc!r}") from None
    question = result.question
    for chain in result.chains:
        steps = chain.final_state.steps if chain.final_state is not None else ()
        if chain.final_state is not None:
            chain.final_state = replace(chain.final_state, question=question)
        for node in chain.nodes:
            node.state = State(question, steps[: node.layer - 1])
    return result


def load_snapshot(path: str) -> BuildResult:
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ExportError(f"cannot read snapshot {path}: {exc}")
    if not isinstance(record, dict):
        raise ExportError(f"malformed snapshot {path}: not a JSON object")
    try:
        return snapshot_from_dict(record)
    except ExportError as exc:
        raise ExportError(f"{path}: {exc}") from None

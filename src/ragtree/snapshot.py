"""Versioned JSON snapshots of expansion results.

A snapshot encodes one ``BuildResult`` (a failed build included) and decodes
back to an equal one, so a batch can be re-exported without re-expansion.
One generic codec does the work: a dataclass is written as an object of its
fields in declaration order, minus the fields marked ``UNWRITTEN``. Its decoder
reads config files too (``RunConfig.from_dict``). Keys are strict: a record holds
exactly the fields the encoder writes, and every refusal names the field's path.

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
from typing import (TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence, TextIO, Tuple,
                    Union, get_args, get_origin)

from .errors import ExportError
from .types import State, has_type, type_hints

if TYPE_CHECKING:
    from .engine import BuildResult

SCHEMA_VERSION = 4


@lru_cache(maxsize=None)
def _written(cls: Any) -> Optional[Tuple[Mapping[str, Any], Mapping[str, None]]]:
    """For a dataclass type, its written fields in order with their type hints, and its
    unwritten fields without a default, which decode as None until load rebuilds them.
    None for any other type."""
    if not is_dataclass(cls):
        return None
    hints = type_hints(cls)
    written = [f for f in fields(cls) if f.metadata.get("snapshot", True)]
    unset = {
        f.name: None
        for f in fields(cls)
        if f not in written and f.default is MISSING and f.default_factory is MISSING
    }
    return MappingProxyType({f.name: hints[f.name] for f in written}), MappingProxyType(unset)


def encode(value: Any) -> Any:
    """A JSON-ready copy of ``value``. Dict keys are sorted, so a ledger's per-layer
    counters keep one order whichever layer's call returned first."""
    plan = _written(type(value))
    if plan is not None:
        return {name: encode(getattr(value, name)) for name in plan[0]}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in sorted(value.items())}
    return value


def _path(where: Tuple) -> str:
    """The dotted text of a path of keys; the empty path reads as "record"."""
    return ".".join(map(str, where)) or "record"


def decode(hint: Any, data: Any, where: Tuple = ()) -> Any:
    """The value of type ``hint`` that ``encode`` wrote as ``data`` at path ``where``.
    A dataclass record must hold exactly the fields ``encode`` writes; a union of
    dataclasses takes the arm that shares the most keys with it. Every other value
    decodes to itself and must have the hint's type (``has_type``). A refusal is a
    ValueError naming the path, such as ``chains.0.nodes.0.terminate_probe``."""
    if isinstance(data, (dict, list)):
        origin, args = get_origin(hint), get_args(hint)
        if origin is Union:
            arms = [arm for arm in args if arm is not type(None)]
            if len(arms) > 1 and isinstance(data, dict):
                arms = [max(arms, key=lambda arm: len(_written(arm)[0].keys() & data.keys()))]
            return decode(arms[0], data, where)
        if isinstance(data, list) and origin in (list, tuple):
            hints = args if origin is tuple and args[-1:] != (Ellipsis,) else args[:1] * len(data)
            if len(hints) != len(data):
                raise ValueError(f"{_path(where)} must have {len(hints)} items, not {len(data)}")
            items = [decode(h, item, where + (i,)) for i, (h, item) in enumerate(zip(hints, data))]
            return items if origin is list else tuple(items)
        if isinstance(data, dict) and origin is dict and args:
            try:
                keys = [args[0](key) for key in data]
            except ValueError:
                raise ValueError(f"{_path(where)} keys must be {args[0].__name__}") from None
            return {key: decode(args[1], item, where + (key,)) for key, item in zip(keys, data.values())}
        plan = _written(hint) if isinstance(data, dict) else None
        if plan is not None:
            written, unset = plan
            if data.keys() != written.keys():
                unknown = sorted(data.keys() - written.keys())
                raise ValueError(f"unknown {_path(where)} keys: {unknown}" if unknown else
                                 f"missing {_path(where)} keys: {sorted(written.keys() - data.keys())}")
            values = {name: decode(h, data[name], where + (name,)) for name, h in written.items()}
            try:
                return hint(**values, **unset)
            except ValueError as exc:
                raise ValueError(f"{_path(where)}: {exc}") from None
    if type(data) is not hint and not has_type(data, hint):
        expected = str(hint).replace("typing.", "") if get_origin(hint) else hint.__name__
        raise ValueError(f"{_path(where)} must be {expected}, not {data!r}")
    return data


def build_result_to_dict(result: BuildResult) -> dict:
    return {"schema_version": SCHEMA_VERSION, **encode(result)}


def dumps_snapshot(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, indent=2) + "\n"


def write_atomic(path: str, write: Callable[[TextIO], object]) -> None:
    """Make ``path`` the text ``write`` writes, newlines as given, by way of a temp file
    beside it: a crash or an error leaves the old file whole and no temp file behind."""
    tmp = Path(f"{path}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with tmp.open("w", encoding="utf-8", newline="") as handle:
            write(handle)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(records: Sequence[dict], path: str) -> None:
    """One compact JSON line per record, streamed to ``path`` atomically (``write_atomic``)."""
    write_atomic(path, lambda handle: handle.writelines(
        json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n" for record in records
    ))


def save_snapshot(record: dict, path: str) -> None:
    """Atomic write of a snapshot, manifest or report (``write_atomic``)."""
    write_atomic(path, lambda handle: handle.write(dumps_snapshot(record)))


def snapshot_from_dict(record: dict) -> BuildResult:
    from .engine import BuildResult  # the engine imports the agent, which writes with this module

    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        stale = version in range(1, SCHEMA_VERSION)
        rerun = "; re-run `ragtree expand` on its directory" if stale else ""
        raise ExportError(f"unsupported snapshot schema version: {version!r}{rerun}")
    try:
        result = decode(BuildResult, {key: v for key, v in record.items() if key != "schema_version"})
    except ValueError as exc:
        raise ExportError(f"malformed snapshot: {exc}") from None
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

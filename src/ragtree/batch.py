"""Batch expansion over a question set with resumable snapshots and a manifest."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .agent import fan_out
from .engine import LAYER_COUNTERS, BuildResult, TreeBuilder
from .errors import DatasetError, NodeExpansionFailed, RagTreeError
from .snapshot import SCHEMA_VERSION, build_result_to_dict, encode, save_snapshot
from .types import Question


def snapshot_path(out_dir: str, question_id: str) -> Path:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in question_id)
    return Path(out_dir) / f"{safe}.json"


_LEDGER_KEYS = LAYER_COUNTERS + ("leaf_nodes",)


def _valid_snapshot(path: Path, question_id: str, config: dict) -> Optional[dict]:
    """The snapshot record at ``path``, or None unless resume may keep it. A record
    without an object ``question`` of this id, or without every ledger count, is
    treated as missing."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict):
        return None
    question, ledger = record.get("question"), record.get("ledger")
    valid = (
        record.get("schema_version") == SCHEMA_VERSION
        and isinstance(question, dict) and question.get("id") == question_id
        and record.get("config") == config
        and record.get("failure") is None
        and isinstance(ledger, dict) and all(isinstance(ledger.get(k), int) for k in _LEDGER_KEYS)
    )
    return record if valid else None


def _ledger_counts(record: dict) -> dict:
    return {key: record["ledger"][key] for key in _LEDGER_KEYS}


@dataclass
class ManifestItem:
    question_id: str
    status: str  # "ok" | "failed" | "skipped"
    snapshot: str
    error: Optional[str] = None
    ledger: Optional[dict] = None


@dataclass
class Manifest:
    items: List[ManifestItem] = field(default_factory=list)

    @property
    def counts(self) -> dict:
        summary = {"ok": 0, "failed": 0, "skipped": 0}
        for item in self.items:
            summary[item.status] += 1
        return summary

    @property
    def hard_failures(self) -> int:
        return self.counts["failed"]

    @property
    def ledger_totals(self) -> dict:
        ledgers = [item.ledger for item in self.items if item.ledger]
        return {key: sum(ledger[key] for ledger in ledgers) for key in _LEDGER_KEYS}

    def to_dict(self) -> dict:
        return {
            "counts": self.counts,
            "ledger_totals": self.ledger_totals,
            "items": [
                {
                    "id": item.question_id,
                    "status": item.status,
                    "snapshot": item.snapshot,
                    "error": item.error,
                    "ledger": item.ledger,
                }
                for item in self.items
            ],
        }

    def save(self, path: str) -> None:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_dict(), ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )


def expand_batch(
    questions: Sequence[Question],
    builder_factory: Callable[[], TreeBuilder],
    out_dir: str,
    resume: bool = True,
    concurrency: int = 1,
    on_progress: Optional[Callable[[str, str], None]] = None,
) -> Manifest:
    """Expand every question, writing one snapshot per question plus a manifest.

    With ``resume`` enabled, questions whose snapshot already exists and
    validates are skipped without touching any backend; a snapshot that
    records a failure, or was built with another ``ExpansionConfig`` (the
    concurrency aside), does not validate, so its question is expanded again.
    A skipped question's manifest item takes its ledger from its snapshot.
    ``on_progress`` hears of each question as it is skipped or finishes, from
    the worker thread that built it.
    ``builder_factory`` is called once per question; since a builder keeps no
    per-build state, it may return one shared builder, and concurrent builds
    on it still get their own ledgers and retrieval memos (direct
    ``run_rollout`` or ``expand_*`` calls get their own unmemoized counters).
    Backends only need to be shareable. Two ids that map to one snapshot file,
    or an id that maps to the manifest's file, raise :class:`DatasetError`
    before anything is built or written.
    """
    manifest_path = Path(out_dir) / "manifest.json"
    owners: Dict[Path, str] = {}
    for question in questions:
        path = snapshot_path(out_dir, question.id)
        if path == manifest_path:
            raise DatasetError(f"question id {question.id!r} maps to the manifest's file {path.name}")
        if path in owners:
            raise DatasetError(
                f"question ids {owners[path]!r} and {question.id!r} both map to snapshot file "
                f"{path.name}"
            )
        owners[path] = question.id
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    manifest = Manifest()

    config = encode(builder_factory().config) if resume else None
    pending: List[Question] = []
    for question in questions:
        path = snapshot_path(out_dir, question.id)
        kept = _valid_snapshot(path, question.id, config) if resume else None
        if kept is not None:
            manifest.items.append(
                ManifestItem(question.id, "skipped", str(path), ledger=_ledger_counts(kept))
            )
            if on_progress:
                on_progress(question.id, "skipped")
        else:
            pending.append(question)

    def expand_one(question: Question) -> ManifestItem:
        item = build_one(question)
        if on_progress:
            on_progress(item.question_id, item.status)
        return item

    def build_one(question: Question) -> ManifestItem:
        path = snapshot_path(out_dir, question.id)
        builder = builder_factory()
        try:
            result = builder.build_tree(question)
        except NodeExpansionFailed as exc:
            failure = {"layer": exc.layer, "reason": exc.reason}
            failed = BuildResult(question, builder.config, ledger=None, failure=failure)
            save_snapshot(build_result_to_dict(failed), str(path))
            return ManifestItem(question.id, "failed", str(path), error=str(exc))
        except RagTreeError as exc:
            return ManifestItem(question.id, "failed", str(path), error=str(exc))
        record = build_result_to_dict(result)
        save_snapshot(record, str(path))
        return ManifestItem(question.id, "ok", str(path), ledger=_ledger_counts(record))

    manifest.items.extend(fan_out(expand_one, pending, concurrency))
    # Manifest order follows the input dataset order exactly.
    order = {q.id: i for i, q in enumerate(questions)}
    manifest.items.sort(key=lambda item: order[item.question_id])
    manifest.save(str(manifest_path))
    return manifest

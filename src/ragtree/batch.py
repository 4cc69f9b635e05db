"""Batch expansion over a question set with resumable snapshots and a manifest."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .driver import Boundary, Steps
from .engine import LAYER_COUNTERS, BuildResult, ExpansionConfig, TreeBuilder
from .errors import DatasetError, ExportError, NodeExpansionFailed, RagTreeError, check_at_least
from .snapshot import build_result_to_dict, encode, load_snapshot, save_snapshot
from .types import Question


def snapshot_path(out_dir: str, question_id: str) -> Path:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in question_id)
    return Path(out_dir) / f"{safe}.json"


_LEDGER_KEYS = LAYER_COUNTERS + ("leaf_nodes",)


def _valid_snapshot(path: Path, question: Question, config: ExpansionConfig) -> Optional[BuildResult]:
    """The snapshot at ``path``, or None unless resume may keep it: it must load as the
    exporters load it (so it holds no key the program does not write), be this
    question's (its id, text and gold answers), with this config (the concurrency
    aside), and hold a ledger and no failure."""
    try:
        kept = load_snapshot(str(path))
    except ExportError:
        return None
    same = kept.question == question and encode(kept.config) == encode(config)
    return kept if same and kept.failure is None and kept.ledger is not None else None


@dataclass
class ManifestItem:
    question_id: str
    status: str  # "ok" | "failed" | "skipped"
    snapshot: str
    error: Optional[str] = None
    ledger: Optional[dict] = None

    @classmethod
    def built(cls, status: str, path: Path, result: BuildResult) -> "ManifestItem":
        ledger = {key: getattr(result.ledger, key) for key in _LEDGER_KEYS}
        return cls(result.question.id, status, str(path), ledger=ledger)


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


def expand_batch(
    questions: Sequence[Question],
    builder_factory: Callable[[], TreeBuilder],
    out_dir: str,
    resume: bool = True,
    concurrency: int = 1,
    on_progress: Optional[Callable[[str, str], None]] = None,
) -> Manifest:
    """Expand every question, writing one snapshot per question plus a manifest,
    each atomically (``save_snapshot``).

    With ``resume`` enabled, a question whose snapshot already exists and
    validates is skipped without touching any backend; a snapshot that
    records a failure, holds a key the program does not write, belongs to
    another question (id, text or gold answers) or was built with another
    ``ExpansionConfig`` (the concurrency aside) does not validate, so its
    question is expanded again.
    A skipped question's manifest item takes its ledger from its snapshot, and
    the manifest keeps the input order.
    ``on_progress`` hears of each question as it is skipped or finishes, on the
    caller's thread.
    ``builder_factory`` is called once, and its builder builds every question: a
    builder keeps no per-build state, so concurrent builds on it still get their
    own ledgers and retrieval memos. One ``Boundary`` at the builder's own
    ``config.concurrency`` c runs every build on the caller's thread and makes its
    calls, so the batch has at most c requests in flight and c threads. The next
    question starts when no step is ready and fewer than c calls are out
    (``Boundary.run``), so at c = 1 one question runs at a time.
    ``concurrency`` sets nothing; it is only checked.
    Backends only need to be shareable. Two ids that map to one snapshot file,
    or an id that maps to the manifest's file, raise :class:`DatasetError`
    before anything is built or written, as does a ``concurrency`` below 1
    (:class:`ConfigurationError`).
    """
    check_at_least(("concurrency", concurrency, 1))
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
    builder = builder_factory()

    def expand_one(question: Question) -> Steps[ManifestItem]:
        path = snapshot_path(out_dir, question.id)
        kept = _valid_snapshot(path, question, builder.config) if resume else None
        if kept is not None:
            item = ManifestItem.built("skipped", path, kept)
        else:
            try:
                result = yield from builder.build_tree(question, boundary)
            except NodeExpansionFailed as exc:
                failure = {"layer": exc.layer, "reason": exc.reason}
                failed = BuildResult(question, builder.config, ledger=None, failure=failure)
                save_snapshot(build_result_to_dict(failed), str(path))
                item = ManifestItem(question.id, "failed", str(path), error=str(exc))
            except RagTreeError as exc:
                path.unlink(missing_ok=True)  # an older build must not pass for this run's
                item = ManifestItem(question.id, "failed", str(path), error=str(exc))
            else:
                save_snapshot(build_result_to_dict(result), str(path))
                item = ManifestItem.built("ok", path, result)
        if on_progress:
            on_progress(item.question_id, item.status)
        return item

    with Boundary(builder.config.concurrency) as boundary:
        manifest = Manifest(boundary.run(map(expand_one, questions)))
    save_snapshot(manifest.to_dict(), str(manifest_path))
    return manifest

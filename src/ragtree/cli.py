"""Command-line surface: expand, export-sft, export-dpo, bench-expansion, evaluate."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Literal, Optional, Tuple, get_args, get_origin

from .agent import evaluate_dataset
from .batch import expand_batch
from .config import (
    RunConfig,
    build_policy_backend,
    build_retriever_backend,
    build_templates,
    load_dataset,
)
from .engine import BuildResult, Strategy, TreeBuilder
from .errors import ExportError, RagTreeError, check_at_least
from .export import SFT_STRATEGIES, export_dpo, export_sft, write_dpo_jsonl, write_sft_jsonl
from .scripted import strategy_costs
from .snapshot import load_snapshot, save_snapshot, write_atomic
from .types import type_hints


# The config override flags by group: each flag's help and the config field it sets,
# as "section.field" or a field of RunConfig itself. The field's type hint gives the
# flag its type and, for a Literal, its choices. --concurrency sets the run's one
# concurrency, which _load_config hands to every build as expansion.concurrency.
_FLAGS: Dict[str, Dict[str, Tuple[str, str]]] = {
    "common": {
        "--dataset": ("question JSONL file", "paths.dataset"),
        "--tmax": ("maximum decision iterations", "expansion.t_max"),
        "--seed": ("base random seed", "expansion.seed"),
        "--concurrency": ("backend requests in flight at once", "concurrency"),
    },
    "tree": {
        "--k": ("candidate executions per decision", "expansion.k"),
        "--n": ("rollouts per candidate", "expansion.n"),
        "--threshold": ("retrieval-skip threshold tau", "expansion.tau"),
        "--strategy": ("expansion strategy", "expansion.strategy"),
        "--metric": ("rollout correctness metric", "expansion.score_metric"),
    },
    "backend": {
        "--policy-kind": ("policy backend kind", "policy.kind"),
        "--retriever-kind": ("retriever backend kind", "retriever.kind"),
        "--policy-url": ("policy endpoint base URL", "policy.base_url"),
        "--retriever-url": ("retriever endpoint base URL", "retriever.base_url"),
        "--model": ("policy model name", "policy.model"),
        "--corpus": ("lexical retriever corpus JSONL", "retriever.corpus_path"),
        "--templates-dir": ("directory of prompt template overrides", "paths.templates_dir"),
    },
}


def _add_flags(parser: argparse.ArgumentParser, groups: tuple) -> None:
    """``--config`` and the override flags of ``groups``: what ``_load_config`` reads."""
    parser.add_argument("--config", help="JSON run-config file")
    for group in groups:
        for flag, (help_text, target) in _FLAGS[group].items():
            hint = RunConfig
            for name in target.split("."):
                hint = type_hints(hint)[name]
            choices = get_args(hint) if get_origin(hint) is Literal else None
            convert = {int: int, float: float}.get(hint, str)
            parser.add_argument(flag, type=convert, choices=choices, help=help_text)


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's record with the flags' values set in it, decoded as a file is
    (``RunConfig.from_dict``). The run's ``concurrency``, from the flag or the file, is
    the one bound: it becomes every build's too."""
    record = (RunConfig.from_file(args.config) if args.config else RunConfig()).to_dict()
    for flags in _FLAGS.values():
        for flag, (_, target) in flags.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None:
                section, _, name = target.rpartition(".")
                (record[section] if section else record)[name] = value
    config = RunConfig.from_dict(record)
    return replace(config, expansion=replace(config.expansion, concurrency=config.concurrency))


def _require_dataset(config: RunConfig) -> str:
    if not config.paths.dataset:
        raise RagTreeError("no dataset given: pass --dataset or set paths.dataset in the config")
    return config.paths.dataset


def _cmd_expand(args: argparse.Namespace) -> int:
    config = _load_config(args)
    questions = load_dataset(_require_dataset(config))
    policy = build_policy_backend(config, questions)
    retriever = build_retriever_backend(config)
    templates = build_templates(config)
    history = config.history_template()

    def builder_factory() -> TreeBuilder:
        return TreeBuilder(policy, retriever, config.expansion, templates, history)

    resume = config.resume if args.resume is None else args.resume
    manifest = expand_batch(questions, builder_factory, args.out, resume=resume,
                            on_progress=lambda qid, status: print(f"{status:8s} {qid}"))
    counts = manifest.counts
    print(f"expanded: {counts['ok']} ok, {counts['failed']} failed, {counts['skipped']} skipped")
    return 1 if counts["failed"] else 0


def _snapshot_files(directory: str) -> List[Path]:
    files = sorted(p for p in Path(directory).glob("*.json") if p.name != "manifest.json")
    if not files:
        raise ExportError(f"no snapshots found under {directory}")
    return files


def _export_all(directory: str, export: Callable[[BuildResult], list]) -> Tuple[list, int]:
    """Every snapshot's exported records, and the number of failed snapshots skipped."""
    records, skipped = [], 0
    for path in _snapshot_files(directory):
        snapshot = load_snapshot(str(path))
        if snapshot.failure is not None:
            skipped += 1
        else:
            records.extend(export(snapshot))
    return records, skipped


def _cmd_export_sft(args: argparse.Namespace) -> int:
    examples, skipped = _export_all(args.snapshots, lambda s: export_sft(
        s, strategy=args.sft_strategy, min_final_score=args.min_final_score
    ))
    write_sft_jsonl(examples, args.out)
    print(f"wrote {len(examples)} SFT examples to {args.out} ({skipped} failed snapshots skipped)")
    return 0


def _cmd_export_dpo(args: argparse.Namespace) -> int:
    pairs, skipped = _export_all(args.snapshots, lambda s: export_dpo(s, margin=args.margin))
    write_dpo_jsonl(pairs, args.out)
    print(f"wrote {len(pairs)} DPO pairs to {args.out} ({skipped} failed snapshots skipped)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the strategies under the count-closure regime and emit a CSV."""
    config = _load_config(args)
    questions = load_dataset(_require_dataset(config))
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    expansion = config.expansion
    rows = [
        {
            "strategy": cost.strategy,
            "k": expansion.k,
            "n": expansion.n,
            "l": cost.depth,
            "questions": len(questions),
            "measured_count": cost.measured,
            "theoretical_count": cost.theoretical,
            "avg_wall_time_s": f"{cost.seconds:.4f}",
        }
        for cost in strategy_costs(questions, expansion, strategies, args.full_node_tmax)
    ]

    write_atomic(args.out, lambda handle: csv.writer(handle).writerows(
        [list(rows[0]), *(row.values() for row in rows)]
    ))
    for row in rows:
        print(
            f"{row['strategy']:12s} l={row['l']} measured={row['measured_count']} "
            f"theoretical={row['theoretical_count']}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    check_at_least(("--max-steps", args.max_steps, 1), ("--max-searches", args.max_searches, 0),
                   ("--temperature", args.temperature, 0))
    config = _load_config(args)
    questions = load_dataset(_require_dataset(config))
    policy = build_policy_backend(config, questions)
    retriever = build_retriever_backend(config)
    templates = build_templates(config)
    report = evaluate_dataset(
        questions,
        policy,
        retriever,
        dataset_name=args.name or Path(_require_dataset(config)).stem,
        templates=templates,
        history_template=config.history_template(),
        max_steps=args.max_steps,
        max_searches=args.max_searches,
        top_k=config.expansion.top_k,
        temperature=args.temperature,
        seed=config.expansion.seed,
        transcripts_path=args.transcripts,
        concurrency=config.concurrency,
    )
    record = report.to_dict()
    if args.out:
        save_snapshot(record, args.out)
    print(json.dumps(record, ensure_ascii=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragtree",
        description="Search-tree expansion, training-data export, and agent evaluation "
        "for retrieval-augmented QA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="expand a question set into tree snapshots")
    expand.add_argument("--out", required=True, help="snapshot output directory")
    resume_group = expand.add_mutually_exclusive_group()
    resume_group.add_argument("--resume", dest="resume", action="store_true", default=None)
    resume_group.add_argument("--no-resume", dest="resume", action="store_false")
    _add_flags(expand, ("common", "tree", "backend"))
    expand.set_defaults(func=_cmd_expand)

    export_sft_cmd = sub.add_parser("export-sft", help="extract SFT chains from snapshots")
    export_sft_cmd.add_argument("--snapshots", required=True, help="snapshot directory")
    export_sft_cmd.add_argument("--out", required=True, help="output JSONL path")
    export_sft_cmd.add_argument(
        "--sft-strategy",
        choices=SFT_STRATEGIES,
        default="retained",
        help="chain selection: the retained chain, or the most/least retrieval-cost chain",
    )
    export_sft_cmd.add_argument("--min-final-score", type=float, default=0.0)
    export_sft_cmd.set_defaults(func=_cmd_export_sft)

    export_dpo_cmd = sub.add_parser("export-dpo", help="extract DPO pairs from snapshots")
    export_dpo_cmd.add_argument("--snapshots", required=True, help="snapshot directory")
    export_dpo_cmd.add_argument("--out", required=True, help="output JSONL path")
    export_dpo_cmd.add_argument("--margin", type=float, default=0.1)
    export_dpo_cmd.set_defaults(func=_cmd_export_dpo)

    bench = sub.add_parser(
        "bench-expansion", help="compare strategies' expansion counts and wall times"
    )
    bench.add_argument("--out", required=True, help="output CSV path")
    bench.add_argument(
        "--strategies", default=",".join(get_args(Strategy)), help="comma-separated strategy list"
    )
    bench.add_argument(
        "--full-node-tmax",
        type=int,
        default=2,
        help="depth cap for the full-node strategy (its cost is exponential)",
    )
    _add_flags(bench, ("common", "tree"))
    bench.set_defaults(func=_cmd_bench)

    # No abbreviations, so an expansion-only flag such as --n is rejected, not read as --name.
    evaluate = sub.add_parser(
        "evaluate", help="run the search agent over a dataset", allow_abbrev=False
    )
    evaluate.add_argument("--out", help="report JSON path")
    evaluate.add_argument("--transcripts", help="transcript JSONL path")
    evaluate.add_argument("--name", help="dataset name for the report")
    evaluate.add_argument("--max-steps", type=int, default=8)
    evaluate.add_argument("--max-searches", type=int, default=4)
    evaluate.add_argument("--temperature", type=float, default=0.0)
    _add_flags(evaluate, ("common", "backend"))
    evaluate.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RagTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

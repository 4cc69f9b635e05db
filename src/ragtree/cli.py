"""Command-line surface: expand, export-sft, export-dpo, bench-expansion, evaluate."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .agent import evaluate_dataset
from .batch import expand_batch
from .config import (
    RunConfig,
    build_policy_backend,
    build_retriever_backend,
    build_templates,
    load_dataset,
)
from .engine import BuildResult, TreeBuilder
from .errors import ConfigurationError, ExportError, RagTreeError
from .export import export_dpo, export_sft, write_dpo_jsonl, write_sft_jsonl
from .scripted import strategy_costs
from .snapshot import load_snapshot


def _add_expansion_flags(
    parser: argparse.ArgumentParser, concurrency_help: str, tree: bool = True
) -> None:
    """Config overrides; ``tree=False`` (evaluate) leaves out the tree-only flags."""
    if tree:
        parser.add_argument("--k", type=int, help="candidate executions per decision")
        parser.add_argument("--n", type=int, help="rollouts per candidate")
        parser.add_argument("--threshold", type=float, help="retrieval-skip threshold tau")
        parser.add_argument(
            "--strategy", choices=["pruning", "no_pruning", "full_node"], help="expansion strategy"
        )
        parser.add_argument("--metric", choices=["f1", "em"], help="rollout correctness metric")
    parser.add_argument("--tmax", type=int, help="maximum decision iterations")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--concurrency", type=int, help=concurrency_help)


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--policy-kind", choices=["http", "scripted"], help="policy backend kind")
    parser.add_argument(
        "--retriever-kind", choices=["http", "lexical"], help="retriever backend kind"
    )
    parser.add_argument("--policy-url", help="policy endpoint base URL")
    parser.add_argument("--retriever-url", help="retriever endpoint base URL")
    parser.add_argument("--model", help="policy model name")
    parser.add_argument("--corpus", help="lexical retriever corpus JSONL")
    parser.add_argument("--templates-dir", help="directory of prompt template overrides")


# Config section -> {override flag (its argparse dest): the field it sets}. Section
# None is ``RunConfig`` itself, so ``--concurrency`` sets two fields.
_FLAG_FIELDS: Dict[Optional[str], Dict[str, str]] = {
    "expansion": {"k": "k", "n": "n", "tmax": "t_max", "threshold": "tau", "strategy": "strategy",
                  "seed": "seed", "metric": "score_metric", "concurrency": "concurrency"},
    "policy": {"policy_kind": "kind", "policy_url": "base_url", "model": "model"},
    "retriever": {"retriever_kind": "kind", "retriever_url": "base_url", "corpus": "corpus_path"},
    "paths": {"templates_dir": "templates_dir", "dataset": "dataset"},
    None: {"concurrency": "concurrency"},
}


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    given = {flag: value for flag, value in vars(args).items() if value is not None}
    changes = {}
    try:
        for section, flags in _FLAG_FIELDS.items():
            values = {name: given[flag] for flag, name in flags.items() if flag in given}
            if section is None:
                changes.update(values)
            else:
                changes[section] = replace(getattr(config, section), **values)
        return replace(config, **changes)
    except ValueError as exc:
        raise ConfigurationError(f"invalid flag value: {exc}") from None


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
    manifest = expand_batch(
        questions,
        builder_factory,
        args.out,
        resume=resume,
        concurrency=config.concurrency,
        on_progress=lambda qid, status: print(f"{status:8s} {qid}"),
    )
    counts = manifest.counts
    print(f"expanded: {counts['ok']} ok, {counts['failed']} failed, {counts['skipped']} skipped")
    return 1 if manifest.hard_failures else 0


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

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(
            f"{row['strategy']:12s} l={row['l']} measured={row['measured_count']} "
            f"theoretical={row['theoretical_count']}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
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
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
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
    expand.add_argument("--dataset", help="question JSONL file")
    expand.add_argument("--out", required=True, help="snapshot output directory")
    resume_group = expand.add_mutually_exclusive_group()
    resume_group.add_argument("--resume", dest="resume", action="store_true", default=None)
    resume_group.add_argument("--no-resume", dest="resume", action="store_false")
    _add_expansion_flags(
        expand,
        "batch workers, and rollout threads in each question's build: "
        "up to concurrency squared requests in flight",
    )
    _add_backend_flags(expand)
    expand.set_defaults(func=_cmd_expand)

    export_sft_cmd = sub.add_parser("export-sft", help="extract SFT chains from snapshots")
    export_sft_cmd.add_argument("--snapshots", required=True, help="snapshot directory")
    export_sft_cmd.add_argument("--out", required=True, help="output JSONL path")
    export_sft_cmd.add_argument(
        "--sft-strategy",
        choices=["retained", "most", "least"],
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
    bench.add_argument("--dataset", help="question JSONL file")
    bench.add_argument("--out", required=True, help="output CSV path")
    bench.add_argument(
        "--strategies",
        default="pruning,no_pruning,full_node",
        help="comma-separated strategy list",
    )
    bench.add_argument(
        "--full-node-tmax",
        type=int,
        default=2,
        help="depth cap for the full-node strategy (its cost is exponential)",
    )
    _add_expansion_flags(bench, "rollout threads in each question's build")
    _add_backend_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    # No abbreviations, so an expansion-only flag such as --n is rejected, not read as --name.
    evaluate = sub.add_parser(
        "evaluate", help="run the search agent over a dataset", allow_abbrev=False
    )
    evaluate.add_argument("--dataset", help="question JSONL file")
    evaluate.add_argument("--out", help="report JSON path")
    evaluate.add_argument("--transcripts", help="transcript JSONL path")
    evaluate.add_argument("--name", help="dataset name for the report")
    evaluate.add_argument("--max-steps", type=int, default=8)
    evaluate.add_argument("--max-searches", type=int, default=4)
    evaluate.add_argument("--temperature", type=float, default=0.0)
    _add_expansion_flags(evaluate, "questions evaluated at once", tree=False)
    _add_backend_flags(evaluate)
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

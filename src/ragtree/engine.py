"""Search-tree expansion with rollout rewards and branch pruning.

Each question grows a tree layer by layer. A layer first samples the
termination decision several times (strict majority of terminate votes ends
the chain), then generates candidate sub-questions, self-knowledge answers
and search sub-queries, scoring every candidate with the mean correctness of
``n`` rollout simulations. The pruning strategy keeps only the best branch
per decision; the no-pruning strategy keeps both resolution branches alive as
separate chains, rebuilt memorylessly each round; the full-node strategy
keeps every execution branch and skips rollouts entirely.

Expansion-count accounting (used by the bench command and the acceptance
tests): the count for the pruning and no-pruning strategies is the number of
policy completions spent on expansion, i.e. termination votes + candidate
generations + rollout steps. Retrieval calls and chain-finalization answers
are tracked separately and not counted. The full-node count is the number of
leaf-layer nodes. Under a scripted regime with ``majority_samples == k``,
fixed-horizon rollouts of exactly ``l`` steps, no dedup collisions, no early
termination and no retrieval skip, the measured counts close exactly with the
published closed forms (see ``theoretical_counts``).
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple

from .agent import run_agent
from .errors import NodeExpansionFailed
from .history import DEFAULT_TEMPLATE, HistoryTemplate, render_history
from .metrics import normalize_answer, score_answer
from .parsing import parse_self_answer, parse_sub_query, parse_sub_question, parse_termination
from .policy import PolicyBackend, PolicyRequest
from .retrieval import MemoRetriever, RetrievalRequest, RetrieverBackend
from .templates import PolicyRole, PromptTemplateSet, load_default_templates
from .types import Question, Retrieved, SelfAnswer, State, Step

Strategy = Literal["pruning", "no_pruning", "full_node"]
CandidateKind = Literal["sub_question", "self_answer", "sub_query"]


@dataclass(frozen=True)
class ExpansionConfig:
    k: int = 3  # candidate executions per decision
    n: int = 4  # rollouts per candidate
    t_max: int = 4  # maximum decision iterations per question
    tau: float = 0.7  # retrieval-skip threshold on the best self-answer reward
    score_metric: str = "f1"  # "f1" or "em"
    strategy: Strategy = "pruning"
    seed: int = 0
    majority_samples: int = 5  # termination votes drawn per layer
    rollout_cap: str = "residual"  # "residual" (t_max - depth + 1) or "fixed" (t_max)
    sampling_temperature: float = 0.7
    answer_temperature: float = 0.0  # used for finalization completions
    max_tokens: int = 512
    top_k: int = 3
    malformed_retries: int = 2
    score_terminate_branch: bool = False
    concurrency: int = 1

    def __post_init__(self):
        if min(self.k, self.n, self.t_max, self.majority_samples, self.top_k) < 1:
            raise ValueError("k, n, t_max, majority_samples and top_k must be positive")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if self.score_metric not in ("f1", "em"):
            raise ValueError("score_metric must be 'f1' or 'em'")
        if self.strategy not in ("pruning", "no_pruning", "full_node"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.rollout_cap not in ("residual", "fixed"):
            raise ValueError("rollout_cap must be 'residual' or 'fixed'")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


def theoretical_counts(cfg: ExpansionConfig, l: int, strategy: Optional[Strategy] = None) -> int:
    """Closed-form expansion count for a depth-``l`` build of the given strategy.

    Pruning: (4k + 3knl) * l. No pruning: sum_{i=1}^{l} i^2 * (4k + 3knl).
    Full node: (2k(k+1)) ** l (leaf-layer node count; rollouts are omitted).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    k, n = cfg.k, cfg.n
    strategy = strategy or cfg.strategy
    per_layer = 4 * k + 3 * k * n * l
    if strategy == "pruning":
        return per_layer * l
    if strategy == "no_pruning":
        return per_layer * sum(i * i for i in range(1, l + 1))
    if strategy == "full_node":
        return (2 * k * (k + 1)) ** l
    raise ValueError(f"unknown strategy {strategy!r}")


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from structured parts; independent of execution order."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class RolloutResult:
    transcript: str
    final_answer: Optional[str]
    score: float
    steps_taken: int


@dataclass(frozen=True)
class Candidate:
    kind: CandidateKind
    content: str
    rollouts: Tuple[RolloutResult, ...] = ()
    reward: float = 0.0
    retained: bool = False
    documents: Tuple = ()  # sub-query candidates carry their retrieved documents


@dataclass(frozen=True)
class TerminationVotes:
    terminate: int = 0
    continue_: int = 0

    @property
    def total(self) -> int:
        return self.terminate + self.continue_

    @property
    def majority_terminate(self) -> bool:
        return 2 * self.terminate > self.total


@dataclass
class TreeNode:
    layer: int  # 1-based
    state: State
    votes: TerminationVotes
    sub_question_candidates: Tuple[Candidate, ...] = ()
    self_answer_candidates: Tuple[Candidate, ...] = ()
    sub_query_candidates: Tuple[Candidate, ...] = ()
    chosen_kind: Optional[str] = None  # "self_answer" | "sub_query" for expanded layers
    terminal_answer: Optional[str] = None  # set when the vote terminated this layer
    terminate_probe: Optional[Tuple[str, float]] = None  # scored opposing terminate branch
    child: Optional["TreeNode"] = None

    def candidates_of(self, kind: CandidateKind) -> Tuple[Candidate, ...]:
        return getattr(self, f"{kind}_candidates")


@dataclass
class ChainRecord:
    """One complete root-to-answer chain (the trunk, or a retained deviation)."""

    chain_id: int
    fork_layer: int  # 0 for the trunk; the layer whose alternate branch this chain took
    fork_kind: Optional[str]  # resolution kind the deviation took at the fork
    nodes: List[TreeNode]
    final_answer: Optional[str] = None
    final_score: float = 0.0
    terminated_by: Optional[str] = None  # "vote" | "cap"
    final_state: Optional[State] = None  # terminal state (steps + answer)
    pending_state: Optional[State] = None  # engine-internal: frontier during a build

    def retrieval_steps(self) -> int:
        if self.final_state is None:
            return 0
        return sum(1 for step in self.final_state.steps if isinstance(step.resolution, Retrieved))


@dataclass
class FullBranch:
    sub_question: str
    origin: str  # "direct" (the original question posed as its own resolution) | "sampled"
    self_answers: Tuple[str, ...] = ()
    sub_queries: Tuple[Tuple[str, Tuple], ...] = ()  # (query, documents)


@dataclass
class FullNode:
    depth: int  # 0-based: number of steps taken to reach this node
    state: State
    branches: Tuple[FullBranch, ...] = ()
    children: Tuple["FullNode", ...] = ()


@dataclass
class LayerCounters:
    policy_calls: int = 0
    rollout_calls: int = 0
    retrieval_calls: int = 0
    finalize_calls: int = 0
    nodes_expanded: int = 0


@dataclass
class ExpansionLedger:
    """Monotone counters for one question's build."""

    policy_calls: int = 0  # termination votes + candidate generations
    rollout_calls: int = 0  # completions issued inside rollout simulations
    finalize_calls: int = 0  # terminal-answer generations (not expansion work)
    retrieval_calls: int = 0  # logical; build_tree sends each distinct request once
    nodes_expanded: int = 0
    leaf_nodes: int = 0  # full-node strategy only
    wall_time: float = 0.0
    per_layer: Dict[int, LayerCounters] = field(default_factory=dict)

    def expansion_count(self, strategy: Strategy) -> int:
        if strategy == "full_node":
            return self.leaf_nodes
        return self.policy_calls + self.rollout_calls

    def to_dict(self, include_timing: bool = False) -> dict:
        record = {
            "policy_calls": self.policy_calls,
            "rollout_calls": self.rollout_calls,
            "finalize_calls": self.finalize_calls,
            "retrieval_calls": self.retrieval_calls,
            "nodes_expanded": self.nodes_expanded,
            "leaf_nodes": self.leaf_nodes,
            "per_layer": {
                str(layer): {
                    "policy_calls": c.policy_calls,
                    "rollout_calls": c.rollout_calls,
                    "retrieval_calls": c.retrieval_calls,
                    "finalize_calls": c.finalize_calls,
                    "nodes_expanded": c.nodes_expanded,
                }
                for layer, c in sorted(self.per_layer.items())
            },
        }
        if include_timing:
            record["wall_time"] = self.wall_time
        return record


@dataclass
class BuildResult:
    question: Question
    config: ExpansionConfig
    chains: List[ChainRecord] = field(default_factory=list)
    full_root: Optional[FullNode] = None
    ledger: ExpansionLedger = field(default_factory=ExpansionLedger)

    @property
    def trunk(self) -> Optional[ChainRecord]:
        return self.chains[0] if self.chains else None

    @property
    def root(self) -> Optional[TreeNode]:
        trunk = self.trunk
        return trunk.nodes[0] if trunk and trunk.nodes else None


@dataclass(frozen=True)
class TerminationExpansion:
    votes: TerminationVotes
    terminated: bool
    terminal_answer: Optional[str] = None
    candidates: Tuple[Candidate, ...] = ()
    chosen: Optional[Candidate] = None
    terminate_probe: Optional[Tuple[str, float]] = None


@dataclass(frozen=True)
class RetrievalExpansion:
    self_answer_candidates: Tuple[Candidate, ...]
    sub_query_candidates: Tuple[Candidate, ...]
    skipped_retrieval: bool
    chosen_kind: str
    chosen: Candidate
    alt_kind: Optional[str] = None
    alt: Optional[Candidate] = None


class TreeBuilder:
    """Expands one question at a time against the configured backends."""

    def __init__(
        self,
        policy: PolicyBackend,
        retriever: RetrieverBackend,
        config: ExpansionConfig,
        templates: Optional[PromptTemplateSet] = None,
        history_template: HistoryTemplate = DEFAULT_TEMPLATE,
    ):
        self.policy = policy
        self.retriever = retriever
        self.config = config
        self.templates = templates or load_default_templates()
        self.history_template = history_template
        self._lock = threading.Lock()
        self._ledger = ExpansionLedger()
        self._memo: RetrieverBackend = retriever  # a fresh MemoRetriever during build_tree
        self._question: Optional[Question] = None

    # ------------------------------------------------------------------ plumbing

    def _bump(self, layer: int, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self._ledger, counter, getattr(self._ledger, counter) + amount)
            per_layer = self._ledger.per_layer.setdefault(layer, LayerCounters())
            if hasattr(per_layer, counter):
                setattr(per_layer, counter, getattr(per_layer, counter) + amount)

    def _complete(
        self,
        role: PolicyRole,
        prompt: str,
        layer: int,
        counter: str,
        seed_parts: Tuple,
        temperature: Optional[float] = None,
    ) -> str:
        if temperature is None:
            temperature = self.config.sampling_temperature
        request = PolicyRequest(
            role=role,
            prompt=prompt,
            temperature=temperature,
            max_tokens=self.config.max_tokens,
            seed=derive_seed(self.config.seed, self._question.id, *seed_parts),
        )
        response = self.policy.complete(request)
        self._bump(layer, counter)
        return response.text

    def _retrieve(self, query: str, layer: int) -> Tuple:
        docs = self._memo.retrieve(RetrievalRequest(query=query, top_k=self.config.top_k))
        self._bump(layer, "retrieval_calls")
        return tuple(docs)

    def _score(self, answer: str) -> float:
        return score_answer(self.config.score_metric, answer, self._question.gold_answers)

    # ------------------------------------------------------------------ rollouts

    def _rollout_horizon(self, effective_depth: int) -> int:
        if self.config.rollout_cap == "fixed":
            return self.config.t_max
        return max(1, self.config.t_max - effective_depth + 1)

    def run_rollout(
        self,
        state: State,
        pending_sub_question: Optional[str],
        layer: int,
        seed_parts: Tuple,
    ) -> RolloutResult:
        """Simulate one completion from the given state and score its final answer."""
        self._question = state.question
        effective_depth = state.depth + (1 if pending_sub_question is not None else 0)
        horizon = self._rollout_horizon(effective_depth)
        transcript = run_agent(
            self._question,
            self.policy,
            self._memo,
            templates=self.templates,
            history_template=self.history_template,
            initial_state=state,
            pending_sub_question=pending_sub_question,
            max_steps=horizon,
            max_searches=max(0, horizon - 1),
            top_k=self.config.top_k,
            temperature=self.config.sampling_temperature,
            seed=derive_seed(self.config.seed, self._question.id, "rollout", *seed_parts),
            on_policy_call=lambda: self._bump(layer, "rollout_calls"),
            on_retrieval_call=lambda: self._bump(layer, "retrieval_calls"),
        )
        answer = transcript.final_answer
        score = self._score(answer) if answer is not None else 0.0
        return RolloutResult(
            transcript=transcript.raw_text,
            final_answer=answer,
            score=score,
            steps_taken=transcript.steps_taken,
        )


    @staticmethod
    def mean_reward(scores: Sequence[float]) -> float:
        """Branch reward: arithmetic mean of rollout correctness scores."""
        if not scores:
            return 0.0
        return math.fsum(scores) / len(scores)

    def _score_entries(
        self,
        layer: int,
        kind: CandidateKind,
        entries: Sequence[Tuple[str, Tuple]],
        rollout_bases: Sequence[Tuple[State, Optional[str]]],
    ) -> Tuple[Candidate, ...]:
        """Attach ``n`` scored rollouts to each (content, documents) entry."""
        n = self.config.n
        jobs = []
        for index, (base_state, pending) in enumerate(rollout_bases):
            for r in range(n):
                jobs.append((index, r, base_state, pending))

        results: Dict[Tuple[int, int], RolloutResult] = {}

        def run(job):
            index, r, base_state, pending = job
            return (index, r), self.run_rollout(
                base_state, pending, layer, (layer, kind, index, r)
            )

        if self.config.concurrency > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=self.config.concurrency) as pool:
                for key, result in pool.map(run, jobs):
                    results[key] = result
        else:
            for job in jobs:
                key, result = run(job)
                results[key] = result

        candidates = []
        for index, (content, documents) in enumerate(entries):
            rollouts = tuple(results[(index, r)] for r in range(n))
            candidates.append(
                Candidate(
                    kind=kind,
                    content=content,
                    rollouts=rollouts,
                    reward=self.mean_reward([r.score for r in rollouts]),
                    documents=documents,
                )
            )
        return tuple(candidates)

    # ------------------------------------------------------------------ generation

    def _generate_texts(
        self,
        role: PolicyRole,
        prompt: str,
        parse: Callable[[str], Optional[str]],
        layer: int,
        kind: str,
        count: int,
    ) -> List[str]:
        """Sample ``count`` parses, retrying malformed output, then deduplicate."""
        texts: List[str] = []
        for index in range(count):
            parsed = None
            for attempt in range(self.config.malformed_retries + 1):
                raw = self._complete(
                    role, prompt, layer, "policy_calls", ("cand", kind, layer, index, attempt)
                )
                parsed = parse(raw)
                if parsed is not None:
                    break
            if parsed is not None:
                texts.append(parsed)
        seen = set()
        unique: List[str] = []
        for text in texts:
            key = normalize_answer(text)
            if key not in seen:
                seen.add(key)
                unique.append(text)
        return unique

    def _finalize_answer(self, state: State, layer: int) -> Optional[str]:
        """Generate the terminal answer for a chain (vote-terminated or at the cap)."""
        prompt = self.templates.render(
            PolicyRole.TERMINATION,
            question=self._question.text,
            iter_history=render_history(state, template=self.history_template),
        )
        for attempt in range(self.config.malformed_retries + 1):
            raw = self._complete(
                PolicyRole.TERMINATION,
                prompt,
                layer,
                "finalize_calls",
                ("finalize", layer, attempt),
                temperature=self.config.answer_temperature,
            )
            parsed = parse_termination(raw)
            if parsed.kind == "terminate":
                return parsed.answer
        return None

    @staticmethod
    def _argmax(candidates: Sequence[Candidate]) -> int:
        """Highest reward; ties break toward the lowest candidate index."""
        best = 0
        for index in range(1, len(candidates)):
            if candidates[index].reward > candidates[best].reward:
                best = index
        return best

    @staticmethod
    def _retain(candidates: Tuple[Candidate, ...], index: int) -> Tuple[Candidate, ...]:
        return tuple(
            replace(c, retained=(i == index)) for i, c in enumerate(candidates)
        )

    # ------------------------------------------------------------------ decision expansion

    def expand_termination(self, state: State, layer: int) -> TerminationExpansion:
        """Vote on stopping; on continue, pick the best sub-question by rollout reward."""
        self._question = state.question
        cfg = self.config
        prompt = self.templates.render(
            PolicyRole.TERMINATION,
            question=self._question.text,
            iter_history=render_history(state, template=self.history_template),
        )
        terminate_votes = continue_votes = 0
        for v in range(cfg.majority_samples):
            parsed = None
            for attempt in range(cfg.malformed_retries + 1):
                raw = self._complete(
                    PolicyRole.TERMINATION, prompt, layer, "policy_calls", ("vote", layer, v, attempt)
                )
                parsed = parse_termination(raw)
                if parsed.kind != "malformed":
                    break
            if parsed is not None and parsed.kind == "terminate":
                terminate_votes += 1
            elif parsed is not None and parsed.kind == "continue":
                continue_votes += 1
        votes = TerminationVotes(terminate=terminate_votes, continue_=continue_votes)

        if votes.majority_terminate:
            answer = self._finalize_answer(state, layer)
            if answer is None:
                raise NodeExpansionFailed(
                    self._question.id, layer, "terminate vote won but no answer was produced"
                )
            expansion = TerminationExpansion(votes=votes, terminated=True, terminal_answer=answer)
            if cfg.score_terminate_branch:
                expansion = replace(expansion, candidates=self._sub_question_candidates(state, layer))
            return expansion

        candidates = self._sub_question_candidates(state, layer)
        if not candidates:
            raise NodeExpansionFailed(
                self._question.id, layer, "every sub-question candidate was malformed"
            )
        best = self._argmax(candidates)
        candidates = self._retain(candidates, best)

        probe = None
        if cfg.score_terminate_branch:
            answer = self._finalize_answer(state, layer)
            if answer is not None:
                probe = (answer, self._score(answer))
        return TerminationExpansion(
            votes=votes,
            terminated=False,
            candidates=candidates,
            chosen=candidates[best],
            terminate_probe=probe,
        )

    def _sub_question_candidates(self, state: State, layer: int) -> Tuple[Candidate, ...]:
        prompt = self.templates.render(PolicyRole.SUB_QUESTION, question=self._question.text)
        texts = self._generate_texts(
            PolicyRole.SUB_QUESTION, prompt, parse_sub_question, layer, "sub_question", self.config.k
        )
        entries = [(text, ()) for text in texts]
        bases = [(state, text) for text in texts]
        return self._score_entries(layer, "sub_question", entries, bases)

    def expand_retrieval(
        self, state: State, layer: int, sub_question: str, force_both: bool = False
    ) -> RetrievalExpansion:
        """Resolve a sub-question: self-knowledge first, retrieval unless skipped.

        The skip gate compares the best self-answer reward with ``tau``; when
        the gate fails the sub-query branch is taken. ``force_both`` (the
        no-pruning strategy) always expands both branches and compares their
        best rewards, preferring the cheaper self-answer branch on ties.
        """
        self._question = state.question
        cfg = self.config

        sa_prompt = self.templates.render(PolicyRole.SELF_ANSWER, question=sub_question)
        sa_texts = self._generate_texts(
            PolicyRole.SELF_ANSWER, sa_prompt, parse_self_answer, layer, "self_answer", cfg.k
        )
        sa_entries = [(text, ()) for text in sa_texts]
        sa_bases = [(state.with_step(Step(sub_question, SelfAnswer(text))), None) for text in sa_texts]
        sa_candidates = self._score_entries(layer, "self_answer", sa_entries, sa_bases)

        best_sa = self._argmax(sa_candidates) if sa_candidates else None
        skip = (
            not force_both
            and best_sa is not None
            and sa_candidates[best_sa].reward >= cfg.tau
        )
        if skip:
            sa_candidates = self._retain(sa_candidates, best_sa)
            return RetrievalExpansion(
                self_answer_candidates=sa_candidates,
                sub_query_candidates=(),
                skipped_retrieval=True,
                chosen_kind="self_answer",
                chosen=sa_candidates[best_sa],
            )

        sq_prompt = self.templates.render(PolicyRole.SUB_QUERY, question=sub_question)
        sq_texts = self._generate_texts(
            PolicyRole.SUB_QUERY, sq_prompt, parse_sub_query, layer, "sub_query", cfg.k
        )
        sq_entries = []
        sq_bases = []
        for text in sq_texts:
            documents = self._retrieve(text, layer)
            sq_entries.append((text, documents))
            sq_bases.append((state.with_step(Step(sub_question, Retrieved(text, documents))), None))
        sq_candidates = self._score_entries(layer, "sub_query", sq_entries, sq_bases)

        if not sq_candidates and best_sa is None:
            raise NodeExpansionFailed(
                self._question.id, layer, "both resolution branches produced no candidates"
            )
        if not sq_candidates and not force_both:
            raise NodeExpansionFailed(
                self._question.id, layer, "every sub-query candidate was malformed"
            )

        best_sq = self._argmax(sq_candidates) if sq_candidates else None
        if force_both:
            # Keep both branches; the trunk follows the better one (self-answer on ties).
            sa_reward = sa_candidates[best_sa].reward if best_sa is not None else -1.0
            sq_reward = sq_candidates[best_sq].reward if best_sq is not None else -1.0
            if best_sa is not None and sa_reward >= sq_reward:
                chosen_kind, alt_kind = "self_answer", "sub_query" if best_sq is not None else None
            else:
                chosen_kind, alt_kind = "sub_query", "self_answer" if best_sa is not None else None
        else:
            chosen_kind, alt_kind = "sub_query", None

        if chosen_kind == "self_answer":
            sa_candidates = self._retain(sa_candidates, best_sa)
            chosen = sa_candidates[best_sa]
            alt = sq_candidates[best_sq] if alt_kind else None
        else:
            sq_candidates = self._retain(sq_candidates, best_sq)
            chosen = sq_candidates[best_sq]
            alt = sa_candidates[best_sa] if alt_kind else None

        return RetrievalExpansion(
            self_answer_candidates=sa_candidates,
            sub_query_candidates=sq_candidates,
            skipped_retrieval=False,
            chosen_kind=chosen_kind,
            chosen=chosen,
            alt_kind=alt_kind,
            alt=alt,
        )

    # ------------------------------------------------------------------ chain building

    @staticmethod
    def _step_for(candidate: Candidate, sub_question: str) -> Step:
        if candidate.kind == "self_answer":
            return Step(sub_question, SelfAnswer(candidate.content))
        return Step(sub_question, Retrieved(candidate.content, candidate.documents))

    def _expand_layer(self, state: State, layer: int, force_both: bool) -> Tuple[Optional[TreeNode], TerminationExpansion, Optional[RetrievalExpansion]]:
        """One full layer expansion; returns (node, termination, retrieval)."""
        self._bump(layer, "nodes_expanded")
        termination = self.expand_termination(state, layer)
        if termination.terminated:
            node = TreeNode(
                layer=layer,
                state=state,
                votes=termination.votes,
                sub_question_candidates=termination.candidates,
                terminal_answer=termination.terminal_answer,
            )
            return node, termination, None

        retrieval = self.expand_retrieval(
            state, layer, termination.chosen.content, force_both=force_both
        )
        node = TreeNode(
            layer=layer,
            state=state,
            votes=termination.votes,
            sub_question_candidates=termination.candidates,
            self_answer_candidates=retrieval.self_answer_candidates,
            sub_query_candidates=retrieval.sub_query_candidates,
            chosen_kind=retrieval.chosen_kind,
            terminate_probe=termination.terminate_probe,
        )
        return node, termination, retrieval

    def _finish_chain(self, chain: ChainRecord, state: State, terminated_by: str, answer: Optional[str]) -> None:
        chain.terminated_by = terminated_by
        chain.final_answer = answer
        chain.final_score = self._score(answer) if answer is not None else 0.0
        chain.final_state = state.with_answer(answer) if answer is not None else None
        chain.pending_state = None
        for i in range(len(chain.nodes) - 1):
            chain.nodes[i].child = chain.nodes[i + 1]
        if chain.nodes:
            chain.nodes[-1].child = None

    def _build_pruning(self) -> BuildResult:
        cfg = self.config
        state = State(self._question)
        chain = ChainRecord(chain_id=0, fork_layer=0, fork_kind=None, nodes=[])
        for layer in range(1, cfg.t_max + 1):
            node, termination, retrieval = self._expand_layer(state, layer, force_both=False)
            chain.nodes.append(node)
            if termination.terminated:
                self._finish_chain(chain, state, "vote", termination.terminal_answer)
                return BuildResult(self._question, cfg, chains=[chain], ledger=self._ledger)
            step = self._step_for(retrieval.chosen, termination.chosen.content)
            state = state.with_step(step)
        answer = self._finalize_answer(state, cfg.t_max)
        if answer is None:
            raise NodeExpansionFailed(
                self._question.id, cfg.t_max, "no terminal answer at the iteration cap"
            )
        self._finish_chain(chain, state, "cap", answer)
        return BuildResult(self._question, cfg, chains=[chain], ledger=self._ledger)

    def _build_no_pruning(self) -> BuildResult:
        """Memoryless iterative deepening, keeping both resolution branches alive.

        At round ``i`` every live chain is rebuilt from the root to depth ``i``
        (no cached prefixes), so the round performs ``i`` full layer expansions
        per chain over ``i`` live chains. The trunk spawns one deviation chain
        per round: the resolution branch it did not take at the new layer.
        Deviation chains extend greedily and do not fork further.
        """
        cfg = self.config
        trunk = ChainRecord(chain_id=0, fork_layer=0, fork_kind=None, nodes=[])
        chains: List[ChainRecord] = [trunk]
        done: Dict[int, bool] = {0: False}

        for rnd in range(1, cfg.t_max + 1):
            spawned: List[ChainRecord] = []
            for chain in list(chains):
                if done.get(chain.chain_id, False):
                    continue
                state = State(self._question)
                nodes: List[TreeNode] = []
                terminated = False
                for layer in range(1, rnd + 1):
                    node, termination, retrieval = self._expand_layer(state, layer, force_both=True)
                    nodes.append(node)
                    if termination.terminated:
                        chain.nodes = nodes
                        self._finish_chain(chain, state, "vote", termination.terminal_answer)
                        done[chain.chain_id] = True
                        terminated = True
                        break
                    take = retrieval.chosen
                    if chain.fork_layer == layer and retrieval.alt is not None:
                        take = retrieval.alt
                        node.chosen_kind = retrieval.alt_kind
                        self._swap_retained(node, retrieval)
                    if chain.chain_id == 0 and layer == rnd and retrieval.alt is not None:
                        fork = self._materialize_deviation(
                            len(chains) + len(spawned), nodes, state, retrieval, termination, layer
                        )
                        spawned.append(fork)
                    state = state.with_step(self._step_for(take, termination.chosen.content))
                if not terminated:
                    chain.nodes = nodes
                    chain.pending_state = state
            for fork in spawned:
                chains.append(fork)
                done[fork.chain_id] = False
            if all(done.get(c.chain_id, False) for c in chains):
                break

        for chain in chains:
            if done.get(chain.chain_id, False):
                continue
            state = chain.pending_state
            answer = self._finalize_answer(state, cfg.t_max)
            if answer is None:
                chain.terminated_by = "cap"
                chain.final_answer = None
                chain.final_score = 0.0
            else:
                self._finish_chain(chain, state, "cap", answer)
        return BuildResult(self._question, cfg, chains=chains, ledger=self._ledger)

    @staticmethod
    def _swap_retained(node: TreeNode, retrieval: RetrievalExpansion) -> None:
        """Flip retained flags so the node reflects the deviation's path."""
        alt_kind = node.chosen_kind
        alt = retrieval.alt

        def mark(cands: Tuple[Candidate, ...], keep: Optional[Candidate]) -> Tuple[Candidate, ...]:
            return tuple(
                replace(c, retained=(keep is not None and c.content == keep.content))
                for c in cands
            )

        if alt_kind == "self_answer":
            node.self_answer_candidates = mark(node.self_answer_candidates, alt)
            node.sub_query_candidates = mark(node.sub_query_candidates, None)
        else:
            node.sub_query_candidates = mark(node.sub_query_candidates, alt)
            node.self_answer_candidates = mark(node.self_answer_candidates, None)

    def _materialize_deviation(
        self,
        chain_id: int,
        trunk_nodes: List[TreeNode],
        state: State,
        retrieval: RetrievalExpansion,
        termination: TerminationExpansion,
        layer: int,
    ) -> ChainRecord:
        """Record the non-chosen branch at ``layer`` as a new chain."""
        nodes = [self._clone_node(n) for n in trunk_nodes[:-1]]
        fork_node = self._clone_node(trunk_nodes[-1])
        fork_node.chosen_kind = retrieval.alt_kind
        self._swap_retained(fork_node, retrieval)
        nodes.append(fork_node)
        chain = ChainRecord(
            chain_id=chain_id,
            fork_layer=layer,
            fork_kind=retrieval.alt_kind,
            nodes=nodes,
        )
        chain.pending_state = state.with_step(
            self._step_for(retrieval.alt, termination.chosen.content)
        )
        return chain

    @staticmethod
    def _clone_node(node: TreeNode) -> TreeNode:
        return TreeNode(
            layer=node.layer,
            state=node.state,
            votes=node.votes,
            sub_question_candidates=node.sub_question_candidates,
            self_answer_candidates=node.self_answer_candidates,
            sub_query_candidates=node.sub_query_candidates,
            chosen_kind=node.chosen_kind,
            terminal_answer=node.terminal_answer,
            terminate_probe=node.terminate_probe,
        )

    def _build_full_node(self) -> BuildResult:
        """Keep every execution branch, skip rollouts, and count leaf-layer nodes.

        Each state expands k sampled sub-questions plus the direct-resolution
        branch (the original question posed as its own next step), and every
        branch keeps all k self-answers and all k sub-queries, giving
        2k(k+1) children per state.
        """
        cfg = self.config
        question = self._question

        def expand(state: State, depth: int) -> FullNode:
            layer = depth + 1
            if depth >= cfg.t_max:
                with self._lock:
                    self._ledger.leaf_nodes += 1
                return FullNode(depth=depth, state=state)
            self._bump(layer, "nodes_expanded")
            prompt = self.templates.render(PolicyRole.SUB_QUESTION, question=question.text)
            sampled = self._generate_texts(
                PolicyRole.SUB_QUESTION, prompt, parse_sub_question, layer, "sub_question", cfg.k
            )
            branch_questions = [(question.text, "direct")] + [(t, "sampled") for t in sampled]
            branches: List[FullBranch] = []
            children: List[FullNode] = []
            for text, origin in branch_questions:
                sa_prompt = self.templates.render(PolicyRole.SELF_ANSWER, question=text)
                answers = self._generate_texts(
                    PolicyRole.SELF_ANSWER, sa_prompt, parse_self_answer, layer,
                    f"self_answer:{origin}:{text[:40]}", cfg.k,
                )
                sq_prompt = self.templates.render(PolicyRole.SUB_QUERY, question=text)
                queries = self._generate_texts(
                    PolicyRole.SUB_QUERY, sq_prompt, parse_sub_query, layer,
                    f"sub_query:{origin}:{text[:40]}", cfg.k,
                )
                retrieved = tuple((q, self._retrieve(q, layer)) for q in queries)
                branches.append(
                    FullBranch(
                        sub_question=text,
                        origin=origin,
                        self_answers=tuple(answers),
                        sub_queries=retrieved,
                    )
                )
                for answer in answers:
                    children.append(
                        expand(state.with_step(Step(text, SelfAnswer(answer))), depth + 1)
                    )
                for query, documents in retrieved:
                    children.append(
                        expand(state.with_step(Step(text, Retrieved(query, documents))), depth + 1)
                    )
            return FullNode(
                depth=depth, state=state, branches=tuple(branches), children=tuple(children)
            )

        root = expand(State(question), 0)
        return BuildResult(question, cfg, chains=[], full_root=root, ledger=self._ledger)

    # ------------------------------------------------------------------ entry point

    def build_tree(self, question: Question) -> BuildResult:
        """Expand one question under the configured strategy.

        Raises :class:`NodeExpansionFailed` when a layer cannot produce any
        usable candidate; batch drivers catch this and record a failure.
        """
        self._question = question
        self._ledger = ExpansionLedger()
        self._memo = MemoRetriever(self.retriever)
        started = time.monotonic()
        try:
            if self.config.strategy == "pruning":
                result = self._build_pruning()
            elif self.config.strategy == "no_pruning":
                result = self._build_no_pruning()
            else:
                result = self._build_full_node()
        finally:
            self._ledger.wall_time = time.monotonic() - started
            self._question = None
            self._memo = self.retriever
        return result

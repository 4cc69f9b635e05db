"""Search-tree expansion with rollout rewards and branch pruning.

Each question grows a tree layer by layer, and each layer is one ``TreeNode``.
``expand_termination`` makes the node: it samples the termination decision
several times (strict majority of terminate votes ends the chain), then
generates candidate sub-questions and retains the best. ``expand_retrieval``
resolves that sub-question on the same node with self-knowledge answers and
search sub-queries. Every candidate is scored with the mean correctness of
``n`` rollout simulations, and ``best_candidate`` picks the highest reward,
for the engine and the exporters alike. The pruning strategy keeps only the
best branch per decision; the no-pruning strategy keeps both resolution
branches alive as separate chains, rebuilt memorylessly each round; the
full-node strategy expands every execution branch, skips rollouts entirely,
and keeps only its ledger, since it exists to price the full-expansion
baseline.

Each step of a build is a generator of its backend calls, run as a task of the
build by the run's ``driver.Boundary`` on one thread, so no step waits on a
thread. Samples that share a prompt and differ only by seed are one request: a
layer's termination votes, then a candidate set's ``k`` samples, and the first
steps of a candidate's ``n`` rollouts. Each new candidate's retrieval and rollouts
start as soon as it is read, while a malformed sample is asked again alone. Each
decision (terminate or continue, which sub-question, whether to retrieve, which
execution) settles as soon as the results read so far decide it, and the next
one starts while the rest come in: a rollout scores between 0 and 1, so bounds
on each candidate's mean reward can name the winner, or settle the skip gate,
before the last rollouts return, and the votes settle once the unread ones
cannot turn the majority. A chain's terminal answer likewise goes out beside
the last layer's remaining rollouts. A step writes the decisions it settled
into its node, then spawns one task that fills the node with the step's other
results, before ``build_tree`` returns, which is also when a no_pruning fork
copies the trunk's nodes. The build makes no call that a serial build would
not make. Seeds are keyed by (kind, layer, index, attempt) and results are read
in index order, so the tree, the counts and the snapshot are the same at any
concurrency. A failed build raises the error its serial run meets first.

Expansion-count accounting (used by the bench command and the acceptance
tests): the count for the pruning and no-pruning strategies is the number of
policy samples spent on expansion, i.e. termination votes + candidate generations
+ rollout steps, however many requests carried them. Retrieval calls and
chain-finalization answers are tracked separately and not counted. The full-node
count is the number of leaf-layer nodes. Under a scripted regime with
``majority_samples == k``, fixed-horizon rollouts of exactly ``l`` steps, no dedup
collisions, no early termination and no retrieval skip, the measured counts close
exactly with the published closed forms (see ``theoretical_counts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple, TypeVar

from .agent import episode_prompt, run_agent, step_request
from .driver import Boundary, Build, Steps, Task, gather
from .errors import NodeExpansionFailed
from .history import HistoryTemplate, render_history
from .metrics import normalize_answer, score_answer
from .parsing import parse_self_answer, parse_sub_query, parse_sub_question, parse_termination
from .policy import PolicyBackend, PolicyRequest, PolicyResponse
from .retrieval import RetrievalRequest, RetrieverBackend
from .templates import PolicyRole, PromptTemplateSet, load_default_templates
from .types import UNWRITTEN, Document, Question, Retrieved, SelfAnswer, State, Step, check_choices

try:  # the stdlib's own sha256: the same digests as hashlib's, without loading OpenSSL
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

Strategy = Literal["pruning", "no_pruning", "full_node"]
CandidateKind = Literal["sub_question", "self_answer", "sub_query"]
T = TypeVar("T")


@dataclass(frozen=True)
class ExpansionConfig:
    k: int = 3  # candidate executions per decision
    n: int = 4  # rollouts per candidate
    t_max: int = 4  # maximum decision iterations per question
    tau: float = 0.7  # retrieval-skip threshold on the best self-answer reward
    score_metric: Literal["f1", "em"] = "f1"
    strategy: Strategy = "pruning"
    seed: int = 0
    majority_samples: int = 5  # termination votes drawn per layer
    rollout_cap: Literal["residual", "fixed"] = "residual"  # t_max - depth + 1 steps, or t_max
    sampling_temperature: float = 0.7
    answer_temperature: float = 0.0  # used for finalization completions
    max_tokens: int = 512
    top_k: int = 3
    malformed_retries: int = 2
    score_terminate_branch: bool = False
    doc_char_budget: int = 1500  # characters of each document that prompts and exports show
    concurrency: int = field(default=1, metadata=UNWRITTEN)  # the run's requests in flight

    def __post_init__(self):
        if min(self.k, self.n, self.t_max, self.majority_samples, self.top_k, self.max_tokens,
               self.doc_char_budget) < 1:
            raise ValueError("k, n, t_max, majority_samples, top_k, max_tokens and doc_char_budget "
                             "must be positive")
        for name in ("malformed_retries", "sampling_temperature", "answer_temperature"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        check_choices(self)
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")

    def history_template(self) -> HistoryTemplate:
        """The document budget that builds, rollouts and exports render history at."""
        return HistoryTemplate(self.doc_char_budget)


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
    digest = sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class RolloutResult:
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
    documents: Tuple[Document, ...] = ()  # sub-query candidates carry their retrieved documents


def best_candidate(candidates: Sequence[Candidate]) -> Optional[Candidate]:
    """Highest reward; ties break toward the lowest index. None when there is none."""
    return max(candidates, key=lambda c: c.reward, default=None)


def _retaining(
    candidates: Sequence[Candidate], chosen: Optional[Candidate]
) -> Tuple[Candidate, ...]:
    """``candidates`` with ``chosen`` the only one flagged as retained."""
    return tuple(replace(c, retained=c is chosen) for c in candidates)


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
    """One layer of a chain. Inside a build, a node holds its decisions alone (its
    terminal answer or retained candidates, and ``chosen_kind``) and no votes
    until each step's fill task writes it whole; ``build_tree`` returns whole
    nodes."""

    layer: int  # 1-based
    state: State = field(metadata=UNWRITTEN)  # the question plus the chain's first layer - 1 steps
    votes: TerminationVotes
    sub_question_candidates: Tuple[Candidate, ...] = ()
    self_answer_candidates: Tuple[Candidate, ...] = ()
    sub_query_candidates: Tuple[Candidate, ...] = ()
    chosen_kind: Optional[str] = None  # "self_answer" | "sub_query" for expanded layers
    terminal_answer: Optional[str] = None  # set when the vote terminated this layer
    terminate_probe: Optional[Tuple[str, float]] = None  # scored opposing terminate branch

    def candidates_of(self, kind: CandidateKind) -> Tuple[Candidate, ...]:
        return getattr(self, f"{kind}_candidates")

    def retained(self, kind: CandidateKind) -> Optional[Candidate]:
        return next((c for c in self.candidates_of(kind) if c.retained), None)

    def resolve_by(self, kind: str) -> Candidate:
        """Take the ``kind`` resolution branch: its best candidate is the only one retained."""
        best = best_candidate(self.candidates_of(kind))
        self.chosen_kind = kind
        self.self_answer_candidates = _retaining(self.self_answer_candidates, best)
        self.sub_query_candidates = _retaining(self.sub_query_candidates, best)
        return best


@dataclass
class ChainRecord:
    """One complete root-to-answer chain (the trunk, or a retained deviation)."""

    chain_id: int
    fork_layer: int  # 0 for the trunk; the layer whose alternate branch this chain took
    fork_kind: Optional[str]  # resolution kind the deviation took at the fork
    nodes: List[TreeNode]
    final_answer: Optional[str] = None
    final_score: float = 0.0
    terminated_by: Optional[str] = None  # "vote" | "cap"; None while the chain is live
    final_state: Optional[State] = None  # the state it reached, plus its answer if it got one

    def retrieval_steps(self) -> int:
        if self.final_state is None:
            return 0
        return sum(1 for step in self.final_state.steps if isinstance(step.resolution, Retrieved))


# The counters that every per-layer entry of a ledger holds.
LAYER_COUNTERS = ("policy_calls", "rollout_calls", "finalize_calls", "retrieval_calls", "nodes_expanded")


@dataclass
class ExpansionLedger:
    """Monotone counters for one question's build."""

    policy_calls: int = 0  # termination votes + candidate generations
    rollout_calls: int = 0  # completions issued inside rollout simulations
    finalize_calls: int = 0  # terminal-answer generations (not expansion work)
    retrieval_calls: int = 0  # logical; a build sends each distinct request once
    nodes_expanded: int = 0
    leaf_nodes: int = 0  # full-node strategy only
    per_layer: Dict[int, Dict[str, int]] = field(default_factory=dict)  # layer -> LAYER_COUNTERS

    def expansion_count(self, strategy: Strategy) -> int:
        if strategy == "full_node":
            return self.leaf_nodes
        return self.policy_calls + self.rollout_calls


@dataclass
class BuildResult:
    """One question's tree, live from ``build_tree`` or decoded from its snapshot.

    A full_node build keeps no tree, only its ledger. A failed build keeps
    only its ``failure`` ({"layer", "reason"}): no chains and no ledger.
    """

    question: Question
    config: ExpansionConfig
    chains: List[ChainRecord] = field(default_factory=list)
    ledger: Optional[ExpansionLedger] = field(default_factory=ExpansionLedger)
    failure: Optional[Dict] = None

    @property
    def trunk(self) -> Optional[ChainRecord]:
        return self.chains[0] if self.chains else None


def _ask(request: PolicyRequest) -> Steps[PolicyResponse]:
    """A task of one call, valued by its reply."""
    return (yield request)


def _vote_kind(raw: str) -> Optional[str]:
    """A termination vote's kind, or None for malformed output."""
    kind = parse_termination(raw).kind
    return None if kind == "malformed" else kind


_CANDIDATE_PARSERS: Dict[PolicyRole, Callable[[str], Optional[str]]] = {
    PolicyRole.SUB_QUESTION: parse_sub_question,
    PolicyRole.SELF_ANSWER: parse_self_answer,
    PolicyRole.SUB_QUERY: parse_sub_query,
}


# Rules that settle a decision from the results read so far. Each returns the
# decision that every result yet to come leaves standing, or None while one
# could still change it; on complete results each decides.

def _vote_outcome(terminate: int, continue_: int, left: int) -> Optional[bool]:
    """Whether a strict majority of the votes will terminate, ``left`` votes unread."""
    if continue_ >= terminate + left:
        return False
    if terminate > continue_ + left:
        return True
    return None


def _reward_bounds(scores: Sequence[float], left: int) -> Tuple[float, float]:
    """The least and greatest reward a candidate can end with, ``left`` of its
    rollouts unread: a rollout scores between 0 and 1."""
    total = len(scores) + left
    if not total:
        return 0.0, 0.0
    return math.fsum(scores) / total, math.fsum([*scores, *[1.0] * left]) / total


def _winner(bounds: Sequence[Tuple[float, float]]) -> Optional[int]:
    """The index ``best_candidate`` will pick, given each candidate's reward bounds:
    the one whose least reward beats every lower index's greatest and reaches
    every higher index's."""
    for i, (least, _) in enumerate(bounds):
        if (all(least > greatest for _, greatest in bounds[:i])
                and all(least >= greatest for _, greatest in bounds[i + 1:])):
            return i
    return None


def _skips_retrieval(bounds: Sequence[Tuple[float, float]], tau: float) -> Optional[bool]:
    """Whether the best self-answer reward will reach ``tau``, given each self-answer's
    reward bounds; with no self-answer it does not."""
    if any(least >= tau for least, _ in bounds):
        return True
    if all(greatest < tau for _, greatest in bounds):
        return False
    return None


class _Build(Build):
    """One tree build: a driver ``Build`` with its question and ledger."""

    def __init__(self, question: Question, policy: PolicyBackend, retriever: RetrieverBackend,
                 boundary: Boundary):
        super().__init__(policy, retriever, boundary)
        self.question, self.ledger = question, ExpansionLedger()

    def bump(self, layer: int, counter: str, amount: int = 1) -> None:
        setattr(self.ledger, counter, getattr(self.ledger, counter) + amount)
        per_layer = self.ledger.per_layer.setdefault(layer, dict.fromkeys(LAYER_COUNTERS, 0))
        per_layer[counter] += amount


class _Candidates:
    """A candidate set that tasks of one build sample and score.

    A reader task reads the ``k`` samples in index order, drops duplicates, and
    starts a task per new candidate that retrieves its documents (a sub-query's)
    and starts its rollouts, while the later samples are still out. ``settle``
    waits until the results decide a rule, and ``finish`` until all are in.
    """

    def __init__(self, build: _Build, samples: List[Task], begin: Callable[[str, int], Steps]):
        self.started: List[Task] = []  # per candidate: valued (candidate, its rollout tasks)
        self.reader = build.spawn(self._read(build, samples, begin))

    def _read(self, build: _Build, samples: List[Task], begin) -> Steps[None]:
        seen = set()
        for sample in samples:
            yield from gather([sample])
            if sample.value is not None and normalize_answer(sample.value) not in seen:
                seen.add(normalize_answer(sample.value))
                self.started.append(build.spawn(begin(sample.value, len(self.started))))

    def settle(self, rule: Callable[[List[Tuple[float, float]]], Optional[T]]) -> Steps[T]:
        """``rule(bounds)`` once it decides: the rule sees each candidate's reward
        bounds once every sample is read, and again only when a result it reads
        comes in."""
        yield from gather([self.reader])
        while True:
            bounds, out = [], []
            for begun in self.started:
                if not begun.done:
                    out.append(begun)
                    bounds.append((0.0, 1.0))
                    continue
                rollouts = begun.value[1]
                left = [rollout for rollout in rollouts if not rollout.done]
                out += left
                bounds.append(_reward_bounds([r.value.score for r in rollouts if r.done], len(left)))
            decision = rule(bounds)
            if decision is not None:
                return decision
            yield out

    def best(self, empty: Callable[[], Exception]) -> Steps[Candidate]:
        """The candidate ``best_candidate`` will pick, as soon as the rollouts read
        decide it and it has its documents. Raises ``empty()`` once every sample is
        read if none gave a candidate."""
        yield from gather([self.reader])
        if not self.started:
            raise empty()
        winner = self.started[(yield from self.settle(_winner))]
        yield from gather([winner])  # a lone candidate wins before its retrieval returns
        return winner.value[0]

    @staticmethod
    def finish(*sets: "_Candidates") -> Steps[List[Tuple[Candidate, ...]]]:
        """Each set's candidates with their rollouts and rewards, once every result is in."""
        for each in sets:
            yield from gather([each.reader])
            yield from gather(each.started)
            yield from gather([rollout for begun in each.started for rollout in begun.value[1]])
        return [each._scored() for each in sets]

    def _scored(self) -> Tuple[Candidate, ...]:
        candidates = []
        for begun in self.started:
            candidate, rollouts = begun.value
            results = tuple(rollout.value for rollout in rollouts)
            reward = TreeBuilder.mean_reward([r.score for r in results])
            candidates.append(replace(candidate, rollouts=results, reward=reward))
        return tuple(candidates)


class TreeBuilder:
    """Expands questions against the configured backends.

    The builder holds no per-build state: ``build_tree`` makes a fresh ``_Build``
    and passes it down, so one builder can serve concurrent builds. Its steps
    (``expand_termination``, ``expand_retrieval``, ``run_rollout``) are generators
    that run as tasks of that build.
    A history template given must cut documents at the config's ``doc_char_budget``.
    """

    def __init__(
        self,
        policy: PolicyBackend,
        retriever: RetrieverBackend,
        config: ExpansionConfig,
        templates: Optional[PromptTemplateSet] = None,
        history_template: Optional[HistoryTemplate] = None,
    ):
        self.policy = policy
        self.retriever = retriever
        self.config = config
        self.templates = templates or load_default_templates()
        self.history_template = history_template or config.history_template()
        if self.history_template.doc_char_budget != config.doc_char_budget:
            raise ValueError("the history template's doc_char_budget differs from the config's")

    # ------------------------------------------------------------------ plumbing

    def _samples(self, build: _Build, role: PolicyRole, prompt: str,
                 parse: Callable[[str], Optional[T]], layer: int, counter: str,
                 seed_parts: Sequence[Tuple], temperature: Optional[float] = None) -> List[Task]:
        """A task per sample of ``prompt`` (per ``seed_parts``), valued by the output that
        ``parse`` accepts (returns non-None) or None. The first attempts are one request;
        a malformed sample is re-asked alone up to ``malformed_retries`` times. Seeds end
        in the attempt."""
        cfg = self.config
        temperature = cfg.sampling_temperature if temperature is None else temperature

        def request(attempt: int, *parts: Tuple) -> PolicyRequest:
            seeds = [derive_seed(cfg.seed, build.question.id, *each, attempt) for each in parts]
            return PolicyRequest(role=role, prompt=prompt, temperature=temperature,
                                 max_tokens=cfg.max_tokens, seeds=seeds)

        def sample(index: int, parts: Tuple) -> Steps[Optional[T]]:
            yield from gather([first])
            text = first.value.texts[index]
            for attempt in range(1, cfg.malformed_retries + 2):
                build.bump(layer, counter)
                if (parsed := parse(text)) is not None or attempt > cfg.malformed_retries:
                    return parsed
                text = (yield request(attempt, parts)).text

        first = build.spawn(_ask(request(0, *seed_parts)))
        return [build.spawn(sample(index, parts)) for index, parts in enumerate(seed_parts)]

    def _score(self, build: _Build, answer: Optional[str]) -> float:
        if answer is None:
            return 0.0
        return score_answer(self.config.score_metric, answer, build.question.gold_answers)

    # ------------------------------------------------------------------ rollouts

    def _rollout_horizon(self, effective_depth: int) -> int:
        if self.config.rollout_cap == "fixed":
            return self.config.t_max
        return max(1, self.config.t_max - effective_depth + 1)

    def run_rollout(self, prompt: str, depth: int, layer: int, seed: int, build: _Build,
                    first: Optional[str] = None) -> Steps[RolloutResult]:
        """Simulate one episode of ``prompt`` at ``seed``, from a state ``depth`` steps deep,
        and score its final answer; ``first``, given, is its first step's completion.
        Malformed or capped output scores 0; a backend error propagates, as from a vote."""
        horizon = self._rollout_horizon(depth)
        transcript = yield from run_agent(
            build.question,
            prompt,
            history_template=self.history_template,
            max_steps=horizon,
            max_searches=max(0, horizon - 1),
            top_k=self.config.top_k,
            temperature=self.config.sampling_temperature,
            max_tokens=self.config.max_tokens,
            seed=seed,
            first=first,
        )
        if transcript.error is not None:
            raise transcript.error
        build.bump(layer, "rollout_calls", transcript.steps_taken)
        build.bump(layer, "retrieval_calls", transcript.searches_used)
        return RolloutResult(
            final_answer=transcript.final_answer,
            score=self._score(build, transcript.final_answer),
            steps_taken=transcript.steps_taken,
        )

    @staticmethod
    def mean_reward(scores: Sequence[float]) -> float:
        """Branch reward: arithmetic mean of rollout correctness scores, 0 for none."""
        return _reward_bounds(scores, 0)[0]

    # ------------------------------------------------------------------ candidates

    def _candidates(self, build: _Build, role: PolicyRole, question: str, layer: int, kind: str,
                    state: Optional[State] = None, sub_question: Optional[str] = None) -> _Candidates:
        """Start sampling ``k`` candidates for ``question`` from the role's template,
        retrying malformed output; duplicates are dropped as they are read, and a
        sub-query carries its documents. Given a ``state``, each candidate is
        scored by ``n`` rollouts from ``state`` plus the candidate: a pending
        sub-question, or a step that resolves ``sub_question``. The samples are one
        request, and each new candidate's retrieval and rollouts start as it is read: its
        episode prompt and seeds are made once, and its rollouts' first steps are one request.
        """
        cfg = self.config
        prompt = self.templates.render(role, question=question)
        samples = self._samples(build, role, prompt, _CANDIDATE_PARSERS[role], layer, "policy_calls",
                                [("cand", kind, layer, index) for index in range(cfg.k)])

        def begin(content: str, index: int) -> Steps[Tuple[Candidate, List[Task]]]:
            """The candidate, with its documents, and its rollouts started."""
            if role is PolicyRole.SUB_QUERY:
                documents = yield RetrievalRequest(query=content, top_k=cfg.top_k)
                build.bump(layer, "retrieval_calls")
                candidate = Candidate("sub_query", content, documents=tuple(documents))
            else:
                candidate = Candidate(role.value, content)
            if state is None:
                return candidate, []
            if role is PolicyRole.SUB_QUESTION:
                base, pending = state, content
            else:
                base, pending = state.with_step(self._step_for(candidate, sub_question)), None
            episode = episode_prompt(base, self.templates, self.history_template, pending)
            depth = base.depth + (pending is not None)
            seeds = [derive_seed(cfg.seed, build.question.id, "rollout", layer, kind, index, r)
                     for r in range(cfg.n)]
            first = build.spawn(_ask(step_request(episode, cfg.sampling_temperature, cfg.max_tokens,
                                                  *seeds)))

            def rollout(r: int) -> Steps[RolloutResult]:
                yield from gather([first])
                return (yield from self.run_rollout(episode, depth, layer, seeds[r], build,
                                                    first.value.texts[r]))

            return candidate, [build.spawn(rollout(r)) for r in range(cfg.n)]

        return _Candidates(build, samples, begin)

    def _termination_prompt(self, state: State) -> str:
        """The prompt of a layer's termination votes and of its chain's terminal answer."""
        history = render_history(state, template=self.history_template)
        return self.templates.render(PolicyRole.TERMINATION, question=state.question.text,
                                     iter_history=history)

    def _finalize_answer(self, build: _Build, state: State, layer: int) -> Steps[Optional[str]]:
        """Generate the terminal answer for a chain (vote-terminated or at the cap)."""
        (answer,) = self._samples(build, PolicyRole.TERMINATION, self._termination_prompt(state),
                                  lambda raw: parse_termination(raw).answer, layer, "finalize_calls",
                                  [("finalize", layer)], self.config.answer_temperature)
        yield from gather([answer])
        return answer.value

    # ------------------------------------------------------------------ decision expansion

    def expand_termination(self, state: State, layer: int, build: _Build) -> Steps[TreeNode]:
        """The layer's node: vote on stopping, then on continue retain the best
        sub-question by rollout reward; on stop, record the terminal answer.

        Each step starts once the results read decide the step before. The node
        returned holds the decision alone (its terminal answer, or its retained
        sub-question), and no votes; one task of ``build`` then fills the votes
        and the scored sub-question candidates once they are all in.
        """
        build.bump(layer, "nodes_expanded")
        cfg = self.config
        prompt = self._termination_prompt(state)
        votes = self._samples(build, PolicyRole.TERMINATION, prompt, _vote_kind, layer,
                              "policy_calls", [("vote", layer, v) for v in range(cfg.majority_samples)])
        node = TreeNode(layer, state, TerminationVotes())
        while True:
            kinds = [vote.value for vote in votes if vote.done]
            terminate = _vote_outcome(kinds.count("terminate"), kinds.count("continue"),
                                      len(votes) - len(kinds))
            if terminate is not None:
                break
            yield [vote for vote in votes if not vote.done]
        if terminate:
            node.terminal_answer = yield from self._finalize_answer(build, state, layer)
            if node.terminal_answer is None:
                raise NodeExpansionFailed(
                    build.question.id, layer, "terminate vote won but no answer was produced"
                )
        sets = []  # the sub-question set; a terminated layer scores one only as a probe
        if not terminate or cfg.score_terminate_branch:
            sets.append(self._candidates(
                build, PolicyRole.SUB_QUESTION, build.question.text, layer, "sub_question", state
            ))
        if not terminate:
            best = yield from sets[0].best(lambda: NodeExpansionFailed(
                build.question.id, layer, "every sub-question candidate was malformed"
            ))
            node.sub_question_candidates = (replace(best, retained=True),)

        def fill() -> Steps[None]:
            yield from gather(votes)
            kinds = [vote.value for vote in votes]
            node.votes = TerminationVotes(kinds.count("terminate"), kinds.count("continue"))
            for scored in (yield from _Candidates.finish(*sets)):
                retained = None if terminate else best_candidate(scored)
                node.sub_question_candidates = _retaining(scored, retained)

        build.spawn(fill())
        if not terminate and cfg.score_terminate_branch:
            answer = yield from self._finalize_answer(build, state, layer)
            if answer is not None:
                node.terminate_probe = (answer, self._score(build, answer))
        return node

    def expand_retrieval(self, node: TreeNode, force_both: bool, build: _Build) -> Steps[None]:
        """Resolve the node's retained sub-question in place: self-knowledge first,
        retrieval unless skipped.

        The skip gate compares the best self-answer reward with ``tau``; when
        the gate fails the sub-query branch is taken. Each step starts once the
        results read decide it; the node holds the taken branch's retained
        candidate alone until one task of ``build`` fills in the rest.
        ``force_both`` (the no-pruning strategy) expands both branches at once
        and, with all their results, takes the better, the cheaper self-answer
        branch on ties.
        """
        state, layer = node.state, node.layer
        sub_question = node.retained("sub_question").content

        def candidates(role: PolicyRole) -> _Candidates:
            return self._candidates(build, role, sub_question, layer, role.value, state, sub_question)

        def fail(reason: str) -> NodeExpansionFailed:
            return NodeExpansionFailed(build.question.id, layer, reason)

        answers = candidates(PolicyRole.SELF_ANSWER)
        if force_both:
            queries = candidates(PolicyRole.SUB_QUERY)
            scored = yield from _Candidates.finish(answers, queries)
            node.self_answer_candidates, node.sub_query_candidates = scored
            best_sa, best_sq = best_candidate(scored[0]), best_candidate(scored[1])
            if best_sq is None and best_sa is None:
                raise fail("both resolution branches produced no candidates")
            # no_pruning keeps both branches; the trunk follows the better one (self-answer on ties).
            self_answer_wins = best_sa is not None and (
                best_sq is None or best_sa.reward >= best_sq.reward
            )
            node.resolve_by("self_answer" if self_answer_wins else "sub_query")
            return

        if (yield from answers.settle(lambda bounds: _skips_retrieval(bounds, self.config.tau))):
            kind, taken, sets = "self_answer", answers, (answers,)
        else:
            queries = candidates(PolicyRole.SUB_QUERY)
            kind, taken, sets = "sub_query", queries, (answers, queries)
        best = yield from taken.best(lambda: fail(  # only a sub-query set can be empty here
            "every sub-query candidate was malformed" if answers.started
            else "both resolution branches produced no candidates"
        ))
        node.chosen_kind = kind
        setattr(node, f"{kind}_candidates", (replace(best, retained=True),))

        def fill() -> Steps[None]:
            scored = yield from _Candidates.finish(*sets)
            node.self_answer_candidates = scored[0]
            node.sub_query_candidates = scored[1] if len(scored) > 1 else ()
            node.resolve_by(kind)

        build.spawn(fill())

    # ------------------------------------------------------------------ chain building

    @staticmethod
    def _step_for(candidate: Candidate, sub_question: str) -> Step:
        if candidate.kind == "self_answer":
            return Step(sub_question, SelfAnswer(candidate.content))
        return Step(sub_question, Retrieved(candidate.content, candidate.documents))

    def _finish_chain(
        self, build: _Build, chain: ChainRecord, state: State, terminated_by: str,
        answer: Optional[str],
    ) -> None:
        chain.terminated_by = terminated_by
        chain.final_answer = answer
        chain.final_score = self._score(build, answer)
        chain.final_state = state if answer is None else state.with_answer(answer)

    def _build_chains(self, build: _Build) -> Steps[List[ChainRecord]]:
        """Grow the trunk, plus for no_pruning one deviation chain per round.

        Pruning is one round to ``t_max`` that keeps only the best branch, so
        it never forks. no_pruning is memoryless iterative deepening that keeps
        both resolution branches alive: at round ``i`` every live chain
        (``terminated_by is None``) is rebuilt from the root to depth ``i`` (no
        cached prefixes), so the round performs ``i`` full layer expansions per
        chain over ``i`` live chains. The trunk spawns one deviation chain per
        round: the resolution branch it did not take at the new layer. A
        deviation takes that branch at its fork layer on every rebuild, then
        extends greedily and does not fork further.
        """
        cfg = self.config
        pruning = cfg.strategy == "pruning"
        chains = [ChainRecord(chain_id=0, fork_layer=0, fork_kind=None, nodes=[])]
        for rnd in [cfg.t_max] if pruning else range(1, cfg.t_max + 1):
            live = [chain for chain in chains if chain.terminated_by is None]
            if not live:
                break
            for chain in live:
                chain.nodes = []
                state = State(build.question)
                for layer in range(1, rnd + 1):
                    node = yield from self.expand_termination(state, layer, build)
                    chain.nodes.append(node)
                    if node.terminal_answer is not None:
                        self._finish_chain(build, chain, state, "vote", node.terminal_answer)
                        break
                    yield from self.expand_retrieval(node, not pruning, build)
                    sub_question = node.retained("sub_question").content
                    alt_kind = "sub_query" if node.chosen_kind == "self_answer" else "self_answer"
                    has_alt = not pruning and node.candidates_of(alt_kind)
                    if has_alt and layer == chain.fork_layer:
                        node.resolve_by(alt_kind)
                    elif has_alt and chain.chain_id == 0 and layer == rnd:
                        alt = best_candidate(node.candidates_of(alt_kind))
                        chains.append(ChainRecord(
                            chain_id=len(chains), fork_layer=layer, fork_kind=alt_kind, nodes=[],
                            final_state=state.with_step(self._step_for(alt, sub_question)),
                        ))
                    taken = node.retained(node.chosen_kind)
                    state = state.with_step(self._step_for(taken, sub_question))
                if chain.terminated_by is None:
                    chain.final_state = state

        for chain in chains:
            if chain.terminated_by is None:
                answer = yield from self._finalize_answer(build, chain.final_state, cfg.t_max)
                if answer is None and pruning:
                    raise NodeExpansionFailed(
                        build.question.id, cfg.t_max, "no terminal answer at the iteration cap"
                    )
                self._finish_chain(build, chain, chain.final_state, "cap", answer)
        return chains

    def _build_full_node(self, build: _Build) -> Steps[None]:
        """Make and count every call of full expansion and the leaf-layer nodes; keep no node.

        Each state expands k sampled sub-questions plus the direct-resolution
        branch (the original question posed as its own next step), and every
        branch resolves by all k self-answers and all k sub-queries, giving
        2k(k+1) children per state.
        """
        question = build.question

        def expand(state: State) -> Steps[None]:
            if state.depth >= self.config.t_max:
                build.ledger.leaf_nodes += 1
                return
            layer = state.depth + 1
            build.bump(layer, "nodes_expanded")
            (sampled,) = yield from _Candidates.finish(self._candidates(
                build, PolicyRole.SUB_QUESTION, question.text, layer, "sub_question"
            ))
            texts = [(question.text, "direct")] + [(c.content, "sampled") for c in sampled]
            for text, origin in texts:
                tag = f"{origin}:{text[:40]}"
                answers, queries = yield from _Candidates.finish(
                    self._candidates(build, PolicyRole.SELF_ANSWER, text, layer, f"self_answer:{tag}"),
                    self._candidates(build, PolicyRole.SUB_QUERY, text, layer, f"sub_query:{tag}"),
                )
                for child in answers + queries:
                    yield from expand(state.with_step(self._step_for(child, text)))

        yield from expand(State(question))

    # ------------------------------------------------------------------ entry point

    def build_tree(self, question: Question, boundary: Optional[Boundary] = None):
        """Expand one question under the configured strategy.

        Without a ``boundary`` the build runs on a ``Boundary`` of its own at the
        config's ``concurrency``, closed however it ends, and its ``BuildResult``
        is returned. Given the ``boundary`` of a run, the build is returned as a
        generator for that boundary's ``run``, whose value is the ``BuildResult``.
        Raises :class:`NodeExpansionFailed` when a layer cannot produce any
        usable candidate, and a backend error (a rollout's too): of these, the one a
        serial build meets first. Batch drivers record either.
        """
        if boundary is None:
            with Boundary(self.config.concurrency) as own:
                return own.run([self._build(question, own)])[0]
        return self._build(question, boundary)

    def _build(self, question: Question, boundary: Boundary) -> Steps[BuildResult]:
        build = _Build(question, self.policy, self.retriever, boundary)
        result = BuildResult(question, self.config, ledger=build.ledger)
        if self.config.strategy == "full_node":
            yield from build.run(self._build_full_node(build))
        else:
            result.chains = yield from build.run(self._build_chains(build))
        for fork in result.chains[1:]:
            if not fork.nodes:  # no later round rebuilt it: the trunk's nodes, now filled
                fork.nodes = [replace(node) for node in result.trunk.nodes[:fork.fork_layer]]
                fork.nodes[-1].resolve_by(fork.fork_kind)
        return result

"""Search-tree expansion, process-reward scoring, and training-data export
for retrieval-augmented QA agents."""

from .agent import AgentEvent, AgentTranscript, EvaluationReport, evaluate_dataset, run_agent
from .engine import (
    BuildResult,
    Candidate,
    ChainRecord,
    ExpansionConfig,
    ExpansionLedger,
    RolloutResult,
    TreeBuilder,
    TreeNode,
    theoretical_counts,
)
from .errors import (
    BackendUnavailable,
    ConfigurationError,
    DatasetError,
    ExportError,
    NodeExpansionFailed,
    RagTreeError,
)
from .export import DpoPair, SftExample, export_dpo, export_sft, extract_chain
from .history import HistoryTemplate, render_history, serialize_state
from .metrics import exact_match, f1_score, normalize_answer, score_answer
from .policy import (
    HttpPolicyBackend,
    PolicyRequest,
    PolicyResponse,
    RoutedPolicyBackend,
    ScriptedPolicyBackend,
)
from .retrieval import HttpRetrieverBackend, LexicalRetriever, RetrievalRequest
from .snapshot import load_snapshot, save_snapshot
from .templates import PolicyRole, PromptTemplateSet, load_templates
from .types import Document, Question, Resolution, Retrieved, SelfAnswer, State, Step

__version__ = "0.1.0"

__all__ = [
    "AgentEvent",
    "AgentTranscript",
    "BackendUnavailable",
    "BuildResult",
    "Candidate",
    "ChainRecord",
    "ConfigurationError",
    "DatasetError",
    "Document",
    "DpoPair",
    "EvaluationReport",
    "ExpansionConfig",
    "ExpansionLedger",
    "ExportError",
    "HistoryTemplate",
    "HttpPolicyBackend",
    "HttpRetrieverBackend",
    "LexicalRetriever",
    "NodeExpansionFailed",
    "PolicyRequest",
    "PolicyResponse",
    "PolicyRole",
    "PromptTemplateSet",
    "Question",
    "RagTreeError",
    "Resolution",
    "RetrievalRequest",
    "Retrieved",
    "RolloutResult",
    "RoutedPolicyBackend",
    "ScriptedPolicyBackend",
    "SelfAnswer",
    "SftExample",
    "State",
    "Step",
    "TreeBuilder",
    "TreeNode",
    "evaluate_dataset",
    "exact_match",
    "export_dpo",
    "export_sft",
    "extract_chain",
    "f1_score",
    "load_snapshot",
    "load_templates",
    "normalize_answer",
    "run_agent",
    "save_snapshot",
    "score_answer",
    "serialize_state",
    "render_history",
    "theoretical_counts",
]

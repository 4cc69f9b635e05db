"""Walk one question through the full pipeline with offline scripted backends.

Run: python demos/expand_and_export.py
"""

from ragtree.engine import ExpansionConfig, TreeBuilder
from ragtree.export import export_dpo, export_sft
from ragtree.scripted import make_bench_policy, make_bench_retriever
from ragtree.snapshot import build_result_to_dict, snapshot_from_dict
from ragtree.types import Question, Retrieved

question = Question(
    id="demo-1",
    text="which letter of the greek alphabet follows alpha?",
    gold_answers=("beta",),
)

# The scripted policy answers deterministically; rollouts search once and then
# answer, and self-knowledge branches score 0 so retrieval is never skipped.
config = ExpansionConfig(k=3, n=2, t_max=2, majority_samples=3, rollout_cap="fixed")
policy = make_bench_policy({question.text: "beta"}, rollout_searches=1)
retriever = make_bench_retriever()

builder = TreeBuilder(policy, retriever, config)
result = builder.build_tree(question)

ledger = result.ledger
print("== expansion ==")
print(f"policy calls (votes + candidate generations): {ledger.policy_calls}")
print(f"rollout completions:                          {ledger.rollout_calls}")
print(f"retrieval calls:                              {ledger.retrieval_calls}")
print(f"layers expanded:                              {ledger.nodes_expanded}")

trunk = result.trunk
print("\n== retained chain ==")
for index, step in enumerate(trunk.final_state.steps, start=1):
    if isinstance(step.resolution, Retrieved):
        how = f"retrieved via {step.resolution.sub_query!r} ({len(step.resolution.documents)} docs)"
    else:
        how = f"self-answered: {step.resolution.answer!r}"
    print(f"step {index}: {step.sub_question!r} -> {how}")
print(f"final answer: {trunk.final_answer!r} (score {trunk.final_score:.2f})")

# The exporters read a BuildResult, live or decoded from its snapshot, with the
# same output. Going through the snapshot form is what re-exporting a batch
# later does, without re-expansion.
snapshot = snapshot_from_dict(build_result_to_dict(result))

print("\n== SFT segments ==")
for example in export_sft(snapshot):
    print(f"segment {example.segment_index}: input {len(example.input)} chars, "
          f"output {len(example.output)} chars")

print("\n== DPO pairs ==")
for pair in export_dpo(snapshot, margin=0.1):
    print(f"layer {pair.layer} {pair.pair_type}: "
          f"{pair.chosen!r} ({pair.chosen_reward:.2f}) over "
          f"{pair.rejected!r} ({pair.rejected_reward:.2f})")

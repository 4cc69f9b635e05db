"""Compare the three expansion strategies' measured work with the closed forms.

Run: python demos/strategy_costs.py
"""

from ragtree.engine import ExpansionConfig, theoretical_counts
from ragtree.scripted import strategy_costs
from ragtree.types import Question

question = Question(id="cost-demo", text="what follows alpha?", gold_answers=("beta",))

print(f"{'strategy':12s} {'depth':>5s} {'measured':>9s} {'theoretical':>11s} {'seconds':>8s}")
# Pruning and no_pruning build to depth 4, full_node to depth 2.
for cost in strategy_costs([question], ExpansionConfig(k=3, n=4, t_max=4), full_node_t_max=2):
    print(
        f"{cost.strategy:12s} {cost.depth:5d} {cost.measured:9d} {cost.theoretical:11d} "
        f"{cost.seconds:8.2f}"
    )

pruning = theoretical_counts(ExpansionConfig(k=3, n=4), 4, "pruning")
no_pruning = theoretical_counts(ExpansionConfig(k=3, n=4), 4, "no_pruning")
print(f"\nno-pruning / pruning call ratio at depth 4: {no_pruning / pruning}")

"""Seeded question generator.

Every batch of questions is a pure function of (workload seed, batch index):
ids, question texts of varying length, and gold answers. A batch is written
as dataset JSONL and handed to the program through ``load_dataset``, so the
program receives only generated inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List

# Syllables build a vocabulary of lowercase words that contain no article,
# punctuation or template marker, so gold answers survive answer
# normalization unchanged and prompts parse the same way for every question.
_SYLLABLES = ("ka", "lo", "mi", "ru", "sen", "ta", "vo", "zi", "pel", "dor", "fin", "gu")
_VOCABULARY = sorted({a + b + c for a in _SYLLABLES for b in _SYLLABLES for c in _SYLLABLES[:6]})
_OPENERS = ("which", "what", "who", "where", "when")

MIN_WORDS = 4
MAX_WORDS = 40


def make_batch(seed: int, batch: int, size: int, prefix: str) -> List[dict]:
    """``size`` dataset records; question texts are distinct within the batch."""
    rng = random.Random(f"{prefix}:{seed}:{batch}")
    records = []
    texts = set()
    while len(records) < size:
        words = rng.choices(_VOCABULARY, k=rng.randint(MIN_WORDS, MAX_WORDS))
        text = f"{rng.choice(_OPENERS)} {' '.join(words)}?"
        if text in texts:
            continue
        texts.add(text)
        answer = " ".join(rng.choices(_VOCABULARY, k=rng.randint(1, 3)))
        records.append(
            {
                "id": f"{prefix}-s{seed}-b{batch:03d}-q{len(records):04d}",
                "question": text,
                "golden_answers": [answer],
            }
        )
    return records


def write_dataset(records: List[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")

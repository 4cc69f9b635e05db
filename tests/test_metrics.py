"""Metric tests: worked examples, an independent brute-force oracle, and properties."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from ragtree.metrics import exact_match, f1_score, normalize_answer, score_answer


class TestNormalize:
    def test_four_rules_applied(self):
        assert normalize_answer("The United States!") == "united states"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_fixed_point(self):
        assert normalize_answer("beijing") == "beijing"

    def test_article_inside_word_untouched(self):
        assert normalize_answer("theater") == "theater"

    def test_whitespace_collapsed(self):
        assert normalize_answer("a  b\t c \n d") == "b c d"


class TestExactMatch:
    def test_identity(self):
        assert exact_match("yes", ["yes"]) == 1.0

    def test_normalized_match(self):
        assert exact_match("Yes.", ["yes"]) == 1.0

    def test_disjoint(self):
        assert exact_match("no", ["yes"]) == 0.0

    def test_multi_gold_max(self):
        assert exact_match("paris", ["london", "Paris"]) == 1.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            exact_match("x", [])


class TestF1:
    def test_identical(self):
        assert f1_score("united states of america", ["united states of america"]) == 1.0

    def test_partial_overlap(self):
        # overlap 2, |pred| 2, |gold| 4: 2 * (1.0 * 0.5) / 1.5
        assert f1_score("united states", ["united states of america"]) == pytest.approx(
            2 * (1.0 * 0.5) / 1.5, abs=1e-6
        )
        assert f1_score("united states", ["united states of america"]) == pytest.approx(
            0.6667, abs=1e-3
        )

    def test_zero_overlap(self):
        assert f1_score("paris", ["london"]) == 0.0

    def test_both_sides_normalize_empty(self):
        assert f1_score("the", ["a"]) == 1.0

    def test_one_side_empty(self):
        assert f1_score("", ["london"]) == 0.0
        assert f1_score("london", ["the"]) == 0.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            f1_score("x", [])

    def test_score_answer_dispatch(self):
        assert score_answer("em", "Yes.", ["yes"]) == 1.0
        assert score_answer("f1", "paris", ["london"]) == 0.0
        with pytest.raises(ValueError):
            score_answer("bleu", "x", ["x"])


# ----------------------------------------------------------- brute-force oracle


def oracle_f1(prediction: str, gold: str) -> float:
    """Token-overlap F1 computed by pairwise matching with removal.

    Deliberately avoids Counter intersection so it is an independent check of
    the implementation's multiset arithmetic.
    """
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    pool = list(gold_tokens)
    overlap = 0
    for token in pred_tokens:
        if token in pool:
            pool.remove(token)
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def _random_text(rng: random.Random) -> str:
    vocab = ["the", "a", "an", "red", "fox", "Fox!", "jumps", "42", "over,", "dog", ""]
    extra = "".join(rng.choice(string.ascii_letters + string.punctuation + "  ") for _ in range(rng.randrange(8)))
    words = [rng.choice(vocab) for _ in range(rng.randrange(6))]
    return " ".join(words + [extra])


def test_f1_agrees_with_oracle_on_randomized_cases():
    rng = random.Random(20240817)
    for _ in range(1200):
        prediction = _random_text(rng)
        gold = _random_text(rng)
        assert f1_score(prediction, [gold]) == pytest.approx(
            oracle_f1(prediction, gold), abs=1e-12
        )


def test_em_agrees_with_string_equality_oracle_on_randomized_cases():
    rng = random.Random(907)
    for _ in range(1000):
        prediction = _random_text(rng)
        gold = _random_text(rng)
        expected = 1.0 if normalize_answer(prediction) == normalize_answer(gold) else 0.0
        assert exact_match(prediction, [gold]) == expected


# ------------------------------------------------------------------- properties

text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)


@settings(max_examples=examples(300))
@given(text_strategy)
def test_normalize_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@settings(max_examples=examples(300))
@given(text_strategy, st.lists(text_strategy, min_size=1, max_size=4))
def test_metric_ranges_and_implication(prediction, golds):
    em = exact_match(prediction, golds)
    f1 = f1_score(prediction, golds)
    assert em in (0.0, 1.0)
    assert 0.0 <= f1 <= 1.0
    if em == 1.0:
        assert f1 == 1.0


@settings(max_examples=examples(300))
@given(text_strategy, text_strategy)
def test_f1_symmetric_for_single_gold(a, b):
    assert f1_score(a, [b]) == pytest.approx(f1_score(b, [a]), abs=1e-12)

"""ROUGE-1/2/L overlap metrics and the weighted reward combination.

All functions operate on plain token lists (already lowercased and
split); multi-sentence summaries are flattened by the caller. No
stemming, no stopword removal, no length cutoff.

ROUGE-L's LCS length is the bit-parallel algorithm of Allison & Dix (1986)
and Hyyrö (2004): the exact integer the standard O(|a|*|b|) dynamic
programme gives, so every score, oracle label and reward is unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .config import RewardWeights


@dataclass(frozen=True)
class RougeScore:
    """Recall / precision / F1 triple for one ROUGE variant."""

    recall: float
    precision: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "RougeScore":
        denom = precision + recall
        f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
        return cls(recall=recall, precision=precision, f1=f1)


DEFAULT_WEIGHTS = RewardWeights()


def ngram_counts(tokens: list[str], n: int) -> Counter:
    """Multiset of contiguous n-grams; empty when len(tokens) < n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: list[str], reference: list[str], n: int) -> RougeScore:
    """Clipped n-gram overlap: recall over reference counts, precision over candidate."""
    cand = ngram_counts(candidate, n)
    ref = ngram_counts(reference, n)
    match = sum(min(count, ref[gram]) for gram, count in cand.items())
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    recall = match / ref_total if ref_total > 0 else 0.0
    precision = match / cand_total if cand_total > 0 else 0.0
    return RougeScore.from_pr(precision, recall)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence, bit-parallel (see the module docstring).

    Bit j of `v` stands for column j of one DP row and is cleared where that
    row steps up by one, so after all of `a` the LCS length is the number of
    cleared bits. Each token of `a` costs a few operations on one len(b)-bit
    int instead of len(b) cell updates.
    """
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m is not None:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: list[str], reference: list[str]) -> RougeScore:
    """LCS-based score: recall = LCS/len(reference), precision = LCS/len(candidate)."""
    lcs = lcs_length(candidate, reference)
    recall = lcs / len(reference) if reference else 0.0
    precision = lcs / len(candidate) if candidate else 0.0
    return RougeScore.from_pr(precision, recall)


def combined_rouge(
    candidate: list[str],
    reference: list[str],
    weights: RewardWeights = DEFAULT_WEIGHTS,
) -> float:
    """Weighted sum of the three variants' F1 scores, the training reward."""
    return (
        weights.w1 * rouge_n(candidate, reference, 1).f1
        + weights.w2 * rouge_n(candidate, reference, 2).f1
        + weights.wl * rouge_l(candidate, reference).f1
    )

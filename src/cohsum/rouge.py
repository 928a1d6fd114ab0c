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
        return cls(recall=recall, precision=precision, f1=f1_score(precision, recall))

    @classmethod
    def from_counts(cls, match: int, cand_total: int, ref_total: int) -> "RougeScore":
        """Score of `match` overlapping units out of the candidate's and the reference's totals."""
        return cls.from_pr(*overlap_pr(match, cand_total, ref_total))


def overlap_pr(match: int, cand_total: int, ref_total: int) -> tuple[float, float]:
    """(precision, recall) of `match` overlapping units; 0.0 over an empty total."""
    recall = match / ref_total if ref_total > 0 else 0.0
    precision = match / cand_total if cand_total > 0 else 0.0
    return precision, recall


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0.0 when both are 0."""
    denom = precision + recall
    return 2.0 * precision * recall / denom if denom > 0 else 0.0


DEFAULT_WEIGHTS = RewardWeights()


def ngram_counts(tokens: list[str], n: int) -> Counter:
    """Multiset of contiguous n-grams; empty when len(tokens) < n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(zip(*(tokens[k:] for k in range(n))))


def rouge_n(candidate: list[str], reference: list[str], n: int) -> RougeScore:
    """Clipped n-gram overlap: recall over reference counts, precision over candidate."""
    cand = ngram_counts(candidate, n)
    ref = ngram_counts(reference, n)
    match = sum(min(count, ref[gram]) for gram, count in cand.items())
    return RougeScore.from_counts(match, sum(cand.values()), sum(ref.values()))


def lcs_masks(reference: list[str]) -> dict[str, int]:
    """Each token of `reference` with a mask of the positions it holds there (bit j: position j)."""
    masks: dict[str, int] = {}
    for j, y in enumerate(reference):
        masks[y] = masks.get(y, 0) | (1 << j)
    return masks


def matched_masks(tokens: list[str], masks: dict[str, int]) -> list[int]:
    """The `lcs_masks` entry of each token that the reference holds, in order.

    A token the reference lacks leaves the LCS state as it is, so
    `lcs_step` reads only these.
    """
    return [masks[x] for x in tokens if x in masks]


def lcs_step(v: int, row_masks: list[int], full: int) -> int:
    """The LCS state `v` after the tokens whose `matched_masks` are `row_masks`.

    Bit j of `v` stands for column j of one DP row and is cleared where that
    row steps up by one; `full` has one bit per reference token, and is the
    state before any token. After a whole candidate the LCS length is the
    number of cleared bits. Each token costs a few operations on one
    len(reference)-bit int instead of len(reference) cell updates.
    """
    for m in row_masks:
        u = v & m
        v = ((v + u) | (v - u)) & full
    return v


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence, bit-parallel (see the module docstring)."""
    if not a or not b:
        return 0
    full = (1 << len(b)) - 1
    return len(b) - lcs_step(full, matched_masks(a, lcs_masks(b)), full).bit_count()


def rouge_l(candidate: list[str], reference: list[str]) -> RougeScore:
    """LCS-based score: recall = LCS/len(reference), precision = LCS/len(candidate)."""
    return RougeScore.from_counts(lcs_length(candidate, reference), len(candidate), len(reference))


def weighted_f1(weights: RewardWeights, rouge1: float, rouge2: float, rouge_lcs: float) -> float:
    """The reward's weighted sum of ROUGE-1, ROUGE-2 and ROUGE-L F1 scores."""
    return weights.w1 * rouge1 + weights.w2 * rouge2 + weights.wl * rouge_lcs


def combined_rouge(
    candidate: list[str],
    reference: list[str],
    weights: RewardWeights = DEFAULT_WEIGHTS,
) -> float:
    """Weighted sum of the three variants' F1 scores, the training reward."""
    return weighted_f1(weights, rouge_n(candidate, reference, 1).f1,
                       rouge_n(candidate, reference, 2).f1, rouge_l(candidate, reference).f1)

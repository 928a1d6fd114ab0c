"""ROUGE metrics against hand counts, brute-force oracles, and properties."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsum.rouge import (
    RewardWeights,
    combined_rouge,
    lcs_length,
    lcs_masks,
    lcs_step,
    matched_masks,
    ngram_counts,
    rouge_l,
    rouge_n,
)
from reference_rouge import lcs_length as lcs_by_dp

# -- independent oracles -------------------------------------------------------


def clipped_match_oracle(candidate, reference, n):
    """Count matches by consuming reference n-grams one at a time."""
    remaining = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
    matches = 0
    for i in range(len(candidate) - n + 1):
        gram = tuple(candidate[i : i + n])
        if gram in remaining:
            remaining.remove(gram)
            matches += 1
    return matches


def lcs_by_enumeration(a, b):
    """Longest common subsequence via exhaustive subsequence enumeration."""
    short, other = (a, b) if len(a) <= len(b) else (b, a)

    def is_subsequence(seq, full):
        it = iter(full)
        return all(tok in it for tok in seq)

    best = 0
    for size in range(len(short), 0, -1):
        for positions in combinations(range(len(short)), size):
            if is_subsequence([short[i] for i in positions], other):
                return size
    return best


tokens_strategy = st.lists(st.sampled_from("a b c d e".split()), max_size=30)


# -- ngram_counts ---------------------------------------------------------------


def test_ngram_counts_unigrams():
    assert ngram_counts(["a", "b", "a"], 1) == Counter({("a",): 2, ("b",): 1})


def test_ngram_counts_bigrams():
    assert ngram_counts(["a", "b", "a"], 2) == Counter({("a", "b"): 1, ("b", "a"): 1})


def test_ngram_counts_too_short():
    assert ngram_counts(["a"], 2) == Counter()


def test_ngram_counts_rejects_bad_n():
    with pytest.raises(ValueError):
        ngram_counts(["a"], 0)


# -- rouge_n ----------------------------------------------------------------------


def test_rouge_n_identity():
    score = rouge_n(["x", "y", "z"], ["x", "y", "z"], 2)
    assert score.recall == score.precision == score.f1 == 1.0


def test_rouge_n_hand_enumeration():
    # unigram overlap of {the, cat} within a 3-token candidate
    score = rouge_n(["the", "cat", "sat"], ["the", "cat"], 1)
    assert score.recall == 1.0
    assert score.precision == pytest.approx(2 / 3)
    assert score.f1 == pytest.approx(0.8)


def test_rouge_n_disjoint():
    score = rouge_n(["a", "b"], ["c", "d"], 1)
    assert score.recall == score.precision == score.f1 == 0.0


@given(tokens_strategy, tokens_strategy, st.integers(min_value=1, max_value=3))
@settings(max_examples=200)
def test_rouge_n_matches_oracle(cand, ref, n):
    score = rouge_n(cand, ref, n)
    matches = clipped_match_oracle(cand, ref, n)
    ref_total = max(len(ref) - n + 1, 0)
    cand_total = max(len(cand) - n + 1, 0)
    assert score.recall == pytest.approx(matches / ref_total if ref_total else 0.0, abs=1e-12)
    assert score.precision == pytest.approx(matches / cand_total if cand_total else 0.0, abs=1e-12)


@given(tokens_strategy, tokens_strategy, st.integers(min_value=1, max_value=3))
@settings(max_examples=100)
def test_rouge_duality(cand, ref, n):
    assert rouge_n(cand, ref, n).recall == pytest.approx(rouge_n(ref, cand, n).precision, abs=1e-12)
    assert rouge_l(cand, ref).recall == pytest.approx(rouge_l(ref, cand).precision, abs=1e-12)


@given(tokens_strategy, st.sampled_from("a b c d e".split()))
@settings(max_examples=100)
def test_rouge1_recall_monotone_in_matching_append(ref, extra):
    if not ref:
        return
    cand = ref[: len(ref) // 2]
    before = rouge_n(cand, ref, 1).recall
    if extra in ref:
        after = rouge_n(cand + [extra], ref, 1).recall
        assert after >= before


# -- lcs / rouge_l ----------------------------------------------------------------


def test_lcs_identical():
    assert lcs_length(["a", "b", "c"], ["a", "b", "c"]) == 3


def test_lcs_classic_case():
    a = "a b c b d a b".split()
    b = "b d c a b a".split()
    assert lcs_by_enumeration(a, b) == 4  # oracle agrees with the frozen value
    assert lcs_length(a, b) == 4


def test_lcs_empty_side():
    assert lcs_length([], ["a"]) == 0
    assert lcs_length(["a"], []) == 0


@given(st.lists(st.sampled_from("abc"), max_size=7), st.lists(st.sampled_from("abc"), max_size=7))
@settings(max_examples=150)
def test_lcs_matches_enumeration(a, b):
    assert lcs_length(a, b) == lcs_by_enumeration(a, b)


def _tokens(alphabet_size):
    """Token lists of every length from 0 to 200 over the first `alphabet_size` letters."""
    token = st.sampled_from("abcde"[:alphabet_size])
    return st.integers(0, 200).flatmap(lambda n: st.lists(token, min_size=n, max_size=n))


@given(st.integers(min_value=1, max_value=5).flatmap(lambda k: st.tuples(_tokens(k), _tokens(k))))
@settings(max_examples=200, deadline=None)
def test_lcs_matches_dp(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_by_dp(a, b)


def _word_boundary_cases():
    # reference lengths at and across the 64-bit word boundaries of the bit vector
    rng = np.random.default_rng(0)
    for n in (63, 64, 65, 128):
        b = [str(t) for t in rng.choice(list("abc"), size=n)]
        for name, a in [("a-shorter", rng.choice(list("abc"), size=n // 2)),
                        ("a-longer", rng.choice(list("abc"), size=n + 37)),
                        ("identical", b),
                        ("disjoint", rng.choice(list("xyz"), size=n))]:
            yield pytest.param([str(t) for t in a], b, id=f"b{n}-{name}")
        yield pytest.param(["a"] * (n + 5), ["a"] * n, id=f"b{n}-all-equal")


@pytest.mark.parametrize("a, b", list(_word_boundary_cases()))
def test_lcs_matches_dp_across_word_boundaries(a, b):
    assert lcs_length(a, b) == lcs_by_dp(a, b)


@given(st.lists(st.lists(st.sampled_from("abc"), max_size=8), max_size=5),
       st.lists(st.sampled_from("abc"), max_size=20))
@settings(max_examples=150)
def test_lcs_state_stepped_piece_by_piece_is_that_of_the_whole(pieces, b):
    # the greedy oracle steps a cached prefix state on over later sentences
    masks, full = lcs_masks(b), (1 << len(b)) - 1
    v = full
    for piece in pieces:
        v = lcs_step(v, matched_masks(piece, masks), full)
    whole = [token for piece in pieces for token in piece]
    assert len(b) - v.bit_count() == lcs_by_dp(whole, b) == lcs_length(whole, b)


@given(tokens_strategy, tokens_strategy)
@settings(max_examples=100)
def test_lcs_bounds_and_symmetry(a, b):
    lcs = lcs_length(a, b)
    assert 0 <= lcs <= min(len(a), len(b))
    assert lcs == lcs_length(b, a)


def test_rouge_l_identity():
    score = rouge_l(["a", "b"], ["a", "b"])
    assert (score.recall, score.precision, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_l_skips_insertion():
    score = rouge_l(["a", "x", "b"], ["a", "b"])
    assert score.recall == 1.0
    assert score.precision == pytest.approx(2 / 3)


def test_rouge_l_empty_candidate():
    score = rouge_l([], ["a", "b"])
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


# -- combined reward ---------------------------------------------------------------


def test_combined_rouge_linear_combination():
    # fabricate F1 components via hand-picked lists is brittle; check the weights directly
    weights = RewardWeights()
    assert weights.w1 * 0.5 + weights.w2 * 0.2 + weights.wl * 0.4 == pytest.approx(0.6)


def test_combined_rouge_identity_reaches_weight_sum():
    tokens = "the quick brown fox jumps".split()
    assert combined_rouge(tokens, tokens) == pytest.approx(1.9)


def test_combined_rouge_empty_candidate():
    assert combined_rouge([], ["a", "b"]) == 0.0


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        RewardWeights(w1=-0.1)


@given(tokens_strategy, tokens_strategy)
@settings(max_examples=100)
def test_combined_rouge_bounds(cand, ref):
    value = combined_rouge(cand, ref)
    assert 0.0 <= value <= 0.4 + 1.0 + 0.5 + 1e-12

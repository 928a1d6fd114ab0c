"""Beam search, lead-3 (`corpus.lead3`), and the fast policy evaluator."""

import itertools

import numpy as np
import pytest

from cohsum import decode
from cohsum.decode import beam_search
from cohsum.extractor import PolicyHead, encode_document, init_extractor_params
from cohsum.corpus import lead3, make_document
from reference_policy import (
    _FastPolicy,
    extraction_probability,
    initial_selection,
    selection_update,
)

from conftest import small_vocab, tiny_extractor_config, toy_document


@pytest.fixture
def vocab():
    return small_vocab()


@pytest.fixture
def config(vocab):
    return tiny_extractor_config(vocab.size)


@pytest.fixture
def params(config, rng):
    return init_extractor_params(config, rng)


def test_fast_policy_matches_graph_probabilities(vocab, config, params, rng):
    # the vectorized decode path must agree with the training-time forward pass
    doc = toy_document("d", rng, vocab, n_sentences=5, max_tokens=config.max_tokens)
    policy = _FastPolicy(doc, params, config)
    enc = encode_document(doc, params, config)
    g = initial_selection(config)
    decisions = [1, 0, 1, 1, 0]
    for t, y in enumerate(decisions):
        p_graph = extraction_probability(enc.contexts[t], g, enc.doc, params).item()
        logit = policy.logits(t, g.data[None, :])[0]
        p_fast = float(np.exp(-np.logaddexp(0.0, -logit)))
        assert p_fast == pytest.approx(p_graph, abs=1e-12)
        g = selection_update(g, enc.contexts[t], y, params)


def _greedy_reference(doc, params, config, cap):
    # step-by-step argmax with the graph forward pass, under the budget of min(cap, n)
    enc = encode_document(doc, params, config)
    g = initial_selection(config)
    decisions = []
    taken = 0
    n = doc.n_sentences
    k = min(cap, n)
    for t in range(n):
        p = extraction_probability(enc.contexts[t], g, enc.doc, params).item()
        must_select = taken + (n - t - 1) < k
        y = 1 if taken < k and (must_select or p > 0.5) else 0
        decisions.append(y)
        taken += y
        g = selection_update(g, enc.contexts[t], y, params)
    return decisions


def test_beam_size_one_is_greedy(vocab, config, params, rng):
    bias = params["mlp_b3"].data.copy()
    for trial in range(5):
        doc = toy_document(f"d{trial}", rng, vocab, n_sentences=6, max_tokens=config.max_tokens)
        for shift in (-3.0, 0.0):
            params["mlp_b3"].data[:] = bias + shift
            for cap in (1, 4):
                assert beam_search(doc, params, config, beam_size=1, max_selected=cap) == \
                    _greedy_reference(doc, params, config, cap)


def test_single_sentence_document(vocab, config, params):
    params["mlp_b3"].data[:] = -25.0  # policy wants to skip everything
    doc = make_document("d", ["alpha beta gamma"], ["alpha"], vocab=vocab,
                        max_tokens=config.max_tokens)
    enc = encode_document(doc, params, config)
    assert extraction_probability(enc.contexts[0], initial_selection(config), enc.doc,
                                  params).item() < 1e-6
    for cap in (1, 4):
        assert beam_search(doc, params, config, beam_size=4, max_selected=cap) == [1]


def _sequence_score(enc, params, config, decisions):
    # log-probability of a decision sequence by the graph forward pass
    g = initial_selection(config)
    total = 0.0
    for t, y in enumerate(decisions):
        p = extraction_probability(enc.contexts[t], g, enc.doc, params).item()
        total += np.log(p if y == 1 else 1.0 - p)
        g = selection_update(g, enc.contexts[t], y, params)
    return total


def test_exhaustive_beam_equals_enumeration(vocab, config, params, rng):
    # a beam of 2**n keeps every prefix, so it returns the best of all the
    # sequences that hold exactly min(cap, n) ones, for every cap up to n + 1;
    # the output bias makes the policy lean to skipping, to neither, or to selecting
    bias = params["mlp_b3"].data.copy()
    for n in range(1, 7):
        doc = toy_document(f"d{n}", rng, vocab, n_sentences=n, max_tokens=config.max_tokens)
        for shift in (-3.0, 0.0, 3.0):
            params["mlp_b3"].data[:] = bias + shift
            enc = encode_document(doc, params, config)
            for cap in range(1, n + 2):
                budgeted = [list(seq) for seq in itertools.product((0, 1), repeat=n)
                            if sum(seq) == min(cap, n)]
                best = max(budgeted, key=lambda seq: _sequence_score(enc, params, config, seq))
                assert beam_search(doc, params, config, beam_size=2**n, max_selected=cap) == best


def test_wider_beam_never_scores_worse(vocab, config, params, rng):
    for trial in range(5):
        doc = toy_document(f"d{trial}", rng, vocab, n_sentences=7, max_tokens=config.max_tokens)
        narrow = beam_search(doc, params, config, beam_size=1)
        wide = beam_search(doc, params, config, beam_size=10)
        enc = encode_document(doc, params, config)
        score = lambda seq: _sequence_score(enc, params, config, seq)
        assert sum(narrow) == sum(wide) == 4
        assert score(wide) >= score(narrow) - 1e-12


def test_tie_between_a_skip_and_a_selection_from_an_earlier_parent_prefers_the_skip(
        vocab, config, params, monkeypatch):
    # a budget of one sentence out of two: step 0 has logit 0, so [0] and [1] tie
    # and [0] ranks first; at step 1 the history drives [0]'s logit to about +760
    # and [1]'s to about -760, so [0]+select and [1]+skip, each the one way to
    # meet the budget, both add -0.0 and tie at the top. Skipping wins the tie
    # over the earlier parent, so the best sequence is [1, 0], not [0, 1].
    head = PolicyHead(fixed=np.array([[0.0], [5.0]]), increments=np.array([[-10.0], [0.0]]),
                      w2=np.eye(1), b2=np.zeros(1), w3=np.array([[1000.0]]), b3=np.zeros(1))
    monkeypatch.setattr(decode, "policy_head", lambda *args: head)
    doc = make_document("d", ["alpha beta", "gamma"], ["alpha"], vocab=vocab,
                        max_tokens=config.max_tokens)
    assert beam_search(doc, params, config, beam_size=2, max_selected=1) == [1, 0]


def test_cap_limits_selection_count(vocab, config, params, rng):
    params["mlp_b3"].data[:] = 25.0  # policy wants to select everything
    doc = toy_document("d", rng, vocab, n_sentences=8, max_tokens=config.max_tokens)
    decisions = beam_search(doc, params, config, beam_size=4, max_selected=2)
    assert sum(decisions) == 2


def test_lead3_cases(vocab, config):
    five = make_document("d", [f"sent {i} alpha" for i in range(5)], ["alpha"], vocab=vocab)
    assert lead3(five) == [0, 1, 2]
    two = make_document("d", ["one alpha", "two beta"], ["alpha"], vocab=vocab)
    assert lead3(two) == [0, 1]
    one = make_document("d", ["only alpha"], ["alpha"], vocab=vocab)
    assert lead3(one) == [0]

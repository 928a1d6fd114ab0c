"""Beam search, summary assembly, lead-3, and the fast policy evaluator."""

import numpy as np
import pytest

from cohsum import decode
from cohsum.decode import beam_search, extract_summary, lead3
from cohsum.extractor import PolicyHead, encode_document, init_extractor_params
from cohsum.corpus import make_document
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
    # step-by-step argmax with the graph forward pass, honoring the cap
    enc = encode_document(doc, params, config)
    g = initial_selection(config)
    decisions = []
    taken = 0
    for t in range(doc.n_sentences):
        p = extraction_probability(enc.contexts[t], g, enc.doc, params).item()
        y = 1 if (p > 0.5 and taken < cap) else 0
        decisions.append(y)
        taken += y
        g = selection_update(g, enc.contexts[t], y, params)
    return decisions


def test_beam_size_one_is_greedy(vocab, config, params, rng):
    for trial in range(5):
        doc = toy_document(f"d{trial}", rng, vocab, n_sentences=6, max_tokens=config.max_tokens)
        assert beam_search(doc, params, config, beam_size=1) == _greedy_reference(doc, params, config, 4)


def test_single_sentence_document(vocab, config, params):
    doc = make_document("d", ["alpha beta gamma"], ["alpha"], vocab=vocab,
                        max_tokens=config.max_tokens)
    decisions = beam_search(doc, params, config, beam_size=4)
    assert decisions in ([0], [1])
    enc = encode_document(doc, params, config)
    p = extraction_probability(enc.contexts[0], initial_selection(config), enc.doc, params).item()
    assert decisions == [1 if p > 0.5 else 0]


def test_beam_rejects_bad_size(vocab, config, params):
    doc = make_document("d", ["alpha"], ["alpha"], vocab=vocab, max_tokens=config.max_tokens)
    with pytest.raises(ValueError):
        beam_search(doc, params, config, beam_size=0)


def _sequence_score(doc, params, config, decisions, cap):
    if sum(decisions) > cap:
        return -np.inf
    enc = encode_document(doc, params, config)
    g = initial_selection(config)
    total = 0.0
    for t, y in enumerate(decisions):
        p = extraction_probability(enc.contexts[t], g, enc.doc, params).item()
        total += np.log(p if y == 1 else 1.0 - p)
        g = selection_update(g, enc.contexts[t], y, params)
    return total


def test_exhaustive_beam_equals_enumeration(vocab, config, params, rng):
    # small document; the oracle scores every sequence with the graph forward pass
    doc = toy_document("d", rng, vocab, n_sentences=5, max_tokens=config.max_tokens)
    cap = 3
    n = doc.n_sentences
    best_score, best_seq = -np.inf, None
    for mask in range(2**n):
        seq = [(mask >> t) & 1 for t in range(n)]
        score = _sequence_score(doc, params, config, seq, cap)
        if score > best_score:
            best_score, best_seq = score, seq
    decisions = beam_search(doc, params, config, beam_size=2**n, max_selected=cap)
    assert decisions == best_seq


def test_wider_beam_never_scores_worse(vocab, config, params, rng):
    for trial in range(5):
        doc = toy_document(f"d{trial}", rng, vocab, n_sentences=7, max_tokens=config.max_tokens)
        narrow = beam_search(doc, params, config, beam_size=1)
        wide = beam_search(doc, params, config, beam_size=10)
        score = lambda seq: _sequence_score(doc, params, config, seq, 4)
        assert score(wide) >= score(narrow) - 1e-12


def test_tie_between_a_skip_and_a_selection_from_an_earlier_parent_prefers_the_skip(
        vocab, config, params, monkeypatch):
    # step 0 has logit 0, so [0] and [1] tie and [0] ranks first; at step 1 the
    # history drives [0]'s logit to about +760 and [1]'s to about -760, so [0]+select and
    # [1]+skip both add -0.0 and tie at the top. Skipping wins the tie over
    # the earlier parent, so the best sequence is [1, 0], not [0, 1].
    head = PolicyHead(fixed=np.array([[0.0], [5.0]]), increments=np.array([[-10.0], [0.0]]),
                      w2=np.eye(1), b2=np.zeros(1), w3=np.array([[1000.0]]), b3=np.zeros(1))
    monkeypatch.setattr(decode, "policy_head", lambda *args: head)
    doc = make_document("d", ["alpha beta", "gamma"], ["alpha"], vocab=vocab,
                        max_tokens=config.max_tokens)
    assert beam_search(doc, params, config, beam_size=2, max_selected=2) == [1, 0]


def test_cap_limits_selection_count(vocab, config, params, rng):
    params["mlp_b3"].data[:] = 25.0  # policy wants to select everything
    doc = toy_document("d", rng, vocab, n_sentences=8, max_tokens=config.max_tokens)
    decisions = beam_search(doc, params, config, beam_size=4, max_selected=2)
    assert sum(decisions) == 2


def test_extract_summary_cases(vocab, config):
    doc = make_document("d", ["alpha one", "beta two", "gamma three", "delta four"],
                        ["alpha"], vocab=vocab, max_tokens=config.max_tokens)
    assert extract_summary(doc, [0, 0, 0, 0]) == []
    assert [s.text for s in extract_summary(doc, [1, 1, 1, 1])] == [s.text for s in doc.sentences]
    picked = extract_summary(doc, [0, 1, 0, 1])
    assert [s.text for s in picked] == ["beta two", "delta four"]


def test_extract_summary_length_mismatch(vocab, config):
    doc = make_document("d", ["alpha"], ["alpha"], vocab=vocab, max_tokens=config.max_tokens)
    with pytest.raises(ValueError, match="decisions"):
        extract_summary(doc, [1, 0])


def test_extract_summary_preserves_order(vocab, config, rng):
    doc = toy_document("d", rng, vocab, n_sentences=6, max_tokens=config.max_tokens)
    picked = extract_summary(doc, [1, 0, 1, 1, 0, 1])
    texts = [s.text for s in doc.sentences]
    assert [s.text for s in picked] == [texts[0], texts[2], texts[3], texts[5]]


def test_lead3_cases(vocab, config):
    five = make_document("d", [f"sent {i} alpha" for i in range(5)], ["alpha"], vocab=vocab)
    assert [s.text for s in lead3(five)] == [f"sent {i} alpha" for i in range(3)]
    two = make_document("d", ["one alpha", "two beta"], ["alpha"], vocab=vocab)
    assert len(lead3(two)) == 2
    one = make_document("d", ["only alpha"], ["alpha"], vocab=vocab)
    assert [s.text for s in lead3(one)] == ["only alpha"]

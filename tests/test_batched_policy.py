"""Batched extractor, replay, sampling and beam search vs the per-step reference.

The reference (tests/reference_policy.py) featurizes each sentence from
explicit token windows, runs the GRU cell by cell and evaluates the head one
step at a time. Sums are taken in another order by the batched ops, so values
agree to a relative 1e-10; decisions must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_policy as ref
from cohsum import numeric as nm
from cohsum.corpus import ExtractionLabels, make_document
from cohsum.decode import beam_search
from cohsum.extractor import (
    encode_document,
    init_extractor_params,
    policy_head,
    pretrain_loss,
    sentence_vectors,
    teacher_forced_probabilities,
)
from cohsum.reinforce import Episode, sample_episode, surrogate_objective

from conftest import assert_grads_close, small_vocab, tiny_extractor_config

REL = 1e-10
VOCAB = small_vocab()
CONFIG = tiny_extractor_config(VOCAB.size)  # kernels 3, 5, 7; max_tokens 10; max_sentences 12
WORDS = list(VOCAB.id_to_token[3:]) + ["unseen"]

# sentences of 1 to 13 tokens: shorter than every kernel, exactly max_tokens, truncated
sentence_st = st.lists(st.sampled_from(WORDS), min_size=1, max_size=CONFIG.max_tokens + 3)
document_st = st.lists(sentence_st, min_size=1, max_size=CONFIG.max_sentences + 3)
seed_st = st.integers(min_value=0, max_value=2**31)


def _document(sentences):
    texts = [" ".join(tokens) for tokens in sentences]
    return make_document("d", texts, texts[:1], vocab=VOCAB, max_tokens=CONFIG.max_tokens,
                         max_sentences=CONFIG.max_sentences)


def _params(seed, scale=0.5):
    # wider than the default init so logits spread and decisions are not near-ties
    params = init_extractor_params(CONFIG, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for _, p in params.items():
        p.data[:] = rng.uniform(-scale, scale, size=p.data.shape)
    return params


def _decisions(n, seed, kind):
    if kind == "zeros":
        return [0] * n
    if kind == "ones":
        return [1] * n
    return np.random.default_rng(seed).integers(0, 2, size=n).tolist()


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=REL, atol=1e-15)


def _assert_grads_close(actual, expected):
    assert_grads_close(actual, expected, rel_tol=REL, abs_tol=1e-14)


@given(document_st, seed_st)
@settings(max_examples=40, deadline=None)
def test_encoding_matches_reference(sentences, seed):
    doc = _document(sentences)
    params = _params(seed)
    enc, ref_enc = encode_document(doc, params, CONFIG), ref.encode_document(doc, params, CONFIG)
    assert enc.contexts.shape == (doc.n_sentences, CONFIG.context_dim)
    _assert_close(enc.contexts.data, np.stack([c.data for c in ref_enc.contexts]))
    _assert_close(enc.doc.data, ref_enc.doc.data)
    ref_vectors = [ref.word_features(s, params, CONFIG)[1].data for s in doc.sentences]
    _assert_close(sentence_vectors(doc, params, CONFIG).data, np.stack(ref_vectors))


@given(document_st, seed_st, st.sampled_from(["random", "zeros", "ones"]))
@settings(max_examples=30, deadline=None)
def test_replayed_logits_and_pretrain_loss_match_reference(sentences, seed, kind):
    doc = _document(sentences)
    params = _params(seed)
    labels = ExtractionLabels(_decisions(doc.n_sentences, seed, kind))
    enc = encode_document(doc, params, CONFIG)
    head = policy_head(enc.contexts, enc.doc, params)
    ref_logits = ref.decision_logits(ref.encode_document(doc, params, CONFIG), labels.labels,
                                     params, CONFIG)
    _assert_close(head.logits(head.histories(labels.labels)).data,
                  [z.item() for z in ref_logits])
    _assert_close(teacher_forced_probabilities(doc, labels, params, CONFIG),
                  [nm.sigmoid(z).item() for z in ref_logits])

    loss = pretrain_loss(doc, labels, params, CONFIG)
    ref_loss = ref.pretrain_loss(doc, labels, params, CONFIG)
    _assert_close(loss.item(), ref_loss.item())
    _assert_grads_close(nm.gradients(loss, params), nm.gradients(ref_loss, params))


@given(document_st, seed_st, st.sampled_from(["random", "zeros", "ones"]))
@settings(max_examples=30, deadline=None)
def test_policy_gradient_surrogate_matches_reference(sentences, seed, kind):
    doc = _document(sentences)
    params = _params(seed)
    decisions = _decisions(doc.n_sentences, seed, kind)
    returns = np.random.default_rng(seed).normal(size=doc.n_sentences).tolist()
    episode = Episode(decisions=decisions, probs=[0.5] * doc.n_sentences, returns=returns)
    surrogate = surrogate_objective(params, doc, episode, CONFIG)
    expected = ref.pg_surrogate(doc, decisions, returns, params, CONFIG)
    _assert_close(surrogate.item(), expected.item())
    _assert_grads_close(nm.gradients(surrogate, params), nm.gradients(expected, params))


@given(document_st, seed_st)
@settings(max_examples=30, deadline=None)
def test_sampled_episode_matches_reference_under_one_rng(sentences, seed):
    doc = _document(sentences)
    params = _params(seed)
    episode = sample_episode(doc, params, CONFIG, np.random.default_rng(seed))
    decisions, probs = ref.sample_episode(doc, params, CONFIG, np.random.default_rng(seed))
    assert episode.decisions == decisions
    _assert_close(episode.probs, probs)


@given(document_st, seed_st, st.sampled_from([1, 3, 10]), st.sampled_from([1, 2, 4]))
@settings(max_examples=30, deadline=None)
def test_beam_search_decisions_match_reference(sentences, seed, beam_size, cap):
    doc = _document(sentences)
    params = _params(seed)
    assert beam_search(doc, params, CONFIG, beam_size=beam_size, max_selected=cap) == \
        ref.beam_search(doc, params, CONFIG, beam_size=beam_size, max_selected=cap)


def test_single_sentence_document_matches_reference():
    doc = _document([["alpha", "beta"]])
    params = _params(3)
    labels = ExtractionLabels([1])
    _assert_close(pretrain_loss(doc, labels, params, CONFIG).item(),
                  ref.pretrain_loss(doc, labels, params, CONFIG).item())
    assert beam_search(doc, params, CONFIG, beam_size=4) == \
        ref.beam_search(doc, params, CONFIG, beam_size=4, max_selected=4)


def test_document_truncated_to_max_sentences_matches_reference():
    sentences = [[WORDS[i % len(WORDS)], WORDS[(3 * i) % len(WORDS)]] for i in range(20)]
    doc = _document(sentences)
    assert doc.n_sentences == CONFIG.max_sentences
    params = _params(5)
    enc, ref_enc = encode_document(doc, params, CONFIG), ref.encode_document(doc, params, CONFIG)
    _assert_close(enc.contexts.data, np.stack([c.data for c in ref_enc.contexts]))


def test_sentence_vectors_reject_empty_and_unencoded_sentences():
    doc = _document([["alpha"]])
    unencoded = make_document("u", ["alpha beta"], ["alpha"])
    with pytest.raises(ValueError, match="ids"):
        sentence_vectors(unencoded, _params(0), CONFIG)
    doc.sentences[0].tokens.clear()
    with pytest.raises(ValueError, match="empty"):
        sentence_vectors(doc, _params(0), CONFIG)

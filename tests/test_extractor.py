"""Policy network components: word features, GRU, encoding, MLP head, pretraining."""

import logging
import math

import numpy as np
import pytest

import reference_numeric
from cohsum import numeric as nm
from cohsum.corpus import Vocabulary, make_document, make_sentence
from cohsum.extractor import (
    ExtractorConfig,
    encode_document,
    init_extractor_params,
    pretrain,
    pretrain_loss,
)
from cohsum.numeric import ParamStore, Tensor
from reference_policy import (
    extraction_probability,
    gru_cell,
    initial_selection,
    selection_update,
    word_features,
)

from conftest import (
    assert_grads_close,
    encoded,
    finite_difference_grads,
    gradients_of,
    logged_epoch_losses,
    small_vocab,
    tape_holdings,
    tiny_extractor_config,
    toy_document,
    traced_peak,
)


def _zeroed(params: ParamStore) -> ParamStore:
    for _, p in params.items():
        p.data[:] = 0.0
    return params


@pytest.fixture
def vocab():
    return small_vocab()


@pytest.fixture
def config(vocab):
    return tiny_extractor_config(vocab.size)


@pytest.fixture
def params(config, rng):
    return init_extractor_params(config, rng)


def _sentence(text, vocab, config):
    return encoded(make_sentence(text), vocab, config.max_tokens)


# -- word features -----------------------------------------------------------------


def test_word_features_zero_params(vocab, config, params):
    sent = _sentence("alpha beta gamma", vocab, config)
    feats, vec = word_features(sent, _zeroed(params), config)
    assert feats.shape == (3, config.word_dim)
    assert np.all(feats.data == 0.0)
    assert np.all(vec.data == 0.0)


def test_word_features_single_token_mean(vocab, config, params):
    sent = _sentence("alpha", vocab, config)
    feats, vec = word_features(sent, params, config)
    assert feats.shape == (1, config.word_dim)
    assert np.allclose(vec.data, feats.data[0])


def test_word_features_mean_of_rows(vocab, config, params):
    sent = _sentence("alpha beta gamma delta", vocab, config)
    feats, vec = word_features(sent, params, config)
    assert feats.shape == (4, config.word_dim)
    # independent recomputation of the mean from the feature rows
    assert np.allclose(vec.data, feats.data.mean(axis=0))


def test_word_features_rejects_empty_sentence(vocab, config, params):
    empty = encoded(make_sentence(""), vocab, config.max_tokens)
    with pytest.raises(ValueError, match="empty"):
        word_features(empty, params, config)


def test_word_features_uses_true_length_not_padding(vocab, config, params):
    # two sentences equal in their real tokens, different only in id padding length
    short = _sentence("alpha beta", vocab, config)
    longer_cfg = tiny_extractor_config(vocab.size, max_tokens=9)
    short9 = encoded(make_sentence("alpha beta"), vocab, 9)
    _, v10 = word_features(short, params, config)
    _, v9 = word_features(short9, params, longer_cfg)
    assert np.allclose(v10.data, v9.data)


# -- GRU ------------------------------------------------------------------------------


def test_gru_zero_params_halves_state(config):
    params = _zeroed(init_extractor_params(config, np.random.default_rng(0)))
    x = Tensor(np.zeros(config.word_dim))
    h_prev = Tensor(np.array([0.8, -0.4, 0.0, 0.0, 0.0, 0.0]))
    h = gru_cell(x, h_prev, params, "fwd")
    # z = r = 0.5, candidate = 0, so h = 0.5 * h_prev
    assert np.allclose(h.data, [0.4, -0.2, 0.0, 0.0, 0.0, 0.0])


def test_gru_zero_state_fixed_point(config):
    params = _zeroed(init_extractor_params(config, np.random.default_rng(0)))
    h = gru_cell(Tensor(np.zeros(config.word_dim)), Tensor(np.zeros(config.gru_hidden)), params, "bwd")
    assert np.all(h.data == 0.0)


def test_gru_state_stays_in_open_unit_interval(config, rng):
    params = init_extractor_params(config, rng)
    h = Tensor(np.zeros(config.gru_hidden))
    for _ in range(80):
        x = Tensor(rng.normal(size=config.word_dim))
        h = gru_cell(x, h, params, "fwd")
        assert np.all(np.abs(h.data) < 1.0)


# -- document encoding ------------------------------------------------------------------


def test_encode_single_sentence_document(vocab, config, params):
    doc = encoded(make_document("d", ["alpha beta"], ["alpha"]), vocab, config.max_tokens)
    enc = encode_document(doc, params, config)
    assert len(enc.contexts) == 1
    assert enc.doc.shape == (config.doc_dim,)
    assert np.all(np.abs(enc.doc.data) < 1.0)


def test_encode_zero_params_zero_doc_vector(vocab, config):
    params = _zeroed(init_extractor_params(config, np.random.default_rng(0)))
    doc = encoded(make_document("d", ["alpha beta", "gamma"], ["alpha"]), vocab, config.max_tokens)
    enc = encode_document(doc, params, config)
    assert np.all(enc.doc.data == 0.0)


def test_reversed_document_swaps_directions(vocab, config, params):
    # tie the two direction's parameter sets so the symmetry is exact
    for gate in ("z", "r", "h"):
        for kind in ("w", "v", "b"):
            params[f"gru_bwd_{gate}_{kind}"].data[:] = params[f"gru_fwd_{gate}_{kind}"].data
    texts = ["alpha beta", "gamma delta", "epsilon zeta", "eta theta"]
    doc = encoded(make_document("d", texts, ["alpha"]), vocab, config.max_tokens)
    rev = encoded(make_document("r", texts[::-1], ["alpha"]), vocab, config.max_tokens)
    h = config.gru_hidden
    enc, enc_rev = (encode_document(d, params, config) for d in (doc, rev))
    n = len(texts)
    for t in range(n):
        forward_of_reversed = enc_rev.contexts[t].data[:h]
        backward_of_original = enc.contexts[n - 1 - t].data[h:]
        assert np.allclose(forward_of_reversed, backward_of_original)


# -- extraction probability and selection history -----------------------------------------


def test_probability_half_at_zero_params(vocab, config):
    params = _zeroed(init_extractor_params(config, np.random.default_rng(0)))
    doc = encoded(make_document("d", ["alpha beta"], ["alpha"]), vocab, config.max_tokens)
    enc = encode_document(doc, params, config)
    p = extraction_probability(enc.contexts[0], initial_selection(config), enc.doc, params)
    assert p.item() == pytest.approx(0.5)


def test_probability_strictly_inside_unit_interval(vocab, config, params, rng):
    doc = toy_document("d", rng, vocab, n_sentences=4, max_tokens=config.max_tokens)
    enc = encode_document(doc, params, config)
    g = initial_selection(config)
    for t in range(doc.n_sentences):
        p = extraction_probability(enc.contexts[t], g, enc.doc, params).item()
        assert 0.0 < p < 1.0


def test_probability_saturates_with_large_bias(vocab, config, params):
    params["mlp_b3"].data[:] = 20.0
    doc = encoded(make_document("d", ["alpha"], ["alpha"]), vocab, config.max_tokens)
    enc = encode_document(doc, params, config)
    p = extraction_probability(enc.contexts[0], initial_selection(config), enc.doc, params)
    assert p.item() > 0.999


def test_selection_update_identity_cases(vocab, config, params):
    doc = encoded(make_document("d", ["alpha beta"], ["alpha"]), vocab, config.max_tokens)
    enc = encode_document(doc, params, config)
    g0 = initial_selection(config)
    assert selection_update(g0, enc.contexts[0], 0, params) is g0
    params["select_w"].data[:] = 0.0
    g1 = selection_update(g0, enc.contexts[0], 1, params)
    assert np.all(g1.data == 0.0)


def test_selection_update_accumulates_tanh_terms(vocab, config, params, rng):
    doc = toy_document("d", rng, vocab, n_sentences=5, max_tokens=config.max_tokens)
    enc = encode_document(doc, params, config)
    g = initial_selection(config)
    for t in range(doc.n_sentences):
        g = selection_update(g, enc.contexts[t], 1, params)
    expected = sum(
        np.tanh(enc.contexts[t].data @ params["select_w"].data) for t in range(doc.n_sentences)
    )
    assert np.allclose(g.data, expected)


# -- context sensitivity -------------------------------------------------------------------


def test_backward_context_feeds_earlier_probabilities(vocab, config, params):
    base = ["alpha beta", "gamma delta", "epsilon zeta"]
    changed = ["alpha beta", "gamma delta", "kappa iota"]

    def p_first(texts, prms):
        doc = encoded(make_document("d", texts, ["alpha"]), vocab, config.max_tokens)
        enc = encode_document(doc, prms, config)
        return extraction_probability(enc.contexts[0], initial_selection(config), enc.doc,
                                      prms).item()

    assert p_first(base, params) != pytest.approx(p_first(changed, params), abs=1e-12)

    # severing the backward GRU and the document pathway removes the dependency
    for name, p in params.items():
        if name.startswith("gru_bwd") or name in ("doc_w", "doc_b"):
            p.data[:] = 0.0
    assert p_first(base, params) == pytest.approx(p_first(changed, params), abs=1e-15)


# -- pretraining loss ------------------------------------------------------------------------


def test_pretrain_loss_zero_params_is_n_log2(vocab, config):
    params = _zeroed(init_extractor_params(config, np.random.default_rng(0)))
    doc = encoded(make_document("d", ["alpha", "beta gamma", "delta"], ["alpha"]), vocab,
                  config.max_tokens)
    loss = pretrain_loss(doc, [1, 0, 1], params, config)
    assert loss.item() == pytest.approx(3 * math.log(2))


def test_pretrain_loss_vanishes_when_saturated(vocab, config, params):
    # huge final bias forces p ~ 1 for every sentence; all-ones labels then cost ~0
    params["mlp_b3"].data[:] = 30.0
    doc = encoded(make_document("d", ["alpha beta", "gamma"], ["alpha"]), vocab, config.max_tokens)
    loss = pretrain_loss(doc, [1, 1], params, config)
    assert loss.item() < 1e-9


def test_pretrain_loss_gradient_matches_finite_differences(vocab, rng):
    config = tiny_extractor_config(vocab.size, word_kernels=(2, 3), word_filters=(3, 3),
                                   gru_hidden=3, doc_dim=4, mlp_hidden=(5, 3), max_tokens=6)
    params = init_extractor_params(config, rng)
    doc = encoded(make_document("d", ["alpha beta gamma", "delta epsilon", "zeta eta theta"],
                                ["alpha beta"]), vocab, config.max_tokens)
    labels = [1, 0, 1]
    analytic = gradients_of(pretrain_loss(doc, labels, params, config), params)
    numeric_grads = finite_difference_grads(
        lambda: pretrain_loss(doc, labels, params, config).item(), params
    )
    assert_grads_close(analytic, numeric_grads)


def test_taped_pretrain_loss_holds_no_joined_gru_weight(vocab, config, params, rng):
    # each GRU direction projects with its three gate weights read in place,
    # not copied into one [word_dim, 3 * gru_hidden] weight per document, and
    # keeps no [n, 3 * gru_hidden] projection, which no backward reads
    doc = toy_document("d", rng, vocab, n_sentences=4, max_tokens=config.max_tokens)
    loss = pretrain_loss(doc, [1, 0, 0, 1], params, config)
    joined = (config.word_dim, 3 * config.gru_hidden)
    projection = (4, 3 * config.gru_hidden)
    held = [a.shape for _, _, buffers in tape_holdings(loss, params) for a in buffers]
    assert held and joined not in held and projection not in held


def test_taped_gru_recurrence_holds_no_joined_state_weight(vocab, config, params, rng):
    # each direction's recurrence reads V_z | V_r as one [h, 2h] weight, which
    # backward joins again instead of keeping; 4 sentences, so no [n, 2h] array
    # of per-step gates has that shape either
    doc = toy_document("d", rng, vocab, n_sentences=4, max_tokens=config.max_tokens)
    loss = pretrain_loss(doc, [1, 0, 0, 1], params, config)
    h = config.gru_hidden
    held = [[a.shape for a in buffers]
            for op, _, buffers in tape_holdings(loss, params) if op == "gru_sequence"]
    assert len(held) == 2 and all(held)
    assert not [shapes for shapes in held if (h, 2 * h) in shapes]


def test_full_model_gradient_check_spec_dims(rng):
    # embed 8, filters [4,4,4], gru 6, doc 8 per the shrunken geometry
    vocab = small_vocab()
    config = tiny_extractor_config(vocab.size)
    params = init_extractor_params(config, rng)
    doc = encoded(make_document("d", ["alpha beta gamma delta", "epsilon zeta", "eta theta iota"],
                                ["alpha beta"]), vocab, config.max_tokens)
    labels = [0, 1, 1]
    analytic = gradients_of(pretrain_loss(doc, labels, params, config), params)
    numeric_grads = finite_difference_grads(
        lambda: pretrain_loss(doc, labels, params, config).item(), params
    )
    assert_grads_close(analytic, numeric_grads)


# Bytes a paper-geometry 4-document pretraining batch step may allocate above what is
# live before it (the parameters). Keeping each weight's products as a sum until it
# steps peaks at about 37 MB; multiplying a weight's products out once its second
# document's arrives, or applying every gradient after the walk, about 55 MB.
PRETRAIN_STEP_PEAK_BOUND = 46_000_000


def test_paper_geometry_pretrain_step_keeps_weight_gradients_factored():
    words = [f"w{i}" for i in range(1997)]
    vocab = Vocabulary(words)
    config = ExtractorConfig(vocab_size=vocab.size)
    rng = np.random.default_rng(2)
    batch = []
    for i in range(4):
        sentences = [" ".join(rng.choice(words, size=rng.integers(15, 36))) for _ in range(30)]
        doc = encoded(make_document(f"d{i}", sentences, sentences[:1]), vocab, config.max_tokens)
        batch.append((doc, [int(v) for v in rng.integers(0, 2, size=30)]))
    params = init_extractor_params(config, rng)
    batch_loss = lambda: sum(pretrain_loss(doc, labels, params, config)
                             for doc, labels in batch) / len(batch)
    fused = traced_peak(lambda: nm.gradients(batch_loss(), params, config.lr))
    two_pass = traced_peak(lambda: reference_numeric.two_pass_step(batch_loss(), params, config.lr))
    assert fused < PRETRAIN_STEP_PEAK_BOUND < two_pass, (fused, two_pass)


# -- pretraining loop -------------------------------------------------------------------------


def _labeled_corpus(vocab, config, rng, n_docs=6):
    docs = []
    for i in range(n_docs):
        doc = toy_document(f"d{i}", rng, vocab, n_sentences=4, max_tokens=config.max_tokens,
                           highlight_sentences=(i % 4,))
        labels = [1 if t == i % 4 else 0 for t in range(doc.n_sentences)]
        docs.append((doc, labels))
    return docs


def test_pretrain_zero_epochs_returns_initialization(vocab, config, rng):
    corpus = _labeled_corpus(vocab, config, rng)
    cfg = tiny_extractor_config(vocab.size, epochs=0)
    params = pretrain(corpus, cfg, np.random.default_rng(5))
    fresh = init_extractor_params(cfg, np.random.default_rng(5))
    for name, p in params.items():
        assert np.array_equal(p.data, fresh[name].data)


def test_pretrain_zero_lr_keeps_loss_constant(vocab, rng, caplog):
    cfg = tiny_extractor_config(small_vocab().size, lr=0.0, epochs=3, batch_size=64)
    corpus = _labeled_corpus(vocab, cfg, rng)
    with caplog.at_level(logging.INFO, logger="cohsum.numeric"):
        pretrain(corpus, cfg, np.random.default_rng(5))
    losses = logged_epoch_losses(caplog, "pretrain")
    assert len(losses) == 3
    assert losses[0] == pytest.approx(losses[1], abs=1e-12)
    assert losses[1] == pytest.approx(losses[2], abs=1e-12)


def test_pretrain_reduces_loss(vocab, rng, caplog):
    cfg = tiny_extractor_config(vocab.size, epochs=10, batch_size=4, lr=0.2)
    corpus = _labeled_corpus(vocab, cfg, rng)
    with caplog.at_level(logging.INFO, logger="cohsum.numeric"):
        pretrain(corpus, cfg, np.random.default_rng(5))
    losses = logged_epoch_losses(caplog, "pretrain")
    assert len(losses) == 10
    assert losses[-1] < losses[0]

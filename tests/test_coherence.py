"""Coherence scorer: interaction grid, stack arithmetic, hinge training."""

import numpy as np
import pytest

from cohsum import numeric as nm
from cohsum.coherence import (
    CoherenceConfig,
    coherence_forward,
    hinge_loss,
    init_coherence_params,
    interaction_layer1,
    make_scorer,
    pairwise_accuracy,
    stack_plan,
    train_coherence,
    triplet_loss,
)
from cohsum.corpus import CoherenceTriplet, Vocabulary, make_sentence

from conftest import assert_grads_close, finite_difference_grads, small_vocab, tiny_coherence_config


@pytest.fixture
def vocab():
    return small_vocab()


@pytest.fixture
def config(vocab):
    return tiny_coherence_config(vocab.size)


@pytest.fixture
def params(config, rng):
    return init_coherence_params(config, rng)


def _ids(text, vocab, config):
    return make_sentence(text, vocab, config.max_tokens).ids


def _zeroed(params):
    for _, p in params.items():
        p.data[:] = 0.0
    return params


def _triplet(vocab, config, anchor, pos, neg):
    return CoherenceTriplet(
        anchor=make_sentence(anchor, vocab, config.max_tokens),
        positive=make_sentence(pos, vocab, config.max_tokens),
        negative=make_sentence(neg, vocab, config.max_tokens),
        positions=(0, 1, 2),
    )


# -- stack arithmetic --------------------------------------------------------------


def test_full_size_stack_arithmetic():
    config = CoherenceConfig(vocab_size=100)
    stages, flat = stack_plan(config)
    assert stages == [
        ("pool",),
        ("conv", 2, 128, 256),
        ("pool",),
        ("conv", 3, 256, 512),
        ("pool",),
    ]
    assert flat == 4 * 4 * 512


def test_shrunken_stack_skips_unfittable_layers():
    config = tiny_coherence_config(20)  # grid 8x8, filters (4, 4, 4)
    stages, flat = stack_plan(config)
    # 8x8 -> pool 4x4 -> conv 2x2 -> pool 1x1; the third conv no longer fits
    assert stages == [("pool",), ("conv", 2, 4, 4), ("pool",)]
    assert flat == 4


def test_parameters_exist_only_for_realized_layers(config, params):
    assert "conv2_w" in params
    assert "conv3_w" not in params


# -- interaction layer --------------------------------------------------------------


def test_layer1_zero_params_zero_grid(vocab, config, params):
    grid = interaction_layer1(
        _ids("alpha beta gamma", vocab, config),
        _ids("delta epsilon", vocab, config),
        _zeroed(params),
        config,
    )
    assert grid.shape == (config.grid_size, config.grid_size, 4)
    assert np.all(grid.data == 0.0)


def test_layer1_full_size_grid_shape(rng):
    vocab = small_vocab()
    config = CoherenceConfig(vocab_size=vocab.size)
    params = init_coherence_params(config, rng)
    grid = interaction_layer1(
        _ids("alpha beta gamma delta", vocab, config),
        _ids("epsilon zeta", vocab, config),
        params,
        config,
    )
    assert grid.shape == (48, 48, 128)


def test_layer1_length_mismatch(vocab, config, params):
    with pytest.raises(nm.ShapeError):
        interaction_layer1(np.zeros(3, dtype=int), _ids("alpha", vocab, config), params, config)


def test_layer1_symmetric_weights_transpose_grid(vocab, config, rng):
    # with the two half-blocks of the first-layer weights equal, swapping the
    # sentences transposes the grid
    params = init_coherence_params(config, rng)
    half = config.window * config.embed_dim
    w = params["layer1_w"].data
    w[half:] = w[:half]
    a = _ids("alpha beta gamma delta", vocab, config)
    b = _ids("epsilon zeta eta theta", vocab, config)
    grid_ab = interaction_layer1(a, b, params, config).data
    grid_ba = interaction_layer1(b, a, params, config).data
    assert np.allclose(grid_ab, grid_ba.transpose(1, 0, 2))


# -- forward -------------------------------------------------------------------------


def test_forward_zero_params_scores_zero(vocab, config, params):
    score = coherence_forward(
        _ids("alpha", vocab, config), _ids("beta", vocab, config), _zeroed(params), config
    )
    assert score == 0.0


def test_forward_strictly_inside_range(vocab, config, params, rng):
    words = list(vocab.token_to_id)
    for _ in range(20):
        a = " ".join(rng.choice(words, size=5))
        b = " ".join(rng.choice(words, size=5))
        score = coherence_forward(_ids(a, vocab, config), _ids(b, vocab, config), params, config)
        assert -1.0 < score < 1.0


def test_forward_bitwise_repeatable(vocab, config, rng):
    params = init_coherence_params(config, rng)
    a, b = _ids("alpha beta gamma", vocab, config), _ids("delta epsilon", vocab, config)
    assert coherence_forward(a, b, params, config) == coherence_forward(a, b, params, config)


# -- hinge loss --------------------------------------------------------------------------


def test_hinge_examples():
    assert hinge_loss(0.9, -0.5) == 0.0
    assert hinge_loss(0.2, 0.2) == 1.0
    assert hinge_loss(-0.3, 0.4) == pytest.approx(1.7)


def test_hinge_zero_iff_margin_met():
    assert hinge_loss(0.6, -0.5) == 0.0  # lead of 1.1
    assert hinge_loss(0.5, -0.4) == pytest.approx(0.1)  # lead of 0.9 costs the shortfall


# -- gradients ---------------------------------------------------------------------------


def test_triplet_loss_gradient_matches_finite_differences(vocab, rng):
    config = tiny_coherence_config(vocab.size)  # embed 8, filters (4,4,4), max_tokens 10
    params = init_coherence_params(config, rng)
    # move every parameter (biases included) away from the ReLU kinks, which the
    # default near-zero init straddles at finite-difference step size
    for _, p in params.items():
        p.data[:] = rng.uniform(-0.5, 0.5, size=p.data.shape)
    triplet = _triplet(vocab, config, "alpha beta gamma delta", "beta gamma", "zeta eta theta")
    analytic = nm.gradients(triplet_loss(triplet, params, config), params)
    numeric_grads = finite_difference_grads(
        lambda: triplet_loss(triplet, params, config).item(), params
    )
    assert_grads_close(analytic, numeric_grads)


# -- training -----------------------------------------------------------------------------


def _synthetic_triplets(vocab, config, rng, count):
    words = [w for w in vocab.token_to_id if w not in ("alpha", "beta")]
    triplets = []
    for _ in range(count):
        filler = lambda: " ".join(rng.choice(words, size=4))
        triplets.append(
            _triplet(vocab, config, f"{filler()} alpha beta", f"alpha beta {filler()}", filler())
        )
    return triplets


def test_training_reduces_hinge_loss(vocab, config, rng):
    cfg = tiny_coherence_config(vocab.size, epochs=20, batch_size=16, conv_filters=(4,),
                                fc_units=(8,))
    triplets = _synthetic_triplets(vocab, cfg, rng, 200)
    batch_losses = []
    train_coherence(triplets, cfg, np.random.default_rng(3), batch_losses=batch_losses)
    n_batches = (len(triplets) + cfg.batch_size - 1) // cfg.batch_size
    first_epoch = np.mean(batch_losses[:n_batches])
    last_epoch = np.mean(batch_losses[-n_batches:])
    assert last_epoch < first_epoch


def test_zero_epochs_returns_initialization(vocab, config):
    cfg = tiny_coherence_config(vocab.size, epochs=0)
    triplets = _synthetic_triplets(vocab, cfg, np.random.default_rng(0), 4)
    params = train_coherence(triplets, cfg, np.random.default_rng(11))
    fresh = init_coherence_params(cfg, np.random.default_rng(11))
    for name, p in params.items():
        assert np.array_equal(p.data, fresh[name].data)


def test_zero_lr_keeps_loss_trajectory_constant(vocab):
    cfg = tiny_coherence_config(small_vocab().size, epochs=3, lr=0.0, batch_size=64)
    triplets = _synthetic_triplets(vocab, cfg, np.random.default_rng(2), 10)
    batch_losses = []
    train_coherence(triplets, cfg, np.random.default_rng(4), batch_losses=batch_losses)
    assert len(batch_losses) == 3  # batch covers the whole set, one loss per epoch
    assert batch_losses[0] == pytest.approx(batch_losses[1], abs=1e-15)
    assert batch_losses[1] == pytest.approx(batch_losses[2], abs=1e-15)


def test_train_rejects_empty_stream(config):
    with pytest.raises(ValueError, match="empty"):
        train_coherence([], config, np.random.default_rng(0))


# -- pairwise accuracy ---------------------------------------------------------------------


def test_pairwise_accuracy_ties_count_as_wrong(vocab, config, params):
    triplets = _synthetic_triplets(vocab, config, np.random.default_rng(0), 5)
    assert pairwise_accuracy(_zeroed(params), triplets, config) == 0.0


def test_pairwise_accuracy_perfect_on_oracle_ordering(vocab, config, rng):
    params = init_coherence_params(config, rng)
    triplets = _synthetic_triplets(vocab, config, rng, 1)
    tr = triplets[0]
    pos = coherence_forward(tr.anchor.ids, tr.positive.ids, params, config)
    neg = coherence_forward(tr.anchor.ids, tr.negative.ids, params, config)
    expected = 1.0 if pos > neg else 0.0
    assert pairwise_accuracy(params, triplets, config) == expected


def test_pairwise_accuracy_empty_errors(config, params):
    with pytest.raises(ValueError):
        pairwise_accuracy(params, [], config)


def test_random_params_near_chance_accuracy(vocab):
    # Monte Carlo over 1000 random triplets; 3 binomial standard errors ~ 0.05
    rng = np.random.default_rng(123)
    config = tiny_coherence_config(vocab.size, conv_filters=(4,), fc_units=(8,))
    params = init_coherence_params(config, rng)
    triplets = _synthetic_triplets_random(vocab, config, rng, 1000)
    accuracy = pairwise_accuracy(params, triplets, config)
    assert abs(accuracy - 0.5) < 0.05


def _synthetic_triplets_random(vocab, config, rng, count):
    words = list(vocab.token_to_id)
    make = lambda: " ".join(rng.choice(words, size=5))
    return [_triplet(vocab, config, make(), make(), make()) for _ in range(count)]


def test_scorer_closure_matches_forward(vocab, config, params):
    scorer = make_scorer(params, config)
    a, b = _ids("alpha beta", vocab, config), _ids("gamma delta", vocab, config)
    assert scorer(a, b) == coherence_forward(a, b, params, config)

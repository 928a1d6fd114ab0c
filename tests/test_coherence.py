"""Coherence scorer: interaction grid, stack arithmetic, hinge training."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohsum import coherence
from cohsum import numeric as nm
from cohsum.coherence import (
    CoherenceConfig,
    coherence_forward,
    init_coherence_params,
    interaction_layer1,
    pairwise_accuracy,
    stack_plan,
    train_coherence,
    triplet_loss,
)
from cohsum.corpus import CoherenceTriplet, Vocabulary, make_sentence, placeholder_sentence

from conftest import (
    assert_grads_close,
    finite_difference_grads,
    gradients_of,
    logged_epoch_losses,
    recording_nodes,
    small_vocab,
    tape_holdings,
    tiny_coherence_config,
    traced_peak,
)
import reference_coherence
import reference_numeric


@pytest.fixture
def vocab():
    return small_vocab()


@pytest.fixture
def config(vocab):
    return tiny_coherence_config(vocab.size)


@pytest.fixture
def params(config, rng):
    return init_coherence_params(config, rng)


def _full_text(config):
    """max_tokens real words, no two neighbours alike, so the ids have no tail."""
    words = small_vocab().id_to_token[3:]  # past PAD, UNK and BOUNDARY
    return " ".join(words[i % len(words)] for i in range(config.max_tokens))


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
    # grid 48, pool 24, conv 22, pool 11, conv 9, pool 4; the last pool reads
    # 8 of conv3's 9 rows, so conv3 computes 8, reads 10 of the 11 pooled rows,
    # conv2 computes 20 and reads 22 rows: 44 layer-1 windows, not 48
    assert stages == [
        ("pool", 22),
        ("conv", 2, 128, 256, 20),
        ("pool", 10),
        ("conv", 3, 256, 512, 8),
        ("pool", 4),
    ]
    assert flat == 4 * 4 * 512


def test_shrunken_stack_skips_unfittable_layers():
    config = tiny_coherence_config(20)  # grid 8x8, filters (4, 4, 4)
    stages, flat = stack_plan(config)
    # 8x8 -> pool 4x4 -> conv 2x2 -> pool 1x1; the third conv no longer fits
    assert stages == [("pool", 4), ("conv", 2, 4, 4, 2), ("pool", 1)]
    assert flat == 4


def test_stack_whose_last_conv_ends_below_2x2_has_no_final_pool():
    config = tiny_coherence_config(20, max_tokens=8)  # grid 6x6
    stages, flat = stack_plan(config)
    # 6x6 -> pool 3x3 -> conv 1x1, which neither a pool nor the third conv fits;
    # the conv reads all 3 pooled rows
    assert stages == [("pool", 3), ("conv", 2, 4, 4, 1)]
    assert flat == 4


@pytest.mark.parametrize("max_tokens", [2, 3])
def test_max_tokens_must_exceed_the_window(max_tokens):
    with pytest.raises(ValueError, match=f"max_tokens {max_tokens} .* window 3"):
        CoherenceConfig(vocab_size=10, window=3, max_tokens=max_tokens)


@pytest.mark.parametrize("filters", [(4,), (4, 4), (4, 4, 4)])
@pytest.mark.parametrize("window, max_tokens", [(1, 2), (3, 4), (3, 5), (2, 10), (3, 50)])
def test_every_stack_starts_with_the_pool_layer1_fuses(window, max_tokens, filters):
    config = CoherenceConfig(vocab_size=10, window=window, max_tokens=max_tokens,
                             conv_filters=filters)
    assert stack_plan(config)[0][0][0] == "pool"


def test_parameters_exist_only_for_realized_layers(config, params):
    assert "conv2_w" in params.names()
    assert "conv3_w" not in params.names()


# -- interaction layer --------------------------------------------------------------


def test_layer1_zero_params_zero_grid(vocab, config, params):
    grid = interaction_layer1(
        _ids("alpha beta gamma", vocab, config),
        _ids("delta epsilon", vocab, config),
        _zeroed(params),
        config,
    )
    # the pooled 4 x 4 grid trimmed to ceil(s / 2) + 1 rows, the last the first
    # that pools PAD windows alone, for the s = 3 and 2 tokens before the PAD
    assert grid.shape == (3, 2, 4)
    assert np.all(grid.data == 0.0)


def test_layer1_full_size_grid_shape(rng):
    vocab = small_vocab()
    config = CoherenceConfig(vocab_size=vocab.size)
    params = init_coherence_params(config, rng)
    short = (_ids("alpha beta gamma delta", vocab, config), _ids("epsilon zeta", vocab, config))
    assert interaction_layer1(*short, params, config).shape == (3, 2, 128)
    # a sentence with no tail builds the 22 pooled rows conv2 reads of the 24
    full = _ids(_full_text(config), vocab, config)
    assert interaction_layer1(full, short[1], params, config).shape == (22, 2, 128)


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
    pair = (_ids("alpha", vocab, config), _ids("beta", vocab, config))
    assert coherence_forward([pair], _zeroed(params), config).tolist() == [0.0]


def test_forward_strictly_inside_range(vocab, config, params, rng):
    words = list(vocab.token_to_id)
    pairs = [(_ids(" ".join(rng.choice(words, size=5)), vocab, config),
              _ids(" ".join(rng.choice(words, size=5)), vocab, config)) for _ in range(20)]
    scores = coherence_forward(pairs, params, config)
    assert scores.shape == (20,)
    assert np.all((-1.0 < scores) & (scores < 1.0))


def test_forward_bitwise_repeatable(vocab, config, rng):
    params = init_coherence_params(config, rng)
    pairs = [(_ids("alpha beta gamma", vocab, config), _ids("delta epsilon", vocab, config))]
    assert np.array_equal(coherence_forward(pairs, params, config),
                          coherence_forward(pairs, params, config))


# -- the batched head against the per-pair reference ---------------------------------


def _spread(params, rng):
    """Every parameter, biases included, drawn from U(-0.5, 0.5): no layer is near-linear."""
    for _, p in params.items():
        p.data[:] = rng.uniform(-0.5, 0.5, size=p.data.shape)
    return params


def _pair_gradient_scales(triplets, params, config) -> dict:
    """Per parameter, the largest entry of any one pair's score gradient.

    A hinge gradient is a signed sum of pair gradients. When they cancel, as
    for a triplet whose positive and negative are the same sentence, the sum
    is roundoff, so rounding is measured against the terms, not the sum.
    """
    scales = dict.fromkeys(params.names(), 0.0)
    for tr in triplets:
        for second in (tr.positive, tr.negative):
            score = reference_coherence.forward(tr.anchor.ids, second.ids, params, config)
            for name, g in gradients_of(score.sum(), params).items():
                scales[name] = max(scales[name], float(np.max(np.abs(np.asarray(g)))))
    return scales


_WORDS = list(small_vocab().token_to_id)
# a sentence is the placeholder that starts the RL chain (a boundary token, then
# PAD), "full" (`_full_text`, no tail), one ending in a run of a real word, or
# 1 to 12 words, up to longer than max_tokens 10, so truncation is covered
_sentence = st.one_of(st.none(), st.just("full"), st.just(["alpha", "beta", "beta", "beta"]),
                      st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12))
# layer-1 windows 3 and 2 give even and odd grids; the first three geometries
# skip the third conv, and max_tokens 30 runs every stage down to a 2 x 2 grid,
# so the last pool reads copies of a tail row and column. The last two end in
# the two other kinds of last stage: layer 1's pool alone (one filter entry),
# and a convolution with no final pool (grid 6, pool 3, conv 1)
_GEOMETRIES = [dict(), dict(window=2), dict(max_tokens=16, window=2), dict(max_tokens=30),
               dict(conv_filters=(4,)), dict(max_tokens=8)]


def _make(words, vocab, config):
    if words is None:
        return placeholder_sentence(config.max_tokens)
    text = _full_text(config) if words == "full" else " ".join(words)
    return make_sentence(text, vocab, config.max_tokens)


@given(st.lists(st.tuples(_sentence, _sentence), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.sampled_from(_GEOMETRIES))
@example([(None, ["alpha", "beta"]), (["gamma"], None), (None, None), (["delta"], ["zeta"])],
         0, True, True, {})
@example([("full", ["alpha", "beta", "beta", "beta"]), (None, "full"), (["gamma"], ["delta"])],
         1, False, True, dict(max_tokens=30))
@settings(max_examples=40, deadline=None)
def test_batched_scores_match_the_per_pair_reference(pairs, seed, repeat, spread, geometry):
    vocab = small_vocab()
    config = tiny_coherence_config(vocab.size, **geometry)
    rng = np.random.default_rng(seed)
    params = init_coherence_params(config, rng)
    if spread:
        _spread(params, rng)
    ids = [(_make(a, vocab, config).ids, _make(b, vocab, config).ids) for a, b in pairs]
    if repeat and len(ids) > 1:
        ids[-1] = ids[0]  # the same pair twice in one batch
    fast = coherence_forward(ids, params, config)
    ref = [reference_coherence.forward(a, b, params, config).item() for a, b in ids]
    assert fast.shape == (len(ids),)
    np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=1e-15)
    if repeat:
        assert fast[0] == fast[-1]


@given(st.lists(st.tuples(_sentence, _sentence), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_forward_builds_no_tape_and_matches_the_taped_pass_bit_for_bit(pairs, seed):
    vocab = small_vocab()
    config = tiny_coherence_config(vocab.size)
    params = _spread(init_coherence_params(config, np.random.default_rng(seed)),
                     np.random.default_rng(seed + 1))
    ids = [(_make(a, vocab, config).ids, _make(b, vocab, config).ids) for a, b in pairs]
    with pytest.MonkeyPatch.context() as mp:
        built = recording_nodes(mp)
        scores = coherence_forward(ids, params, config)
    assert built and all(t._parents == () and t._backward_fn is None for t in built)
    rows = list(coherence._pair_features(ids, params, config))
    taped = coherence._head(np.concatenate([r.data for r in rows]), params, config)
    assert all(r._parents for r in rows) and taped._parents
    assert np.array_equal(scores, taped.data)


@given(st.lists(st.tuples(_sentence, _sentence, _sentence), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(_GEOMETRIES))
@example([(None, ["alpha"], ["beta", "gamma"]), (["delta"], None, None)], 0, True, {})
@example([("full", ["alpha", "beta", "beta", "beta"], None), (["gamma"], "full", ["delta"])],
         1, True, dict(max_tokens=16, window=2))
@settings(max_examples=30, deadline=None)
def test_batched_triplet_loss_and_gradients_match_the_per_triplet_reference(sentences, seed,
                                                                           spread, geometry):
    vocab = small_vocab()
    config = tiny_coherence_config(vocab.size, **geometry)
    rng = np.random.default_rng(seed)
    params = init_coherence_params(config, rng)
    if spread:
        _spread(params, rng)
    triplets = [CoherenceTriplet(*(_make(w, vocab, config) for w in words), positions=(0, 1, 2))
                for words in sentences]
    fast_loss = triplet_loss(triplets, params, config)
    fast_grads = gradients_of(fast_loss, params)
    ref_loss = reference_coherence.batch_loss(triplets, params, config)
    ref_grads = gradients_of(ref_loss, params)
    assert fast_loss.item() == pytest.approx(ref_loss.item(), rel=1e-10, abs=1e-15)
    scales = _pair_gradient_scales(triplets, params, config)
    for name in params.names():
        diff = np.max(np.abs(np.asarray(fast_grads[name]) - np.asarray(ref_grads[name])))
        assert diff <= 1e-10 * scales[name], name


def _rows_windowed(pair, params, config) -> dict:
    """GEMM rows while the pair is scored, by the axes windowed.

    Axis 1: the rows of each layer-1 `numeric.windows`; axes 2: the im2col rows
    of each `numeric.conv2d_pool`, one per cell of the convolution before its pool.
    """
    rows = {1: [], 2: []}
    windows, conv2d_pool = nm.windows, nm.conv2d_pool

    def spy_windows(x, kernel, axes):
        out = windows(x, kernel, axes)
        rows[axes].append(out.shape[0])
        return out

    def spy_conv2d_pool(x, weight, bias, kernel, conv_rows, conv_cols, *pool_side):
        rows[2].append((conv_rows - kernel + 1) * (conv_cols - kernel + 1))
        return conv2d_pool(x, weight, bias, kernel, conv_rows, conv_cols, *pool_side)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nm, "windows", spy_windows)
        mp.setattr(nm, "conv2d_pool", spy_conv2d_pool)
        coherence_forward([pair], params, config)
    return rows


def test_conv_gemms_get_fewer_rows_for_a_padded_pair_and_all_of_them_for_a_full_one(vocab):
    # paper geometry, narrow channels: grid 48, pool 24, conv2 22, pool 11, conv3 9, pool 4;
    # a full pair computes the rows the next stage reads: 44 windows, conv2 20, conv3 8
    config = CoherenceConfig(vocab_size=vocab.size, embed_dim=4, conv_filters=(4, 4, 4),
                             fc_units=(4, 4))
    params = init_coherence_params(config, np.random.default_rng(0))
    full = _ids(_full_text(config), vocab, config)
    assert _rows_windowed((full, full), params, config) == {1: [44, 44], 2: [20 * 20, 8 * 8]}
    # the RL placeholder pools into 2 rows, "alpha beta gamma" into 3 columns;
    # conv2 keeps 2 x 3 of its 22 x 22 outputs, the pool 2 x 2, conv3 2 x 2
    short = (placeholder_sentence(config.max_tokens).ids, _ids("alpha beta gamma", vocab, config))
    assert _rows_windowed(short, params, config) == {1: [4, 6], 2: [2 * 3, 2 * 2]}


def _taped_one_triplet_loss(vocab, rng):
    """(loss, params, config): a taped one-triplet loss at a geometry where both convs run.

    Grid 28, pool 14, conv2 12, pool 6, conv3 4, pool 2. The anchor has no
    tail; the other sentences end in PAD, so every stage reads tail rows.
    """
    config = tiny_coherence_config(vocab.size, max_tokens=30, conv_filters=(4, 6, 8))
    params = init_coherence_params(config, rng)
    triplet = _triplet(vocab, config, _full_text(config), "alpha beta gamma", "delta")
    return triplet_loss([triplet], params, config), params, config


def test_taped_triplet_loss_holds_no_im2col_matrix(vocab, rng):
    loss, params, config = _taped_one_triplet_loss(vocab, rng)
    # an im2col matrix of a conv reading C channels is k * k * C wide
    widths = {config.conv_kernel ** 2 * stage[2]
              for stage in stack_plan(config)[0] if stage[0] == "conv"}
    assert widths == {36, 54}
    held = [a for _, _, buffers in tape_holdings(loss, params) for a in buffers]
    assert len(held) > 20
    assert not [a.shape for a in held if a.ndim == 2 and a.shape[1] in widths]


def test_taped_triplet_loss_holds_no_concat_but_the_batch_rows(vocab, rng):
    # the tail rows and columns are read by the ops, not concatenated onto the grid
    loss, params, config = _taped_one_triplet_loss(vocab, rng)
    concats = [node.shape for op, node, _ in tape_holdings(loss, params) if op == "concat"]
    assert concats == [(2, stack_plan(config)[1])]


def test_each_coherence_stage_leaves_one_array_on_the_tape(vocab, rng):
    # layer 1 and each conv with its pool keep their output only: no sum
    # before a relu, no separate relu output, no convolution output before
    # its pool, no copy of a grid with its tail; the pool's winners are uint8
    loss, params, config = _taped_one_triplet_loss(vocab, rng)
    stage_ops = {"relu_cross_sum", "conv2d_pool"}
    kept = {}
    for op, node, buffers in tape_holdings(loss, params):
        if node.data.ndim == 3:  # a grid
            floats = [a for a in buffers if a.dtype == np.float64]
            assert len(floats) == (op in stage_ops), (op, node.shape)
            assert all(a.dtype in (np.float64, np.uint8) for a in buffers), (op, node.shape)
            kept[op] = kept.get(op, 0) + len(floats)
    # two pairs: layer 1, then conv2 and conv3 each with the pool after it
    assert kept == {"relu_cross_sum": 2, "conv2d_pool": 4}


def test_triplet_of_padded_sentences_gradient_matches_finite_differences(vocab, rng):
    # the repeated tail rows and columns sum their gradients at every stage
    config = tiny_coherence_config(vocab.size, max_tokens=30)
    params = _spread(init_coherence_params(config, rng), rng)
    triplet = CoherenceTriplet(placeholder_sentence(config.max_tokens),
                               make_sentence("alpha beta gamma", vocab, config.max_tokens),
                               make_sentence("delta epsilon epsilon", vocab, config.max_tokens),
                               positions=(0, 1, 2))
    analytic = gradients_of(triplet_loss([triplet], params, config), params)
    numeric_grads = finite_difference_grads(
        lambda: triplet_loss([triplet], params, config).item(), params
    )
    assert_grads_close(analytic, numeric_grads)


def test_scorer_keeps_one_pair_tape_alive_at_a_time(rng):
    # the rows are copied off their tapes before the head runs; a head over
    # the taped rows would keep every pair's conv stack alive at once
    config = tiny_coherence_config(200, max_tokens=50, conv_filters=(16, 32, 32))
    params = init_coherence_params(config, rng)
    pairs = [(rng.integers(0, 200, size=50), rng.integers(0, 200, size=50)) for _ in range(16)]
    coherence_forward(pairs[:1], params, config)  # warm up before measuring
    one = traced_peak(lambda: coherence_forward(pairs[:1], params, config))
    sixteen = traced_peak(lambda: coherence_forward(pairs, params, config))
    assert sixteen < 2 * one


# -- the last convolution over chunks of pairs --------------------------------------------


@pytest.fixture(scope="module")
def paper_chain():
    """(pairs, params, config): a 16-pair RL chain at paper geometry, from the BOUNDARY placeholder.

    Its sentences run from one word to longer than max_tokens, so conv3
    computes up to 8 x 8 rows per pair, 615 in all, more than one chunk of
    N = 512 rows holds. Two sentences repeat one word past max_tokens, so
    they have no row that differs: the pairs around them give conv3 one
    row or one column of a grid, and the pair of the two one row.
    """
    words = [f"w{i}" for i in range(300)]
    vocab = Vocabulary(words)
    config = CoherenceConfig(vocab_size=vocab.size)
    rng = np.random.default_rng(5)
    texts = [" ".join(rng.choice(words, size=n)) for n in (1, 3, 12, 2, 50, 60, 48, 55, 60, 49,
                                                             52, 58, 47, 51)]
    texts[2:2] = ["w7 " * 60, "w8 " * 60]
    chain = [placeholder_sentence(config.max_tokens)]
    chain += [make_sentence(text, vocab, config.max_tokens) for text in texts]
    pairs = [(a.ids, b.ids) for a, b in zip(chain, chain[1:])]
    assert len(pairs) == 16
    return pairs, init_coherence_params(config, rng), config


def _last_conv_chunks(params, score) -> list[list[tuple]]:
    """The (x, rows, cols) grids of each GEMM of the last convolution while score() runs."""
    chunks = []
    conv_relu = nm._conv_relu

    def spy(grids, weight, bias, kernel):
        if weight is params["conv3_w"]:
            chunks.append(grids)
        return conv_relu(grids, weight, bias, kernel)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nm, "_conv_relu", spy)
        score()
    return chunks


def test_paper_geometry_chain_scores_bit_for_bit_as_its_pairs_one_at_a_time(paper_chain):
    pairs, params, config = paper_chain
    with nm.no_tape():
        chunked = [row.data for row in coherence._pair_features(pairs, params, config)]
        alone = [next(coherence._pair_features([pair], params, config)).data for pair in pairs]
        one_at_a_time = coherence._head(np.concatenate(alone), params, config).data
    assert all(np.array_equal(a, b) for a, b in zip(chunked, alone))
    assert np.array_equal(coherence_forward(pairs, params, config), one_at_a_time)


def test_each_last_convolution_gemm_holds_at_most_n_rows_unless_it_holds_one_pair(paper_chain):
    pairs, params, config = paper_chain
    n = config.conv_filters[-1]
    chunks = _last_conv_chunks(params, lambda: coherence_forward(pairs, params, config))
    rows = [[(r - 2) * (c - 2) for _, r, c in chunk] for chunk in chunks]
    assert all(sum(sizes) <= n for sizes in rows if len(sizes) > 1)
    assert [1] in rows and max(map(len, rows)) > 1  # the 1-row pair alone; others share
    # every pair once, in order: the grids are those the pairs give alone
    grids = [x for chunk in chunks for x, _, _ in chunk]
    alone = [x for pair in pairs
             for chunk in _last_conv_chunks(params, lambda: coherence_forward([pair], params,
                                                                              config))
             for x, _, _ in chunk]
    assert len(grids) == len(alone) == len(pairs)
    assert all(np.array_equal(a, b) for a, b in zip(grids, alone))


def test_paper_geometry_chain_peaks_below_one_pair_plus_the_last_convolution_chunk(paper_chain):
    # a chunk adds at most its im2col rows, no larger than the weight, and its
    # [N, N] product to what the largest pair alone allocates
    pairs, params, config = paper_chain
    n = config.conv_filters[-1]
    coherence_forward(pairs[:1], params, config)  # warm up before measuring
    one = max(traced_peak(lambda: coherence_forward([pair], params, config)) for pair in pairs)
    chain = traced_peak(lambda: coherence_forward(pairs, params, config))
    assert chain < one + params["conv3_w"].data.nbytes + n * n * 8, (one, chain)


def test_two_triplets_sharing_one_chunk_match_finite_differences(vocab, rng):
    # grid 8, pool 4, conv2 2, pool 1: conv2 is the last convolution, 16 wide,
    # so the four pairs' 2 x 2 or fewer rows each go into one GEMM
    config = tiny_coherence_config(vocab.size, conv_filters=(4, 16))
    params = _spread(init_coherence_params(config, rng), rng)
    triplets = [_triplet(vocab, config, "alpha beta gamma delta", "beta gamma", "zeta eta theta"),
                _triplet(vocab, config, "iota kappa", "delta delta epsilon", "theta beta")]
    chunks = []
    conv_relu = nm._conv_relu

    def spy(grids, weight, bias, kernel):
        chunks.append(len(grids))
        return conv_relu(grids, weight, bias, kernel)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nm, "_conv_relu", spy)
        loss = triplet_loss(triplets, params, config)
    assert chunks == [4]
    assert [reference_coherence.triplet_loss(t, params, config).item() > 0.0
            for t in triplets] == [True, True]
    analytic = gradients_of(loss, params)
    numeric_grads = finite_difference_grads(
        lambda: triplet_loss(triplets, params, config).item(), params
    )
    assert_grads_close(analytic, numeric_grads)


# -- hinge loss --------------------------------------------------------------------------


@pytest.fixture
def hinge_loss(vocab, config, params, monkeypatch):
    """triplet_loss with the head stubbed to return fixed (positive, negative) scores."""
    triplet = _triplet(vocab, config, "alpha beta", "gamma delta", "epsilon zeta")

    def loss(coh_pos, coh_neg):
        def scores(rows, *_):
            assert rows.shape[0] == 2  # the positive pair's row, then the negative's
            return nm.Tensor([coh_pos, coh_neg])

        monkeypatch.setattr(coherence, "_head", scores)
        return triplet_loss([triplet], params, config).item()

    return loss


def test_hinge_examples(hinge_loss):
    assert hinge_loss(0.9, -0.5) == 0.0
    assert hinge_loss(0.2, 0.2) == 1.0
    assert hinge_loss(-0.3, 0.4) == pytest.approx(1.7)


def test_hinge_zero_iff_margin_met(hinge_loss):
    assert hinge_loss(0.6, -0.5) == 0.0  # lead of 1.1
    assert hinge_loss(0.5, -0.4) == pytest.approx(0.1)  # lead of 0.9 costs the shortfall


# -- gradients ---------------------------------------------------------------------------


def test_triplet_loss_gradient_matches_finite_differences(vocab, rng):
    config = tiny_coherence_config(vocab.size)  # embed 8, filters (4,4,4), max_tokens 10
    params = init_coherence_params(config, rng)
    # move every parameter (biases included) away from the ReLU kinks, which the
    # default near-zero init straddles at finite-difference step size
    _spread(params, rng)
    triplet = _triplet(vocab, config, "alpha beta gamma delta", "beta gamma", "zeta eta theta")
    analytic = gradients_of(triplet_loss([triplet], params, config), params)
    numeric_grads = finite_difference_grads(
        lambda: triplet_loss([triplet], params, config).item(), params
    )
    assert_grads_close(analytic, numeric_grads)


def test_batch_triplet_loss_gradient_matches_finite_differences(vocab, rng):
    config = tiny_coherence_config(vocab.size)
    params = _spread(init_coherence_params(config, rng), rng)
    texts = ["alpha beta gamma delta", "beta gamma", "zeta eta theta", "iota kappa alpha",
             "delta delta epsilon", "theta beta", "kappa zeta eta iota"]
    sentences = [make_sentence(t, vocab, config.max_tokens) for t in texts]
    pairs = [(a, b) for a in sentences for b in sentences if a is not b]
    ids = [(a.ids, b.ids) for a, b in pairs]
    # centre the readout's logits over these pairs and stretch them to a range
    # of 4, so that some triplets meet the margin and others do not
    logits = np.arctanh(coherence_forward(ids, params, config))
    params["out_b"].data -= logits.mean()
    for name in ("out_w", "out_b"):
        params[name].data *= 4.0 / np.ptp(logits)
    scores = dict(zip(((a.text, b.text) for a, b in pairs), coherence_forward(ids, params, config)))

    def lead(anchor, pos, neg):
        return scores[anchor, pos] - scores[anchor, neg]

    candidates = [(a, p, n) for a in texts for p in texts for n in texts
                  if len({a, p, n}) == 3]
    met = max(candidates, key=lambda c: lead(*c))  # hinge inactive: its margin is met
    active = [c for c in candidates if lead(*c) < 0.9][:2]
    assert lead(*met) > 1.1 and len(active) == 2
    triplets = [_triplet(vocab, config, *c) for c in (active[0], met, active[1])]
    assert [reference_coherence.triplet_loss(t, params, config).item() == 0.0
            for t in triplets] == [False, True, False]
    analytic = gradients_of(triplet_loss(triplets, params, config), params)
    numeric_grads = finite_difference_grads(
        lambda: triplet_loss(triplets, params, config).item(), params
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


def test_training_reduces_hinge_loss(vocab, config, rng, caplog):
    cfg = tiny_coherence_config(vocab.size, epochs=20, batch_size=16, conv_filters=(4,),
                                fc_units=(8,))
    triplets = _synthetic_triplets(vocab, cfg, rng, 200)
    with caplog.at_level(logging.INFO, logger="cohsum.numeric"):
        train_coherence(triplets, cfg, np.random.default_rng(3))
    losses = logged_epoch_losses(caplog, "coherence")
    assert len(losses) == 20
    assert losses[-1] < losses[0]


def test_zero_epochs_returns_initialization(vocab, config):
    cfg = tiny_coherence_config(vocab.size, epochs=0)
    triplets = _synthetic_triplets(vocab, cfg, np.random.default_rng(0), 4)
    params = train_coherence(triplets, cfg, np.random.default_rng(11))
    fresh = init_coherence_params(cfg, np.random.default_rng(11))
    for name, p in params.items():
        assert np.array_equal(p.data, fresh[name].data)


def test_zero_lr_keeps_loss_trajectory_constant(vocab, caplog):
    cfg = tiny_coherence_config(small_vocab().size, epochs=3, lr=0.0, batch_size=64)
    triplets = _synthetic_triplets(vocab, cfg, np.random.default_rng(2), 10)
    with caplog.at_level(logging.INFO, logger="cohsum.numeric"):
        train_coherence(triplets, cfg, np.random.default_rng(4))
    losses = logged_epoch_losses(caplog, "coherence")
    assert len(losses) == 3  # batch covers the whole set, one loss per epoch
    assert losses[0] == pytest.approx(losses[1], abs=1e-15)
    assert losses[1] == pytest.approx(losses[2], abs=1e-15)


# Bytes a paper-geometry 8-triplet batch step may allocate above what is live before it
# (the parameters). Stepping each parameter as soon as its gradient is complete, with
# fc1's product and conv3's 16 products kept as their factors, and each convolution fused
# with the pool after it, so the tape keeps no convolution output, peaks at about 20.5 MB,
# in backward. Running conv3 over chunks of pairs, each at most a [512, 2304] im2col and a
# [512, 512] product, raises the forward pass's peak from about 10.7 to 16.0 MB, below it.
# Keeping each convolution's output for a separate pool, it peaked at about 29.7 MB; with
# conv3's products also multiplied out into its 9.4 MB gradient, about 39 MB; with fc1's
# 33.5 MB gradient also built dense, about 53 MB. Applying every gradient, made dense,
# after the walk (`two_pass_step`) keeps them through the rest of backward: about 62 MB.
BATCH_STEP_PEAK_BOUND = 25_000_000


def test_paper_geometry_batch_step_frees_each_gradient_once_applied():
    words = [f"w{i}" for i in range(1997)]
    vocab = Vocabulary(words)
    config = CoherenceConfig(vocab_size=vocab.size)
    rng = np.random.default_rng(0)
    sentence = lambda: make_sentence(" ".join(rng.choice(words, size=rng.integers(15, 36))),
                                     vocab, config.max_tokens)
    triplets = [CoherenceTriplet(sentence(), sentence(), sentence(), positions=(0, 1, 2))
                for _ in range(8)]
    params = init_coherence_params(config, rng)
    batch_loss = lambda: triplet_loss(triplets, params, config) / len(triplets)
    fused = traced_peak(lambda: nm.gradients(batch_loss(), params, config.lr))
    two_pass = traced_peak(lambda: reference_numeric.two_pass_step(batch_loss(), params, config.lr))
    assert fused < BATCH_STEP_PEAK_BOUND < two_pass, (fused, two_pass)


# -- pairwise accuracy ---------------------------------------------------------------------


def test_pairwise_accuracy_ties_count_as_wrong(vocab, config, params):
    triplets = _synthetic_triplets(vocab, config, np.random.default_rng(0), 5)
    assert pairwise_accuracy(_zeroed(params), triplets, config) == 0.0


def test_pairwise_accuracy_perfect_on_oracle_ordering(vocab, config, rng):
    params = init_coherence_params(config, rng)
    triplets = _synthetic_triplets(vocab, config, rng, 1)
    tr = triplets[0]
    pos, neg = coherence_forward([(tr.anchor.ids, tr.positive.ids),
                                  (tr.anchor.ids, tr.negative.ids)], params, config)
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

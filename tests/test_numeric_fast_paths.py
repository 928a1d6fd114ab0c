"""Numeric fast paths vs the dense reference forms they replace.

The reference (tests/reference_numeric.py) pools by argmax over a copy of the
2x2 blocks, scatters embedding gradients into a dense table, sweeps the
whole table in SGD, and gathers sliding windows through flat index tables;
`conv2d`, which keeps no im2col matrix and fuses the relu, is held to
`windows` + `linear` + `relu`. A grid read past its last row and column (by
`conv2d` and `max_pool_2x2`) is held to the same op over
`reference_coherence.repeat_tail`, the concatenation of copied slices.
`gradients`, which steps each parameter once its last consumer's backward
has run, is held to `two_pass_step`, every gradient first and then the
steps; it hands each parameter it reaches to `sgd_step` exactly once. A
weight gradient kept as a list of `numeric._Product`s, each kept as its two
factors (a convolution's a as its input grid), is held to the dense sum of
the dense products, in the step and when added into another gradient; a
table's `numeric._Rows` segments are held to the dense scatter, also on a
table that a product reaches too.
The fast paths do the same arithmetic in the same order, so values and
gradients must agree bit for bit; only the fused layer-1 pool sums its
gradients over fewer (all-zero) terms, and over the copies of its tail row
and column, and is held to rel 1e-12.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_numeric as ref
from cohsum import numeric as nm
from cohsum.coherence import init_coherence_params, interaction_layer1, stack_plan, triplet_loss
from cohsum.corpus import CoherenceTriplet, make_sentence
from cohsum.extractor import encode_document, init_extractor_params, pretrain_loss
from cohsum.numeric import ParamStore, Tensor
from cohsum.reinforce import Episode, policy_gradient_step, surrogate_objective

from conftest import (
    assert_grads_close,
    dense_gradient,
    gradient_form,
    gradients_of,
    sgd_hand_offs,
    small_vocab,
    tape_holdings,
    tiny_coherence_config,
    tiny_extractor_config,
    toy_document,
)
from reference_coherence import repeat_tail

seed_st = st.integers(min_value=0, max_value=2**31)


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _grid_store(x):
    params = ParamStore()
    params.add("x", x)
    return params


def _assert_pool_matches_reference(x, seed, row_tail=0, col_tail=0):
    """The pool of x read with tail rows and columns against pooling the repeated grid."""
    rows, cols = x.shape[0] + row_tail, x.shape[1] + col_tail
    weights = np.random.default_rng(seed).normal(size=(rows // 2, cols // 2, x.shape[2]))
    params = _grid_store(x)
    lean = nm.max_pool_2x2(params["x"], rows, cols)
    dense = ref.max_pool_2x2(repeat_tail(params["x"], rows, cols))
    assert _bits(lean.data) == _bits(dense.data)
    lean_grad = gradients_of((lean * weights).sum(), params)["x"]
    dense_grad = gradients_of((dense * weights).sum(), params)["x"]
    assert _bits(lean_grad) == _bits(dense_grad)


# -- max pool ------------------------------------------------------------------------


tail_st = st.sampled_from([0, 0, 1, 2, 3])


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["normal", "few values"]),
    tail_st,
    tail_st,
    seed_st,
)
@settings(max_examples=120, deadline=None)
def test_pool_matches_reference(h, w, c, kind, row_tail, col_tail, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.normal(size=(h, w, c))
    else:  # many ties, signed zeros among them
        x = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(h, w, c))
    row_tail, col_tail = max(row_tail, 2 - h), max(col_tail, 2 - w)  # read as at least 2 x 2
    _assert_pool_matches_reference(x, seed, row_tail, col_tail)


@pytest.mark.parametrize("kind", ["all equal", "all zero", "signed zeros", "pad rows"])
def test_pool_ties_match_reference(kind, rng):
    shape = (6, 5, 3)
    if kind == "all equal":
        x = np.full(shape, 0.75)
    elif kind == "all zero":
        x = np.zeros(shape)
    elif kind == "signed zeros":
        x = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    else:  # rows past the sentence end repeat one PAD window
        x = rng.normal(size=shape)
        x[3:] = x[3]
        x[:, 2:] = x[:, 2:3]
    for row_tail, col_tail in [(0, 0), (1, 0), (0, 1), (1, 3), (2, 2)]:
        _assert_pool_matches_reference(x, 7, row_tail, col_tail)


# -- sliding windows -------------------------------------------------------------------


def _reference_windows(x, kernel, axes):
    if axes == 1:
        n, width = x.shape
        return ref.gather_flat(x, ref.window_indices(n - kernel + 1, kernel, width))
    return ref.gather_flat(x, ref.im2col_indices(*x.shape, kernel))


@st.composite
def window_cases(draw):
    axes = draw(st.sampled_from([1, 2]))
    kernel = draw(st.integers(min_value=1, max_value=4))
    # sizes from kernel (one window) up, odd and even alike
    sizes = [draw(st.integers(min_value=kernel, max_value=kernel + 5)) for _ in range(axes)]
    channels = draw(st.integers(min_value=1, max_value=3))
    return tuple(sizes) + (channels,), kernel, axes


@given(window_cases(), st.booleans(), seed_st)
@example(((50, 64), 3, 1), True, 0)  # layer 1 at paper geometry
@example(((24, 24, 128), 3, 2), True, 0)  # the grid conv2 reads at paper geometry
@settings(max_examples=100, deadline=None)
def test_windows_match_the_flat_index_gather(case, prefilled, seed):
    shape, kernel, axes = case
    rng = np.random.default_rng(seed)
    params = _grid_store(rng.normal(size=shape))
    lean = nm.windows(params["x"], kernel, axes)
    dense = _reference_windows(params["x"], kernel, axes)
    assert lean.shape == dense.shape
    assert _bits(lean.data) == _bits(dense.data)
    weights = rng.normal(size=lean.shape)
    # with prefilled, a dense use of x, whose backward runs first, fills its
    # gradient and the windows add into it
    extra = (params["x"] * rng.normal(size=shape)).sum() if prefilled else Tensor(0.0)
    lean_grad = gradients_of(extra + (lean * weights).sum(), params)["x"]
    dense_grad = gradients_of(extra + (dense * weights).sum(), params)["x"]
    assert _bits(lean_grad) == _bits(dense_grad)


@pytest.mark.parametrize("shape, axes", [((2, 3), 1), ((3, 2, 1), 2), ((), 1)])
def test_windows_larger_than_the_input_are_a_shape_error(shape, axes):
    with pytest.raises(nm.ShapeError, match="windows"):
        nm.windows(Tensor(np.zeros(shape)), 3, axes)


# -- convolution without a kept im2col matrix --------------------------------------------


@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(min_value=1, max_value=4))
    # from one output cell up, odd and even grids alike; the tail rows and
    # columns read past x's last one make up the rest of the logical side
    rows, cols = (draw(st.integers(min_value=kernel, max_value=kernel + 5)) for _ in range(2))
    h, w = (draw(st.sampled_from(sorted({v for v in (n, n - 1, n // 2, 1) if v >= 1})))
            for n in (rows, cols))
    channels, out_ch = (draw(st.integers(min_value=1, max_value=3)) for _ in range(2))
    return (h, w, channels), (rows, cols), out_ch, kernel


@given(conv_cases(), st.booleans(), seed_st)
@example(((22, 22, 64), (22, 22), 32, 3), True, 0)  # conv3's input at paper geometry, narrower
@example(((3, 22, 8), (22, 22), 4, 3), False, 0)  # a short sentence against a full one
@example(((2, 3, 2), (5, 4), 2, 2), True, 1)  # tails on both axes, prefilled
@settings(max_examples=150, deadline=None)
def test_conv2d_matches_windows_and_linear(case, prefilled, seed):
    shape, (rows, cols), out_ch, kernel = case
    rng = np.random.default_rng(seed)
    params = ParamStore()
    params.add("x", rng.normal(size=shape))
    params.add("w", rng.normal(size=(kernel * kernel * shape[2], out_ch)))
    params.add("b", rng.normal(size=out_ch))
    x, w, b = params["x"], params["w"], params["b"]
    lean = nm.conv2d(x, w, b, kernel, rows, cols)
    out_shape = (rows - kernel + 1, cols - kernel + 1, out_ch)
    dense = nm.relu(nm.linear(nm.windows(repeat_tail(x, rows, cols), kernel, 2), w, b))
    dense = dense.reshape(*out_shape)
    assert lean.shape == out_shape
    assert _bits(lean.data) == _bits(dense.data)
    weights = rng.normal(size=out_shape)
    # with prefilled, a dense use of x, whose backward runs first, fills its
    # gradient and the convolution adds into it
    extra = (x * rng.normal(size=shape)).sum() if prefilled else Tensor(0.0)
    lean_grads = gradients_of(extra + (lean * weights).sum(), params)
    dense_grads = gradients_of(extra + (dense * weights).sum(), params)
    for name in ("w", "b"):
        assert _bits(lean_grads[name]) == _bits(dense_grads[name]), name
    if prefilled and (rows, cols) != shape[:2]:
        # the reference adds x's share into the prefilled gradient before the
        # copies' sum, the fold after it: the same terms in another order
        np.testing.assert_allclose(lean_grads["x"], dense_grads["x"], rtol=1e-12, atol=1e-15)
    else:
        assert _bits(lean_grads["x"]) == _bits(dense_grads["x"])


@pytest.mark.parametrize("x_shape, w_shape, b_shape", [
    ((2, 3, 1), (9, 2), (2,)),  # grid smaller than the kernel
    ((3, 3), (9, 2), (2,)),  # no channel axis
    ((3, 3, 2), (9, 2), (2,)),  # weight rows are not k * k * C
    ((3, 3, 1), (9, 2), (3,)),  # bias does not match the filters
])
def test_conv2d_shape_errors_name_the_op(x_shape, w_shape, b_shape):
    with pytest.raises(nm.ShapeError, match="conv2d"):
        nm.conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)), 3,
                  *x_shape[:2])


# -- a convolution fused with the 2x2 pool after it ---------------------------------------


@st.composite
def conv_pool_cases(draw):
    """A `conv_cases` case and the side the pool reads the convolution's grid as.

    From the grid's own side up to three rows and columns of copies past it,
    odd sides among them, at least 2 x 2.
    """
    shape, side, out_ch, kernel = draw(conv_cases())
    pool = tuple(draw(st.integers(min_value=max(n, 2), max_value=max(n, 2) + 3))
                 for n in (side[0] - kernel + 1, side[1] - kernel + 1))
    return shape, side, pool, out_ch, kernel


def _conv_pool_params(shape, out_ch, kernel, kind, rng):
    """x, w and b drawn from a normal, or from {-1, -0, 0, 1}: integer sums, many ties and cuts.

    With a zero weight every cell of a channel is the relu of its bias, so
    every block ties, cut to zero or not.
    """
    draw = rng.normal if kind == "normal" else (
        lambda size: rng.choice([-1.0, -0.0, 0.0, 1.0], size=size))
    params = ParamStore()
    params.add("x", draw(size=shape))
    params.add("w", draw(size=(kernel * kernel * shape[2], out_ch)) * (kind != "zero weight"))
    params.add("b", draw(size=out_ch))
    return params


@given(conv_pool_cases(), st.sampled_from(["normal", "few values", "zero weight"]), seed_st)
@example(((22, 22, 16), (22, 22), (20, 20), 8, 3), "normal", 0)  # conv2 and its pool, narrower
@example(((3, 22, 4), (22, 22), (20, 20), 4, 3), "few values", 0)  # a short sentence's rows
@example(((2, 3, 2), (4, 5), (3, 5), 2, 2), "few values", 1)  # odd pool sides, copies on both axes
@example(((1, 1, 1), (3, 3), (2, 2), 1, 3), "few values", 2)  # one cell, copied into a block
@example(((6, 5, 2), (8, 9), (8, 7), 3, 3), "zero weight", 3)
@settings(max_examples=200, deadline=None)
def test_conv2d_pool_matches_conv2d_then_max_pool(case, kind, seed):
    shape, side, pool, out_ch, kernel = case
    rng = np.random.default_rng(seed)
    params = _conv_pool_params(shape, out_ch, kernel, kind, rng)
    x, w, b = params["x"], params["w"], params["b"]
    fused = nm.conv2d_pool(x, w, b, kernel, *side, *pool)
    # the two ops, and the convolution's copied grid pooled by argmax
    references = [nm.max_pool_2x2(nm.conv2d(x, w, b, kernel, *side), *pool),
                  ref.max_pool_2x2(repeat_tail(nm.conv2d(x, w, b, kernel, *side), *pool))]
    assert fused.shape == (pool[0] // 2, pool[1] // 2, out_ch)
    # negative and signed-zero upstream gradients on blocks the relu cut to
    # zero give signed zeros that only a mask taken after the fold keeps
    weights = rng.choice([-2.0, -0.0, 0.0, 0.5], size=fused.shape) if kind != "normal" else (
        rng.normal(size=fused.shape))
    fused_grads = gradients_of((fused * weights).sum(), params)
    for reference in references:
        assert _bits(fused.data) == _bits(reference.data)
        reference_grads = gradients_of((reference * weights).sum(), params)
        for name in ("x", "w", "b"):
            assert _bits(fused_grads[name]) == _bits(reference_grads[name]), name


def test_conv2d_pool_keeps_uint8_winners_on_the_tape_and_none_without_it(rng, monkeypatch):
    params = _conv_pool_params((5, 6, 2), 4, 3, "normal", rng)
    args = (params["x"], params["w"], params["b"], 3, 7, 8, 6, 6)
    taped = nm.conv2d_pool(*args)
    ((op, node, buffers),) = [h for h in tape_holdings(taped.sum(), params) if h[1] is taped]
    assert op == "conv2d_pool"
    assert [(a.dtype, a.shape) for a in buffers] == [(np.float64, (3, 3, 4)),
                                                      (np.uint8, (3, 3, 4))]
    asked = []
    winners = nm._block_winners
    monkeypatch.setattr(nm, "_block_winners", lambda views, codes: (
        asked.append(codes) or winners(views, codes)))
    with nm.no_tape():
        untaped = nm.conv2d_pool(*args)
    assert asked == [False]
    assert untaped._backward_fn is None
    assert _bits(untaped.data) == _bits(taped.data)


@pytest.mark.parametrize("side, pool", [
    ((5, 5), (2, 4)),  # the pool reads fewer rows than the 3 x 3 convolution has
    ((5, 5), (4, 2)),  # and fewer columns
    ((3, 3), (1, 2)),  # a pool side below 2
])
def test_conv2d_pool_side_short_of_the_convolution_is_a_shape_error(side, pool):
    x = Tensor(np.zeros((3, 3, 1)))
    with pytest.raises(nm.ShapeError, match="conv2d_pool"):
        nm.conv2d_pool(x, np.zeros((9, 2)), np.zeros(2), 3, *side, *pool)


@pytest.mark.parametrize("op", ["conv2d", "conv2d_pool", "max_pool_2x2"])
def test_a_logical_side_short_of_the_grid_is_a_shape_error(op):
    x = Tensor(np.zeros((4, 5, 1)))
    call = {
        "conv2d": lambda rows, cols: nm.conv2d(x, np.zeros((9, 2)), np.zeros(2), 3, rows, cols),
        "conv2d_pool": lambda rows, cols: nm.conv2d_pool(x, np.zeros((9, 2)), np.zeros(2), 3,
                                                         rows, cols, 4, 4),
        "max_pool_2x2": lambda rows, cols: nm.max_pool_2x2(x, rows, cols),
    }[op]
    call(4, 5)  # the grid's own side
    for rows, cols in [(3, 5), (4, 4)]:
        with pytest.raises(nm.ShapeError, match=op):
            call(rows, cols)


@pytest.mark.parametrize("h, w, rows, cols, channels, kind", [
    (1, 1, 10, 10, 1, "normal"),  # nine copies of a one-channel grid's last row and column
    (3, 2, 12, 13, 1, "normal"),
    (3, 2, 6, 7, 4, "signed zeros"),
])
def test_edge_fold_sums_the_copies_in_order(h, w, rows, cols, channels, kind, rng):
    # what conv2d and max_pool_2x2 backward do with the gradient of a read past
    # the grid's last row and column, against backward through `repeat_tail`
    shape = (rows, cols, channels)
    g = rng.normal(size=shape) if kind == "normal" else np.full(shape, -0.0)
    params = _grid_store(rng.normal(size=(h, w, channels)))
    dense = gradients_of((repeat_tail(params["x"], rows, cols) * g).sum(), params)["x"]
    assert _bits(nm._fold_edges(g.copy(), h, w)) == _bits(dense)


# -- the layer-1 cross sum and the GRU input projection ----------------------------------


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3), st.booleans(), seed_st)
@example(1, 1, 2, True, 3)
@settings(max_examples=60, deadline=None)
def test_relu_cross_sum_matches_broadcast_adds(m, n, f, signed_zeros, seed):
    rng = np.random.default_rng(seed)
    params = ParamStore()
    for name, shape in (("a", (m, f)), ("b", (n, f)), ("bias", (f,))):
        params.add(name, rng.normal(size=shape))
    a, b, bias = params["a"], params["b"], params["bias"]
    lean = nm.relu_cross_sum(a, b, bias)
    dense = nm.relu(a.reshape(m, 1, f) + b.reshape(1, n, f) + bias)
    assert _bits(lean.data) == _bits(dense.data)
    # negative upstream gradients on cells the relu cuts give signed zeros
    weights = -np.abs(rng.normal(size=(m, n, f))) if signed_zeros else rng.normal(size=(m, n, f))
    lean_grads = gradients_of((nm.tanh(lean) * weights).sum(), params)
    dense_grads = gradients_of((nm.tanh(dense) * weights).sum(), params)
    for name in ("a", "b", "bias"):
        assert _bits(lean_grads[name]) == _bits(dense_grads[name]), name


@pytest.mark.parametrize("a_shape, b_shape, bias_shape", [
    ((2, 3), (2, 4), (3,)),  # a and b differ in width
    ((2, 3), (2, 3), (4,)),  # the bias does not match them
    ((2, 3), (3,), (3,)),  # b is not a matrix
    ((2, 1, 3), (2, 3), (3,)),  # nor is a
])
def test_relu_cross_sum_shape_errors_name_the_op(a_shape, b_shape, bias_shape):
    with pytest.raises(nm.ShapeError, match="relu_cross_sum"):
        nm.relu_cross_sum(np.zeros(a_shape), np.zeros(b_shape), np.zeros(bias_shape))


# -- layer 1 fused with the first pool --------------------------------------------------

VOCAB = small_vocab()
WORDS = list(VOCAB.id_to_token[3:])
sentence_st = st.lists(st.sampled_from(WORDS), min_size=1, max_size=12)


@given(sentence_st, sentence_st, st.sampled_from([2, 3]), seed_st)
@settings(max_examples=40, deadline=None)
def test_fused_layer1_pool_matches_pooling_the_full_grid(a_words, b_words, window, seed):
    config = tiny_coherence_config(VOCAB.size, window=window)  # grid 9 (odd) or 8
    params = init_coherence_params(config, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for _, p in params.items():
        p.data[:] = rng.uniform(-0.5, 0.5, size=p.data.shape)
    a = make_sentence(" ".join(a_words), VOCAB, config.max_tokens).ids
    b = make_sentence(" ".join(b_words), VOCAB, config.max_tokens).ids
    # layer 1 builds the pooled rows up to each sentence's tail; repeating the
    # tail row and column gives the pooled grid the next stage reads
    side = stack_plan(config)[0][0][-1]
    fused = repeat_tail(interaction_layer1(a, b, params, config), side, side)
    unfused = ref.max_pool_2x2(ref.layer1_grid(a, b, params, config))[:side, :side]
    assert _bits(fused.data) == _bits(unfused.data)
    weights = rng.normal(size=fused.shape)
    assert_grads_close(gradients_of((fused * weights).sum(), params),
                       gradients_of((unfused * weights).sum(), params),
                       rel_tol=1e-12, abs_tol=1e-15)


# -- row-sparse embedding gradients -------------------------------------------------------


TABLE_ROWS = 9


def _table_store(seed):
    params = ParamStore()
    params.add("table", np.random.default_rng(seed).normal(size=(TABLE_ROWS, 4)))
    params.add("w", np.random.default_rng(seed + 1).normal(size=(4,)))
    return params


def _gather_loss(gather, params, index_lists, dense_use=False, through_op=False):
    table = params["table"] * 2.0 if through_op else params["table"]
    loss = Tensor(0.0)
    for k, idx in enumerate(index_lists):
        rows = gather(table, idx)
        loss = loss + nm.tanh(rows * params["w"] * (k + 1.0)).sum()
        if dense_use and k == 0:
            loss = loss + (table * table).sum() * 0.5
    return loss


row_st = st.integers(min_value=0, max_value=TABLE_ROWS - 1)
indices_st = st.lists(st.lists(row_st, min_size=1, max_size=12), min_size=1, max_size=4)
# at most TABLE_ROWS - 1 ids in all, so the gradient stays row segments
few_indices_st = st.lists(st.lists(row_st, min_size=1, max_size=4), min_size=1, max_size=2)


@given(indices_st, st.booleans(), st.booleans(), seed_st)
@settings(max_examples=80, deadline=None)
def test_row_grad_matches_dense_scatter(index_lists, dense_use, through_op, seed):
    params = _table_store(seed % 1000)
    loss = lambda gather: _gather_loss(gather, params, index_lists, dense_use, through_op)
    sparse = gradients_of(loss(nm.gather_rows), params, dense=False)
    dense = gradients_of(loss(ref.gather_rows), params)
    for name in ("table", "w"):
        assert _bits(dense_gradient(sparse[name], params[name].data.shape)) == _bits(dense[name])
    if dense_use or through_op or sum(map(len, index_lists)) >= TABLE_ROWS:
        assert gradient_form(sparse["table"]) == "dense"
    else:
        segments = sparse["table"]
        assert gradient_form(segments) == "rows"
        assert sorted(np.concatenate([idx for idx, _ in segments])) == sorted(
            np.concatenate(index_lists))


@pytest.mark.parametrize("n_ids", [TABLE_ROWS - 1, TABLE_ROWS, TABLE_ROWS + 1, 5 * TABLE_ROWS])
def test_gathers_with_as_many_ids_as_table_rows_give_a_dense_gradient(n_ids):
    # ids spread over several gathers, with repeats, so segments cross the row count mid-way
    ids = np.random.default_rng(n_ids).integers(0, TABLE_ROWS, size=n_ids)
    index_lists = np.array_split(ids, 3)
    params = _table_store(n_ids)
    sparse = gradients_of(_gather_loss(nm.gather_rows, params, index_lists), params,
                          dense=False)["table"]
    dense = gradients_of(_gather_loss(ref.gather_rows, params, index_lists), params)["table"]
    assert gradient_form(sparse) == ("dense" if n_ids >= TABLE_ROWS else "rows")
    assert _bits(dense_gradient(sparse, (TABLE_ROWS, 4))) == _bits(dense)


@given(few_indices_st, st.floats(min_value=-2.0, max_value=2.0), seed_st)
@settings(max_examples=40, deadline=None)
def test_sparse_sgd_step_matches_dense(index_lists, lr, seed):
    sparse_params, dense_params = _table_store(seed % 1000), _table_store(seed % 1000)
    grads = gradients_of(_gather_loss(nm.gather_rows, sparse_params, index_lists), sparse_params,
                         dense=False)
    assert gradient_form(grads["table"]) == "rows"
    for name, g in grads.items():
        nm.sgd_step(sparse_params[name], g, lr, name)
    ref.sgd_step(dense_params, {name: dense_gradient(g, dense_params[name].data.shape)
                                for name, g in grads.items()}, lr)
    for name, p in sparse_params.items():
        assert _bits(p.data) == _bits(dense_params[name].data)


def _mixed_loss(gather, matmul, params, uses, through_op):
    """A table reached by each of `uses` in turn: a `gather_rows`, a `matmul` and a dense op.

    The gathers repeat a row within one segment, and the product's g is
    smaller than the table, so a leaf would keep either kind alone.
    """
    table = params["table"] * 2.0 if through_op else params["table"]
    x = Tensor(np.random.default_rng(3).normal(size=(3, TABLE_ROWS)))
    build = {
        "gather": lambda: nm.tanh(gather(table, [0, 2, 2, 5]) * params["w"]).sum(),
        "matmul": lambda: nm.tanh(matmul(x, table) * params["w"]).sum(),
        "dense": lambda: (table * table).sum() * 0.5,
    }
    loss = Tensor(0.0)
    for use in uses:
        loss = loss + build[use]()
    return loss


@pytest.mark.parametrize("through_op", [False, True], ids=["leaf", "through an op"])
@pytest.mark.parametrize("uses", [("gather", "matmul"), ("matmul", "gather"),
                                  ("gather", "dense", "matmul"), ("matmul", "dense", "gather"),
                                  ("gather", "matmul", "gather")], ids="-".join)
def test_segments_and_products_on_one_table_match_the_dense_scatter_and_product(uses,
                                                                                 through_op):
    # the backward walk hands the table its terms in the order of `uses`
    params = _table_store(4)
    fast = gradients_of(_mixed_loss(nm.gather_rows, nm.matmul, params, uses, through_op), params)
    dense = gradients_of(_mixed_loss(ref.gather_rows, ref.matmul, params, uses, through_op),
                         params)
    for name in ("table", "w"):
        assert _bits(fast[name]) == _bits(dense[name]), name


# -- weight gradients kept as their two factors -------------------------------------------


def _matmul_product(a_shape, g_shape):
    """Draws a `_Product` of the shapes and its dense form, as `matmul`'s backward pairs them."""
    def make(rng):
        a, g = rng.normal(size=a_shape), rng.normal(size=g_shape)
        a2, g2 = a.reshape(-1, a.shape[-1]), g.reshape(-1, g.shape[-1])
        return nm._Product(a2, g2), a2.T @ g2
    return make


def _conv_rows(x, side, kernel):
    """The im2col rows of x read as side, its last row and column copied by `np.pad`."""
    extra = [(0, n - m) for n, m in zip(side, x.shape[:2])] + [(0, 0)]
    return nm._window_rows(np.pad(x, extra, mode="edge"), kernel, 2)


def _conv_product(x_shape, side, kernel, n):
    """Draws `conv2d`'s weight product over an x read as side, and the dense im2col product."""
    def make(rng):
        x = rng.normal(size=x_shape)
        im2col = _conv_rows(x, side, kernel)
        g = rng.normal(size=(len(im2col), n))
        return nm._Product(nm._Windows(x, kernel, *side), g), im2col.T @ g
    return make


PRODUCTS = {
    # the product a.T @ g has a's columns as rows and g's columns
    "rows leave a remainder": _matmul_product((3, 37), (3, 1000)),  # 16-row blocks, then 5 rows
    "a last row joins its block": _matmul_product((3, 33), (3, 1000)),  # 16 and 17 rows, never 1
    "wider than a block": _matmul_product((3, 5), (3, nm.SGD_BLOCK + 3)),  # 2-row blocks, then 3
    "one row": _matmul_product((4, 1), (4, 9)),
    "1-D a": _matmul_product((7,), (9,)),  # contexts.mean(axis=0) @ doc_w
    # conv2d's weight product, whose a is the im2col rows of its input grid
    "conv blocks span window offsets": _conv_product((4, 5, 7), (6, 6), 3, 5000),  # 3-row blocks
    "conv with no copied row": _conv_product((5, 4, 3), (5, 4), 2, 40),
    "conv one window wide": _conv_product((3, 1, 2), (5, 3), 3, 4),  # overlapping window rows
    "conv of one filter": _conv_product((4, 5, 3), (6, 6), 3, 1),
    "conv2 at paper geometry": _conv_product((12, 22, 128), (22, 22), 3, 256),
    "conv3 at paper geometry": _conv_product((7, 10, 256), (10, 10), 3, 512),
}


@pytest.mark.parametrize("make", PRODUCTS.values(), ids=PRODUCTS.keys())
def test_product_blocks_cover_its_rows_with_two_or_more_each(make):
    product, dense = make(np.random.default_rng(0))
    spans = [(rows.start, rows.stop) for rows, _ in nm._blocks([product])]
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
    assert spans[-1][1] == len(dense)
    assert all(hi - lo == max(2, nm.SGD_BLOCK // dense.shape[1]) for lo, hi in spans[:-1])
    assert spans[-1][1] - spans[-1][0] >= min(2, len(dense))


@pytest.mark.parametrize("make", PRODUCTS.values(), ids=PRODUCTS.keys())
def test_product_step_and_accumulation_match_the_dense_product(make):
    made = [make(np.random.default_rng(seed)) for seed in range(4)]
    if isinstance(made[0][0].a, nm._Windows):  # its column blocks are the im2col rows' columns
        windows = made[0][0].a
        im2col = _conv_rows(windows.x, (windows.rows, windows.cols), windows.kernel)
        for span in nm._row_spans(*made[0][0].shape):
            assert _bits(windows.columns(span)) == _bits(im2col[:, span])
    start = np.random.default_rng(9).normal(size=made[0][1].shape)
    for count in range(1, 5):  # sums of 1 to 4 products, against the sum of their dense forms
        products = [product for product, _ in made[:count]]
        dense = made[0][1].copy()
        into_start = start + made[0][1]
        for _, later in made[1:count]:
            dense += later
            into_start += later
        fused, reference = Tensor(start.copy()), Tensor(start.copy())
        nm.sgd_step(fused, products, 0.3, "w")
        nm.sgd_step(reference, dense, 0.3, "w")
        assert _bits(fused.data) == _bits(reference.data), count
        assert _bits(dense_gradient(products, dense.shape)) == _bits(dense), count
        # added into an op's gradient, which keeps no product: into none, whose
        # first product is multiplied out, and into a dense one
        for first in (None, start.copy()):
            op_output = nm.tanh(Tensor(np.zeros(dense.shape), requires_grad=True))
            op_output.grad = first
            for product in products:
                nm._accumulate(op_output, product)
            assert _bits(op_output.grad) == _bits(dense if first is None else into_start)


def test_a_leaf_keeps_a_first_product_only_when_its_factors_are_smaller():
    # a leaf keeps its products while the bytes only they keep alive, each g and
    # each a that backward built, stay below its own: a [6, 5] leaf holds 30 elements
    rng = np.random.default_rng(0)
    taped = lambda rows: nm._Product(rng.normal(size=(rows, 6)), rng.normal(size=(rows, 5)))
    leaf = Tensor(np.zeros((6, 5)), requires_grad=True)
    products = [taped(4), taped(1)]  # a tape-held a costs nothing: 20, then 25 elements
    for product in products:
        nm._accumulate(leaf, product)
        assert gradient_form(leaf.grad) == "products"
    assert leaf.grad == products
    last = taped(1)  # 30 elements: the sum is multiplied out
    nm._accumulate(leaf, last)
    dense = products[0].a.T @ products[0].g
    for product in (products[1], last):
        dense += product.a.T @ product.g
    assert _bits(leaf.grad) == _bits(dense)
    built = nm._Product(rng.normal(size=(2, 6)), rng.normal(size=(2, 5)), built=True)
    leaf = Tensor(np.zeros((6, 5)), requires_grad=True)
    nm._accumulate(leaf, built)  # 12 + 10 elements
    assert leaf.grad == [built]
    nm._accumulate(leaf, built)  # 44
    assert isinstance(leaf.grad, np.ndarray)
    op_output = nm.tanh(Tensor(np.zeros((6, 5)), requires_grad=True))
    nm._accumulate(op_output, products[1])
    assert _bits(op_output.grad) == _bits(products[1].a.T @ products[1].g)
    large = nm._Product(rng.normal(size=(6, 2)), rng.normal(size=(6, 3)))  # 18 for 6
    leaf = Tensor(np.zeros((2, 3)), requires_grad=True)
    nm._accumulate(leaf, large)
    assert _bits(leaf.grad) == _bits(large.a.T @ large.g)


def test_product_step_that_overflows_raises():
    # the overflow is in the last of three 2-row blocks; the step must raise, not
    # warn, and write no block it made non-finite
    a = np.ones((1, 6))
    a[0, -1] = -1e308
    product = nm._Product(a, np.ones((1, nm.SGD_BLOCK)))
    params = ParamStore()
    params.add("w", np.ones((6, nm.SGD_BLOCK)))
    with warnings.catch_warnings(), pytest.raises(FloatingPointError, match="'w'"):
        warnings.simplefilter("error")
        nm.sgd_step(params["w"], [product], 1e308, "w")
    assert np.isfinite(params["w"].data).all()


def _left_parameter_store():
    params = ParamStore()
    params.add("x", np.random.default_rng(12).normal(size=(1, 8)))
    params.add("w", np.random.default_rng(13).normal(size=(8, 8)))
    return params


def test_a_product_steps_before_the_parameter_its_factor_reads():
    # w's gradient is the product x.T @ g, and x and w are complete at the same
    # matmul: x steps first, so w's gradient is multiplied out before x moves
    params = _left_parameter_store()
    loss = lambda params: nm.tanh(params["x"] @ params["w"]).sum()
    assert gradient_form(gradients_of(loss(params), params, dense=False)["w"]) == "dense"
    assert _assert_step_matches_two_pass(_left_parameter_store, loss) == ["x", "w"]


@pytest.mark.parametrize("first", ["parameter", "constant"])
def test_a_sum_that_reads_a_parameter_is_multiplied_out_before_that_parameter_steps(first):
    # p2 gets the products p1.T @ g and q.T @ g; p1 completes, and steps, at the
    # first matmul while the second still adds to p2's gradient, so a sum kept
    # past p1's step would multiply out the stepped p1
    def make_params():
        params = ParamStore()
        params.add("p1", np.random.default_rng(14).normal(size=(3, 4)))
        params.add("p2", np.random.default_rng(15).normal(size=(4, 50)))
        return params

    q = Tensor(np.random.default_rng(16).normal(size=(3, 4)))

    def loss(params):
        terms = [(params["p1"] @ params["p2"]).sum(), (q @ params["p2"]).sum()]
        return terms[0] + terms[1] if first == "parameter" else terms[1] + terms[0]

    assert _assert_step_matches_two_pass(make_params, loss, lr=0.1) == ["p1", "p2"]


# -- stepping each parameter inside backward vs the two-pass step -------------------------


def _assert_step_matches_two_pass(make_params, build_loss, lr=0.3):
    """`gradients` with lr steps every parameter to the same bits as `ref.two_pass_step`."""
    fused, two_pass, before = make_params(), make_params(), make_params()
    assert nm.gradients(build_loss(fused), fused, lr) is None
    ref.two_pass_step(build_loss(two_pass), two_pass, lr)
    moved = [name for name, p in fused.items() if _bits(p.data) != _bits(before[name].data)]
    assert moved
    for name, p in fused.items():
        assert _bits(p.data) == _bits(two_pass[name].data), name
    return moved


def test_coherence_batch_step_matches_two_pass():
    # both convolutions run and every stage reads tail rows
    vocab = small_vocab()
    config = tiny_coherence_config(vocab.size, max_tokens=30, conv_filters=(4, 6, 8))
    sentence = lambda text: make_sentence(text, vocab, config.max_tokens)
    triplets = [CoherenceTriplet(sentence(a), sentence(p), sentence(n), positions=(0, 1, 2))
                for a, p, n in [("alpha beta gamma delta", "epsilon zeta", "eta"),
                                ("theta iota kappa", "alpha alpha beta", "gamma delta zeta eta")]]
    moved = _assert_step_matches_two_pass(
        lambda: init_coherence_params(config, np.random.default_rng(5)),
        lambda params: triplet_loss(triplets, params, config) / len(triplets))
    assert {"embed", "fc1_w", "conv2_w", "conv3_w"} <= set(moved)


def test_pretrain_batch_step_matches_two_pass():
    vocab = small_vocab()
    config = tiny_extractor_config(vocab.size)
    rng = np.random.default_rng(6)
    batch = [(toy_document(f"d{i}", rng, vocab, n_sentences=4 + i), [1, 0, 0, 1, 0][: 4 + i])
             for i in range(2)]
    moved = _assert_step_matches_two_pass(
        lambda: init_extractor_params(config, np.random.default_rng(7)),
        lambda params: sum(pretrain_loss(doc, labels, params, config)
                           for doc, labels in batch) / len(batch))
    assert {"embed", "gru_fwd_z_v", "mlp_w1"} <= set(moved)


def test_policy_gradient_step_matches_two_pass():
    # the embedding gets row segments (a 200-row table, 50 ids gathered), the head
    # reads `mlp_w1` through three slices, and the returns are constants
    vocab = small_vocab()
    config = tiny_extractor_config(200)
    doc = toy_document("d", np.random.default_rng(8), vocab, n_sentences=5)
    episode = Episode(decisions=[1, 0, 1, 1, 0], returns=[0.5, -0.25, 1.0, 0.75, 0.125])
    make_params = lambda: init_extractor_params(config, np.random.default_rng(9))
    surrogate = lambda params: surrogate_objective(
        params, doc, encode_document(doc, params, config), episode)
    fused, two_pass, before = make_params(), make_params(), make_params()
    handed = gradients_of(-surrogate(before), before, dense=False)
    assert gradient_form(handed["embed"]) == "rows"
    policy_gradient_step(fused, doc, encode_document(doc, fused, config), episode, 0.3)
    ref.two_pass_step(-surrogate(two_pass), two_pass, 0.3)
    for name, p in fused.items():
        assert _bits(p.data) == _bits(two_pass[name].data), name
    for name in ("embed", "mlp_w1"):
        assert _bits(fused[name].data) != _bits(before[name].data)


def _policy_case():
    config = tiny_extractor_config(200)
    doc = toy_document("d", np.random.default_rng(8), small_vocab(), n_sentences=5)
    episode = Episode(decisions=[1, 0, 1, 1, 0], returns=[0.5, -0.25, 1.0, 0.75, 0.125])
    params = init_extractor_params(config, np.random.default_rng(9))
    return params, lambda: -surrogate_objective(
        params, doc, encode_document(doc, params, config), episode)


def _coherence_case():
    vocab = small_vocab()
    config = tiny_coherence_config(vocab.size, max_tokens=30, conv_filters=(4, 6, 8))
    sentence = lambda text: make_sentence(text, vocab, config.max_tokens)
    triplets = [CoherenceTriplet(sentence(a), sentence(p), sentence(n), positions=(0, 1, 2))
                for a, p, n in [("alpha beta gamma", "delta epsilon", "zeta eta theta"),
                                ("iota kappa", "alpha beta", "gamma")]]
    params = init_coherence_params(config, np.random.default_rng(5))
    return params, lambda: triplet_loss(triplets, params, config) / len(triplets)


@pytest.mark.parametrize("case", [_policy_case, _coherence_case], ids=["policy", "coherence"])
def test_each_reached_parameter_is_handed_to_sgd_step_once(case):
    # the policy head reads `mlp_w1` through three slices and its `embed` stays
    # row segments; the triplet loss gathers the coherence `embed` once per sentence
    params, build_loss = case()
    unused = params.add("unused", np.ones(3))
    handed = sgd_hand_offs(build_loss(), params)
    names = [name for name, _ in handed]
    assert sorted(names) == sorted(set(params.names()) - {"unused"})
    if case is _policy_case:
        assert gradient_form(dict(handed)["embed"]) == "rows"
    else:  # the FC head's weight gradients stay two factors
        assert gradient_form(dict(handed)["fc1_w"]) == "products"
    before = {name: _bits(p.data) for name, p in params.items()}
    nm.gradients(build_loss(), params, 0.3)
    assert _bits(unused.data) == before["unused"]
    assert all(_bits(p.data) != before[name] for name, p in params.items() if name != "unused")


def _view_store():
    params = ParamStore()
    params.add("w", np.random.default_rng(10).normal(size=(3, 2)))
    params.add("q", np.random.default_rng(11).normal(size=(2, 2)))
    return params


def _view_loss(params):
    """w read through a `take_slice` view deep in the graph and directly near the loss.

    The deep matmul reads the view's buffer, w's own, in backward for h's
    gradient, after the shallow matmul's backward has run: stepping w at its
    first consumer would hand q's gradient a stepped w.
    """
    w, q = params["w"], params["q"]
    h = nm.tanh(Tensor(np.arange(8.0).reshape(4, 2) / 8.0) @ q)
    deep = nm.tanh(h @ w[0:2])
    shallow = nm.concat([deep, h[:, 0:1]], axis=1) @ w
    return nm.tanh(shallow).sum()


def test_parameter_read_through_a_view_steps_after_its_deepest_consumer():
    moved = _assert_step_matches_two_pass(_view_store, _view_loss)
    assert moved == ["w", "q"]

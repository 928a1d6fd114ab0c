"""Numeric fast paths vs the dense reference forms they replace.

The reference (tests/reference_numeric.py) pools by argmax over a copy of the
2x2 blocks, scatters embedding gradients into a dense table, and sweeps the
whole table in SGD. The fast paths do the same arithmetic in the same order,
so values and gradients must agree bit for bit; only the fused layer-1 pool
sums its gradients over fewer (all-zero) terms and is held to rel 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_numeric as ref
from cohsum import numeric as nm
from cohsum.coherence import init_coherence_params, interaction_layer1
from cohsum.corpus import make_sentence
from cohsum.numeric import ParamStore, RowGrad, Tensor

from conftest import assert_grads_close, small_vocab, tiny_coherence_config

seed_st = st.integers(min_value=0, max_value=2**31)


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _grid_store(x):
    params = ParamStore()
    params.add("x", x)
    return params


def _assert_pool_matches_reference(x, seed):
    weights = np.random.default_rng(seed).normal(size=(x.shape[0] // 2, x.shape[1] // 2, x.shape[2]))
    params = _grid_store(x)
    lean, dense = nm.max_pool_2x2(params["x"]), ref.max_pool_2x2(params["x"])
    assert _bits(lean.data) == _bits(dense.data)
    lean_grad = nm.gradients((lean * weights).sum(), params)["x"]
    dense_grad = nm.gradients((dense * weights).sum(), params)["x"]
    assert _bits(lean_grad) == _bits(dense_grad)


# -- max pool ------------------------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["normal", "few values"]),
    seed_st,
)
@settings(max_examples=80, deadline=None)
def test_pool_matches_reference(h, w, c, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.normal(size=(h, w, c))
    else:  # many ties, signed zeros among them
        x = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(h, w, c))
    _assert_pool_matches_reference(x, seed)


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
    _assert_pool_matches_reference(x, 7)


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
    fused = interaction_layer1(a, b, params, config, pooled=True)
    unfused = ref.max_pool_2x2(interaction_layer1(a, b, params, config))
    assert _bits(fused.data) == _bits(unfused.data)
    weights = rng.normal(size=fused.shape)
    assert_grads_close(nm.gradients((fused * weights).sum(), params),
                       nm.gradients((unfused * weights).sum(), params),
                       rel_tol=1e-12, abs_tol=1e-15)


# -- row-sparse embedding gradients -------------------------------------------------------


def _table_store(seed):
    params = ParamStore()
    params.add("table", np.random.default_rng(seed).normal(size=(9, 4)))
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


indices_st = st.lists(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=12),
                      min_size=1, max_size=4)


@given(indices_st, st.booleans(), st.booleans(), seed_st)
@settings(max_examples=80, deadline=None)
def test_row_grad_matches_dense_scatter(index_lists, dense_use, through_op, seed):
    params = _table_store(seed % 1000)
    sparse = nm.gradients(_gather_loss(nm.gather_rows, params, index_lists, dense_use, through_op),
                          params)
    dense = nm.gradients(_gather_loss(ref.gather_rows, params, index_lists, dense_use, through_op),
                         params)
    for name in ("table", "w"):
        assert _bits(sparse[name]) == _bits(dense[name])
    if dense_use or through_op:
        assert isinstance(sparse["table"], np.ndarray)
    else:
        grad = sparse["table"]
        assert isinstance(grad, RowGrad) and grad.shape == (9, 4)
        assert np.array_equal(grad.rows, np.unique(np.concatenate(index_lists)))


@given(indices_st, st.floats(min_value=-2.0, max_value=2.0), seed_st)
@settings(max_examples=40, deadline=None)
def test_sparse_sgd_step_matches_dense(index_lists, lr, seed):
    sparse_params, dense_params = _table_store(seed % 1000), _table_store(seed % 1000)
    grads = nm.gradients(_gather_loss(nm.gather_rows, sparse_params, index_lists), sparse_params)
    assert isinstance(grads["table"], RowGrad)
    nm.sgd_step(sparse_params, grads, lr)
    ref.sgd_step(dense_params, grads, lr)
    for name, p in sparse_params.items():
        assert _bits(p.data) == _bits(dense_params[name].data)


"""Autodiff primitives vs finite differences, optimizer and checkpoint contracts."""

import json
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsum import numeric as nm
from cohsum.numeric import (
    CheckpointError,
    ParamStore,
    ShapeError,
    Tensor,
    gradients,
    linear,
    load_checkpoint,
    max_pool_2x2,
    read_header,
    save_checkpoint,
    sgd_step,
)

from cohsum import coherence, extractor
from conftest import (
    assert_grads_close,
    finite_difference_grads,
    gradients_of,
    tiny_coherence_config,
    tiny_extractor_config,
    traced_peak,
)
from reference_numeric import sigmoid


# -- forward contracts -----------------------------------------------------------


def test_linear_identity():
    y = linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    assert np.allclose(y.data, [1.0, 2.0])


def test_linear_small_case():
    y = linear(Tensor([1.0, 1.0]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
    assert np.allclose(y.data, [6.0])


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 2\)"):
        linear(Tensor([1.0, 2.0, 3.0]), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


def test_activation_values():
    assert sigmoid(Tensor(0.0)).item() == pytest.approx(0.5)
    assert nm.tanh(Tensor(0.0)).item() == 0.0
    assert nm.relu(Tensor(-3.0)).item() == 0.0
    assert nm.relu(Tensor(3.0)).item() == 3.0


def test_sigmoid_saturation_is_finite():
    assert sigmoid(Tensor(1000.0)).item() == 1.0
    assert nm.log_sigmoid(Tensor(-1000.0)).item() == -1000.0


def test_max_pool_single_block():
    grid = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
    assert max_pool_2x2(grid, 2, 2).data.reshape(()) == 4.0


def test_max_pool_floor_rule():
    out = max_pool_2x2(Tensor(np.arange(75, dtype=float).reshape(5, 5, 3)), 5, 5)
    assert out.shape == (2, 2, 3)


def test_max_pool_all_equal():
    out = max_pool_2x2(Tensor(np.full((4, 6, 2), 7.0)), 4, 6)
    assert out.shape == (2, 3, 2)
    assert np.all(out.data == 7.0)


def test_max_pool_rejects_small_grid():
    with pytest.raises(ShapeError):
        max_pool_2x2(Tensor(np.zeros((1, 4, 2))), 1, 4)


def test_max_pool_output_dominates_block(rng):
    x = rng.normal(size=(6, 8, 3))
    out = max_pool_2x2(Tensor(x), 6, 8).data
    for i in range(3):
        for j in range(4):
            for c in range(3):
                block = x[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c]
                assert out[i, j, c] == block.max()


# -- gradients --------------------------------------------------------------------


def test_gradients_require_scalar_loss():
    params = ParamStore()
    w = params.add("w", np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        gradients(w + 1.0, params, 0.1)


def test_gradient_of_sum_is_ones():
    params = ParamStore()
    w = params.add("w", np.arange(4.0).reshape(2, 2))
    grads = gradients_of(w.sum(), params)
    assert np.array_equal(grads["w"], np.ones((2, 2)))


def test_gradient_sigmoid_at_zero():
    params = ParamStore()
    w = params.add("w", 0.0)
    grads = gradients_of(sigmoid(w) * 3.0, params)
    assert grads["w"] == pytest.approx(0.25 * 3.0)


def test_unused_parameter_gets_zero_gradient():
    params = ParamStore()
    w = params.add("w", np.ones(3))
    params.add("unused", np.ones((2, 2)))
    grads = gradients_of((w * w).sum(), params)
    assert set(grads) == {"w", "unused"}
    assert np.all(grads["unused"] == 0.0)
    assert set(gradients_of((w * w).sum(), params, dense=False)) == {"w"}
    gradients((w * w).sum(), params, 0.1)
    assert np.array_equal(params["unused"].data, np.ones((2, 2)))
    assert np.allclose(w.data, 0.8)


def _fd_check(build_loss, params):
    analytic = gradients_of(build_loss(), params)
    numeric_grads = finite_difference_grads(lambda: build_loss().item(), params)
    assert_grads_close(analytic, numeric_grads)


def test_fd_linear_and_activations(rng):
    params = ParamStore()
    params.init_uniform("w", (4, 3), rng, scale=0.5)
    params.init_uniform("b", (3,), rng, scale=0.5)
    x = rng.normal(size=(2, 4))

    for act in (sigmoid, nm.tanh, nm.relu):
        _fd_check(lambda: act(linear(Tensor(x), params["w"], params["b"])).sum(), params)


def test_fd_mul_add_mean_concat_reshape_slice(rng):
    params = ParamStore()
    params.init_uniform("a", (3, 4), rng, scale=0.7)
    params.init_uniform("b", (3, 4), rng, scale=0.7)

    def loss():
        a, b = params["a"], params["b"]
        prod = a * b + 2.0 * a - b
        joined = nm.concat([prod, a], axis=1)  # [3, 8]
        view = joined[1:, 2:6]
        return (view.reshape(8).mean() + joined.sum()) * 0.5

    _fd_check(loss, params)


def test_fd_log_sigmoid(rng):
    params = ParamStore()
    params.add("z", np.array([-30.0, -9.0, -2.5, -0.4, 0.0, 0.3, 1.7, 8.0, 29.5]))
    weights = rng.normal(size=9)  # an upstream gradient other than ones
    _fd_check(lambda: (nm.log_sigmoid(params["z"]) * weights).sum(), params)


def test_log_sigmoid_is_one_node_whose_only_parent_is_its_input():
    x = Tensor(np.array([-3.0, 0.5]), requires_grad=True)
    y = nm.log_sigmoid(x)
    assert len(y._parents) == 1 and y._parents[0] is x
    np.testing.assert_array_equal(y.data, nm.log_sigmoid_np(x.data))


def test_fd_gather_rows_with_repeats(rng):
    params = ParamStore()
    params.init_uniform("table", (5, 3), rng, scale=0.5)
    idx = np.array([0, 2, 2, 4, 0])  # repeats force scatter-add accumulation

    def loss():
        rows = nm.gather_rows(params["table"], idx)
        return (rows * rows).sum()

    _fd_check(loss, params)


def test_fd_windows(rng):
    params = ParamStore()
    params.init_uniform("rows", (6, 4), rng, scale=0.5)  # sentence windows, one axis
    params.init_uniform("grid", (5, 4, 2), rng, scale=0.5)  # conv windows, two axes

    def loss():
        return (nm.tanh(nm.windows(params["rows"], 3, 1)).sum()
                + nm.tanh(nm.windows(params["grid"], 3, 2)).sum())

    _fd_check(loss, params)


def test_fd_conv2d(rng):
    params = ParamStore()
    params.init_uniform("grid", (5, 4, 2), rng, scale=0.5)  # odd and even sides
    params.init_uniform("w3", (3 * 3 * 2, 3), rng, scale=0.5)
    params.init_uniform("w2", (2 * 2 * 2, 3), rng, scale=0.5)
    params.init_uniform("b", (3,), rng, scale=0.5)
    weights = rng.normal(size=(7, 6, 3))

    def loss():
        grid, b = params["grid"], params["b"]
        # the grid as it is, then with tail rows, tail columns, and both
        return sum((nm.tanh(nm.conv2d(grid, w, b, k, rows, cols))
                    * weights[: rows - k + 1, : cols - k + 1]).sum()
                   for w, k in ((params["w3"], 3), (params["w2"], 2))
                   for rows, cols in ((5, 4), (7, 4), (5, 6), (6, 7)))

    _fd_check(loss, params)


def test_fd_conv2d_pool(rng):
    params = ParamStore()
    params.init_uniform("grid", (5, 4, 2), rng, scale=0.5)
    params.init_uniform("w", (3 * 3 * 2, 3), rng, scale=0.5)
    params.init_uniform("b", (3,), rng, scale=0.5)
    weights = rng.normal(size=(4, 4, 3))

    def loss():
        grid, w, b = params["grid"], params["w"], params["b"]
        # the pool at the convolution's own side, then reading copies past its
        # last row and column, with odd sides; the convolution with tail rows
        return sum((nm.tanh(nm.conv2d_pool(grid, w, b, 3, rows, cols, *pool))
                    * weights[: pool[0] // 2, : pool[1] // 2]).sum()
                   for (rows, cols), pool in (((5, 4), (3, 2)), ((5, 4), (5, 4)),
                                              ((7, 6), (8, 7))))

    _fd_check(loss, params)


def test_fd_max_pool(rng):
    params = ParamStore()
    params.init_uniform("g", (5, 6, 2), rng, scale=1.0)
    weights = rng.normal(size=(4, 4, 2))
    _fd_check(lambda: max_pool_2x2(params["g"], 5, 6).sum(), params)
    # tail rows and columns: the gradient of each copy goes to the row or column it copies
    _fd_check(lambda: (max_pool_2x2(params["g"], 8, 7) * weights[:, :3]).sum()
              + (max_pool_2x2(params["g"], 6, 8) * weights[:3]).sum(), params)


def test_fd_relu_cross_sum(rng):
    params = ParamStore()
    params.init_uniform("a", (3, 4), rng, scale=1.0)
    params.init_uniform("b", (2, 4), rng, scale=1.0)
    params.init_uniform("bias", (4,), rng, scale=0.5)
    weights = rng.normal(size=(3, 2, 4))
    _fd_check(lambda: (nm.tanh(nm.relu_cross_sum(params["a"], params["b"], params["bias"]))
                       * weights).sum(), params)


def test_fd_pair_max(rng):
    params = ParamStore()
    params.init_uniform("x", (5, 3), rng, scale=1.0)  # odd: the last row is dropped
    weights = rng.normal(size=(2, 3))
    _fd_check(lambda: nm.tanh(nm.pair_max(params["x"]) * weights).sum(), params)


def test_pair_max_values_and_small_input():
    out = nm.pair_max(Tensor([[1.0, 5.0], [2.0, 4.0], [9.0, 9.0]]))
    assert np.array_equal(out.data, [[2.0, 5.0]])
    with pytest.raises(ShapeError, match="pair_max"):
        nm.pair_max(Tensor(np.zeros((1, 3))))
    with pytest.raises(ShapeError, match="pair_max"):  # one axis: rows of no width
        nm.pair_max(Tensor(np.zeros(4)))


def test_fd_matmul_batched(rng):
    params = ParamStore()
    params.init_uniform("w", (3, 2), rng, scale=0.6)
    x = rng.normal(size=(4, 5, 3))
    _fd_check(lambda: (Tensor(x) @ params["w"]).sum(), params)


def test_fd_composed_small_network(rng):
    params = ParamStore()
    params.init_uniform("w1", (6, 5), rng, scale=0.4)
    params.init_uniform("b1", (5,), rng, scale=0.4)
    params.init_uniform("w2", (5, 1), rng, scale=0.4)
    params.init_uniform("b2", (1,), rng, scale=0.4)
    x = rng.normal(size=(3, 6))

    def loss():
        h = nm.tanh(linear(Tensor(x), params["w1"], params["b1"]))
        return sigmoid(linear(h, params["w2"], params["b2"])).mean()

    _fd_check(loss, params)


def test_fd_shared_operands_and_fan_out(rng):
    # one owner per gradient buffer: a tensor that is both operands, or feeds
    # two consumers, must sum its gradients into a buffer no other tensor holds
    params = ParamStore()
    params.init_uniform("x", (3, 3), rng, scale=0.7)
    params.init_uniform("y", (3, 3), rng, scale=0.7)
    x, y = lambda: params["x"], lambda: params["y"]
    _fd_check(lambda: (x() + x()).sum(), params)
    _fd_check(lambda: (x() * x()).sum(), params)
    _fd_check(lambda: (x() @ x()).sum(), params)
    # add hands one array to both inputs; a later term into x must not reach y
    _fd_check(lambda: ((x() + y()) + x() * x()).sum(), params)
    _fd_check(lambda: ((x() + y()) * (x() + y())).sum(), params)

    def fan_out():
        h = nm.tanh(x())  # read by a matmul, a mul and a relu
        return ((h @ x()) * h + nm.relu(h) * 2.0).sum()

    _fd_check(fan_out, params)

    # on one-row inputs relu_cross_sum's backward hands a and b views of one
    # array; the later terms of the mul must add into a and b apart
    params.init_uniform("a", (1, 4), rng, scale=0.7)
    params.init_uniform("b", (1, 4), rng, scale=0.7)
    params.init_uniform("bias", (4,), rng, scale=0.7)
    a, b = lambda: params["a"], lambda: params["b"]
    _fd_check(lambda: (nm.relu_cross_sum(a(), b(), params["bias"]).sum()
                       + (a() * 3.0 + b() * -2.0).sum()), params)


def test_constant_operands_of_add_mul_and_matmul_get_no_gradient(rng):
    # the policy-gradient surrogate multiplies by constant returns, and the
    # policy head's histories multiply by a constant [n, n] matrix
    params = ParamStore()
    params.init_uniform("w", (4, 3), rng, scale=0.7)
    returns, shift = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(3,)))
    taken, proj = Tensor(np.tril(np.ones((4, 4)), -1)), Tensor(rng.normal(size=(3, 2)))

    def loss():
        w = params["w"]
        return ((nm.tanh(w) * returns + shift).sum() + ((taken @ w) @ proj).sum()
                + (2.0 * (w @ proj)).sum())

    gradients_of(loss(), params)
    assert all(t.grad is None for t in (returns, shift, taken, proj))
    _fd_check(loss, params)


def test_gradients_reject_a_loss_without_tape():
    params = ParamStore()
    w = params.add("w", np.ones(3))
    with nm.no_tape():
        untaped = (w * w).sum()
    with pytest.raises(ValueError, match="no tape"):
        gradients(untaped, params, 0.1)
    with pytest.raises(ValueError, match="no tape"):
        gradients(Tensor(2.0) * 3.0, params, 0.1)


def test_no_tape_records_nothing_nests_and_restores_after_an_exception():
    params = ParamStore()
    w = params.add("w", np.ones(3))
    taped = lambda: nm.tanh(w * 2.0).sum()
    with nm.no_tape():
        with nm.no_tape():
            inner = taped()
        outer = taped()
    for t in (inner, outer):
        assert t._parents == () and t._backward_fn is None
    assert taped()._parents
    with pytest.raises(RuntimeError, match="inside"):
        with nm.no_tape():
            raise RuntimeError("inside")
    assert gradients_of(taped(), params)["w"].shape == (3,)


# -- fused sequence ops -------------------------------------------------------------


def _explicit_window_means(x, lengths, kernel):
    # zero-pad past T, build every window at the first m positions, average them
    n, t, d = x.shape
    padded = np.concatenate([x, np.zeros((n, kernel - 1, d))], axis=1)
    return np.stack([
        np.mean([padded[s, i : i + kernel].reshape(-1) for i in range(m)], axis=0)
        for s, m in enumerate(lengths)
    ])


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_window_means_match_explicit_windows(n, t, kernel, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, 3))
    lengths = rng.integers(1, t + 1, size=n)
    out = nm.window_means(Tensor(x), lengths, kernel)
    assert out.shape == (n, kernel * 3)
    assert np.allclose(out.data, _explicit_window_means(x, lengths, kernel), rtol=1e-12, atol=1e-14)


def test_window_means_rejects_lengths_outside_slab():
    x = Tensor(np.zeros((2, 4, 3)))
    for lengths in ([0, 2], [2, 5], [1, 1, 1]):
        with pytest.raises(ShapeError, match="lengths"):
            nm.window_means(x, lengths, 2)


def test_fd_window_means(rng):
    params = ParamStore()
    params.init_uniform("x", (3, 5, 2), rng, scale=1.0)
    weights = rng.normal(size=(3, 4 * 2))
    # kernel 4 over T = 5: lengths 1, 3 and 5 reach the zero rows past T differently
    _fd_check(lambda: nm.tanh(nm.window_means(params["x"], [1, 3, 5], 4) * weights).sum(), params)


def _gru_loop(x_proj, v_z, v_r, v_h, reverse):
    n, h = x_proj.shape[0], v_h.shape[0]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    out = np.zeros((n, h))
    s = np.zeros(h)
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        xz, xr, xh = np.split(x_proj[t], 3)
        z, r = sig(xz + s @ v_z), sig(xr + s @ v_r)
        s = (1.0 - z) * np.tanh(xh + (r * s) @ v_h) + z * s
        out[t] = s
    return out


def _gru_arrays(rng, n, d, h):
    """x [n, d], then W, b and V of the gates z, r and h, drawn in that order."""
    x = rng.normal(size=(n, d))
    ws = [rng.normal(size=(d, h)) for _ in range(3)]
    bs = [rng.normal(size=h) for _ in range(3)]
    vs = [rng.normal(size=(h, h)) for _ in range(3)]
    return x, ws, bs, vs


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_matches_step_loop(rng, reverse):
    x, ws, bs, vs = _gru_arrays(rng, 6, 5, 4)
    out = nm.gru_sequence(Tensor(x), [Tensor(w) for w in ws], [Tensor(b) for b in bs],
                          [Tensor(v) for v in vs], reverse=reverse)
    x_proj = x @ np.concatenate(ws, axis=1) + np.concatenate(bs)
    assert np.allclose(out.data, _gru_loop(x_proj, *vs, reverse), rtol=1e-12, atol=1e-14)


def test_gru_sequence_reverse_reads_rows_backwards(rng):
    x, ws, bs, vs = _gru_arrays(rng, 5, 4, 3)
    backward = nm.gru_sequence(x, ws, bs, vs, reverse=True)
    forward_of_flipped = nm.gru_sequence(x[::-1].copy(), ws, bs, vs)
    assert np.array_equal(backward.data, forward_of_flipped.data[::-1])


def test_gru_sequence_rejects_mismatched_shapes(rng):
    for part, k, shape in [
        ("x", None, (5,)),  # x is not [n, d]
        ("w", 1, (4, 3)),  # W_r reads another d
        ("w", 2, (5, 2)),  # W_h gives another h
        ("b", 0, (4,)),
        ("v", 1, (3, 4)),
        ("v", 2, (4, 4)),  # V_h sets h: every other part then mismatches
    ]:
        x, ws, bs, vs = _gru_arrays(rng, 2, 5, 3)
        if part == "x":
            x = np.zeros(shape)
        else:
            {"w": ws, "b": bs, "v": vs}[part][k] = np.zeros(shape)
        with pytest.raises(ShapeError, match="gru_sequence"):
            nm.gru_sequence(x, ws, bs, vs)


@pytest.mark.parametrize("reverse", [False, True])
def test_fd_gru_sequence(rng, reverse):
    # x and every gate's W, b and V against finite differences at once
    params = ParamStore()
    params.init_uniform("x", (4, 5), rng, scale=1.0)
    for gate in "zrh":
        params.init_uniform(f"w_{gate}", (5, 3), rng, scale=1.0)
        params.init_uniform(f"b_{gate}", (3,), rng, scale=1.0)
        params.init_uniform(f"v_{gate}", (3, 3), rng, scale=1.0)
    weights = rng.normal(size=(4, 3))

    def loss():
        states = nm.gru_sequence(params["x"], *([params[f"{kind}_{g}"] for g in "zrh"]
                                                for kind in "wbv"), reverse=reverse)
        return (states * weights).sum()

    _fd_check(loss, params)


def test_backward_determinism(rng):
    params = ParamStore()
    params.init_uniform("w", (4, 4), rng, scale=0.5)
    x = rng.normal(size=(2, 4))

    def run():
        return gradients_of(nm.tanh(Tensor(x) @ params["w"]).sum(), params)["w"]

    first, second = run(), run()
    assert np.array_equal(first, second)


# -- optimizer ----------------------------------------------------------------------


def test_sgd_basic_step():
    p = ParamStore().add("p", 1.0)
    sgd_step(p, np.array(0.5), 0.1, "p")
    assert p.item() == pytest.approx(0.95)


def test_sgd_zero_gradient_and_zero_lr():
    p = ParamStore().add("p", np.array([1.0, -2.0]))
    sgd_step(p, np.zeros(2), 0.1, "p")
    assert np.array_equal(p.data, [1.0, -2.0])
    sgd_step(p, np.ones(2), 0.0, "p")
    assert np.array_equal(p.data, [1.0, -2.0])


def test_sgd_two_small_steps_equal_one_double_step():
    g = np.array([0.25, -0.5])
    a = ParamStore().add("p", np.array([1.0, 1.0]))
    sgd_step(a, g, 0.1, "p")
    sgd_step(a, g, 0.1, "p")
    b = ParamStore().add("p", np.array([1.0, 1.0]))
    sgd_step(b, g, 0.2, "p")
    assert np.allclose(a.data, b.data)


def test_sgd_step_needs_no_parameter_sized_temporary_and_leaves_the_gradients(rng):
    shapes = {"big": (1024, 1024), "vector": (5,), "scalar": ()}  # big is 8 MB
    params = ParamStore()
    for name, shape in shapes.items():
        params.add(name, rng.normal(size=shape))
    params.add("transposed", rng.normal(size=(4, 3)).T)  # not C-contiguous
    grads = {name: rng.normal(size=p.data.shape) for name, p in params.items()}
    handed = dict(grads)
    before = {name: g.copy() for name, g in grads.items()}
    expected = {name: p.data - 0.1 * grads[name] for name, p in params.items()}
    tracemalloc.start()
    try:
        for name, p in params.items():
            sgd_step(p, grads[name], 0.1, name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for name, p in params.items():
        assert p.data.shape == expected[name].shape
        assert p.data.tobytes() == expected[name].tobytes(), name
        assert grads[name] is handed[name] and grads[name].tobytes() == before[name].tobytes()
    assert grads.keys() == handed.keys()


def test_dense_sgd_step_that_overflows_raises():
    # the overflow is in the last of three blocks; the step must not pass
    # silently, it raises rather than warns, and it writes no block it made non-finite
    params = ParamStore()
    params.add("w", np.ones(3 * nm.SGD_BLOCK))
    g = np.zeros(3 * nm.SGD_BLOCK)
    g[-1] = -1e308
    with warnings.catch_warnings(), pytest.raises(FloatingPointError, match="'w'"):
        warnings.simplefilter("error")
        sgd_step(params["w"], g, 1e308, "w")
    assert np.isfinite(params["w"].data).all()


def test_row_gradient_sgd_step_that_overflows_raises_and_writes_no_row():
    params = ParamStore()
    params.add("embed", np.ones((4, 2)))
    g = [nm._Rows(np.array([0, 2]), np.array([[1.0, 1.0], [-1e308, 1.0]]))]
    with warnings.catch_warnings(), pytest.raises(FloatingPointError, match="'embed'"):
        warnings.simplefilter("error")
        sgd_step(params["embed"], g, 1e308, "embed")
    assert np.array_equal(params["embed"].data, np.ones((4, 2)))


def test_minibatch_sgd_drops_each_batch_tape_before_the_next_forward(rng):
    # each item's tape holds two [64, 1024] arrays (1 MB); the parameters are 32 KB
    inputs = rng.normal(size=(8, 64, 1024))

    def loss_fn(batch, p):
        return sum(nm.tanh(p["w"] @ inputs[i]).sum() for i in batch)

    def epoch_peak(n_items):
        params = ParamStore()
        params.init_uniform("w", (64, 64), np.random.default_rng(0))
        return traced_peak(lambda: nm.minibatch_sgd(list(range(n_items)), loss_fn, params,
                                                    np.random.default_rng(1), lr=0.1,
                                                    batch_size=4, epochs=1, name="probe"))

    one_batch, two_batches = epoch_peak(4), epoch_peak(8)
    assert one_batch > 4 << 20  # the four items' tapes
    assert two_batches <= 1.1 * one_batch


def test_param_store_rejects_duplicates():
    params = ParamStore()
    params.add("p", 1.0)
    with pytest.raises(ValueError, match="already exists"):
        params.add("p", 2.0)


# -- the finiteness check -------------------------------------------------------------


def _finite_data(n: int) -> np.ndarray:
    """n values whose sum overflows: every entry is finite, but not their float64 total."""
    return np.full(n, 1e308)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n, at", [(1, 0), (5, 2), (3 * nm.SGD_BLOCK + 7, 3 * nm.SGD_BLOCK + 3)])
def test_non_finite_value_raises_wherever_it_is(value, n, at):
    for data in (np.zeros(n), _finite_data(n)):  # a sum that is finite and one that overflows
        data = data.copy()
        data[at] = value
        # .T is not contiguous, and the 0-d array is how a loss is wrapped
        for shaped in (data, data.reshape(-1, 1), np.stack([data, data]).T, np.array(value)):
            with pytest.raises(FloatingPointError, match="non-finite value produced"):
                Tensor(shaped)


@pytest.mark.parametrize("n", [2, 3 * nm.SGD_BLOCK + 7])
def test_finite_values_whose_sum_overflows_do_not_raise_or_warn(n):
    data = _finite_data(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Tensor(data).data is data
        assert Tensor(np.stack([data, data]).T).shape == (n, 2)


def test_finiteness_check_makes_no_mask_the_size_of_the_tensor():
    data = np.random.default_rng(0).uniform(-1, 1, size=(20000, 64))
    assert traced_peak(lambda: Tensor(data)) < 64 << 10  # the data is 10.24 MB, a mask 1.28 MB


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, rng):
    params = ParamStore()
    params.init_uniform("alpha", (3, 4), rng)
    params.init_uniform("beta", (7,), rng)
    params.add("gamma", 0.125)
    params.add("empty", np.zeros((0, 3)))
    path = tmp_path / "model.ckpt"
    for meta in ({}, {"model": "x", "config": {"dims": [3, 4], "lr": 0.1},
                      "vocab": {"size": 7, "sha256": "ab"}, "note": "\u00e9"}):
        params.meta = meta
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.meta == meta
        assert loaded.names() == params.names()
        for name, p in params.items():
            assert np.array_equal(loaded[name].data, p.data)
            assert loaded[name].data.dtype == np.float64


def test_checkpoint_truncated_file_names_tensor(tmp_path, rng):
    params = ParamStore()
    params.init_uniform("weights", (4, 4), rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(CheckpointError, match="weights"):
        load_checkpoint(path)


def test_checkpoint_wrong_version(tmp_path, rng):
    params = ParamStore()
    params.init_uniform("w", (2,), rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"garbagegarbage")
    with pytest.raises(CheckpointError, match="not a parameter checkpoint"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path, rng):
    params = ParamStore()
    params.init_uniform("w", (3,), rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes() + b"xyz")
    with pytest.raises(CheckpointError, match="3 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_shape_larger_than_file_fails_before_allocating(tmp_path, rng):
    params = ParamStore()
    params.init_uniform("w", (2, 2), rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    # magic, version + header length, header "{}", count, name length, name, rank
    shape_at = 8 + 8 + len(b"{}") + 4 + 4 + len(b"w") + 4
    blob[shape_at : shape_at + 8] = struct.pack("<II", 4096, 4096)  # declares 128 MiB
    path.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated while reading tensor 'w' data"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_checkpoint_bytes_follow_the_documented_layout(tmp_path):
    params = ParamStore()
    params.add("matrix", np.arange(6.0).reshape(2, 3))
    params.add("transposed", np.arange(6.0).reshape(2, 3).T)  # not C-contiguous
    params.add("scalar", -0.5)
    params.meta = {"model": "m", "config": {"b": [1, 2], "a": 0.5}}
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    header = b'{"config": {"a": 0.5, "b": [1, 2]}, "model": "m"}'  # UTF-8 JSON, keys sorted
    expected = b"COHSUMCK" + struct.pack("<II", 2, len(header)) + header + struct.pack("<I", 3)
    for name, array in (("matrix", np.arange(6.0).reshape(2, 3)),
                        ("transposed", np.arange(6.0).reshape(2, 3).T),
                        ("scalar", np.array(-0.5))):
        expected += struct.pack("<I", len(name)) + name.encode()
        expected += struct.pack("<I", array.ndim) + struct.pack(f"<{array.ndim}I", *array.shape)
        expected += array.astype("<f8").tobytes()
    assert path.read_bytes() == expected


def _checkpoint_with_header(path, header: bytes, declared_len=None):
    params = ParamStore()
    params.add("w", [1.0, 2.0])
    save_checkpoint(params, path)
    tensors = path.read_bytes()[8 + 8 + len(b"{}"):]  # count and tensors after the empty header
    length = len(header) if declared_len is None else declared_len
    path.write_bytes(b"COHSUMCK" + struct.pack("<II", 2, length) + header + tensors)


@pytest.mark.parametrize("header, message", [
    (b"[1, 2]", "header is not a JSON object"),
    (b'"text"', "header is not a JSON object"),
    (b'{"model": ', "header is not valid JSON"),
    (b'{"\xff": 1}', "header is not valid JSON"),
])
def test_checkpoint_header_must_be_a_json_object(tmp_path, header, message):
    path = tmp_path / "model.ckpt"
    _checkpoint_with_header(path, header)
    for read in (load_checkpoint, read_header):
        with pytest.raises(CheckpointError, match=message):
            read(path)


def test_read_header_is_the_meta_of_a_load_and_reads_no_tensor(tmp_path, rng):
    params = ParamStore()
    params.init_uniform("w", (4, 4), rng)
    params.meta = {"model": "m", "config": {"dims": [4, 4]}}
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    assert read_header(path) == load_checkpoint(path).meta == params.meta
    header = json.dumps(params.meta, sort_keys=True).encode()
    path.write_bytes(path.read_bytes()[: 8 + 8 + len(header)])  # the tensors cut off
    assert read_header(path) == params.meta
    with pytest.raises(CheckpointError, match="truncated while reading tensor count"):
        load_checkpoint(path)


def test_checkpoint_header_length_larger_than_file_is_truncation(tmp_path):
    path = tmp_path / "model.ckpt"
    _checkpoint_with_header(path, b"{}", declared_len=1 << 31)
    with pytest.raises(CheckpointError, match="truncated while reading header"):
        load_checkpoint(path)


def test_version_1_checkpoint_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"COHSUMCK" + struct.pack("<II", 1, 0))  # the v1 layout, no tensors
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


class _FailingData:
    """Tensor data whose bytes cannot be produced: a write that fails mid-tensor."""

    ndim, shape = 1, (3,)

    def __array__(self, dtype=None, copy=None):
        raise OSError("device full")


def test_failed_checkpoint_write_keeps_old_file_and_leaves_no_temp_file(tmp_path, rng):
    params = ParamStore()
    params.init_uniform("a", (4,), rng)
    params.init_uniform("b", (3,), rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    before = path.read_bytes()
    params["b"].data = _FailingData()
    with pytest.raises(OSError, match="device full"):
        save_checkpoint(params, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def _table_checkpoint(path, rng, n=10, d=4):
    """A checkpoint holding a tensor before and after an [n, d] table named 'embed'."""
    params = ParamStore()
    params.init_uniform("first", (3,), rng)
    params.init_uniform("embed", (n, d), rng)
    params.init_uniform("last", (2, 5), rng)
    save_checkpoint(params, path)
    return params


def _poke_table(path, row: int, col: int, value: float, d=4):
    """Write value over entry [row, col] of the 'embed' table that `_table_checkpoint` saved."""
    blob = bytearray(path.read_bytes())
    tensor_at = blob.index(b"embed") + len(b"embed") + 4 + 8  # rank, then two dimensions
    at = tensor_at + 8 * (row * d + col)
    blob[at : at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("kept", [
    [0], [9], [0, 9], [2, 3], [3, 5, 6], [0, 2, 3, 5, 6, 8, 9], list(range(10)), [],
])
def test_row_selected_load_keeps_the_rows_of_a_full_load_bit_for_bit(tmp_path, rng, monkeypatch,
                                                                     kept):
    monkeypatch.setattr(nm, "LOAD_BLOCK", 3 * 4)  # blocks of 3 rows: edges at rows 3 and 6
    path = tmp_path / "model.ckpt"
    _table_checkpoint(path, rng)
    full = load_checkpoint(path)
    rows = np.array(kept, dtype=np.int64)
    loaded = load_checkpoint(path, rows={"embed": rows})
    assert loaded.names() == full.names() and loaded.meta == full.meta
    assert loaded["embed"].data.shape == (len(kept), 4)
    assert loaded["embed"].data.tobytes() == full["embed"].data[rows].tobytes()
    for name in ("first", "last"):  # the tensors around the table are read as before
        assert loaded[name].data.tobytes() == full[name].data.tobytes()


@pytest.mark.parametrize("kept", [[1], [2, 7]])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_row_fails_naming_file_and_tensor_whether_or_not_it_is_kept(
        tmp_path, rng, monkeypatch, kept, value):
    monkeypatch.setattr(nm, "LOAD_BLOCK", 3 * 4)
    path = tmp_path / "model.ckpt"
    _table_checkpoint(path, rng)
    _poke_table(path, 7, 3, value)  # row 7 is kept in one case and dropped in the other
    for rows in ({"embed": np.array(kept)}, None):
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path, rows=rows)
        message = str(excinfo.value)
        assert str(path) in message and "'embed'" in message and "NaN or infinite" in message


def test_row_selected_load_of_a_truncated_table_fails_as_truncation(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    _table_checkpoint(path, rng)
    blob = path.read_bytes()
    path.write_bytes(blob[: blob.index(b"last") - 4 - 8])  # cut inside the table's last row
    with pytest.raises(CheckpointError, match="truncated while reading tensor 'embed' data"):
        load_checkpoint(path, rows={"embed": np.array([0, 1])})


@pytest.mark.parametrize("rows, message", [
    ({"absent": np.array([0])}, "no tensor 'absent' to select rows of"),
    ({"first": np.array([0])}, "tensor 'first' of shape \\(3,\\): it is not 2-D"),
    ({"embed": np.array([4, 2])}, "must be a sorted vector of unique integers"),
    ({"embed": np.array([2, 2])}, "must be a sorted vector of unique integers"),
    ({"embed": np.array([0.0, 1.0])}, "must be a sorted vector of unique integers"),
    ({"embed": np.array([[0, 1]])}, "must be a sorted vector of unique integers"),
    ({"embed": np.array([3, 10])}, "run from 3 to 10, outside its 10 rows"),
    ({"embed": np.array([-1, 3])}, "run from -1 to 3, outside its 10 rows"),
])
def test_bad_row_selection_raises_naming_file_and_tensor(tmp_path, rng, rows, message):
    path = tmp_path / "model.ckpt"
    _table_checkpoint(path, rng)
    with pytest.raises(CheckpointError, match=message) as excinfo:
        load_checkpoint(path, rows=rows)
    assert str(path) in str(excinfo.value)


def test_row_selected_load_never_allocates_the_whole_table(tmp_path):
    n, d = 20000, 64
    params = ParamStore()
    params.add("embed", np.random.default_rng(0).uniform(-1, 1, size=(n, d)))
    path = tmp_path / "table.ckpt"
    save_checkpoint(params, path)
    del params
    kept = np.unique(np.random.default_rng(1).integers(0, n, size=1500))
    peak = traced_peak(lambda: load_checkpoint(path, rows={"embed": kept}))
    block_bytes = 8 * nm.LOAD_BLOCK
    assert block_bytes * 8 < n * d * 8  # the table is far larger than one block
    # one block, its finiteness mask (a byte per element) and the kept rows
    assert peak < block_bytes + nm.LOAD_BLOCK + 8 * d * len(kept) + (64 << 10)


def _big_table_checkpoint(path) -> list:
    """A checkpoint of an 8 MB [1024, 1024] 'table' and a 'bias' [3]; returns their layout."""
    params = ParamStore()
    params.init_zeros("table", (1024, 1024))
    params.init_zeros("bias", (3,))
    save_checkpoint(params, path)
    return [("table", (1024, 1024), "zeros"), ("bias", (3,), "zeros")]


@pytest.mark.parametrize("entry, message", [
    (None, "tensor 'table' is not a parameter of the model in its header"),
    (("table", (1024, 1023), "zeros"),
     r"tensor 'table' has shape \(1024, 1024\), the model in its header needs \(1024, 1023\)"),
], ids=["extra", "misshapen"])
def test_layout_check_rejects_a_tensor_before_reading_its_data(tmp_path, entry, message):
    path = tmp_path / "model.ckpt"
    layout = _big_table_checkpoint(path)
    layout = ([] if entry is None else [entry]) + layout[1:]

    def load():
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path, layout=layout)

    assert traced_peak(load) < 1 << 20  # the table alone is 8 MB


def test_layout_check_names_a_tensor_the_file_lacks(tmp_path):
    path = tmp_path / "model.ckpt"
    layout = _big_table_checkpoint(path)
    loaded = load_checkpoint(path, rows={"table": np.array([0, 5])}, layout=layout)
    assert loaded.names() == ["table", "bias"] and loaded["table"].data.shape == (2, 1024)
    with pytest.raises(CheckpointError,
                       match=f"^{re.escape(str(path))}: no tensor 'scale', which the model in "
                             f"its header has$"):
        load_checkpoint(path, layout=layout + [("scale", (1,), "zeros")])


def _edit(params: ParamStore, rows) -> None:
    """Change rows `rows` of 'embed' and the tensors around it, as a training step would."""
    table = params["embed"].data
    table[rows] += 0.5 * np.arange(1, len(table[rows]) + 1)[:, None]
    params["first"].data[...] -= 0.25
    params["last"].data[...] *= 2.0


@pytest.mark.parametrize("kept", [
    [0], [9], [0, 9], [2, 3], [3, 5, 6], [0, 2, 3, 5, 6, 8, 9], list(range(10)), [],
])
def test_row_selected_save_writes_the_bytes_of_a_whole_load_given_the_same_edits(
        tmp_path, rng, monkeypatch, kept):
    monkeypatch.setattr(nm, "LOAD_BLOCK", 3 * 4)  # blocks of 3 rows: edges at rows 3 and 6
    path = tmp_path / "model.ckpt"
    _table_checkpoint(path, rng)
    rows = np.array(kept, dtype=np.int64)
    whole = load_checkpoint(path)
    _edit(whole, rows)
    save_checkpoint(whole, tmp_path / "whole.ckpt")
    selected = load_checkpoint(path, rows={"embed": rows})
    _edit(selected, slice(None))
    save_checkpoint(selected, tmp_path / "selected.ckpt")
    assert (tmp_path / "selected.ckpt").read_bytes() == (tmp_path / "whole.ckpt").read_bytes()
    save_checkpoint(selected, path)  # over its own source
    assert path.read_bytes() == (tmp_path / "whole.ckpt").read_bytes()


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _replace(path):
    """Another checkpoint of the same size moved over path: a new file."""
    params = load_checkpoint(path)
    params["embed"].data[...] += 1.0
    save_checkpoint(params, path)


def _rewrite_in_place(path):
    """One byte of the file changed in place: the same inode and size, a later mtime."""
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1
    with open(path, "r+b") as fh:
        fh.write(blob)


@pytest.mark.parametrize("change", [_truncate, _replace, _rewrite_in_place])
def test_row_selected_save_of_a_source_changed_since_the_load_fails_naming_it(tmp_path, rng,
                                                                             change):
    path = tmp_path / "model.ckpt"
    _table_checkpoint(path, rng)
    written = os.stat(path).st_mtime_ns - 1_000_000_000  # so an in-place write moves the mtime
    os.utime(path, ns=(written, written))
    params = load_checkpoint(path, rows={"embed": np.array([1, 4])})
    change(path)
    out = tmp_path / "out.ckpt"
    with pytest.raises(CheckpointError, match="changed since tensor 'embed' was loaded") as excinfo:
        save_checkpoint(params, out)
    assert str(path) in str(excinfo.value)
    assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]  # no output, no temporary file


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_row_selected_save_checks_the_rows_it_reads_back_are_finite(tmp_path, rng, value):
    path = tmp_path / "model.ckpt"
    _table_checkpoint(path, rng)
    params = load_checkpoint(path, rows={"embed": np.array([1, 4])})
    stat = os.stat(path)
    _poke_table(path, 7, 0, value)  # a dropped row, its file keeping its size, inode and mtime
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    with pytest.raises(CheckpointError, match="tensor 'embed' holds a NaN or infinite value"):
        save_checkpoint(params, tmp_path / "out.ckpt")
    assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]


def test_row_selected_save_never_allocates_the_whole_table(tmp_path):
    n, d = 20000, 64
    params = ParamStore()
    params.add("embed", np.random.default_rng(0).uniform(-1, 1, size=(n, d)))
    path = tmp_path / "table.ckpt"
    save_checkpoint(params, path)
    del params
    kept = np.unique(np.random.default_rng(1).integers(0, n, size=1500))
    params = load_checkpoint(path, rows={"embed": kept})
    peak = traced_peak(lambda: save_checkpoint(params, tmp_path / "out.ckpt"))
    assert peak < 8 * nm.LOAD_BLOCK + (64 << 10)  # one block; the table is 10.24 MB
    assert (tmp_path / "out.ckpt").read_bytes() == path.read_bytes()


# `_table_checkpoint`'s tensors, and a "zeros" one, as a model's layout
TABLE_LAYOUT = [("first", (3,), "uniform"), ("embed", (10, 4), "uniform"),
                ("bias", (4,), "zeros"), ("last", (2, 5), "uniform")]
DRAWN_ROWS = {"specials": [0, 1, 2], "first": [0], "last": [9], "edge 3": [2, 3], "edge 6": [5, 6],
              "runs": [0, 2, 3, 5, 6, 8, 9], "every": list(range(10)), "none": []}


def _generator(buffered: bool) -> np.random.Generator:
    """A PCG64 generator; a buffered one holds a 32-bit value, as a float32 draw leaves it."""
    rng = np.random.default_rng(11)
    if buffered:
        rng.random(dtype=np.float32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _next_draws(rng: np.random.Generator) -> list[bytes]:
    """The bytes of the draws that follow; the float32 one reads a buffered 32-bit value."""
    return [draw.tobytes() for draw in (rng.random(1, dtype=np.float32), rng.random(3),
                                        rng.integers(0, 1000, size=4), rng.permutation(12))]


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
@pytest.mark.parametrize("kept", DRAWN_ROWS.values(), ids=DRAWN_ROWS)
def test_row_selected_init_holds_the_bits_of_the_whole_draw_and_leaves_rng_as_it(
        monkeypatch, kept, buffered):
    monkeypatch.setattr(nm, "LOAD_BLOCK", 3 * 4)  # draws of at most 3 rows: edges at rows 3 and 6
    rows = np.array(kept, dtype=np.int64)
    whole_rng, rows_rng = _generator(buffered), _generator(buffered)
    whole = nm.init_params(TABLE_LAYOUT, whole_rng)
    selected = nm.init_params(TABLE_LAYOUT, rows_rng, rows={"embed": rows})
    assert selected.names() == whole.names()
    for name, p in whole.items():
        expected = p.data[rows] if name == "embed" else p.data
        assert selected[name].data.tobytes() == expected.tobytes(), name
    assert _next_draws(rows_rng) == _next_draws(whole_rng)


@pytest.mark.parametrize("kept", DRAWN_ROWS.values(), ids=DRAWN_ROWS)
def test_row_selected_init_saves_the_bytes_of_the_whole_draw_given_the_same_steps(
        tmp_path, monkeypatch, kept):
    monkeypatch.setattr(nm, "LOAD_BLOCK", 3 * 4)  # blocks of 3 rows: edges at rows 3 and 6
    rows = np.array(kept, dtype=np.int64)
    whole = nm.init_params(TABLE_LAYOUT, _generator(True))
    selected = nm.init_params(TABLE_LAYOUT, _generator(True), rows={"embed": rows})
    for step in range(2):  # the draw alone, then after an SGD step on the kept rows
        save_checkpoint(whole, tmp_path / "whole.ckpt")
        save_checkpoint(selected, tmp_path / "selected.ckpt")
        assert (tmp_path / "selected.ckpt").read_bytes() == (tmp_path / "whole.ckpt").read_bytes()
        g = np.random.default_rng(step).normal(size=(len(rows), 4))
        sgd_step(selected["embed"], g, 0.1, "embed")
        dense = np.zeros((10, 4))
        dense[rows] = g
        sgd_step(whole["embed"], dense, 0.1, "embed")
        _edit(whole, rows)
        _edit(selected, slice(None))


def test_row_selected_init_and_save_never_allocate_the_whole_table(tmp_path):
    n, d = 20000, 64
    layout = [("embed", (n, d), "uniform")]
    kept = np.unique(np.random.default_rng(1).integers(0, n, size=1500))
    stores = []
    peak = traced_peak(lambda: stores.append(
        nm.init_params(layout, np.random.default_rng(0), rows={"embed": kept})))
    assert 8 * nm.LOAD_BLOCK * 8 < n * d * 8  # the table is far larger than one block
    assert peak < 8 * d * len(kept) + 8 * nm.LOAD_BLOCK + (64 << 10)  # the kept rows, one draw
    peak = traced_peak(lambda: save_checkpoint(stores[0], tmp_path / "rows.ckpt"))
    assert peak < 2 * 8 * nm.LOAD_BLOCK + (64 << 10)  # a drawn block and the one before it
    save_checkpoint(nm.init_params(layout, np.random.default_rng(0)), tmp_path / "whole.ckpt")
    assert (tmp_path / "rows.ckpt").read_bytes() == (tmp_path / "whole.ckpt").read_bytes()


@pytest.mark.parametrize("rows, rng, error, message", [
    ({"bias": [0]}, None, ValueError, "tensor 'bias' is zeros: it draws no rows to select"),
    ({"absent": [0]}, None, ValueError, "no tensor 'absent' to draw rows of"),
    ({"embed": [4, 2]}, None, CheckpointError,
     "init_params: row ids for tensor 'embed' must be a sorted vector of unique integers"),
    ({"embed": [3, 10]}, None, CheckpointError, "run from 3 to 10, outside its 10 rows"),
    ({"embed": [0]}, np.random.Generator(np.random.MT19937(0)), TypeError,
     "rows are drawn alone from a PCG64, not a MT19937"),
], ids=["zeros", "absent", "unsorted", "out of range", "not PCG64"])
def test_row_selected_init_rejects_rows_it_cannot_draw(rows, rng, error, message):
    with pytest.raises(error, match=message):
        nm.init_params(TABLE_LAYOUT, rng or _generator(False), rows=rows)


@pytest.mark.parametrize("model", [coherence, extractor], ids=["coherence", "extractor"])
def test_no_two_parameters_share_a_buffer(tmp_path, model):
    # `ParamStore.add` keeps the array it is handed, and `sgd_step` writes that
    # array in place: a step of one parameter must move no other
    config = (tiny_coherence_config if model is coherence else tiny_extractor_config)(10)
    layout = model.param_layout(config)
    fresh = nm.init_params(layout, np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(fresh, path)
    stores = [fresh, load_checkpoint(path, layout=layout),
              load_checkpoint(path, rows={"embed": np.array([1, 4])}, layout=layout)]
    buffers = [p.data for store in stores for _, p in store.items()]
    assert len(buffers) == 3 * len(layout)
    for i, a in enumerate(buffers):
        assert not any(np.shares_memory(a, b) for b in buffers[i + 1:]), i


def _tensor_record(name: bytes, values) -> bytes:
    values = np.asarray(values, dtype="<f8")
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", values.ndim)
            + struct.pack(f"<{values.ndim}I", *values.shape) + values.tobytes())


@pytest.mark.parametrize("tensors, message", [
    ([(b"embed", [1.0, np.nan])], "tensor 'embed' holds a NaN or infinite value"),
    ([(b"embed", [np.inf])], "tensor 'embed' holds a NaN or infinite value"),
    ([(b"w", [1.0]), (b"\xffw", [1.0])], "tensor 1 name is not valid UTF-8"),
    ([(b"embed", [1.0]), (b"embed", [2.0])], "tensor 'embed' appears twice"),
])
def test_corrupt_tensor_fails_naming_file_and_tensor(tmp_path, tensors, message):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"COHSUMCK" + struct.pack("<II", 2, 2) + b"{}" + struct.pack("<I", len(tensors))
                     + b"".join(_tensor_record(name, values) for name, values in tensors))
    with pytest.raises(CheckpointError, match=message) as excinfo:
        load_checkpoint(path)
    assert str(path) in str(excinfo.value)

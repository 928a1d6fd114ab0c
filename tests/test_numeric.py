"""Autodiff primitives vs finite differences, optimizer and checkpoint contracts."""

import os
import struct
import tracemalloc

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
    save_checkpoint,
    sgd_step,
)

from conftest import assert_grads_close, finite_difference_grads


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
    assert nm.sigmoid(Tensor(0.0)).item() == pytest.approx(0.5)
    assert nm.tanh(Tensor(0.0)).item() == 0.0
    assert nm.relu(Tensor(-3.0)).item() == 0.0
    assert nm.relu(Tensor(3.0)).item() == 3.0


def test_sigmoid_saturation_is_finite():
    assert nm.sigmoid(Tensor(1000.0)).item() == 1.0
    assert nm.log_sigmoid(Tensor(-1000.0)).item() == -1000.0


def test_max_pool_single_block():
    grid = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
    assert max_pool_2x2(grid).data.reshape(()) == 4.0


def test_max_pool_floor_rule():
    out = max_pool_2x2(Tensor(np.arange(75, dtype=float).reshape(5, 5, 3)))
    assert out.shape == (2, 2, 3)


def test_max_pool_all_equal():
    out = max_pool_2x2(Tensor(np.full((4, 6, 2), 7.0)))
    assert out.shape == (2, 3, 2)
    assert np.all(out.data == 7.0)


def test_max_pool_rejects_small_grid():
    with pytest.raises(ShapeError):
        max_pool_2x2(Tensor(np.zeros((1, 4, 2))))


def test_max_pool_output_dominates_block(rng):
    x = rng.normal(size=(6, 8, 3))
    out = max_pool_2x2(Tensor(x)).data
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
        gradients(w + 1.0, params)


def test_gradient_of_sum_is_ones():
    params = ParamStore()
    w = params.add("w", np.arange(4.0).reshape(2, 2))
    grads = gradients(w.sum(), params)
    assert np.array_equal(grads["w"], np.ones((2, 2)))


def test_gradient_sigmoid_at_zero():
    params = ParamStore()
    w = params.add("w", 0.0)
    grads = gradients(nm.sigmoid(w) * 3.0, params)
    assert grads["w"] == pytest.approx(0.25 * 3.0)


def test_unused_parameter_gets_zero_gradient():
    params = ParamStore()
    w = params.add("w", np.ones(3))
    params.add("unused", np.ones((2, 2)))
    grads = gradients((w * w).sum(), params)
    assert set(grads) == {"w", "unused"}
    assert np.all(grads["unused"] == 0.0)


def _fd_check(build_loss, params):
    analytic = gradients(build_loss(), params)
    numeric_grads = finite_difference_grads(lambda: build_loss().item(), params)
    assert_grads_close(analytic, numeric_grads)


def test_fd_linear_and_activations(rng):
    params = ParamStore()
    params.init_uniform("w", (4, 3), rng, scale=0.5)
    params.init_uniform("b", (3,), rng, scale=0.5)
    x = rng.normal(size=(2, 4))

    for act in (nm.sigmoid, nm.tanh, nm.relu):
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


def test_fd_softplus_log_sigmoid(rng):
    params = ParamStore()
    params.init_uniform("z", (5,), rng, scale=2.0)
    _fd_check(lambda: (nm.softplus(params["z"]) + nm.log_sigmoid(-params["z"])).sum(), params)


def test_fd_log(rng):
    params = ParamStore()
    params.add("p", rng.uniform(0.2, 0.9, size=4))
    _fd_check(lambda: nm.log(params["p"]).sum(), params)


def test_fd_gather_rows_with_repeats(rng):
    params = ParamStore()
    params.init_uniform("table", (5, 3), rng, scale=0.5)
    idx = np.array([0, 2, 2, 4, 0])  # repeats force scatter-add accumulation

    def loss():
        rows = nm.gather_rows(params["table"], idx)
        return (rows * rows).sum()

    _fd_check(loss, params)


def test_fd_gather_flat_windows(rng):
    params = ParamStore()
    params.init_uniform("m", (6, 4), rng, scale=0.5)
    starts = np.arange(4)[:, None] + np.arange(3)[None, :]
    idx = (starts[:, :, None] * 4 + np.arange(4)).reshape(4, 12)
    _fd_check(lambda: nm.tanh(nm.gather_flat(params["m"], idx)).sum(), params)


def test_fd_max_pool(rng):
    params = ParamStore()
    params.init_uniform("g", (5, 6, 2), rng, scale=1.0)
    _fd_check(lambda: max_pool_2x2(params["g"]).sum(), params)


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
        return nm.sigmoid(linear(h, params["w2"], params["b2"])).mean()

    _fd_check(loss, params)


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


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_matches_step_loop(rng, reverse):
    x_proj, v_z, v_r, v_h = (rng.normal(size=shape) for shape in ((6, 12), (4, 4), (4, 4), (4, 4)))
    out = nm.gru_sequence(Tensor(x_proj), Tensor(v_z), Tensor(v_r), Tensor(v_h), reverse=reverse)
    assert np.allclose(out.data, _gru_loop(x_proj, v_z, v_r, v_h, reverse), rtol=1e-12, atol=1e-14)


def test_gru_sequence_reverse_reads_rows_backwards(rng):
    x_proj, v_z, v_r, v_h = (Tensor(rng.normal(size=s)) for s in ((5, 9), (3, 3), (3, 3), (3, 3)))
    flipped = Tensor(x_proj.data[::-1].copy())
    backward = nm.gru_sequence(x_proj, v_z, v_r, v_h, reverse=True)
    forward_of_flipped = nm.gru_sequence(flipped, v_z, v_r, v_h)
    assert np.array_equal(backward.data, forward_of_flipped.data[::-1])


def test_gru_sequence_rejects_mismatched_shapes():
    with pytest.raises(ShapeError, match="gru_sequence"):
        nm.gru_sequence(Tensor(np.zeros((3, 8))), *(Tensor(np.zeros((3, 3))) for _ in range(3)))


@pytest.mark.parametrize("reverse", [False, True])
def test_fd_gru_sequence(rng, reverse):
    params = ParamStore()
    params.init_uniform("x_proj", (4, 9), rng, scale=1.0)
    for name in ("v_z", "v_r", "v_h"):
        params.init_uniform(name, (3, 3), rng, scale=1.0)
    weights = rng.normal(size=(4, 3))

    def loss():
        states = nm.gru_sequence(params["x_proj"], params["v_z"], params["v_r"], params["v_h"],
                                 reverse=reverse)
        return (states * weights).sum()

    _fd_check(loss, params)


def test_backward_determinism(rng):
    params = ParamStore()
    params.init_uniform("w", (4, 4), rng, scale=0.5)
    x = rng.normal(size=(2, 4))

    def run():
        return gradients(nm.tanh(Tensor(x) @ params["w"]).sum(), params)["w"]

    first, second = run(), run()
    assert np.array_equal(first, second)


# -- optimizer ----------------------------------------------------------------------


def test_sgd_basic_step():
    params = ParamStore()
    params.add("p", 1.0)
    sgd_step(params, {"p": np.array(0.5)}, lr=0.1)
    assert params["p"].item() == pytest.approx(0.95)


def test_sgd_zero_gradient_and_zero_lr():
    params = ParamStore()
    params.add("p", np.array([1.0, -2.0]))
    sgd_step(params, {"p": np.zeros(2)}, lr=0.1)
    assert np.array_equal(params["p"].data, [1.0, -2.0])
    sgd_step(params, {"p": np.ones(2)}, lr=0.0)
    assert np.array_equal(params["p"].data, [1.0, -2.0])


def test_sgd_two_small_steps_equal_one_double_step():
    grads = {"p": np.array([0.25, -0.5])}
    a = ParamStore()
    a.add("p", np.array([1.0, 1.0]))
    sgd_step(a, grads, 0.1)
    sgd_step(a, grads, 0.1)
    b = ParamStore()
    b.add("p", np.array([1.0, 1.0]))
    sgd_step(b, grads, 0.2)
    assert np.allclose(a["p"].data, b["p"].data)


def test_sgd_keyset_mismatch_names_parameter():
    params = ParamStore()
    params.add("p", 1.0)
    with pytest.raises(ValueError, match="missing=\\['p'\\]"):
        sgd_step(params, {"q": np.array(1.0)}, 0.1)


def test_param_store_rejects_duplicates():
    params = ParamStore()
    params.add("p", 1.0)
    with pytest.raises(ValueError, match="already exists"):
        params.add("p", 2.0)


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, rng):
    params = ParamStore()
    params.init_uniform("alpha", (3, 4), rng)
    params.init_uniform("beta", (7,), rng)
    params.add("gamma", 0.125)
    params.add("empty", np.zeros((0, 3)))
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
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
    shape_at = 8 + 8 + 4 + len(b"w") + 4  # magic, version+count, name length, name, rank
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
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    expected = b"COHSUMCK" + struct.pack("<II", 1, 3)
    for name, array in (("matrix", np.arange(6.0).reshape(2, 3)),
                        ("transposed", np.arange(6.0).reshape(2, 3).T),
                        ("scalar", np.array(-0.5))):
        expected += struct.pack("<I", len(name)) + name.encode()
        expected += struct.pack("<I", array.ndim) + struct.pack(f"<{array.ndim}I", *array.shape)
        expected += array.astype("<f8").tobytes()
    assert path.read_bytes() == expected


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

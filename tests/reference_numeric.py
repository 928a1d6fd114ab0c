"""Dense reference forms of the numeric fast paths, kept as test oracles.

These are the ops as they were before the fast paths: `max_pool_2x2` takes
an argmax over a transposed copy of the 2x2 blocks and keeps flat winner
indices for backward; `gather_rows` scatters every backward into a
zero-filled dense table; `matmul` hands its right operand the whole dense
weight gradient; `sgd_step` sweeps the whole dense gradient;
`gather_flat` with `window_indices` or `im2col_indices` builds sliding
windows from a flat index table and scatters backward with `np.add.at`;
`layer1_grid` is the full [T, T, F] interaction grid of the coherence scorer,
before the fused first pool; `two_pass_step` is training before parameters
stepped inside backward: a walk of the whole tape that leaves every gradient
on its parameter, each weight gradient dense rather than as a list of
`numeric._Product`s kept as their factors, then one `nm.sgd_step` per
parameter. The code in `cohsum` is tested against these functions. `sigmoid`
is here because only the tests and the per-step policy reference use it.
"""

from __future__ import annotations

import numpy as np

from cohsum import numeric as nm
from cohsum.numeric import ParamStore, Tensor


def sigmoid(x) -> Tensor:
    x = nm._wrap(x)
    out_data = nm.sigmoid_np(x.data)

    def backward(g):
        nm._accumulate(x, g * out_data * (1.0 - out_data))

    return nm._node(out_data, (x,), backward)


def max_pool_2x2(x) -> Tensor:
    """Channelwise max over disjoint 2x2 blocks; ties go to the first in scan order."""
    x = nm._wrap(x)
    h, w, c = x.data.shape
    h2, w2 = h // 2, w // 2
    blocks = (
        x.data[: 2 * h2, : 2 * w2]
        .reshape(h2, 2, w2, 2, c)
        .transpose(0, 2, 4, 1, 3)
        .reshape(h2, w2, c, 4)
    )
    winner = blocks.argmax(axis=-1)
    data = np.take_along_axis(blocks, winner[..., None], axis=-1)[..., 0]

    ii, jj, cc = np.indices((h2, w2, c))
    rows = 2 * ii + winner // 2
    cols = 2 * jj + winner % 2
    flat = (rows * w + cols) * c + cc

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad.reshape(-1), flat.reshape(-1), g.reshape(-1))

    return nm._node(data, (x,), backward)


def gather_rows(table, indices) -> Tensor:
    """Embedding lookup whose backward scatters into a dense zero-filled table."""
    table = nm._wrap(table)
    idx = np.asarray(indices, dtype=np.intp)
    data = table.data[idx]

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return nm._node(data, (table,), backward)


def matmul(a, b) -> Tensor:
    """a @ b whose backward hands b its weight gradient a.T @ g built whole, as a dense array."""
    a, b = nm._wrap(a), nm._wrap(b)

    def backward(g):
        if nm._needs_grad(a):
            nm._accumulate(a, g @ b.data.T)
        if nm._needs_grad(b):
            a2, g2 = a.data.reshape(-1, a.data.shape[-1]), g.reshape(-1, b.data.shape[1])
            nm._accumulate(b, a2.T @ g2)

    return nm._node(a.data @ b.data, (a, b), backward)


def sgd_step(params: ParamStore, grads: dict, lr: float) -> ParamStore:
    """p <- p - lr * g over the whole dense gradient of every parameter."""
    for name, p in params.items():
        p.data -= lr * np.asarray(grads[name])
    return params


def topological_order(loss: Tensor) -> list[Tensor]:
    """Every node of a loss's tape, each after its parents (an iterative depth-first search)."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents if id(parent) not in seen)
    return order


def two_pass_step(loss: Tensor, params: ParamStore, lr: float) -> ParamStore:
    """One backward walk that leaves every gradient on its parameter, then the steps.

    The walk runs every node's backward in reverse topological order, as
    `gradients` does, but steps nothing until it ends. A parameter gradient
    kept as `numeric._Product`s, whose factors may be parameters the steps
    change, is made dense as the walk leaves it; a table reached only
    through `gather_rows` keeps its `numeric._Rows` segments. Then
    `nm.sgd_step` steps each parameter the loss reached.
    """
    params.zero_grads()
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topological_order(loss)):
        if node._backward_fn is not None:
            if node.grad is not None:
                node._backward_fn(nm._dense_grad(node))
            if node is not loss:
                node.grad = None
        for p in node._parents:
            if isinstance(p.grad, list) and isinstance(p.grad[0], nm._Product):
                nm._dense_grad(p)
    for name, p in params.items():
        g, p.grad = p.grad, None
        if g is not None:
            nm.sgd_step(p, g, lr, name)
    return params


def gather_flat(x, flat_indices) -> Tensor:
    """Windowed gather: out[k] = x.flat[flat_indices[k]], any index shape."""
    x = nm._wrap(x)
    idx = np.asarray(flat_indices, dtype=np.intp)
    data = x.data.reshape(-1)[idx]

    def backward(g):
        np.add.at(nm._dense_grad(x).reshape(-1), idx.reshape(-1), g.reshape(-1))

    return nm._node(data, (x,), backward)


def window_indices(rows: int, kernel: int, width: int) -> np.ndarray:
    """Flat indices of kernel-length row windows in a [rows+kernel-1, width] matrix."""
    starts = np.arange(rows)[:, None] + np.arange(kernel)[None, :]
    idx = starts[:, :, None] * width + np.arange(width)[None, None, :]
    return idx.reshape(rows, kernel * width)


def im2col_indices(h: int, w: int, c: int, k: int) -> np.ndarray:
    """Flat indices turning an [h, w, c] grid into [(h-k+1)(w-k+1), k*k*c] rows."""
    out_h, out_w = h - k + 1, w - k + 1
    di, dj, dc = np.meshgrid(np.arange(k), np.arange(k), np.arange(c), indexing="ij")
    patch = (di * w + dj) * c + dc  # offsets within one window
    base = (np.arange(out_h)[:, None] * w + np.arange(out_w)[None, :]) * c
    return base.reshape(-1, 1) + patch.reshape(1, -1)


def layer1_grid(sa_ids, sb_ids, params: ParamStore, config) -> Tensor:
    """The unpooled [T, T, F] ReLU grid of all window pairs of a coherence config."""
    t, de, k = config.grid_size, config.embed_dim, config.window
    idx = window_indices(t, k, de)
    wa = gather_flat(nm.gather_rows(params["embed"], np.asarray(sa_ids)), idx)
    wb = gather_flat(nm.gather_rows(params["embed"], np.asarray(sb_ids)), idx)
    half = k * de
    pa = wa @ params["layer1_w"][:half, :]
    pb = wb @ params["layer1_w"][half:, :]
    return nm.relu(pa.reshape(t, 1, -1) + pb.reshape(1, t, -1) + params["layer1_b"])

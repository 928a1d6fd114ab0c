"""Dense reference forms of the numeric fast paths, kept as test oracles.

These are the ops as they were before the fast paths: `max_pool_2x2` takes
an argmax over a transposed copy of the 2x2 blocks and keeps flat winner
indices for backward; `gather_rows` scatters every backward into a
zero-filled dense table; `sgd_step` sweeps the whole dense gradient. The
code in `cohsum.numeric` is tested against these functions.
"""

from __future__ import annotations

import numpy as np

from cohsum import numeric as nm
from cohsum.numeric import ParamStore, Tensor


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


def sgd_step(params: ParamStore, grads: dict, lr: float) -> ParamStore:
    """p <- p - lr * g over the whole dense gradient of every parameter."""
    for name, p in params.items():
        p.data -= lr * np.asarray(grads[name])
    return params

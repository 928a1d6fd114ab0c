"""Dense float64 tensors with reverse-mode differentiation, SGD, checkpoints.

A deliberately small tape-based autograd over numpy arrays: enough ops to
express word/sentence convolutions, GRU recurrences, the interaction grid
of the coherence scorer, and the training losses built on them. Everything
is 64-bit so finite-difference gradient checks are decisive.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "Tensor",
    "ParamStore",
    "ShapeError",
    "CheckpointError",
    "linear",
    "activation",
    "tanh",
    "sigmoid",
    "relu",
    "log",
    "softplus",
    "log_sigmoid",
    "concat",
    "gather_rows",
    "gather_flat",
    "max_pool_2x2",
    "window_means",
    "gru_sequence",
    "gradients",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
    "set_finite_checks",
]


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupt, or has the wrong version."""


_FINITE_CHECKS = True


def set_finite_checks(enabled: bool) -> None:
    """Toggle the NaN/Inf assertion applied to every op result."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if _FINITE_CHECKS and not np.all(np.isfinite(arr)):
        raise FloatingPointError("non-finite value produced")
    return arr


class Tensor:
    """A float64 array plus the tape hooks needed for backward().

    Data is treated as immutable once the tensor participates in a graph;
    only the optimizer writes `.data` in place, between graph builds.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __len__(self):
        return len(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar; accumulates into .grad fields."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # iterative DFS: recurrence graphs get deeper than the recursion limit
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
            if node is not self and node._backward_fn is not None:
                node.grad = None  # free intermediate buffers early

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other))

    def __rsub__(self, other):
        return add(_wrap(other), -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take_slice(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # a copy: g may be a view of another buffer
    else:
        t.grad += g


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents or t._backward_fn for t in tensors)


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if _needs_grad(*parents):
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# -- primitive ops ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = _as_array(a.data + b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = _as_array(a.data * b.data)

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if b.data.ndim != 2 or a.data.ndim < 1 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    data = _as_array(a.data @ b.data)

    def backward(g):
        _accumulate(a, g @ b.data.T)
        a2 = a.data.reshape(-1, a.data.shape[-1])
        g2 = g.reshape(-1, b.data.shape[1])
        _accumulate(b, a2.T @ g2)

    return _node(data, (a, b), backward)


def tanh(x) -> Tensor:
    x = _wrap(x)
    out_data = _as_array(np.tanh(x.data))

    def backward(g):
        _accumulate(x, g * (1.0 - out_data * out_data))

    return _node(out_data, (x,), backward)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(log sigmoid(x)); stable for any magnitude and any array shape
    return np.exp(-np.logaddexp(0.0, -x))


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    out_data = _as_array(_sigmoid_np(x.data))

    def backward(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return _node(out_data, (x,), backward)


def relu(x) -> Tensor:
    x = _wrap(x)
    out_data = _as_array(np.maximum(x.data, 0.0))

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return _node(out_data, (x,), backward)


def log(x) -> Tensor:
    x = _wrap(x)
    out_data = _as_array(np.log(x.data))

    def backward(g):
        _accumulate(x, g / x.data)

    return _node(out_data, (x,), backward)


def softplus(x) -> Tensor:
    """log(1 + e^x), computed without overflow."""
    x = _wrap(x)
    out_data = _as_array(np.logaddexp(0.0, x.data))

    def backward(g):
        _accumulate(x, g * _sigmoid_np(x.data))

    return _node(out_data, (x,), backward)


def log_sigmoid(x) -> Tensor:
    """log sigmoid(x) as -softplus(-x); exact for saturated logits."""
    return -softplus(-_wrap(x))


def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = _wrap(x)
    data = _as_array(x.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _node(data, (x,), backward)


def tmean(x, axis=None, keepdims=False) -> Tensor:
    x = _wrap(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(data, (x,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = _as_array(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(data, tuple(tensors), backward)


def take_slice(x, key) -> Tensor:
    """Basic indexing only (ints and slices); use gather_* for index arrays."""
    x = _wrap(x)
    data = _as_array(x.data[key])

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[key] += g

    return _node(data, (x,), backward)


def gather_rows(table, indices) -> Tensor:
    """Rows of a 2-D table selected by an integer vector (embedding lookup)."""
    table = _wrap(table)
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows: table {table.data.shape}, indices {idx.shape}")
    data = table.data[idx]

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _node(data, (table,), backward)


def gather_flat(x, flat_indices) -> Tensor:
    """Windowed gather: out[k] = x.flat[flat_indices[k]], any index shape."""
    x = _wrap(x)
    idx = np.asarray(flat_indices, dtype=np.intp)
    data = x.data.reshape(-1)[idx]

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad.reshape(-1), idx.reshape(-1), g.reshape(-1))

    return _node(data, (x,), backward)


def max_pool_2x2(x) -> Tensor:
    """Channelwise max over disjoint 2x2 blocks of an [H, W, C] grid.

    Trailing odd row/column is dropped; ties route gradient to the first
    participant in block scan order.
    """
    x = _wrap(x)
    if x.data.ndim != 3:
        raise ShapeError(f"max_pool_2x2: expected [H, W, C], got {x.data.shape}")
    h, w, c = x.data.shape
    if h < 2 or w < 2:
        raise ShapeError(f"max_pool_2x2: grid {x.data.shape} smaller than 2x2")
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

    return _node(_as_array(data), (x,), backward)


# -- fused sequence ops -------------------------------------------------------


def window_means(x, lengths, kernel: int) -> Tensor:
    """Mean of the kernel-row windows at the first m_s positions of each [T, d] slab.

    For x of shape [n, T, d], row s of the [n, kernel * d] result is
    (1 / m_s) * sum_{i < m_s} concat(x[s, i], ..., x[s, i + kernel - 1]), where
    rows at or past T read as zero. A linear convolution's mean over those
    positions is then window_means(x) @ W + b, without building a window per
    position. Block j of row s sums x[s] over the span [j, m_s + j), a
    difference of two prefix sums, taken here as one [kernel, T] 0/1 band
    matrix per slab, so forward and backward are each one batched matmul.
    """
    x = _wrap(x)
    if x.data.ndim != 3:
        raise ShapeError(f"window_means: expected [n, T, d], got {x.data.shape}")
    n, t, d = x.data.shape
    m = np.asarray(lengths, dtype=np.intp)
    if m.shape != (n,) or np.any(m < 1) or np.any(m > t):
        raise ShapeError(f"window_means: lengths must be {n} values in [1, {t}], got {m}")
    start = np.arange(kernel)[None, :, None]  # [1, kernel, 1]
    positions = np.arange(t)
    band = (positions >= start) & (positions < m[:, None, None] + start)
    band = band / m[:, None, None].astype(np.float64)  # [n, kernel, T]
    data = band @ x.data

    def backward(g):
        _accumulate(x, band.transpose(0, 2, 1) @ g.reshape(n, kernel, d))

    return _node(_as_array(data.reshape(n, kernel * d)), (x,), backward)


def gru_sequence(x_proj, v_z, v_r, v_h, reverse: bool = False) -> Tensor:
    """States of a GRU run over the rows of x_proj from a zero state, as one node.

    x_proj is [n, 3h]: the input projections [x W_z + b_z | x W_r + b_r | x W_h + b_h]
    of all n steps. With s the previous state, one step is
        z = sigmoid(x_z + s V_z), r = sigmoid(x_r + s V_r),
        c = tanh(x_h + (r * s) V_h), s' = (1 - z) * c + z * s.
    With reverse the run starts at the last row; row t of the [n, h] result is
    always the state after reading row t. Backward is backpropagation through
    time in numpy, with the weight gradients taken as one matmul each.
    """
    x_proj, v_z, v_r, v_h = (_wrap(a) for a in (x_proj, v_z, v_r, v_h))
    h = v_h.data.shape[0]
    if (
        x_proj.data.ndim != 2
        or x_proj.data.shape[1] != 3 * h
        or any(v.data.shape != (h, h) for v in (v_z, v_r, v_h))
    ):
        raise ShapeError(
            f"gru_sequence: x_proj {x_proj.data.shape} with V {v_z.data.shape}, "
            f"{v_r.data.shape}, {v_h.data.shape}"
        )
    n = x_proj.data.shape[0]
    order = range(n - 1, -1, -1) if reverse else range(n)
    v_zr = np.concatenate([v_z.data, v_r.data], axis=1)
    xp = x_proj.data
    prev = np.zeros((n, h))  # state before step t
    zr = np.zeros((n, 2 * h))
    cand = np.zeros((n, h))
    out = np.zeros((n, h))
    s = np.zeros(h)
    for t in order:
        prev[t] = s
        zr[t] = _sigmoid_np(xp[t, : 2 * h] + s @ v_zr)
        z, r = zr[t, :h], zr[t, h:]
        cand[t] = np.tanh(xp[t, 2 * h :] + (r * s) @ v_h.data)
        s = (1.0 - z) * cand[t] + z * s
        out[t] = s

    def backward(g):
        z, r = zr[:, :h], zr[:, h:]
        d_proj = np.zeros((n, 3 * h))  # [a_z | a_r | a_h] per step
        v_zr_t = v_zr.T
        v_h_t = v_h.data.T
        ds = np.zeros(h)
        for t in reversed(order):
            ds = ds + g[t]
            a_h = ds * (1.0 - z[t]) * (1.0 - cand[t] * cand[t])
            a_z = ds * (prev[t] - cand[t]) * z[t] * (1.0 - z[t])
            d_rs = a_h @ v_h_t
            a_r = d_rs * prev[t] * r[t] * (1.0 - r[t])
            d_proj[t, :h], d_proj[t, h : 2 * h], d_proj[t, 2 * h :] = a_z, a_r, a_h
            ds = ds * z[t] + d_rs * r[t] + d_proj[t, : 2 * h] @ v_zr_t
        _accumulate(x_proj, d_proj)
        _accumulate(v_z, prev.T @ d_proj[:, :h])
        _accumulate(v_r, prev.T @ d_proj[:, h : 2 * h])
        _accumulate(v_h, (r * prev).T @ d_proj[:, 2 * h :])

    return _node(_as_array(out), (x_proj, v_z, v_r, v_h), backward)


# -- spec-level conveniences --------------------------------------------------


def linear(x, weight, bias) -> Tensor:
    """y = x @ W + b with b broadcast over the leading dimensions of x."""
    x, weight, bias = _wrap(x), _wrap(weight), _wrap(bias)
    if (
        weight.data.ndim != 2
        or bias.data.shape != (weight.data.shape[1],)
        or x.data.shape[-1] != weight.data.shape[0]
    ):
        raise ShapeError(
            f"linear: x {x.data.shape} @ W {weight.data.shape} + b {bias.data.shape}"
        )
    return matmul(x, weight) + bias


_ACTIVATIONS = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu}


def activation(x, kind: str) -> Tensor:
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}; expected one of {sorted(_ACTIVATIONS)}")
    return fn(x)


# -- parameters ---------------------------------------------------------------


class ParamStore:
    """Named trainable tensors; names unique, shapes fixed at creation."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already exists")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def init_uniform(self, name: str, shape, rng: np.random.Generator, scale: float = 0.08) -> Tensor:
        return self.add(name, rng.uniform(-scale, scale, size=shape))

    def init_zeros(self, name: str, shape) -> Tensor:
        return self.add(name, np.zeros(shape))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        for name, p in self._params.items():
            dup.add(name, p.data.copy())
        return dup


def gradients(loss: Tensor, params: ParamStore) -> dict[str, np.ndarray]:
    """Exact reverse-mode d(loss)/d(p) for every parameter in the store.

    Parameters not touched by the loss get zero gradients, so the result
    always mirrors the store's keyset.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    params.zero_grads()
    loss.backward()
    # the store drops its references below, so each buffer is handed out, not copied
    out = {}
    for name, p in params.items():
        out[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
    params.zero_grads()
    return out


def sgd_step(params: ParamStore, grads: dict[str, np.ndarray], lr: float) -> ParamStore:
    """p <- p - lr * g in place. Pass negated gradients for an ascent step."""
    if set(grads) != set(params.names()):
        missing = set(params.names()) - set(grads)
        extra = set(grads) - set(params.names())
        raise ValueError(f"gradient keys do not match parameters (missing={sorted(missing)}, extra={sorted(extra)})")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient for {name!r} has shape {g.shape}, parameter {p.data.shape}")
        p.data -= lr * g
    return params


# -- checkpoints --------------------------------------------------------------

_CKPT_MAGIC = b"COHSUMCK"
_CKPT_VERSION = 1


def save_checkpoint(params: ParamStore, path) -> None:
    """Binary dump: magic, version, count, then name/shape/float64-LE data per tensor."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(params)))
        for name, p in params.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            fh.write(p.data.astype("<f8").tobytes())


def load_checkpoint(path) -> ParamStore:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a parameter checkpoint")
    offset = len(_CKPT_MAGIC)

    def read(count: int, what: str) -> bytes:
        nonlocal offset
        chunk = blob[offset : offset + count]
        if len(chunk) != count:
            raise CheckpointError(f"{path}: truncated while reading {what}")
        offset += count
        return chunk

    version, n_tensors = struct.unpack("<II", read(8, "header"))
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    params = ParamStore()
    for k in range(n_tensors):
        (name_len,) = struct.unpack("<I", read(4, f"tensor {k} name length"))
        name = read(name_len, f"tensor {k} name").decode("utf-8")
        (rank,) = struct.unpack("<I", read(4, f"tensor {name!r} rank"))
        shape = struct.unpack(f"<{rank}I", read(4 * rank, f"tensor {name!r} shape"))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(read(8 * count, f"tensor {name!r} data"), dtype="<f8")
        params.add(name, data.reshape(shape).copy())
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes after last tensor")
    return params

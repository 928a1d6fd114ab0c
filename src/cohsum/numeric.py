"""Dense float64 tensors with reverse-mode differentiation, SGD, checkpoints.

A deliberately small tape-based autograd over numpy arrays: enough ops to
express word/sentence convolutions, GRU recurrences, the interaction grid
of the coherence scorer, and the training losses built on them. Everything
is 64-bit so finite-difference gradient checks are decisive.

- Finite checks: every op result is checked once for NaN/Inf, when `_node`
  wraps it in a Tensor; op bodies do not check again. A result of more than
  `SGD_BLOCK` elements is checked through its sum, which is finite only if
  every entry is, so no mask the size of a large result is made
  (`_all_finite`).
- Forward-only mode: inside `no_tape()` every op result is a plain Tensor
  with no parents and no backward closure, so each intermediate is freed as
  soon as nothing reads it. Inference (beam decoding, the frozen coherence
  scorer) runs in it; a loss built there has no tape, and `gradients`
  rejects it.
- Deferred gradients: an op may hand `_accumulate` a term in place of a
  gradient array. `gather_rows` hands a `_Rows(idx, g)` segment, g's rows
  added into the table's rows idx. `matmul` (for its right operand),
  `conv2d` (for its weight) and `gru_sequence` (for W_z, W_r, W_h, V_z,
  V_r, V_h) hand a `_Product(a, g)`, the weight gradient a.T @ g kept as
  its two factors; `conv2d`'s a is its input grid with the logical side
  (`_Windows`), which the tape holds, and a row block's im2col columns are
  copied from it when the block is needed. A leaf keeps the terms it is
  handed, of one kind, in order, as a list, while the bytes only they keep
  alive (`nbytes`: each g, and an a that backward built) stay below the
  leaf's own: for segments, while they hold fewer rows than the table.
  Past that, for a term of the other kind, and on an op's output, whose
  backward reads its gradient dense, the gradient is made dense
  (`_dense_grad`). One `_blocks` sums a list over disjoint rows, for
  `sgd_step` to step and `_dense_grad` to write into zeros: segments as
  one block, the rows they touch summed from 0.0 by one `np.add.at` in
  the order they came, the additions of the dense scatter; products a row
  block of about `SGD_BLOCK` elements at a time, that block of the first
  product, then `+=` that block of each later one. A product's blocks have
  2 rows or more and equal those rows of the whole product bit for bit, so
  these are the additions of the dense sum of dense products. So a
  gathered table's gradient is not zero-filled for the rows a batch reads,
  and a batch's weight gradients are not built: not the coherence scorer's
  [8192, 512] fc1 one (33.5 MB), nor conv3's [2304, 512] one (9.4 MB, 16
  products of at most 262 KB each for an 8-triplet batch), nor the
  extractor's GRU and word-convolution ones.
- One owner per gradient buffer: every dense gradient a tensor stores is its
  own array, a copy of the first one it is handed or a zero-filled array
  with terms written in, so no two tensors share a gradient buffer and an
  in-place add into one never changes another. A backward may hand the same
  array, or views of one, to several inputs.
- Constant operands: `add`, `mul` and `matmul` skip the gradient of an
  operand that has no tape (no `requires_grad`, no parents), such as the
  returns of a policy-gradient surrogate; its `.grad` stays None.
- Convolution without a kept im2col matrix or output: `conv2d` and
  `conv2d_pool` build the window rows of their input for one GEMM and drop
  them (`_conv_relu`); the weight gradient builds them again, a column block
  at a time (`_Windows`), in the one backward both share (`_conv_backward`).
  Both fuse the bias and the relu, and `conv2d_pool` the 2x2 max pool after
  them, so the tape holds the input and the output only: not the
  [h * w, k * k * C] rows, not a pre-bias product, not a pre-relu one, and
  under `conv2d_pool` not the [h, w, N] convolution output either, only its
  pooled grid. `conv2d_pools` runs `conv2d_pool` over a stream of grids,
  a chunk of them per GEMM: the chunk's rows are copied straight into one
  buffer of at most N rows, N the weight's output width, so the weight is
  read once per chunk and the buffer is never larger than it. A grid of
  more rows goes alone, and so does a grid of one row, since numpy computes
  a 1-row product with gemv, in other bits; a grid's rows of a chunk's
  product equal those of its own product bit for bit. Each grid keeps its
  own node and backward.
- One array per coherence stage: `relu_cross_sum` (layer 1's
  relu(P_A[i] + P_B[j] + b)), `conv2d_pool`, `conv2d` and `max_pool_2x2`
  keep only their output as floats; backward recomputes what else it reads.
  A 2x2 max (`pair_max`, `max_pool_2x2`, `conv2d_pool`) also keeps, while
  the tape records, each output's winner as a uint8 code, the first of the
  values equal to it in block scan order (`_block_winners`); backward adds
  the gradient at the winners the codes name, and a forward-only pass keeps
  no codes. The grid ops take the logical side (rows, cols) of their input
  grid, and `conv2d_pool` that of its convolution's grid too, and read rows
  and columns past the last ones as copies of them, from an edge-extended
  transient (`_edge_extended`) that they build and drop; backward folds the
  copies' gradients into the last row and column (`_fold_edges`). No op
  keeps such a copy: the last stage reads the copies to compute the whole
  grid before the flatten.
- No joined weight: `gru_sequence`, a whole GRU direction in one op, joins
  W_z | W_r | W_h and V_z | V_r for its GEMMs and again in backward, never on
  the tape, and drops the [n, 3h] input projection, which no backward reads.
- Bounded optimizer temporaries: `sgd_step` steps a parameter one `_blocks`
  block at a time, a dense gradient's being row spans of its leading axis,
  so lr * g never takes a parameter's size in memory; it checks each
  stepped block to be finite before it writes it, and only reads the
  gradients it is handed.
- Stepping inside backward: `gradients` is the one walk of the tape, and it
  is also the optimizer: it returns nothing. Before the walk it finds each
  parameter's last consumer in reverse topological order; right after that
  node's backward has run the parameter's gradient is complete, and
  `sgd_step` applies it and drops it. So a large gradient (the coherence
  scorer's conv3 weight gradient, complete part-way through the walk, and
  the products it is kept as) is freed while the rest of the tape runs, not
  kept to its end. No backward reads a stepped value: a node that reads a
  parameter's buffer, directly or through a `take_slice` or `reshape` view
  of it, consumes the parameter or lies downstream of a node that does, so
  its backward runs before the last consumer's. Nor does a product, whose
  factor a may be a parameter's buffer: only a leaf keeps one, and before
  any parameter steps, every gradient still kept as products that may read
  its buffer is made dense. An exception part-way through backward leaves
  the parameters stepped so far stepped and the rest not; the CLI then
  exits 1 and writes no checkpoint.
- Checkpoints (format v2, laid out in `save_checkpoint`) carry a JSON header,
  `ParamStore.meta`, before the tensors; `read_header` reads it alone. Each
  tensor is written from its own buffer and read straight into its own
  array, after its declared size is checked against the bytes left in the
  file. Given the model's layout (`load_checkpoint`'s `layout`), each
  tensor's name and whole shape are checked before that size, so a tensor
  the model lacks or misshapes fails before its data is read, and one the
  file lacks fails after the last tensor. A loader that reads only some
  rows of a 2-D tensor (an embedding table, of which a corpus reads a few
  thousand rows) names them in `load_checkpoint`'s `rows`: the tensor then
  passes through one buffer of `LOAD_BLOCK` elements, every block is checked
  to be finite, and only those rows are kept. A model initialized for such
  a corpus names them in `init_params`' `rows`: only those rows of the
  uniform draw are drawn, each run of consecutive rows from a copy of the
  generator advanced to it, and the generator is then advanced past the
  whole draw, so every row and every later draw holds the bits of the whole
  draw. The store records where such a tensor's other rows come from, in
  `ParamStore.sources`, as one of two kinds: the file it was loaded from
  (`_FileSource`) or the generator state it was drawn from (`_DrawSource`).
  `save_checkpoint` writes it whole through one block loop: each block of the
  source, read again from the file or drawn again from the state, is written
  with the kept rows over it, so a trained table is never whole in memory
  either. Every load error is a `CheckpointError` naming the file, and the
  tensor when there is one. Writes go through `atomic.atomic_write`, a
  temporary file moved into place.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import logging
import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write
from .config import CheckpointError

log = logging.getLogger(__name__)


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of a float array is finite, with no mask over SGD_BLOCK elements.

    An array of up to SGD_BLOCK elements is checked entry by entry. A larger
    one is settled by its sum when that is finite, since a NaN or an infinity
    makes the sum non-finite; only a sum that is not finite, which finite
    entries can reach by overflowing, is settled entry by entry, SGD_BLOCK
    elements at a time.
    """
    if arr.size <= SGD_BLOCK:
        return bool(np.isfinite(arr).all())
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):
            return True
    blocks = np.nditer(arr, flags=["external_loop", "buffered"], buffersize=SGD_BLOCK)
    return all(np.isfinite(block).all() for block in blocks)


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not _all_finite(arr):
        raise FloatingPointError("non-finite value produced")
    return arr


class Tensor:
    """A float64 array plus the tape hooks that `gradients` walks.

    Data is treated as immutable once the tensor participates in a graph;
    only the optimizer writes `.data` in place, inside the backward walk once
    every backward that reads it has run (see the module docstring).
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
    def size(self):
        return self.data.size

    def __len__(self):
        return len(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other))

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
        return reshape(self, shape)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _row_spans(k: int, n: int) -> list[slice]:
    """Consecutive row blocks of about SGD_BLOCK elements of a [k, n] product or array.

    A block has 2 rows or more, unless the product has one row: numpy takes a
    1-row product through gemv, whose bits can differ from the gemm of the
    whole, while blocks of 2 rows or more equal the rows of the whole product
    bit for bit.
    """
    step = max(2, SGD_BLOCK // max(n, 1))
    bounds = [*range(0, k, step), k]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 2:
        del bounds[-2]  # a last block of one row joins the one before it
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


class _Windows(NamedTuple):
    """The im2col rows of a kernel x kernel convolution over an [H, W, C] grid read as [rows, cols].

    The rows of `_window_rows(_edge_extended(x, rows, cols), kernel, 2)`,
    of which `columns` gives a block of columns at a time, copied straight
    from x: column (i * kernel + j) * C + c of window (p, q) is
    x[p + i, q + j, c], with rows and columns past x's last ones read as
    copies of them.
    """

    x: np.ndarray
    kernel: int
    rows: int
    cols: int

    @property
    def shape(self) -> tuple[int, int]:
        k = self.kernel
        return (self.rows - k + 1) * (self.cols - k + 1), k * k * self.x.shape[2]

    def columns(self, span: slice) -> np.ndarray:
        """Columns `span` of the window rows, copied from x, or a view when one window wide.

        One window wide, `_window_rows` is a view of the edge-extended grid,
        whose rows overlap, and numpy multiplies it without BLAS, in another
        order of additions than a copy gets; so the block is a slice of that
        view, which the whole window rows would give too.
        """
        k, (height, width, c) = self.kernel, self.x.shape
        h, w = self.rows - k + 1, self.cols - k + 1
        if w == 1:
            return _window_rows(_edge_extended(self.x, self.rows, self.cols), k, 2)[:, span]
        out = np.empty((h * w, span.stop - span.start))
        for offset in range(span.start // c, (span.stop - 1) // c + 1):
            i, j = divmod(offset, k)
            lo, hi = max(span.start, offset * c), min(span.stop, (offset + 1) * c)
            grid_rows = np.minimum(np.arange(i, i + h), height - 1)[:, None]
            grid_cols = np.minimum(np.arange(j, j + w), width - 1)
            channels = slice(lo - offset * c, hi - offset * c)
            out[:, lo - span.start : hi - span.start] = (
                self.x[grid_rows, grid_cols, channels].reshape(h * w, -1))
        return out


class _Product(NamedTuple):
    """The weight gradient a.T @ g of an [R, K] a and an [R, N] g, kept as its two factors.

    a is an array, or the `_Windows` of a convolution's input grid, which
    builds a's columns a block at a time. `built` tells that backward built
    a for this product alone, so that keeping the product keeps a alive; an
    a that the tape holds anyway (an op's input, a backward closure's array)
    costs nothing.
    """

    a: np.ndarray | _Windows
    g: np.ndarray
    built: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape[1], self.g.shape[1]

    @property
    def nbytes(self) -> int:
        """The bytes that only this product keeps alive: g, and a when backward built it."""
        return self.g.nbytes + (self.a.nbytes if self.built else 0)

    def rows(self, span: slice) -> np.ndarray:
        """Rows `span` of a.T @ g, equal to those rows of the whole product bit for bit."""
        a = self.a.columns(span) if isinstance(self.a, _Windows) else self.a[:, span]
        return a.T @ self.g

    def reads(self, buffer: np.ndarray) -> bool:
        """Whether a may be a view of buffer, so that a step of buffer would change it."""
        return np.may_share_memory(self.a.x if isinstance(self.a, _Windows) else self.a, buffer)


class _Rows(NamedTuple):
    """The gradient of a `gather_rows`: the rows of g added into the table's rows idx."""

    idx: np.ndarray
    g: np.ndarray

    @property
    def nbytes(self) -> int:
        """The bytes that only this segment keeps alive: g (the tape holds idx)."""
        return self.g.nbytes


def _blocks(grad):
    """(rows, block) over disjoint rows of a gradient: a dense array or a list of terms of one kind.

    A dense array gives the `_row_spans` of its leading axis. `_Rows`
    segments give one block: the rows they touch, each summed from 0.0 by
    one `np.add.at` in the order the segments came, as a scatter into a
    zero-filled table adds them. `_Product`s give their `_row_spans`, that
    block of the first product, then `+=` that block of each later one: the
    additions of the dense sum of dense products.
    """
    if isinstance(grad, np.ndarray):
        grad = np.atleast_1d(grad)
        for span in _row_spans(len(grad), math.prod(grad.shape[1:])):
            yield span, grad[span]
    elif isinstance(grad[0], _Rows):
        rows, where = np.unique(np.concatenate([s.idx for s in grad]), return_inverse=True)
        block = np.zeros((len(rows),) + grad[0].g.shape[1:])
        np.add.at(block, where, np.concatenate([s.g for s in grad]))
        yield rows, block
    else:
        first, *rest = grad
        for span in _row_spans(*first.shape):
            block = first.rows(span)
            for p in rest:
                block += p.rows(span)
            yield span, block


def _dense_grad(t: Tensor) -> np.ndarray:
    """t.grad as a dense array, which replaces it: its terms' `_blocks` written into zeros."""
    if not isinstance(t.grad, np.ndarray):
        dense = np.zeros_like(t.data)
        for rows, block in _blocks(t.grad) if t.grad else ():
            dense[rows] = block
        t.grad = dense
    return t.grad


def _accumulate(t: Tensor, g: np.ndarray | _Rows | _Product) -> None:
    """Add g, a dense array or a deferred term (`_Rows`, `_Product`), to t.grad.

    A first dense g is stored as a copy, so t owns its gradient buffer (see
    the module docstring). A leaf keeps the terms it is handed, of one kind,
    in order, as a list while their `nbytes` stay below t's own bytes; past
    that, or on an op's output, whose backward reads its gradient dense,
    the list is made dense, so a first term is written into zeros. A term
    added into a dense gradient goes in as its own blocks, a segment by
    `np.add.at`, so a row it repeats gets its additions in order.
    """
    if not isinstance(g, (_Rows, _Product)):
        if t.grad is None:
            t.grad = np.array(g, dtype=np.float64)
        else:
            _dense_grad(t)[...] += g
        return
    terms = [] if t.grad is None else t.grad
    if isinstance(terms, list) and (not terms or type(terms[0]) is type(g)):
        terms.append(g)
        t.grad = terms
        if t._backward_fn is not None or sum(s.nbytes for s in terms) >= t.data.nbytes:
            _dense_grad(t)
    elif isinstance(g, _Rows):
        np.add.at(_dense_grad(t), g.idx, g.g)
    else:
        dense = _dense_grad(t)
        for rows, block in _blocks([g]):
            dense[rows] += block


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents or t._backward_fn for t in tensors)


_RECORDING = contextvars.ContextVar("cohsum_tape_recording", default=True)


@contextlib.contextmanager
def no_tape():
    """Build ops without a tape: results inside keep no parents and no backward closure.

    Contexts nest, and recording resumes when the outermost one exits, also
    through an exception.
    """
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


def _recording(*parents: Tensor) -> bool:
    """Whether an op on these parents goes on the tape: `_node` keeps its backward closure."""
    return _RECORDING.get() and _needs_grad(*parents)


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording(*parents):
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
    data = a.data + b.data

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if b.data.ndim != 2 or a.data.ndim < 1 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, g @ b.data.T)
        if _needs_grad(b):
            _accumulate(b, _Product(a.data.reshape(-1, a.data.shape[-1]),
                                    g.reshape(-1, b.data.shape[1])))

    return _node(data, (a, b), backward)


def tanh(x) -> Tensor:
    x = _wrap(x)
    out_data = np.tanh(x.data)

    def backward(g):
        _accumulate(x, g * (1.0 - out_data * out_data))

    return _node(out_data, (x,), backward)


def log_sigmoid_np(x):
    """log sigmoid(x) of an array or a float, exact for saturated logits; `log_sigmoid` on tape."""
    return -np.logaddexp(0.0, -x)


def sigmoid_np(x):
    """sigmoid(x) of an array or a float, as exp of `log_sigmoid_np`."""
    return np.exp(log_sigmoid_np(x))


def relu(x) -> Tensor:
    x = _wrap(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return _node(out_data, (x,), backward)


def log_sigmoid(x) -> Tensor:
    """log sigmoid(x), one node; d/dx log sigmoid(x) = sigmoid(-x)."""
    x = _wrap(x)

    def backward(g):
        _accumulate(x, g * sigmoid_np(-x.data))

    return _node(log_sigmoid_np(x.data), (x,), backward)


def tsum(x, axis=None) -> Tensor:
    x = _wrap(x)
    data = x.data.sum(axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _node(data, (x,), backward)


def tmean(x, axis=None) -> Tensor:
    x = _wrap(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    return tsum(x, axis=axis) * (1.0 / count)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(data, (x,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
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
    data = x.data[key]

    def backward(g):
        _dense_grad(x)[key] += g

    return _node(data, (x,), backward)


def gather_rows(table, indices) -> Tensor:
    """Rows of a 2-D table selected by an integer vector (embedding lookup).

    Backward hands the table a `_Rows(idx, g)` segment instead of scattering
    into a zero-filled [rows, d] array, so `sgd_step` steps only the rows a
    leaf's segments touch (see the module docstring).
    """
    table = _wrap(table)
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows: table {table.data.shape}, indices {idx.shape}")
    data = table.data[idx]

    def backward(g):
        _accumulate(table, _Rows(idx, g))

    return _node(data, (table,), backward)


def _window_rows(a: np.ndarray, kernel: int, axes: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The windows of the leading `axes` axes of a, one row each: a copy of a strided view.

    See `windows` for the layout. No index table is built. Given `out`, a
    C-contiguous array of the result's shape, the rows are copied into it.
    """
    positions = tuple(n - kernel + 1 for n in a.shape[:axes])
    view = np.lib.stride_tricks.sliding_window_view(a, (kernel,) * axes, axis=tuple(range(axes)))
    # view is [*positions, *rest, *offsets]; move the offsets in front of rest
    nd = a.ndim
    order = (*range(axes), *range(nd, nd + axes), *range(axes, nd))
    view = view.transpose(order)
    if out is None:
        return view.reshape(math.prod(positions), -1)
    np.copyto(out.reshape(view.shape), view)
    return out


def _add_window_grads(gx: np.ndarray, g: np.ndarray, kernel: int, axes: int) -> None:
    """Add g, the gradient of the `_window_rows` of an array shaped like gx, into gx.

    One slice of gx per window offset, offsets in reverse lexicographic order,
    so every entry of gx gets its terms in ascending window position, the
    order a scatter-add over the flat indices would apply them.
    """
    positions = tuple(n - kernel + 1 for n in gx.shape[:axes])
    gw = g.reshape(positions + (kernel,) * axes + gx.shape[axes:])
    lead = (slice(None),) * axes
    for offset in itertools.product(range(kernel - 1, -1, -1), repeat=axes):
        gx[tuple(slice(o, o + n) for o, n in zip(offset, positions))] += gw[lead + offset]


def windows(x, kernel: int, axes: int) -> Tensor:
    """Sliding windows over the leading `axes` axes of x, one row per window position.

    For x of shape [n_1, ..., n_axes, *rest] the result is
    [prod(n_i - kernel + 1), kernel**axes * prod(rest)]: row p holds the
    window at position p (positions in C order) flattened with its offsets in
    front of the trailing axes. With axes=1 on [T + k - 1, d] that is
    concat(x[p], ..., x[p + k - 1]); with axes=2 on an [H, W, C] grid it is the
    im2col row of a valid k x k convolution, which `conv2d` builds without
    keeping it. The forward pass copies a strided view and backward adds one
    gradient slice per window offset (`_window_rows`, `_add_window_grads`).
    """
    x = _wrap(x)
    shape = x.data.shape
    if x.data.ndim < axes or any(n < kernel for n in shape[:axes]):
        raise ShapeError(f"windows: {axes} axes of kernel {kernel} do not fit shape {shape}")

    def backward(g):
        _add_window_grads(_dense_grad(x), g, kernel, axes)

    return _node(_window_rows(x.data, kernel, axes), (x,), backward)


def _edge_extended(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """a [h, w, ...] read as [rows, cols, ...]: rows and columns past its last ones copy them.

    a itself when (rows, cols) is (h, w); otherwise a new array, which callers
    build for one use and drop.
    """
    h, w = a.shape[:2]
    if (rows, cols) == (h, w):
        return a
    out = np.empty((rows, cols) + a.shape[2:])
    out[:h, :w] = a
    out[:h, w:] = a[:, w - 1 : w]
    out[h:] = out[h - 1 : h]
    return out


def _fold_edges(g: np.ndarray, h: int, w: int) -> np.ndarray:
    """The [h, w, ...] gradient of a from g, the gradient of `_edge_extended(a, ...)`.

    Each copy's gradient is added into the row or column it copies, columns
    first, the copies of each axis summed in order by a running sum, as
    backward through a concatenation of their slices adds them (`sum` adds a
    one-channel grid's copies pairwise and turns -0.0 into +0.0). g is changed
    in place; the result is a view of it.
    """
    rows, cols = g.shape[:2]
    if cols > w:
        g[:, w - 1] += g[:, w:].cumsum(axis=1)[:, -1]
    if rows > h:
        g[h - 1, :w] += g[h:, :w].cumsum(axis=0)[-1]
    return g[:h, :w]


def _check_side(op: str, x: Tensor, rows: int, cols: int, least: int) -> None:
    shape = x.data.shape
    if (x.data.ndim != 3 or not (1 <= shape[0] <= rows and 1 <= shape[1] <= cols)
            or min(rows, cols) < least):
        raise ShapeError(f"{op}: [H, W, C] grid {shape} read as {rows} x {cols}, "
                         f"which must cover it and be at least {least} x {least}")


def _check_conv(op: str, x: Tensor, weight: Tensor, bias: Tensor, kernel: int, rows: int,
                cols: int) -> None:
    _check_side(op, x, rows, cols, kernel)
    if (
        weight.data.ndim != 2
        or weight.data.shape[0] != kernel * kernel * x.data.shape[2]
        or bias.data.shape != (weight.data.shape[1],)
    ):
        raise ShapeError(f"{op}: kernel {kernel} over x {x.data.shape} "
                         f"with W {weight.data.shape} + b {bias.data.shape}")


def _conv_relu(grids: list, weight: Tensor, bias: Tensor, kernel: int) -> list[np.ndarray]:
    """The [rows - k + 1, cols - k + 1, N] relu of the convolution of each (x, rows, cols) of grids.

    One GEMM computes them all. A grid alone multiplies its im2col rows as
    `_window_rows` gives them. Several grids copy theirs straight into one
    buffer, in order; a grid's rows of that product equal its own product
    bit for bit when it has 2 rows or more (numpy computes a 1-row product
    with gemv), so a caller passes a 1-row grid alone. The edge-extended
    grids and the rows are dropped; the bias is added and the relu taken in
    place.
    """
    sides = [(rows - kernel + 1, cols - kernel + 1) for _, rows, cols in grids]
    bounds = list(itertools.accumulate((h * w for h, w in sides), initial=0))
    if len(grids) == 1:
        x, rows, cols = grids[0]
        a = _window_rows(_edge_extended(x, rows, cols), kernel, 2)
    else:
        a = np.empty((bounds[-1], weight.data.shape[0]))
        for (x, rows, cols), lo, hi in zip(grids, bounds, bounds[1:]):
            _window_rows(_edge_extended(x, rows, cols), kernel, 2, out=a[lo:hi])
    out = a @ weight.data
    out += bias.data
    np.maximum(out, 0.0, out=out)
    return [out[lo:hi].reshape(h, w, -1) for (h, w), lo, hi in zip(sides, bounds, bounds[1:])]


def _conv_backward(x: Tensor, weight: Tensor, bias: Tensor, kernel: int, rows: int, cols: int,
                   g: np.ndarray) -> None:
    """Hand x, weight and bias their gradients from g, the [h, w, N] gradient after the relu mask.

    The gradient of the copied rows and columns folds into x's last row and
    column; the weight gradient is a product whose a is x read through
    `_Windows`, which builds the im2col columns again a row block at a time.
    """
    g = g.reshape(-1, g.shape[2])
    if _needs_grad(x):
        g_rows = g @ weight.data.T
        if (rows, cols) == x.data.shape[:2]:
            _add_window_grads(_dense_grad(x), g_rows, kernel, 2)
        else:
            gx = np.zeros((rows, cols, x.data.shape[2]))
            _add_window_grads(gx, g_rows, kernel, 2)
            _accumulate(x, _fold_edges(gx, *x.data.shape[:2]))
    if _needs_grad(weight):
        _accumulate(weight, _Product(_Windows(x.data, kernel, rows, cols), g))
    if _needs_grad(bias):
        _accumulate(bias, g.sum(axis=0))


def conv2d(x, weight, bias, kernel: int, rows: int, cols: int) -> Tensor:
    """relu of the valid kernel x kernel convolution of an [H, W, C] grid read as [rows, cols, C].

    Rows and columns of the grid past x's last one are copies of it (the
    logical side may exceed x's, never fall short of it). weight is
    [k * k * C, N], bias [N]; the result is [rows - k + 1, cols - k + 1, N].
    Equal bit for bit to relu(linear(windows(x read as rows x cols, kernel, 2),
    weight, bias)) reshaped to the grid, but only the output is kept
    (`_conv_relu`, `_conv_backward`). A convolution that a 2x2 pool follows
    is `conv2d_pool`, which keeps neither.
    """
    x, weight, bias = _wrap(x), _wrap(weight), _wrap(bias)
    _check_conv("conv2d", x, weight, bias, kernel, rows, cols)
    (out,) = _conv_relu([(x.data, rows, cols)], weight, bias, kernel)

    def backward(g):
        _conv_backward(x, weight, bias, kernel, rows, cols, g * (out > 0))

    return _node(out, (x, weight, bias), backward)


def relu_cross_sum(a, b, bias) -> Tensor:
    """relu(a[i] + b[j] + bias) for every row i of a [m, F] and j of b [n, F]: [m, n, F].

    Equal bit for bit to relu(a.reshape(m, 1, F) + b.reshape(1, n, F) + bias),
    but only the output is kept, not the two sums before the relu.
    """
    a, b, bias = _wrap(a), _wrap(b), _wrap(bias)
    if a.data.ndim != 2 or not a.data.shape[1:] == b.data.shape[1:] == bias.data.shape:
        raise ShapeError(f"relu_cross_sum: a {a.data.shape}, b {b.data.shape}, "
                         f"bias {bias.data.shape}")
    m, n = len(a.data), len(b.data)
    out = a.data[:, None] + b.data[None]
    out += bias.data
    np.maximum(out, 0.0, out=out)

    def backward(g):
        g = g * (out > 0)
        # the reductions of backward through the broadcasting adds, for the same bits
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g, (m, 1, g.shape[2])).reshape(m, -1))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g, (1, n, g.shape[2])).reshape(n, -1))
        if _needs_grad(bias):
            _accumulate(bias, _unbroadcast(g, bias.data.shape))

    return _node(out, (a, b, bias), backward)


def _block_winners(views: list, codes: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(max, codes) over same-shape views: the elementwise max and, if asked, each one's winner.

    The max runs the views in order and a later value replaces only a strictly
    greater one, so ties take the earliest view. The uint8 code of an output
    is the index of the view it came from: the first view equal to it.
    """
    data = views[0].copy()
    winners = np.zeros(data.shape, dtype=np.uint8) if codes else None
    for i, v in enumerate(views[1:], start=1):
        later = v > data  # strict: an equal later value never replaces
        np.copyto(data, v, where=later)
        if codes:
            np.putmask(winners, later, i)
    return data, winners


def _to_winners(views: list, g: np.ndarray, codes: np.ndarray) -> None:
    """Set each view to g at the outputs whose code names it (`_block_winners`), 0.0 elsewhere.

    g goes in as 0.0 + g, what adding it into a zero-filled gradient gives,
    so a -0.0 becomes +0.0.
    """
    g = g + 0.0
    for i, v in enumerate(views):
        v[...] = np.where(codes == i, g, 0.0)


def _block_max(x: Tensor, views_of, rows: int, cols: int) -> Tensor:
    """Elementwise max over the same-shape strided views `views_of(a)` of x read as [rows, cols].

    Ties take the earliest view in the order views_of lists them, in value
    and in gradient. The views are taken of `_edge_extended(x.data, rows,
    cols)`, which is not kept; at x's own side that is x.data itself. On the
    tape the op keeps its output and each output's winner as a uint8 code;
    a forward-only pass keeps no codes.
    """
    data, codes = _block_winners(views_of(_edge_extended(x.data, rows, cols)), _recording(x))

    def backward(g):
        gx = np.zeros((rows, cols) + x.data.shape[2:])
        _to_winners(views_of(gx), g, codes)
        _accumulate(x, _fold_edges(gx, *x.data.shape[:2]))

    return _node(data, (x,), backward)


def _pool_views(a: np.ndarray, rows: int, cols: int) -> list[np.ndarray]:
    """The four cells of each disjoint 2x2 block of a's [rows, cols], in block scan order."""
    even_h, even_w = rows - rows % 2, cols - cols % 2
    return [a[i:even_h:2, j:even_w:2] for i in (0, 1) for j in (0, 1)]


def max_pool_2x2(x, rows: int, cols: int) -> Tensor:
    """Channelwise max over disjoint 2x2 blocks of an [H, W, C] grid read as [rows, cols, C].

    Rows and columns past x's last one are copies of it, as in `conv2d`.
    A trailing odd row/column is dropped; ties route gradient to the first
    participant in block scan order (0,0), (0,1), (1,0), (1,1), and the
    gradient of a copied row or column goes into the one it copies. The
    coherence scorer pools a convolution's output with `conv2d_pool`; this
    op pools a pool's, where a grid too small for a convolution skips it.
    """
    x = _wrap(x)
    _check_side("max_pool_2x2", x, rows, cols, 2)
    return _block_max(x, lambda a: _pool_views(a, rows, cols), rows, cols)


def _check_conv_pool(x: Tensor, weight: Tensor, bias: Tensor, kernel: int, rows: int, cols: int,
                     pool_rows: int, pool_cols: int) -> None:
    _check_conv("conv2d_pool", x, weight, bias, kernel, rows, cols)
    h, w = rows - kernel + 1, cols - kernel + 1
    if not (h <= pool_rows and w <= pool_cols and min(pool_rows, pool_cols) >= 2):
        raise ShapeError(f"conv2d_pool: a {h} x {w} convolution read as {pool_rows} x "
                         f"{pool_cols} for the pool, which must cover it and be at least 2 x 2")


def conv2d_pool(x, weight, bias, kernel: int, rows: int, cols: int, pool_rows: int,
                pool_cols: int, conv: np.ndarray | None = None) -> Tensor:
    """max_pool_2x2(conv2d(x, weight, bias, kernel, rows, cols), pool_rows, pool_cols) as one op.

    The pool reads the convolution's [rows - k + 1, cols - k + 1, N] grid as
    [pool_rows, pool_cols, N], rows and columns past its last ones copies of
    them. Forward runs the two ops' arithmetic: `_conv_relu`, then the strict
    block max in block scan order. `conv`, when given, is that relu of the
    convolution, which `conv2d_pools` computes for a chunk of grids in one
    GEMM. The op keeps only the pooled output and, on the tape, each
    output's winner as a uint8 code (`_block_winners`), not the
    convolution's output; a forward-only pass keeps no codes. Backward
    adds g at the winners, folds the copies' gradients into the last row and
    column, and only then multiplies by the relu mask, which is pooled > 0 at
    each winner, folded the same way: a cell that won no block has a zero
    gradient under any mask, and every block a cell won pooled its value. So
    the gradients equal the two ops' bit for bit, signed zeros included.
    """
    x, weight, bias = _wrap(x), _wrap(weight), _wrap(bias)
    _check_conv_pool(x, weight, bias, kernel, rows, cols, pool_rows, pool_cols)
    h, w = rows - kernel + 1, cols - kernel + 1
    if conv is None:
        (conv,) = _conv_relu([(x.data, rows, cols)], weight, bias, kernel)
    out, codes = _block_winners(_pool_views(_edge_extended(conv, pool_rows, pool_cols),
                                            pool_rows, pool_cols), _recording(x, weight, bias))

    def backward(g):
        side = (pool_rows, pool_cols, out.shape[2])
        gc, positive = np.zeros(side), np.zeros(side)
        _to_winners(_pool_views(gc, pool_rows, pool_cols), g, codes)
        _to_winners(_pool_views(positive, pool_rows, pool_cols), out > 0, codes)
        g = _fold_edges(gc, h, w) * (_fold_edges(positive, h, w) > 0)
        del gc, positive  # freed before the GEMMs of backward
        _conv_backward(x, weight, bias, kernel, rows, cols, g)

    return _node(out, (x, weight, bias), backward)


def conv2d_pools(grids, weight, bias, kernel: int):
    """Yield `conv2d_pool` of each (x, rows, cols, pool_rows, pool_cols) of grids, in order.

    grids is read one grid at a time, into chunks of whole grids in order;
    each chunk's convolutions are one GEMM (`_conv_relu`). A chunk holds at
    most N im2col rows, N the weight's output width, so its rows never take
    more bytes than the weight, which the GEMM reads once for the chunk. A
    grid of more rows is a chunk on its own, and so is a grid of one row.
    Each grid gets its own `conv2d_pool` node and backward, so the chunks
    change no value and no gradient.
    """
    weight, bias = _wrap(weight), _wrap(bias)
    chunk, room = [], 0
    for x, rows, cols, pool_rows, pool_cols in grids:
        x = _wrap(x)
        _check_conv_pool(x, weight, bias, kernel, rows, cols, pool_rows, pool_cols)
        size = (rows - kernel + 1) * (cols - kernel + 1)
        if size > room or size == 1:
            yield from _pooled_chunk(chunk, weight, bias, kernel)
            chunk, room = [], weight.data.shape[1] if size > 1 else 0
        chunk.append((x, rows, cols, pool_rows, pool_cols))
        room -= size
    yield from _pooled_chunk(chunk, weight, bias, kernel)


def _pooled_chunk(chunk: list, weight: Tensor, bias: Tensor, kernel: int):
    """`conv2d_pool` of each grid of a chunk, their convolutions from one GEMM."""
    if not chunk:
        return
    convs = _conv_relu([(x.data, rows, cols) for x, rows, cols, _, _ in chunk], weight, bias,
                       kernel)
    for grid, conv in zip(chunk, convs):
        yield conv2d_pool(grid[0], weight, bias, kernel, *grid[1:], conv)


def pair_max(x) -> Tensor:
    """Elementwise max of each disjoint pair of rows of an [n, F] x: out[i] = max(x[2i], x[2i + 1]).

    A trailing odd row is dropped; ties route gradient to the even row.
    """
    x = _wrap(x)
    if x.data.ndim != 2 or x.data.shape[0] < 2:
        raise ShapeError(f"pair_max: need an [n, F] input of at least 2 rows, "
                         f"got shape {x.data.shape}")
    even = x.data.shape[0] - x.data.shape[0] % 2
    return _block_max(x, lambda a: [a[0:even:2], a[1:even:2]], *x.data.shape)


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

    return _node(data.reshape(n, kernel * d), (x,), backward)


def gru_sequence(x, weights, biases, recurrent, reverse: bool = False) -> Tensor:
    """States of a GRU run over the rows of x from a zero state, as one node.

    x is [n, d]; weights are the gates' input weights [W_z, W_r, W_h], each
    [d, h], biases [b_z, b_r, b_h], each [h], and recurrent [V_z, V_r, V_h],
    each [h, h]. The input projections of all n steps are one GEMM,
    x @ [W_z | W_r | W_h] + [b_z | b_r | b_h], giving [x_z | x_r | x_h]. With
    s the previous state, one step is
        z = sigmoid(x_z + s V_z), r = sigmoid(x_r + s V_r),
        c = tanh(x_h + (r * s) V_h), s' = (1 - z) * c + z * s.
    With reverse the run starts at the last row; row t of the [n, h] result is
    always the state after reading row t. Backward is backpropagation through
    time in numpy, with the weight gradients taken as one matmul each. The
    tape keeps neither the joined weights, built again in backward, nor the
    [n, 3h] projection.
    """
    x = _wrap(x)
    weights, biases = [_wrap(w) for w in weights], [_wrap(b) for b in biases]
    v_z, v_r, v_h = (_wrap(v) for v in recurrent)
    h = v_h.data.shape[0]
    if (
        x.data.ndim != 2
        or (len(weights), len(biases)) != (3, 3)
        or any(w.data.shape != (x.data.shape[1], h) for w in weights)
        or any(b.data.shape != (h,) for b in biases)
        or any(v.data.shape != (h, h) for v in (v_z, v_r, v_h))
    ):
        raise ShapeError(f"gru_sequence: x {x.data.shape} @ W {[w.data.shape for w in weights]} "
                         f"+ b {[b.data.shape for b in biases]} with V {v_z.data.shape}, "
                         f"{v_r.data.shape}, {v_h.data.shape}")
    n = x.data.shape[0]
    order = range(n - 1, -1, -1) if reverse else range(n)
    joined_w = lambda: np.concatenate([w.data for w in weights], axis=1)
    joined_v = lambda: np.concatenate([v_z.data, v_r.data], axis=1)
    proj = x.data @ joined_w()
    proj += np.concatenate([b.data for b in biases])
    v_zr = joined_v()
    prev = np.zeros((n, h))  # state before step t
    zr = np.zeros((n, 2 * h))
    cand = np.zeros((n, h))
    out = np.zeros((n, h))
    s = np.zeros(h)
    for t in order:
        prev[t] = s
        zr[t] = sigmoid_np(proj[t, : 2 * h] + s @ v_zr)
        z, r = zr[t, :h], zr[t, h:]
        cand[t] = np.tanh(proj[t, 2 * h :] + (r * s) @ v_h.data)
        s = (1.0 - z) * cand[t] + z * s
        out[t] = s

    def backward(g):
        z, r = zr[:, :h], zr[:, h:]
        d_proj = np.zeros((n, 3 * h))  # [a_z | a_r | a_h] per step
        v_zr_t = joined_v().T
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
        if _needs_grad(x):
            _accumulate(x, d_proj @ joined_w().T)
        db = d_proj.sum(axis=0)
        for k, (w, b) in enumerate(zip(weights, biases)):
            gate = slice(k * h, (k + 1) * h)
            _accumulate(w, _Product(x.data, d_proj[:, gate]))
            _accumulate(b, db[gate])
        _accumulate(v_z, _Product(prev, d_proj[:, :h]))
        _accumulate(v_r, _Product(prev, d_proj[:, h : 2 * h]))
        _accumulate(v_h, _Product(r * prev, d_proj[:, 2 * h :], built=True))

    return _node(out, (x, *weights, *biases, v_z, v_r, v_h), backward)


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


# -- parameters ---------------------------------------------------------------


INIT_SCALE = 0.08  # "uniform" parameters are drawn in [-INIT_SCALE, INIT_SCALE]


class ParamStore:
    """Named trainable tensors; names unique, shapes fixed at creation."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.meta: dict = {}  # JSON-ready model description, a checkpoint's header
        # tensors that hold only some of their rows: where the others come from
        self.sources: dict[str, _FileSource | _DrawSource] = {}

    def add(self, name: str, data) -> Tensor:
        """Add parameter `name` holding data, which must be finite.

        A float64 array is kept as it is handed over, not copied, and
        `sgd_step` writes that array in place: the caller must not hand one
        array, or views of one, to two parameters or two stores. A copy here
        would double the 150k-row policy embedding for a moment whenever a
        model is initialized or loaded whole.
        """
        if name in self._params:
            raise ValueError(f"parameter {name!r} already exists")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def init_uniform(self, name: str, shape, rng: np.random.Generator,
                     scale: float = INIT_SCALE) -> Tensor:
        return self.add(name, rng.uniform(-scale, scale, size=shape))

    def init_zeros(self, name: str, shape) -> Tensor:
        return self.add(name, np.zeros(shape))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None


def init_params(layout, rng: np.random.Generator, rows: dict | None = None) -> ParamStore:
    """Fresh parameters from a model's (name, shape, init) layout, drawn from rng in its order.

    init is "uniform", weights uniform in [-0.08, 0.08], or "zeros", which
    draws nothing. `rows` maps the name of a 2-D "uniform" tensor to sorted
    unique row ids: only those rows are drawn and kept, in order, and the
    store's `sources` records the generator state the tensor was drawn from,
    for `save_checkpoint` to write it whole (`_draw_rows`). Every tensor,
    the kept rows included, holds the bits of the whole draw, and rng is
    left as the whole draw leaves it.
    """
    rows = rows or {}
    params = ParamStore()
    for name, shape, init in layout:
        if name in rows:
            if init != "uniform":
                raise ValueError(f"tensor {name!r} is {init}: it draws no rows to select")
            kept = _check_rows("init_params", name, shape, rows[name])
            source = _DrawSource(rng.bit_generator.state, shape, kept)
            params.add(name, _draw_rows(rng, source))
            params.sources[name] = source
        elif init == "uniform":
            params.init_uniform(name, shape, rng)
        else:
            params.init_zeros(name, shape)
    missing = sorted(set(rows) - set(params.names()))
    if missing:
        raise ValueError(f"no tensor {missing[0]!r} to draw rows of")
    return params


def gradients(loss: Tensor, params: ParamStore, lr: float) -> None:
    """One SGD step of size lr on every parameter the loss reaches, in one walk of the tape.

    Each parameter's gradient is complete right after the backward of its
    last consumer; it is then handed to `sgd_step` as the walk leaves it, a
    dense array or a list of deferred terms of one kind (`_Rows` segments or
    `_Product`s), and dropped. A product's factor a may be a parameter's
    buffer, so before a parameter steps every list of products still kept
    that may read its buffer is made dense. A parameter the loss does not
    reach is left as it is.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if not _needs_grad(loss):
        raise ValueError("loss has no tape: it was built from constants or under no_tape()")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    # iterative DFS: recurrence graphs get deeper than the recursion limit
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents if id(parent) not in seen)
    names = {id(p): name for name, p in params.items()}
    # a parameter's first consumer in topological order is the last whose backward runs
    complete_after: dict[int, list[str]] = {}
    for node in topo:
        for parent in node._parents:
            name = names.pop(id(parent), None)
            if name is not None:
                complete_after.setdefault(id(node), []).append(name)
    params.zero_grads()
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            if node.grad is not None:
                node._backward_fn(_dense_grad(node))
            if node is not loss:
                node.grad = None  # free intermediate buffers early
        for name in complete_after.get(id(node), ()):
            p = params[name]
            if p.grad is not None:
                for _, q in params.items():
                    if isinstance(q.grad, list) and any(
                            isinstance(f, _Product) and f.reads(p.data) for f in q.grad):
                        _dense_grad(q)
                sgd_step(p, p.grad, lr, name)
                p.grad = None  # no other name holds the gradient: it is freed here


SGD_BLOCK = 1 << 14  # elements of a dense update done at once: 128 KiB of lr * g
LOAD_BLOCK = 1 << 16  # elements of a row-selected tensor read at once: 512 KiB


def sgd_step(p: Tensor, g: np.ndarray | list, lr: float, name: str) -> None:
    """p <- p - lr * g in place, one `_blocks` block of g at a time.

    g is as the backward walk leaves it on p: a dense array, stepped in row
    spans of its leading axis, or a list of `_Rows` segments, which step only
    the rows they touch, or of `_Product`s, each block summed as it is
    applied. The temporaries are about one block, not a copy of the
    parameter, and g is only read. A block is written only once its stepped
    rows are all finite; otherwise the step raises FloatingPointError naming
    the parameter, for the last step of a run has no next forward pass to
    catch it.
    """
    data = np.atleast_1d(p.data)  # a view: a 0-d parameter steps as one row
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
        for rows, block in _blocks(g):
            stepped = data[rows] - lr * block
            if not _all_finite(stepped):
                raise FloatingPointError(f"an SGD step made parameter {name!r} NaN or infinite")
            data[rows] = stepped


def minibatch_sgd(items, loss_fn, params: ParamStore, rng: np.random.Generator, lr: float,
                  batch_size: int, epochs: int, name: str) -> ParamStore:
    """Plain SGD on the mean loss per item over shuffled batches, in place.

    `loss_fn(batch, params)` returns the summed loss of a list of items; each
    step divides it by the batch size. The item order is reshuffled from `rng`
    every epoch. After each epoch the mean loss per item is logged as
    "<name> epoch k: mean loss x"; the record's args carry the exact float.
    Each batch's loss, and with it its tape, is dropped after its step, before
    the next batch's forward pass.
    """
    for epoch in range(epochs):
        order = rng.permutation(len(items))
        epoch_total = 0.0
        for start in range(0, len(order), batch_size):
            batch = [items[i] for i in order[start : start + batch_size]]
            batch_loss = loss_fn(batch, params) / len(batch)
            gradients(batch_loss, params, lr)
            epoch_total += batch_loss.item() * len(batch)
            del batch_loss
        log.info("%s epoch %d: mean loss %.6f", name, epoch + 1, epoch_total / len(items))
    return params


# -- checkpoints --------------------------------------------------------------

_CKPT_MAGIC = b"COHSUMCK"
_CKPT_VERSION = 2


class _FileSource(NamedTuple):
    """The checkpoint a row-selected tensor was loaded from, which holds its other rows."""

    path: str | os.PathLike
    offset: int  # of the tensor's data in the file
    shape: tuple  # the whole tensor's, [n, d]
    rows: np.ndarray  # the rows kept, sorted and unique
    stamp: tuple  # the file's identity, size and mtime at the load

    def blocks(self, name: str):
        """The tensor read again from the file (`_file_blocks`), which must not have changed."""
        with open(self.path, "rb") as fh:
            if _stamp(os.fstat(fh.fileno())) != self.stamp:
                raise CheckpointError(f"{self.path}: changed since tensor {name!r} was loaded "
                                      f"from it, so the rows not loaded cannot be written back")
            fh.seek(self.offset)
            yield from _file_blocks(fh, self.path, name, self.shape)


class _DrawSource(NamedTuple):
    """The generator state a row-selected "uniform" tensor was drawn from: it gives the other rows.

    The state is a PCG64's, whose `Generator.uniform` takes one 64-bit output
    per double, so row r of the [n, d] draw is the d doubles drawn after
    advancing a copy of the state by r * d outputs.
    """

    state: dict  # `bit_generator.state` before the draw
    shape: tuple  # the whole tensor's, [n, d]
    rows: np.ndarray  # the rows kept, sorted and unique

    def generator(self) -> np.random.Generator:
        """A new generator at the state, so drawing from it leaves the recorded state as it is."""
        bit_generator = np.random.PCG64()
        bit_generator.state = self.state
        return np.random.Generator(bit_generator)

    def blocks(self, name: str):
        """The whole draw again, in blocks of about LOAD_BLOCK elements (`_block_rows`)."""
        n, d = self.shape
        gen, step = self.generator(), _block_rows(d)
        for start in range(0, n, step):
            yield gen.uniform(-INIT_SCALE, INIT_SCALE, size=(min(step, n - start), d))


def _draw_rows(rng: np.random.Generator, source: _DrawSource) -> np.ndarray:
    """Rows `source.rows` of rng.uniform(-INIT_SCALE, INIT_SCALE, size=source.shape), bit for bit.

    Each run of consecutive kept rows is drawn in calls of at most a block of
    rows (`_block_rows`), after a copy of rng's state is advanced to its
    first row; so the temporaries are one block, also when every row is kept.
    rng itself is then advanced past the whole draw, and every later draw
    from it is the one that follows the whole draw. `advance` drops a
    buffered 32-bit value that a double draw keeps, so it is copied back.
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError(f"rows are drawn alone from a PCG64, not a "
                        f"{type(rng.bit_generator).__name__}")
    (n, d), rows = source.shape, source.rows
    out = np.empty((len(rows), d))
    gen, at, step = source.generator(), 0, _block_rows(d)  # gen is at row `at`
    starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)  # of runs; -2, so row 0 starts one
    for lo, hi in zip(starts, [*starts[1:], len(rows)]):
        gen.bit_generator.advance(int(rows[lo] - at) * d)
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            out[a:b] = gen.uniform(-INIT_SCALE, INIT_SCALE, size=(b - a, d))
        at = rows[hi - 1] + 1
    rng.bit_generator.advance(n * d)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = source.state["has_uint32"], source.state["uinteger"]
    rng.bit_generator.state = state
    return out


def _stamp(stat: os.stat_result) -> tuple:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def save_checkpoint(params: ParamStore, path) -> None:
    """Binary dump of the tensors behind a JSON header holding `params.meta`.

    Layout, integers `<I`: b"COHSUMCK", version 2, header byte count, header
    (UTF-8 JSON, keys sorted), tensor count, then per tensor the name byte
    count, UTF-8 name, rank, each dimension and the float64-LE values in C
    order, each written from its own buffer. A tensor that holds only some
    of its rows is written whole (`_write_rows`), block by block from its
    source, with the kept rows written over each block: a tensor loaded with
    `load_checkpoint`'s `rows` is read again from its file, each block
    checked to be finite, and a file that changed since the load raises
    `CheckpointError`; one drawn with `init_params`' `rows` is drawn again
    from the recorded generator state, so it is written as the whole draw
    with the same edits would be. The file is written through
    `atomic_write`, so a failed write leaves any previous checkpoint intact,
    and the source may be `path`.
    """
    header = json.dumps(params.meta, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(params)))
        for name, p in params.items():
            source = params.sources.get(name)
            shape = p.data.shape if source is None else source.shape
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", len(shape)))
            fh.write(struct.pack(f"<{len(shape)}I", *shape))
            if source is None:
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").data)
            else:
                _write_rows(fh, name, p.data, source)


def _write_rows(out, name: str, kept: np.ndarray, source: _FileSource | _DrawSource) -> None:
    """Write tensor `name` whole: its source's blocks, with `kept` over the rows it holds."""
    with contextlib.closing(source.blocks(name)) as blocks:  # a file source closes its file
        for block, rows, span in _row_blocks(blocks, source.rows):
            block[rows] = kept[span]
            out.write(block.data)


def _block_rows(d: int) -> int:
    """Rows of a [n, d] tensor in one block of about LOAD_BLOCK elements, at least one."""
    return max(1, LOAD_BLOCK // max(d, 1))


def _file_blocks(fh, path, name: str, shape: tuple):
    """The [n, d] tensor `name` at fh, in consecutive blocks of `_block_rows` rows.

    All are read into one buffer, so the whole tensor is never allocated, and
    each is checked to be finite.
    """
    n, d = shape
    buffer = np.empty((_block_rows(d), d), dtype="<f8")
    for start in range(0, n, len(buffer)):
        block = buffer[: min(len(buffer), n - start)]
        if fh.readinto(block.reshape(-1).view(np.uint8)) != block.nbytes:
            raise CheckpointError(f"{path}: truncated while reading tensor {name!r} data")
        if not _all_finite(block):
            raise CheckpointError(_non_finite(path, name))
        yield block


def _row_blocks(blocks, rows: np.ndarray):
    """(block, kept rows in the block, their slice of `rows`) of each of a tensor's row blocks.

    `blocks` are the tensor's consecutive row blocks; `rows` is sorted and unique.
    """
    start = 0
    for block in blocks:
        lo, hi = np.searchsorted(rows, (start, start + len(block)))
        yield block, rows[lo:hi] - start, slice(lo, hi)
        start += len(block)


def _read_rows(fh, path, name: str, shape: tuple, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` (sorted, unique) of the [n, d] tensor `name` at fh, in order (`_file_blocks`)."""
    out = np.empty((len(rows), shape[1]), dtype="<f8")
    for block, kept, span in _row_blocks(_file_blocks(fh, path, name, shape), rows):
        np.take(block, kept, axis=0, out=out[span])
    return out


def _check_rows(path, name: str, shape: tuple, rows) -> np.ndarray:
    """`rows` as a copy, if they are sorted unique row ids of the [n, d] tensor `name`."""
    rows = np.array(rows)
    if len(shape) != 2:
        raise CheckpointError(f"{path}: cannot select rows of tensor {name!r} "
                              f"of shape {shape}: it is not 2-D")
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or np.any(rows[1:] <= rows[:-1]):
        raise CheckpointError(f"{path}: row ids for tensor {name!r} must be a sorted "
                              f"vector of unique integers")
    if rows.size and (rows[0] < 0 or rows[-1] >= shape[0]):
        raise CheckpointError(f"{path}: row ids for tensor {name!r} run from {rows[0]} "
                              f"to {rows[-1]}, outside its {shape[0]} rows")
    return rows


def _check_shape(path, name: str, shape: tuple, shapes: dict) -> None:
    """Fail unless tensor `name` of the file is one of the model's, of the model's shape."""
    if name not in shapes:
        raise CheckpointError(f"{path}: tensor {name!r} is not a parameter of the model "
                              f"in its header")
    if shape != shapes[name]:
        raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}, "
                              f"the model in its header needs {shapes[name]}")


def _non_finite(path, name: str) -> str:
    return f"{path}: tensor {name!r} holds a NaN or infinite value"


def _need(fh, path, size: int, count: int, what: str) -> None:
    """Fail as truncation unless count bytes of fh's file, size bytes long, are left.

    Checked before the count bytes are allocated: a corrupt size is not a MemoryError.
    """
    if count > size - fh.tell():
        raise CheckpointError(f"{path}: truncated while reading {what}")


def _read(fh, path, size: int, count: int, what: str) -> bytes:
    _need(fh, path, size, count, what)
    return fh.read(count)


def _read_header(fh, path, size: int) -> dict:
    """The JSON header of the checkpoint at the start of fh, which is left after it."""
    if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a parameter checkpoint")
    version, header_len = struct.unpack("<II", _read(fh, path, size, 8,
                                                     "version and header length"))
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(_read(fh, path, size, header_len, "header").decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: header is not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    return meta


def read_header(path) -> dict:
    """The JSON header of a checkpoint, the `meta` a load returns, read without any tensor."""
    with open(path, "rb") as fh:
        return _read_header(fh, path, os.fstat(fh.fileno()).st_size)


def load_checkpoint(path, rows: dict | None = None, *, layout=None) -> ParamStore:
    """Read a checkpoint tensor by tensor, each straight into its own array.

    The returned store's `meta` is the checkpoint's header. Every read is
    checked against the bytes left in the file before anything is allocated,
    so a corrupt size field fails as truncation. `layout` is the model's
    (name, shape, init) list that `init_params` reads: each tensor's name and
    whole shape are checked against it as soon as they are read, before its
    data, and a tensor of the layout that the file lacks fails after the last
    one. `rows` maps the name of a 2-D tensor to sorted unique row ids: only
    those rows are kept, in order (see `_row_blocks`), and the store's
    `sources` records where the tensor came from, for `save_checkpoint` to
    write it whole. Every error is a `CheckpointError` naming the file, and
    the tensor when there is one. `layout` is keyword-only, so the path stays
    the last positional argument.
    """
    rows = rows or {}
    shapes = None if layout is None else {name: shape for name, shape, _ in layout}
    with open(path, "rb") as fh:
        stat = os.fstat(fh.fileno())
        read = functools.partial(_read, fh, path, stat.st_size)
        params = ParamStore()
        params.meta = _read_header(fh, path, stat.st_size)
        (n_tensors,) = struct.unpack("<I", read(4, "tensor count"))
        for k in range(n_tensors):
            (name_len,) = struct.unpack("<I", read(4, f"tensor {k} name length"))
            try:
                name = read(name_len, f"tensor {k} name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor {k} name is not valid UTF-8") from None
            if name in params:
                raise CheckpointError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<I", read(4, f"tensor {name!r} rank"))
            shape = struct.unpack(f"<{rank}I", read(4 * rank, f"tensor {name!r} shape"))
            if shapes is not None:
                _check_shape(path, name, shape, shapes)
            _need(fh, path, stat.st_size, 8 * math.prod(shape), f"tensor {name!r} data")
            if name in rows:
                kept = _check_rows(path, name, shape, rows[name])
                params.sources[name] = _FileSource(path, fh.tell(), shape, kept, _stamp(stat))
                data = _read_rows(fh, path, name, shape, kept)
            else:
                data = np.empty(shape, dtype="<f8")
                if fh.readinto(data.reshape(-1).view(np.uint8)) != data.nbytes:
                    raise CheckpointError(f"{path}: truncated while reading tensor {name!r} data")
            try:
                params.add(name, data)  # checks that every value is finite
            except FloatingPointError:
                raise CheckpointError(_non_finite(path, name)) from None
        trailing = stat.st_size - fh.tell()
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes after last tensor")
    absent = [name for name in shapes or () if name not in params]
    if absent:
        raise CheckpointError(f"{path}: no tensor {absent[0]!r}, which the model in its header has")
    missing = sorted(set(rows) - set(params.names()))
    if missing:
        raise CheckpointError(f"{path}: no tensor {missing[0]!r} to select rows of")
    return params

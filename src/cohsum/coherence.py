"""Cross-sentence coherence scorer trained by pairwise ranking.

Layer 1 crosses sliding windows of the two sentences into a T x T grid of
ReLU features; the grid then runs through alternating 2x2 max-pool and
valid 3x3 convolution stages, two ReLU fully-connected layers, and a tanh
readout in (-1, 1). Stages that no longer fit the shrinking grid are
omitted, so small test geometries and the full-size stack share one code
path. Each window of a sentence in layer 1 is a row of `numeric.windows`, a
copy of a strided view. Each convolution, its relu and the 2x2 pool after it
are one `numeric.conv2d_pool`, which builds its im2col rows from the same
strided view for one GEMM and keeps neither them nor the convolution's output
on the tape: only the pooled grid and each pooled value's winner as a uint8
code. At paper geometry a pool follows every convolution. A convolution that
leaves a grid below 2 x 2, which no pool follows, is a `numeric.conv2d`; a
pool that follows a pool, when a grid too small for the convolution between
them skips it, is a `numeric.max_pool_2x2`.

Layer 1 and the first pool are fused. `max_tokens` must exceed the window, so
the grid is at least 2 x 2 and the stack always starts with that pool. Cell
(i, j) of the grid is relu(P_A[i] + P_B[j] + b), where P_A and P_B are the
projections of the windows of each sentence alone. Float addition and relu
are monotone in each argument, so the max over a 2x2 block {2I, 2I+1} x
{2J, 2J+1} equals relu(max(P_A[2I], P_A[2I+1]) + max(P_B[2J], P_B[2J+1]) + b)
bit for bit. The forward pass therefore builds the pooled grid, at most
[T/2, T/2, F], from the pairwise row maxima and never the [T, T, F] one, as
one `numeric.relu_cross_sum`, which keeps no sum before the relu. The cells
that reach the block max form a product set of rows and columns, so the
gradient goes to the cell that comes first in block scan order, as pooling
the full grid sends it.

Every stage runs on the rows and columns that differ, plus one for the tail.
A sentence's ids end in a run of one id from index s on: its PAD tail (s = 1
for the BOUNDARY-then-PAD placeholder of the RL chain), a repeated last word,
or the whole sentence. Every window from s on is the same, and so is every
row of a later stage that reads only such rows. One rule, `_computed_side`,
decides how many rows and columns each stage computes, layer 1 included:
those up to and including its first all-tail row, no more than its reader
needs, and, for the last stage, all that the head reads. Row i of a stage's logical grid is then row
min(i, m - 1) of the m rows it computes, and the same holds for columns.
`numeric.conv2d_pool` takes the logical side of its input and of the grid
its pool reads, and reads the rows and columns past the last ones of each as
copies of them, from edge-extended transients that it builds and drops, as
`numeric.conv2d` and `numeric.max_pool_2x2` do with their input. So the tape
keeps one float array per stage, its output; backward adds the copies'
gradients into the row or column they copy. The last stage
computes its whole grid from such copies, so the head sees the rows it always
saw. A sentence with no tail computes every row of the logical grid. Each row
that is kept is computed as before, and the gradients differ from an
untrimmed stack's only in the order of their sums and in the zero terms of
rows that nothing reads.

A stage's logical size is what the next stage reads, which `stack_plan`
fixes from the last stage back. At paper geometry the final pool reads 8 of
the 9 rows conv3 could compute, so conv3 computes 8, conv2 20 of 22, and
layer 1 pools 44 of its 48 windows; a geometry whose last convolution ends
below 2 x 2 has no final pool, and that convolution computes all it can;
with a single `conv_filters` entry layer 1's pool is the only stage and
computes its whole side.

Each pair runs alone through every stage up to its last convolution, and
the FC head runs once per batch. The last convolution, with its pool, runs
over chunks of whole pairs, in pair order (`numeric.conv2d_pools`): a
chunk's im2col rows are copied straight into one buffer for one GEMM, so
the [k * k * C, N] weight (conv3's is 9.4 MB [2304, 512]) is read once per
chunk, not once per pair for a GEMM of about 48 rows. A chunk holds at most
N rows, so its buffer is never larger than the weight; a pair of more rows
is a chunk on its own, and so is a pair of one row, whose product numpy
computes with gemv, in other bits than a GEMM's. A pair's rows of a chunk's
product equal those of its own product bit for bit, and each pair keeps its
own `conv2d_pool` node, so a chunk changes no score and no gradient. The
earlier convolutions stay per pair: a batched im2col over a whole RL
episode is about 71 MB, which falls out of cache and ran slower than the
per-pair stacks, and conv2's 150 or so rows per pair already amortize its
2.4 MB weight.

Each pair's stack ends in a flattened [1, flat] row; the rows of a batch
are stacked and go through `fc1`, `fc2` and the readout together, so the
[flat, 512] `fc1` weight is read once per batch in a GEMM, not once per
pair in a GEMV. Its gradient is one product, kept as its two factors, the
[batch, flat] rows and their [batch, 512] gradient (`numeric._Product`),
and applied a row block at a time, so the 33.5 MB [8192, 512] array is
never built. Each pair's convolution hands its weight gradient over as its
own product: its input grid, which the tape holds, and the [h * w, N]
gradient of its output. A batch's products are kept as a sum while their
gradients take fewer bytes than the weight, and the step builds each row
block's im2col columns from the grids (`numeric._Windows`). At paper
geometry conv3's 16 products of an 8-triplet batch keep at most 262 KB
each, so its 9.4 MB [2304, 512] gradient is never built; conv2's, about
800 KB each against its 2.4 MB weight, are multiplied out at the third
pair.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import numeric as nm
from .config import CoherenceConfig
from .corpus import CoherenceTriplet
from .numeric import ParamStore, Tensor


def stack_plan(config: CoherenceConfig) -> tuple[list[tuple], int]:
    """Realized pool/conv stages after layer 1 and the flattened size.

    Follows pool-then-convolve per extra filter spec, with a final pool,
    skipping any stage the current grid cannot support (valid convolution,
    no padding). Each stage is ("pool", n) or ("conv", layer, in_ch, out_ch, n),
    where n is the side of the grid it leaves: the rows and columns the next
    stage reads, which can be fewer than the stage could compute. A pool
    that leaves n reads 2n, a k x k convolution n + k - 1; the last stage
    leaves all it computes.
    """
    n = config.grid_size
    channels = config.conv_filters[0]
    k = config.conv_kernel
    stages: list[tuple] = []
    for layer, filters in enumerate(config.conv_filters[1:], start=2):
        if n >= 2:
            stages.append(("pool",))
            n //= 2
        if n >= k:
            stages.append(("conv", layer, channels, filters))
            n -= k - 1
            channels = filters
    if n >= 2:
        stages.append(("pool",))
        n //= 2
    flat = n * n * channels
    for i in range(len(stages) - 1, -1, -1):  # from the last stage back, each side is read
        stages[i] += (n,)
        n = 2 * n if stages[i][0] == "pool" else n + k - 1
    return stages, flat


def param_layout(config: CoherenceConfig) -> list[tuple[str, tuple, str]]:
    """Every parameter as (name, shape, init) in draw order (`numeric.init_params`)."""
    layout = [
        ("embed", (config.vocab_size, config.embed_dim), "uniform"),
        ("layer1_w", (2 * config.window * config.embed_dim, config.conv_filters[0]), "uniform"),
        ("layer1_b", (config.conv_filters[0],), "zeros"),
    ]
    stages, flat = stack_plan(config)
    for stage in stages:
        if stage[0] == "conv":
            _, layer, in_ch, out_ch, _ = stage
            layout += [(f"conv{layer}_w", (config.conv_kernel * config.conv_kernel * in_ch, out_ch),
                        "uniform"),
                       (f"conv{layer}_b", (out_ch,), "zeros")]
    prev = flat
    for j, units in enumerate(config.fc_units, start=1):
        layout += [(f"fc{j}_w", (prev, units), "uniform"), (f"fc{j}_b", (units,), "zeros")]
        prev = units
    return layout + [("out_w", (prev, 1), "uniform"), ("out_b", (1,), "zeros")]


def init_coherence_params(config: CoherenceConfig, rng: np.random.Generator,
                          rows: np.ndarray | None = None) -> ParamStore:
    """Fresh parameters; `rows`, if given, are the only embedding rows drawn and kept."""
    return nm.init_params(param_layout(config), rng, None if rows is None else {"embed": rows})


def _check_ids(ids, config: CoherenceConfig, which: str) -> np.ndarray:
    arr = np.asarray(ids)
    if arr.shape != (config.max_tokens,):
        raise nm.ShapeError(
            f"{which} ids have shape {arr.shape}, expected ({config.max_tokens},)"
        )
    return arr


def _computed_side(stage: str, tail: int, side: int, last: bool) -> int:
    """Rows a stage computes when its input's rows are all the same from row `tail` on.

    A pool's output row i reads input rows 2i and 2i + 1, so its rows are all
    the same from ceil(tail / 2) on; a convolution's row i reads rows i to
    i + k - 1, so its rows are from `tail` on. The stage computes its rows up
    to and including the first such row, no more than `side`, the rows its
    reader needs; the last stage computes all `side`, since the head reads
    them. The same rule gives the columns.
    """
    first = (tail + 1) // 2 if stage == "pool" else tail
    return side if last else min(first + 1, side)


def interaction_layer1(sa_ids, sb_ids, params: ParamStore, config: CoherenceConfig) -> Tensor:
    """The 2x2 max-pool of the ReLU grid of all window pairs, trimmed to [m_A, m_B, F].

    Cell (i, j) of the unpooled grid sees window i of A and window j of B; the
    pooled grid is built from the pairwise row maxima of the two per-sentence
    projections (see the module docstring), bit-identical to pooling the grid.
    A's ids end in a run of one id from index s on, so its windows are all the
    same from s on; only the first m_A = `_computed_side("pool", s, ...)`
    pooled rows are built, from the windows of ids[:2m + window - 1], and
    likewise m_B columns.
    """
    k = config.window
    half = k * config.embed_dim
    stages, _ = stack_plan(config)

    def pooled_projection(ids, which, w):
        ids = _check_ids(ids, config, which)
        differs = np.flatnonzero(ids != ids[-1])
        tail = differs[-1] + 1 if differs.size else 0
        m = _computed_side("pool", tail, stages[0][-1], len(stages) == 1)
        rows = nm.gather_rows(params["embed"], ids[:2 * m + k - 1])
        return nm.pair_max(nm.windows(rows, k, 1) @ w)

    pa = pooled_projection(sa_ids, "first sentence", params["layer1_w"][:half, :])
    pb = pooled_projection(sb_ids, "second sentence", params["layer1_w"][half:, :])
    return nm.relu_cross_sum(pa, pb, params["layer1_b"])


def _sides(stages: list[tuple], i: int, side: tuple) -> tuple[int, int]:
    """The rows and columns stage i computes after a stage that computed `side` of them.

    The last row computed stands for every row past it, and the last column
    likewise.
    """
    return tuple(_computed_side(stages[i][0], t - 1, stages[i][-1], i == len(stages) - 1)
                 for t in side)


def _conv_pool_grid(x: Tensor, stages: list[tuple], i: int, config: CoherenceConfig) -> tuple:
    """(x, rows, cols, pool_rows, pool_cols): x's side for convolution i and its pool's."""
    k = config.conv_kernel
    h, w = _sides(stages, i, x.shape[:2])
    pool_h, pool_w = _sides(stages, i + 1, (h, w))
    return x, h + k - 1, w + k - 1, 2 * pool_h, 2 * pool_w


def _conv_weights(stages: list[tuple], i: int, params: ParamStore) -> tuple[Tensor, Tensor]:
    return params[f"conv{stages[i][1]}_w"], params[f"conv{stages[i][1]}_b"]


def _run_stages(x: Tensor, stages: list[tuple], lo: int, hi: int, params: ParamStore,
                config: CoherenceConfig) -> Tensor:
    """x through stages[lo:hi], each computing the side `_sides` gives it.

    A convolution and the pool after it are one `numeric.conv2d_pool`.
    """
    k = config.conv_kernel
    i = lo
    while i < hi:
        h, w = _sides(stages, i, x.shape[:2])
        if stages[i][0] == "pool":
            x = nm.max_pool_2x2(x, 2 * h, 2 * w)
        elif i + 1 < len(stages) and stages[i + 1][0] == "pool":
            _, *side = _conv_pool_grid(x, stages, i, config)
            x = nm.conv2d_pool(x, *_conv_weights(stages, i, params), k, *side)
            i += 1
        else:
            x = nm.conv2d(x, *_conv_weights(stages, i, params), k, h + k - 1, w + k - 1)
        i += 1
    return x


def _pair_features(pairs, params: ParamStore, config: CoherenceConfig) -> Iterator[Tensor]:
    """Layer 1 and the pool/conv stack of each pair, flattened to a [1, flat] row, in pair order.

    Every stage computes the side `_sides` gives it (see the module
    docstring); the last computes the whole grid the head reads. Each pair
    runs alone through every stage but the last convolution, when a pool
    follows it: that convolution runs through `numeric.conv2d_pools`, over
    chunks of whole pairs, read from `pairs` a pair at a time.
    """
    stages, _ = stack_plan(config)
    # stages[0] is the pool that layer 1 fuses; every stage after the last convolution is a pool
    last = max((i for i, stage in enumerate(stages) if stage[0] == "conv"), default=len(stages))
    if last + 1 >= len(stages):  # no convolution, or none that a pool follows
        for sa, sb in pairs:
            x = _run_stages(interaction_layer1(sa, sb, params, config), stages, 1, len(stages),
                            params, config)
            yield x.reshape(1, x.size)
        return
    grids = (_conv_pool_grid(_run_stages(interaction_layer1(sa, sb, params, config), stages, 1,
                                         last, params, config), stages, last, config)
             for sa, sb in pairs)
    for x in nm.conv2d_pools(grids, *_conv_weights(stages, last, params), config.conv_kernel):
        x = _run_stages(x, stages, last + 2, len(stages), params, config)
        yield x.reshape(1, x.size)


def _head(rows, params: ParamStore, config: CoherenceConfig) -> Tensor:
    """The FC layers and the tanh readout over [P, flat] rows: one score per row, [P]."""
    h = rows
    for j in range(1, len(config.fc_units) + 1):
        h = nm.relu(nm.linear(h, params[f"fc{j}_w"], params[f"fc{j}_b"]))
    out = nm.tanh(nm.linear(h, params["out_w"], params["out_b"]))
    return out.reshape(len(out))


def coherence_forward(pairs, params: ParamStore, config: CoherenceConfig) -> np.ndarray:
    """Coherence of each ordered pair (S_A ids, S_B ids), strictly inside (-1, 1).

    A forward-only pass: it runs under `numeric.no_tape()`, so each op's
    result is freed once the next op has read it. One pair's conv stack is
    alive at a time, up to the last convolution, and then one chunk of
    pairs' inputs to it (`_pair_features`).
    """
    with nm.no_tape():
        rows = np.concatenate([row.data for row in _pair_features(pairs, params, config)])
        return _head(rows, params, config).data


def triplet_loss(triplets: list[CoherenceTriplet], params: ParamStore,
                 config: CoherenceConfig) -> Tensor:
    """Hinge max(0, 1 - pos + neg) summed over the triplets, their 2T pairs through one head."""
    pairs = [(tr.anchor.ids, second.ids)
             for tr in triplets for second in (tr.positive, tr.negative)]
    rows = nm.concat(list(_pair_features(pairs, params, config)))
    scores = _head(rows, params, config).reshape(len(triplets), 2)
    return nm.relu(1.0 + scores[:, 1] - scores[:, 0]).sum()


def train_coherence(
    triplets: list[CoherenceTriplet], config: CoherenceConfig, rng: np.random.Generator,
    rows: np.ndarray | None = None,
) -> ParamStore:
    """Fresh parameters from `rng`, then SGD on the mean hinge loss for config.epochs.

    With `rows`, the embedding holds only those rows of the table, and the
    triplets' ids are rows of it (`init_coherence_params`).
    """
    params = init_coherence_params(config, rng, rows)
    return nm.minibatch_sgd(triplets, lambda batch, p: triplet_loss(batch, p, config), params,
                            rng, config.lr, config.batch_size, config.epochs, "coherence")


def pairwise_accuracy(
    params: ParamStore, triplets: list[CoherenceTriplet], config: CoherenceConfig
) -> float:
    """Fraction of triplets ranking the true successor first; ties count wrong."""
    if not triplets:
        raise ValueError("pairwise accuracy needs at least one triplet")
    pairs = [(tr.anchor.ids, second.ids)
             for tr in triplets for second in (tr.positive, tr.negative)]
    scores = coherence_forward(pairs, params, config).reshape(len(triplets), 2)
    return np.count_nonzero(scores[:, 0] > scores[:, 1]) / len(triplets)

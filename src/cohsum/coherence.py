"""Cross-sentence coherence scorer trained by pairwise ranking.

Layer 1 crosses sliding windows of the two sentences into a T x T grid of
ReLU features; the grid then runs through alternating 2x2 max-pool and
valid 3x3 convolution stages, two ReLU fully-connected layers, and a tanh
readout in (-1, 1). Stages that no longer fit the shrinking grid are
omitted, so small test geometries and the full-size stack share one code
path.

Layer 1 and the first pool are fused. Cell (i, j) of the grid is
relu(P_A[i] + P_B[j] + b), where P_A and P_B are the projections of the
windows of each sentence alone. Float addition and relu are monotone in each
argument, so the max over a 2x2 block {2I, 2I+1} x {2J, 2J+1} equals
relu(max(P_A[2I], P_A[2I+1]) + max(P_B[2J], P_B[2J+1]) + b) bit for bit. The
forward pass therefore builds the [T/2, T/2, F] pooled grid from the pairwise
row maxima and never the [T, T, F] one. The cells that reach the block max
form a product set of rows and columns, so the gradient goes to the cell
that comes first in block scan order, as pooling the full grid sends it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numeric as nm
from .corpus import CoherenceTriplet
from .numeric import ParamStore, Tensor

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CoherenceConfig:
    vocab_size: int
    embed_dim: int = 64
    window: int = 3
    conv_filters: tuple[int, ...] = (128, 256, 512)
    conv_kernel: int = 3
    fc_units: tuple[int, ...] = (512, 256)
    max_tokens: int = 50
    lr: float = 0.1
    batch_size: int = 64
    epochs: int = 5

    def __post_init__(self):
        if self.max_tokens < self.window:
            raise ValueError(
                f"max_tokens {self.max_tokens} shorter than the layer-1 window {self.window}"
            )
        if not self.conv_filters:
            raise ValueError("conv_filters must name at least the layer-1 filter count")

    @property
    def grid_size(self) -> int:
        return self.max_tokens - self.window + 1


def stack_plan(config: CoherenceConfig) -> tuple[list[tuple], int]:
    """Realized pool/conv stages after layer 1 and the flattened size.

    Follows pool-then-convolve per extra filter spec, with a final pool,
    skipping any stage the current grid cannot support (valid convolution,
    no padding).
    """
    h = w = config.grid_size
    channels = config.conv_filters[0]
    k = config.conv_kernel
    stages: list[tuple] = []
    for layer, filters in enumerate(config.conv_filters[1:], start=2):
        if h >= 2 and w >= 2:
            stages.append(("pool",))
            h, w = h // 2, w // 2
        if h >= k and w >= k:
            stages.append(("conv", layer, channels, filters))
            h, w = h - k + 1, w - k + 1
            channels = filters
    if h >= 2 and w >= 2:
        stages.append(("pool",))
        h, w = h // 2, w // 2
    return stages, h * w * channels


def init_coherence_params(config: CoherenceConfig, rng: np.random.Generator) -> ParamStore:
    params = ParamStore()
    params.init_uniform("embed", (config.vocab_size, config.embed_dim), rng)
    params.init_uniform(
        "layer1_w", (2 * config.window * config.embed_dim, config.conv_filters[0]), rng
    )
    params.init_zeros("layer1_b", (config.conv_filters[0],))
    stages, flat = stack_plan(config)
    for stage in stages:
        if stage[0] == "conv":
            _, layer, in_ch, out_ch = stage
            params.init_uniform(
                f"conv{layer}_w", (config.conv_kernel * config.conv_kernel * in_ch, out_ch), rng
            )
            params.init_zeros(f"conv{layer}_b", (out_ch,))
    prev = flat
    for j, units in enumerate(config.fc_units, start=1):
        params.init_uniform(f"fc{j}_w", (prev, units), rng)
        params.init_zeros(f"fc{j}_b", (units,))
        prev = units
    params.init_uniform("out_w", (prev, 1), rng)
    params.init_zeros("out_b", (1,))
    return params


@lru_cache(maxsize=None)
def _window_indices(rows: int, kernel: int, width: int) -> np.ndarray:
    """Flat indices of kernel-length row windows in a [rows+kernel-1, width] matrix."""
    starts = np.arange(rows)[:, None] + np.arange(kernel)[None, :]
    idx = starts[:, :, None] * width + np.arange(width)[None, None, :]
    return idx.reshape(rows, kernel * width)


@lru_cache(maxsize=None)
def _im2col_indices(h: int, w: int, c: int, k: int) -> np.ndarray:
    """Flat indices turning an [h, w, c] grid into [(h-k+1)(w-k+1), k*k*c] rows."""
    out_h, out_w = h - k + 1, w - k + 1
    di, dj, dc = np.meshgrid(np.arange(k), np.arange(k), np.arange(c), indexing="ij")
    patch = (di * w + dj) * c + dc  # offsets within one window
    base = (np.arange(out_h)[:, None] * w + np.arange(out_w)[None, :]) * c
    idx = base.reshape(-1, 1) + patch.reshape(1, -1)
    return idx


def _check_ids(ids, config: CoherenceConfig, which: str) -> np.ndarray:
    arr = np.asarray(ids)
    if arr.shape != (config.max_tokens,):
        raise nm.ShapeError(
            f"{which} ids have shape {arr.shape}, expected ({config.max_tokens},)"
        )
    return arr


def interaction_layer1(
    sa_ids, sb_ids, params: ParamStore, config: CoherenceConfig, pooled: bool = False
) -> Tensor:
    """ReLU grid of all window pairs: cell (i, j) sees window i of A and j of B.

    With pooled, the grid is the 2x2 max-pool of that grid, built from the
    pairwise row maxima of the two per-sentence projections (see the module
    docstring); the result is bit-identical to pooling the full grid.
    """
    sa_ids = _check_ids(sa_ids, config, "first sentence")
    sb_ids = _check_ids(sb_ids, config, "second sentence")
    t, de, k = config.grid_size, config.embed_dim, config.window
    idx = _window_indices(t, k, de)
    wa = nm.gather_flat(nm.gather_rows(params["embed"], sa_ids), idx)
    wb = nm.gather_flat(nm.gather_rows(params["embed"], sb_ids), idx)
    half = k * de
    pa = wa @ params["layer1_w"][:half, :]
    pb = wb @ params["layer1_w"][half:, :]
    if pooled:
        pa, pb = nm.pair_max(pa), nm.pair_max(pb)
    n, f = pa.shape
    return nm.relu(pa.reshape(n, 1, f) + pb.reshape(1, n, f) + params["layer1_b"])


def _forward(sa_ids, sb_ids, params: ParamStore, config: CoherenceConfig) -> Tensor:
    stages, _ = stack_plan(config)
    pooled = stages[:1] == [("pool",)]
    x = interaction_layer1(sa_ids, sb_ids, params, config, pooled=pooled)
    for stage in stages[1:] if pooled else stages:
        if stage[0] == "pool":
            x = nm.max_pool_2x2(x)
        else:
            _, layer, in_ch, out_ch = stage
            h, w, _ = x.shape
            k = config.conv_kernel
            cols = nm.gather_flat(x, _im2col_indices(h, w, in_ch, k))
            conv = nm.linear(cols, params[f"conv{layer}_w"], params[f"conv{layer}_b"])
            x = nm.relu(conv).reshape(h - k + 1, w - k + 1, out_ch)
    h = x.reshape(x.size)
    for j in range(1, len(config.fc_units) + 1):
        h = nm.relu(nm.linear(h, params[f"fc{j}_w"], params[f"fc{j}_b"]))
    return nm.tanh(nm.linear(h, params["out_w"], params["out_b"]))


def coherence_forward(sa_ids, sb_ids, params: ParamStore, config: CoherenceConfig) -> float:
    """Coherence of the ordered pair (S_A, S_B), strictly inside (-1, 1)."""
    return _forward(sa_ids, sb_ids, params, config).item()


def make_scorer(params: ParamStore, config: CoherenceConfig):
    """Bind frozen parameters into a (sa_ids, sb_ids) -> float callable."""

    def scorer(sa_ids, sb_ids) -> float:
        return coherence_forward(sa_ids, sb_ids, params, config)

    return scorer


def triplet_loss(triplet: CoherenceTriplet, params: ParamStore, config: CoherenceConfig) -> Tensor:
    pos = _forward(triplet.anchor.ids, triplet.positive.ids, params, config)
    neg = _forward(triplet.anchor.ids, triplet.negative.ids, params, config)
    return nm.relu(1.0 + neg - pos)


def train_coherence(
    triplets: list[CoherenceTriplet],
    config: CoherenceConfig,
    rng: np.random.Generator,
    params: ParamStore | None = None,
    batch_losses: list[float] | None = None,
) -> ParamStore:
    """SGD on the mean hinge loss over shuffled batches for config.epochs."""
    if not triplets:
        raise ValueError("cannot train the coherence model on an empty triplet set")
    if params is None:
        params = init_coherence_params(config, rng)
    for epoch in range(config.epochs):
        order = rng.permutation(len(triplets))
        epoch_total, seen = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = [triplets[i] for i in order[start : start + config.batch_size]]
            losses = [triplet_loss(tr, params, config) for tr in batch]
            batch_loss = losses[0]
            for term in losses[1:]:
                batch_loss = batch_loss + term
            batch_loss = batch_loss / len(losses)
            grads = nm.gradients(batch_loss, params)
            nm.sgd_step(params, grads, config.lr)
            if batch_losses is not None:
                batch_losses.append(batch_loss.item())
            epoch_total += batch_loss.item() * len(losses)
            seen += len(losses)
        log.info("coherence epoch %d: mean hinge loss %.6f", epoch + 1, epoch_total / seen)
    return params


def pairwise_accuracy(
    params: ParamStore, triplets: list[CoherenceTriplet], config: CoherenceConfig
) -> float:
    """Fraction of triplets ranking the true successor first; ties count wrong."""
    if not triplets:
        raise ValueError("pairwise accuracy needs at least one triplet")
    correct = 0
    for tr in triplets:
        pos = coherence_forward(tr.anchor.ids, tr.positive.ids, params, config)
        neg = coherence_forward(tr.anchor.ids, tr.negative.ids, params, config)
        if pos > neg:
            correct += 1
    return correct / len(triplets)

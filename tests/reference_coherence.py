"""Per-pair coherence forward and hinge loss, kept as test oracles.

This is the scorer as it was before the FC head ran once per batch: each
pair goes through layer 1, the pool/conv stack and its own `fc1`, `fc2` and
readout, so every pair ends in a GEMV against `fc1` and its backward in an
outer product. Nor is the grid trimmed: layer 1 builds the full [T, T, F]
grid of every window pair and pools it, and every stage runs on every row and
column, the PAD tail and the rows the next stage does not read included. Each
convolution is `windows` + `linear`, whose im2col matrix stays on the tape.
`coherence.coherence_forward` and
`coherence.triplet_loss` are tested against these functions.

`repeat_tail` is how the trimmed stack once read a grid past its last row
and column: by concatenating slices of them. The edge-extending ops of
`numeric` are tested against it.
"""

from __future__ import annotations

import reference_numeric as ref
from cohsum import numeric as nm
from cohsum.coherence import CoherenceConfig, stack_plan
from cohsum.corpus import CoherenceTriplet
from cohsum.numeric import ParamStore, Tensor


def forward(sa_ids, sb_ids, params: ParamStore, config: CoherenceConfig) -> Tensor:
    """Coherence of one ordered pair as a [1] tensor on the tape."""
    stages, _ = stack_plan(config)
    x = ref.max_pool_2x2(ref.layer1_grid(sa_ids, sb_ids, params, config))
    for stage in stages[1:]:  # stages[0] is the pool that layer 1 fuses
        if stage[0] == "pool":
            x = nm.max_pool_2x2(x, *x.shape[:2])
        else:
            _, layer, _, out_ch, _ = stage
            h, w, _ = x.shape
            k = config.conv_kernel
            cols = nm.windows(x, k, 2)
            conv = nm.linear(cols, params[f"conv{layer}_w"], params[f"conv{layer}_b"])
            x = nm.relu(conv).reshape(h - k + 1, w - k + 1, out_ch)
    h = x.reshape(x.size)
    for j in range(1, len(config.fc_units) + 1):
        h = nm.relu(nm.linear(h, params[f"fc{j}_w"], params[f"fc{j}_b"]))
    return nm.tanh(nm.linear(h, params["out_w"], params["out_b"]))


def triplet_loss(triplet: CoherenceTriplet, params: ParamStore, config: CoherenceConfig) -> Tensor:
    """Hinge max(0, 1 - pos + neg) of one triplet, each pair scored alone."""
    pos = forward(triplet.anchor.ids, triplet.positive.ids, params, config)
    neg = forward(triplet.anchor.ids, triplet.negative.ids, params, config)
    return nm.relu(1.0 + neg - pos)


def batch_loss(triplets: list[CoherenceTriplet], params: ParamStore,
               config: CoherenceConfig) -> Tensor:
    """Sum of the per-triplet losses, chained in order, as the SGD loop once built it."""
    total = triplet_loss(triplets[0], params, config)
    for triplet in triplets[1:]:
        total = total + triplet_loss(triplet, params, config)
    return total


def repeat_tail(x, rows: int, cols: int) -> Tensor:
    """x [h, w, C] with its last row repeated up to `rows` rows, its last column up to `cols`.

    Each repeat is one slice of x concatenated again, so backward sums the
    copies' gradients into the row or column they copy.
    """
    x = nm._wrap(x)
    h, w, _ = x.shape
    if rows > h:
        x = nm.concat([x] + [x[h - 1:h]] * (rows - h), axis=0)
    if cols > w:
        x = nm.concat([x] + [x[:, w - 1:w]] * (cols - w), axis=1)
    return x

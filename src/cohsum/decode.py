"""Inference: beam search over binary extraction sequences.

The beam extracts a fixed budget of k = min(max_selected, n) sentences of
an n-sentence document: a hypothesis that could no longer reach k
selections, or that would pass it, is dropped, so every kept sequence
holds exactly k ones. Hypotheses are scored by the cumulative
log-probability of every decision taken (selections and skips alike), with
no length normalization. Ties prefer skipping, then the lower-ranked parent
hypothesis, so decoding is fully deterministic.

The document is encoded under `numeric.no_tape()`: nothing runs backward
over a decoding, so no tape is kept. Each step is a few array ops over the
hypotheses. The extractor's `PolicyHead` scores every hypothesis at once,
its history already folded into the first layer, so a step adds one [B, m1]
history to the sentence's precomputed first-layer term. The 2B candidates
(parent, y, -score) are then held as arrays, with a mask that drops the
candidates outside the budget, and one
`np.lexsort((parent, y, -score))` ranks them: by score, then y=0 before
y=1, then the earlier parent. Histories, decisions and selection counts of
the kept candidates are gathered by parent index. The per-candidate loop
this replaces is tests/reference_policy.py's `beam_search`.
"""

from __future__ import annotations

import numpy as np

from . import numeric as nm
from .config import DEFAULT_MAX_SELECTED, ExtractorConfig
from .corpus import Document
from .extractor import encode_document, policy_head
from .numeric import ParamStore


def beam_search(
    doc: Document,
    params: ParamStore,
    config: ExtractorConfig,
    beam_size: int = 10,
    max_selected: int = DEFAULT_MAX_SELECTED,
) -> list[int]:
    """Best decision sequence under the policy with exactly min(max_selected, n) ones."""
    with nm.no_tape():
        enc = encode_document(doc, params, config)
    head = policy_head(enc.contexts.data, enc.doc.data, params)
    n = doc.n_sentences
    k = min(max_selected, n)
    # the hypotheses kept at each step, best score first
    decisions = np.zeros((1, n), dtype=np.int8)
    scores = np.zeros(1)  # cumulative log-probability per hypothesis
    histories = np.zeros((1, head.increments.shape[1]))  # [B, m1] folded selection histories
    selected = np.zeros(1, dtype=np.int64)  # count of 1-decisions per hypothesis
    for t in range(n):
        logits = head.logits(histories, t)
        logp1, logp0 = nm.log_sigmoid_np(logits), nm.log_sigmoid_np(-logits)
        beams = len(scores)
        # candidate c < B skips and c >= B selects, each from parent c mod B
        neg = -np.concatenate([scores + logp0, scores + logp1])
        y = np.repeat(np.array([0, 1], dtype=np.int8), beams)
        parent = np.tile(np.arange(beams), 2)
        # a skip must leave enough sentences to reach k; a selection must not pass it
        feasible = np.concatenate([selected + (n - t - 1) >= k, selected < k])
        neg, y, parent = neg[feasible], y[feasible], parent[feasible]
        kept = np.lexsort((parent, y, neg))[:beam_size]
        y, parent = y[kept], parent[kept]
        scores = -neg[kept]
        histories = histories[parent]
        histories[y == 1] += head.increments[t]
        decisions = decisions[parent]
        decisions[:, t] = y
        selected = selected[parent] + y
    return decisions[0].tolist()

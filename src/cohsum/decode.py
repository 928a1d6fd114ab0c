"""Inference: beam search over binary extraction sequences, plus Lead-3.

Hypotheses are scored by the cumulative log-probability of every decision
taken (selections and skips alike), with no length normalization. Ties
prefer skipping, then the lower-ranked parent hypothesis, so decoding is
fully deterministic.

Every hypothesis of a step is scored in one batch by the extractor's
`PolicyHead` on arrays: the context and document part of its first layer is
computed once per document, and each step adds only the history term.
"""

from __future__ import annotations

import numpy as np

from .corpus import Document, Sentence
from .extractor import ExtractorConfig, encode_document, policy_head
from .numeric import ParamStore

DEFAULT_MAX_SELECTED = 4


def _log_probs(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log p(select), log p(skip)) computed stably from logits."""
    return -np.logaddexp(0.0, -logits), -np.logaddexp(0.0, logits)


def beam_search(
    doc: Document,
    params: ParamStore,
    config: ExtractorConfig,
    beam_size: int = 10,
    max_selected: int = DEFAULT_MAX_SELECTED,
) -> list[int]:
    """Best decision sequence under the policy, at most max_selected ones."""
    if beam_size < 1:
        raise ValueError(f"beam size must be >= 1, got {beam_size}")
    if doc.n_sentences == 0:
        raise ValueError(f"document {doc.id!r} has no sentences")
    enc = encode_document(doc, params, config)
    head = policy_head(enc.contexts.data, enc.doc.data, params)
    # the hypotheses kept at each step, best score first
    decisions: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)  # cumulative log-probability per hypothesis
    histories = np.zeros((1, head.increments.shape[1]))  # [B, select_dim] selection vectors
    selected = np.zeros(1, dtype=np.int64)  # count of 1-decisions per hypothesis
    for t in range(doc.n_sentences):
        logp1, logp0 = _log_probs(head.logits(histories, t))
        # candidate key: maximize score; ties prefer y=0, then the earlier parent
        candidates = []
        for parent in range(len(decisions)):
            candidates.append((-(scores[parent] + logp0[parent]), 0, parent))
            if selected[parent] < max_selected:
                candidates.append((-(scores[parent] + logp1[parent]), 1, parent))
        candidates.sort()
        kept = candidates[:beam_size]
        decisions = [decisions[p] + (y,) for _, y, p in kept]
        scores = np.array([-neg for neg, _, _ in kept])
        histories = np.stack(
            [histories[p] + (head.increments[t] if y else 0.0) for _, y, p in kept]
        )
        selected = np.array([selected[p] + y for _, y, p in kept])
    return list(decisions[0])


def extract_summary(doc: Document, decisions: list[int]) -> list[Sentence]:
    """Sentences flagged 1, in original document order."""
    if len(decisions) != doc.n_sentences:
        raise ValueError(
            f"{len(decisions)} decisions for document {doc.id!r} with {doc.n_sentences} sentences"
        )
    return [sent for sent, y in zip(doc.sentences, decisions) if y == 1]


def lead3(doc: Document) -> list[Sentence]:
    """First three sentences, the standard positional baseline."""
    return doc.sentences[: min(3, doc.n_sentences)]

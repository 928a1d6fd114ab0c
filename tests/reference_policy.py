"""Per-step reference form of the extraction policy, kept as a test oracle.

This is the extractor as it was before batching: per-sentence word features
built from explicit token windows, a GRU cell loop, and a head that runs one
sentence at a time on the tape while the selection history is threaded
through step by step. Sampling and beam search here use that step-by-step
head too (beam search through `_FastPolicy`, the old per-document array
evaluator, which applies W1_sel to the history at every step). The beam
ranks its candidates as a sorted list of (-score, y, parent) tuples, the
loop that `cohsum.decode` now runs as array ops. The batched code in
`cohsum.extractor`, `cohsum.reinforce` and `cohsum.decode` is tested
against these functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cohsum import numeric as nm
from cohsum.corpus import Document
from cohsum.extractor import ExtractorConfig
from cohsum.numeric import ParamStore, Tensor
from reference_numeric import gather_flat, sigmoid, window_indices


def word_features(sentence, params: ParamStore, config: ExtractorConfig) -> tuple[Tensor, Tensor]:
    """Per-word convolution features [m, word_dim] and their mean vector.

    Windows beyond the encoded length are zero-padded so every one of the
    m real positions owns a window; the mean runs over m, not max_tokens.
    """
    if sentence.length == 0:
        raise ValueError("cannot featurize an empty sentence")
    if sentence.ids is None:
        raise ValueError("sentence has no ids; encode the corpus with a vocabulary first")
    m = min(sentence.length, config.max_tokens)
    embedded = nm.gather_rows(params["embed"], sentence.ids)
    per_kernel = []
    for k in config.word_kernels:
        padded = nm.concat([embedded, Tensor(np.zeros((k - 1, config.embed_dim)))], axis=0)
        windows = gather_flat(padded, window_indices(m, k, config.embed_dim))
        per_kernel.append(nm.linear(windows, params[f"conv{k}_w"], params[f"conv{k}_b"]))
    features = nm.concat(per_kernel, axis=1)
    return features, features.mean(axis=0)


def gru_cell(x: Tensor, h_prev: Tensor, params: ParamStore, direction: str) -> Tensor:
    """One gated-recurrent step; h stays in (-1, 1) when h_prev does."""
    p = lambda gate, kind: params[f"gru_{direction}_{gate}_{kind}"]
    z = sigmoid(nm.linear(x, p("z", "w"), p("z", "b")) + h_prev @ p("z", "v"))
    r = sigmoid(nm.linear(x, p("r", "w"), p("r", "b")) + h_prev @ p("r", "v"))
    h_hat = nm.tanh(nm.linear(x, p("h", "w"), p("h", "b")) + (r * h_prev) @ p("h", "v"))
    return (-z + 1.0) * h_hat + z * h_prev


@dataclass
class ReferenceEncoding:
    """Context vector per sentence, as a list, plus the pooled document vector."""

    contexts: list[Tensor]
    doc: Tensor


def encode_document(doc: Document, params: ParamStore, config: ExtractorConfig) -> ReferenceEncoding:
    """Run both GRU directions cell by cell from zero states and pool into the doc vector."""
    sent_vecs = [word_features(s, params, config)[1] for s in doc.sentences]
    n = len(sent_vecs)
    zero = Tensor(np.zeros(config.gru_hidden))
    forward: list[Tensor] = []
    h = zero
    for vec in sent_vecs:
        h = gru_cell(vec, h, params, "fwd")
        forward.append(h)
    backward: list[Tensor] = [None] * n
    h = zero
    for t in range(n - 1, -1, -1):
        h = gru_cell(sent_vecs[t], h, params, "bwd")
        backward[t] = h
    contexts = [nm.concat([forward[t], backward[t]]) for t in range(n)]
    total = contexts[0]
    for ctx in contexts[1:]:
        total = total + ctx
    doc_vec = nm.tanh(nm.linear(total / n, params["doc_w"], params["doc_b"]))
    return ReferenceEncoding(contexts=contexts, doc=doc_vec)


def extraction_logit(h_t: Tensor, g_prev: Tensor, d: Tensor, params: ParamStore) -> Tensor:
    """Pre-sigmoid score from the unsplit first layer over [h_t; g_prev; d]."""
    x = nm.concat([h_t, g_prev, d])
    a1 = nm.tanh(nm.linear(x, params["mlp_w1"], params["mlp_b1"]))
    a2 = nm.tanh(nm.linear(a1, params["mlp_w2"], params["mlp_b2"]))
    return nm.linear(a2, params["mlp_w3"], params["mlp_b3"])


def extraction_probability(h_t, g_prev, d, params: ParamStore) -> Tensor:
    """Probability of extracting the current sentence, strictly inside (0, 1)."""
    return sigmoid(extraction_logit(h_t, g_prev, d, params))


def initial_selection(config: ExtractorConfig) -> Tensor:
    return Tensor(np.zeros(config.context_dim))


def selection_update(g_prev: Tensor, h_t: Tensor, y_t: int, params: ParamStore) -> Tensor:
    """g_t = g_{t-1} + y_t * tanh(W_g h_t); unchanged object when y_t = 0."""
    if y_t == 0:
        return g_prev
    return g_prev + nm.tanh(h_t @ params["select_w"])


def decision_logits(enc, decisions, params: ParamStore, config: ExtractorConfig) -> list[Tensor]:
    """Head logit of every step, threading the history through the given decisions."""
    g = initial_selection(config)
    logits = []
    for t, y in enumerate(decisions):
        logits.append(extraction_logit(enc.contexts[t], g, enc.doc, params))
        g = selection_update(g, enc.contexts[t], y, params)
    return logits


def pretrain_loss(doc: Document, labels: list[int], params: ParamStore,
                  config: ExtractorConfig) -> Tensor:
    """Teacher-forced negative log-likelihood, one tape step per sentence."""
    enc = encode_document(doc, params, config)
    loss = None
    for z, y in zip(decision_logits(enc, labels, params, config), labels):
        step = -nm.log_sigmoid(z) if y == 1 else -nm.log_sigmoid(-z)
        loss = step if loss is None else loss + step
    return loss


def pg_surrogate(doc: Document, decisions, returns, params: ParamStore,
                 config: ExtractorConfig) -> Tensor:
    """sum_t R_t * log pi(y_t | state_t), one tape step per sentence."""
    enc = encode_document(doc, params, config)
    surrogate = None
    for z, y, ret in zip(decision_logits(enc, decisions, params, config), decisions, returns):
        log_prob = nm.log_sigmoid(z) if y == 1 else nm.log_sigmoid(-z)
        term = ret * log_prob
        surrogate = term if surrogate is None else surrogate + term
    return surrogate


def sample_episode(doc: Document, params: ParamStore, config: ExtractorConfig,
                   rng: np.random.Generator) -> list[int]:
    """Decisions drawn as y_t ~ Bernoulli(p_t), one tape head step per sentence."""
    enc = encode_document(doc, params, config)
    g = initial_selection(config)
    decisions: list[int] = []
    for t in range(doc.n_sentences):
        z = extraction_logit(enc.contexts[t], g, enc.doc, params).item()
        p = float(np.exp(-np.logaddexp(0.0, -z)))
        y = 1 if rng.random() < p else 0
        decisions.append(y)
        g = selection_update(g, enc.contexts[t], y, params)
    return decisions


class _FastPolicy:
    """Vectorized per-step logits for many hypotheses against one document.

    Mirrors extraction_logit exactly but works on raw arrays: the first MLP
    layer splits into context/selection/document blocks so the context and
    document contributions are precomputed once per sentence.
    """

    def __init__(self, doc: Document, params: ParamStore, config: ExtractorConfig):
        enc = encode_document(doc, params, config)
        self.contexts = np.stack([c.data for c in enc.contexts])  # [n, ctx]
        self.doc_vec = enc.doc.data
        ctx = config.context_dim  # the selection history lives in the context's space
        w1 = params["mlp_w1"].data
        self._w1_sel = w1[ctx : 2 * ctx]
        self._w2 = params["mlp_w2"].data
        self._b2 = params["mlp_b2"].data
        self._w3 = params["mlp_w3"].data
        self._b3 = params["mlp_b3"].data
        self._fixed = (
            self.contexts @ w1[:ctx]
            + self.doc_vec @ w1[2 * ctx :]
            + params["mlp_b1"].data
        )  # [n, m1]
        # per-sentence increment applied to g when the sentence is selected
        self.increments = np.tanh(self.contexts @ params["select_w"].data)

    @property
    def n_sentences(self) -> int:
        return self.contexts.shape[0]

    def logits(self, t: int, g: np.ndarray) -> np.ndarray:
        """Pre-sigmoid scores at step t for a [B, context_dim] batch of histories."""
        a1 = np.tanh(self._fixed[t] + g @ self._w1_sel)
        a2 = np.tanh(a1 @ self._w2 + self._b2)
        return (a2 @ self._w3 + self._b3)[:, 0]


def beam_search(doc: Document, params: ParamStore, config: ExtractorConfig,
                beam_size: int, max_selected: int) -> list[int]:
    """The beam decoder over `_FastPolicy`, with its budget and tie-breaking rules."""
    policy = _FastPolicy(doc, params, config)
    n = policy.n_sentences
    k = min(max_selected, n)
    decisions = [()]
    scores = np.zeros(1)
    histories = np.zeros((1, config.context_dim))
    selected = np.zeros(1, dtype=np.int64)
    for t in range(n):
        logits = policy.logits(t, histories)
        logp1, logp0 = -np.logaddexp(0.0, -logits), -np.logaddexp(0.0, logits)
        candidates = []
        for parent in range(len(decisions)):
            if selected[parent] + (n - t - 1) >= k:
                candidates.append((-(scores[parent] + logp0[parent]), 0, parent))
            if selected[parent] < k:
                candidates.append((-(scores[parent] + logp1[parent]), 1, parent))
        candidates.sort()
        kept = candidates[:beam_size]
        decisions = [decisions[p] + (y,) for _, y, p in kept]
        scores = np.array([-neg for neg, _, _ in kept])
        histories = np.stack(
            [histories[p] + (policy.increments[t] if y else 0.0) for _, y, p in kept]
        )
        selected = np.array([selected[p] + y for _, y, p in kept])
    return list(decisions[0])

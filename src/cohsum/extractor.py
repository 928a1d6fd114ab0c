"""Sentence-extraction policy: word convolutions, Bi-GRU context, MLP head.

Each document runs as a few batched ops rather than one op per token
window, GRU step or decision:

- Sentence vectors. The word convolutions are linear (no activation) and
  only their mean over a sentence's m real positions is used, so
  mean_i(conv_k(E)_i) = window_means_k(E) @ W_k + b_k exactly, where
  window_means_k averages the k-row embedding windows at those positions
  (`numeric.window_means`: one batched band matmul over one embedding
  gather per document; per-word features are never built).
- Context. Each GRU direction projects all sentence vectors with one
  matmul and runs the recurrence as one fused node (`numeric.gru_sequence`)
  whose backward is hand-written backpropagation through time.
- Head. A sigmoid MLP over [context; selection history; document vector]
  gives the per-sentence extraction probability (`PolicyHead`). For a known
  decision sequence (teacher-forced pretraining, the policy-gradient replay)
  the history is an exclusive cumulative sum, so the head runs as three
  matmuls over all sentences. Sampling and decoding run the same head on
  arrays, adding only the history term per step.

The per-step form this replaces (per-sentence word features, a GRU cell
loop, a step-by-step head replay) is kept in tests/reference_policy.py as
the reference the batched ops are tested against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import numeric as nm
from .corpus import Document, ExtractionLabels
from .numeric import ParamStore, Tensor

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExtractorConfig:
    vocab_size: int
    embed_dim: int = 128
    word_kernels: tuple[int, ...] = (3, 5, 7)
    word_filters: tuple[int, ...] = (128, 256, 256)
    gru_hidden: int = 256
    doc_dim: int = 512
    mlp_hidden: tuple[int, int] = (512, 256)
    max_tokens: int = 50
    max_sentences: int = 80
    lr: float = 0.1
    batch_size: int = 64
    epochs: int = 5

    def __post_init__(self):
        if len(self.word_kernels) != len(self.word_filters):
            raise ValueError(
                f"word_kernels {self.word_kernels} and word_filters {self.word_filters} differ in length"
            )

    @property
    def word_dim(self) -> int:
        return sum(self.word_filters)

    @property
    def context_dim(self) -> int:
        return 2 * self.gru_hidden

    @property
    def select_dim(self) -> int:
        # selection-history vector lives in the same space as the context
        return self.context_dim


_GRU_GATES = ("z", "r", "h")


def init_extractor_params(config: ExtractorConfig, rng: np.random.Generator) -> ParamStore:
    """Fresh parameters: uniform [-0.08, 0.08] weights, zero biases."""
    params = ParamStore()
    params.init_uniform("embed", (config.vocab_size, config.embed_dim), rng)
    for k, f in zip(config.word_kernels, config.word_filters):
        params.init_uniform(f"conv{k}_w", (k * config.embed_dim, f), rng)
        params.init_zeros(f"conv{k}_b", (f,))
    for direction in ("fwd", "bwd"):
        for gate in _GRU_GATES:
            params.init_uniform(f"gru_{direction}_{gate}_w", (config.word_dim, config.gru_hidden), rng)
            params.init_uniform(f"gru_{direction}_{gate}_v", (config.gru_hidden, config.gru_hidden), rng)
            params.init_zeros(f"gru_{direction}_{gate}_b", (config.gru_hidden,))
    params.init_uniform("doc_w", (config.context_dim, config.doc_dim), rng)
    params.init_zeros("doc_b", (config.doc_dim,))
    params.init_uniform("select_w", (config.context_dim, config.select_dim), rng)
    mlp_in = config.context_dim + config.select_dim + config.doc_dim
    m1, m2 = config.mlp_hidden
    params.init_uniform("mlp_w1", (mlp_in, m1), rng)
    params.init_zeros("mlp_b1", (m1,))
    params.init_uniform("mlp_w2", (m1, m2), rng)
    params.init_zeros("mlp_b2", (m2,))
    params.init_uniform("mlp_w3", (m2, 1), rng)
    params.init_zeros("mlp_b3", (1,))
    return params


def sentence_vectors(doc: Document, params: ParamStore, config: ExtractorConfig) -> Tensor:
    """Mean word-convolution features of every sentence, [n, word_dim].

    One embedding gather covers the whole document. The convolutions have no
    activation, so each kernel's mean over a sentence's m real positions is
    window_means(E) @ W_k + b_k; windows read PAD ids inside max_tokens and
    zeros past it, and the mean runs over m, not max_tokens.
    """
    for sent in doc.sentences:
        if sent.length == 0:
            raise ValueError(f"document {doc.id!r}: cannot featurize an empty sentence")
        if sent.ids is None:
            raise ValueError("sentence has no ids; encode the corpus with a vocabulary first")
    ids = np.stack([sent.ids for sent in doc.sentences])
    n, width = ids.shape
    lengths = [min(sent.length, config.max_tokens, width) for sent in doc.sentences]
    embedded = nm.gather_rows(params["embed"], ids.reshape(-1)).reshape(n, width, config.embed_dim)
    per_kernel = [
        nm.linear(nm.window_means(embedded, lengths, k), params[f"conv{k}_w"], params[f"conv{k}_b"])
        for k in config.word_kernels
    ]
    return nm.concat(per_kernel, axis=1)


def gru_states(x: Tensor, params: ParamStore, direction: str) -> Tensor:
    """One GRU direction over all rows of x: one input projection, one fused recurrence."""
    p = lambda gate, kind: params[f"gru_{direction}_{gate}_{kind}"]
    weight = nm.concat([p(gate, "w") for gate in _GRU_GATES], axis=1)
    bias = nm.concat([p(gate, "b") for gate in _GRU_GATES])
    return nm.gru_sequence(
        nm.linear(x, weight, bias), *(p(gate, "v") for gate in _GRU_GATES),
        reverse=direction == "bwd",
    )


@dataclass
class DocumentEncoding:
    """Bi-GRU context vectors, one [fwd; bwd] row per sentence, plus the document vector."""

    contexts: Tensor  # [n, context_dim]
    doc: Tensor  # [doc_dim]


def encode_document(doc: Document, params: ParamStore, config: ExtractorConfig) -> DocumentEncoding:
    """Run both GRU directions from zero states and pool into the doc vector."""
    if doc.n_sentences == 0:
        raise ValueError(f"document {doc.id!r} has no sentences")
    x = sentence_vectors(doc, params, config)
    contexts = nm.concat([gru_states(x, params, "fwd"), gru_states(x, params, "bwd")], axis=1)
    doc_vec = nm.tanh(nm.linear(contexts.mean(axis=0), params["doc_w"], params["doc_b"]))
    return DocumentEncoding(contexts=contexts, doc=doc_vec)


def _tanh(x):
    return nm.tanh(x) if isinstance(x, Tensor) else np.tanh(x)


@dataclass(frozen=True)
class PolicyHead:
    """The MLP over [context; selection history; document], split at its first layer.

    With fixed_t = h_t W1_ctx + d W1_doc + b1, which the history does not touch,
        logit_t = tanh(tanh(fixed_t + g_{t-1} W1_sel) W2 + b2) W3 + b3,
        g_t = g_{t-1} + y_t * increment_t,  increment_t = tanh(h_t W_g),  g_{-1} = 0.
    Built from Tensors the head is on the tape (pretraining, policy gradient);
    built from arrays it runs in plain numpy (sampling, decoding). Both are
    this one piece of arithmetic.
    """

    fixed: Tensor | np.ndarray  # [n, m1]
    increments: Tensor | np.ndarray  # [n, select_dim]
    w1_sel: Tensor | np.ndarray
    w2: Tensor | np.ndarray
    b2: Tensor | np.ndarray
    w3: Tensor | np.ndarray
    b3: Tensor | np.ndarray

    def logits(self, histories, t: int | None = None):
        """Logits for histories [..., select_dim]: of sentence t, or row-wise of all sentences."""
        fixed = self.fixed if t is None else self.fixed[t]
        a1 = _tanh(fixed + histories @ self.w1_sel)
        a2 = _tanh(a1 @ self.w2 + self.b2)
        return (a2 @ self.w3 + self.b3)[..., 0]

    def histories(self, decisions):
        """g_{t-1} for every t of a known decision sequence: an exclusive cumulative sum."""
        y = np.asarray(decisions, dtype=np.float64)
        taken_before = np.tril(np.ones((len(y), len(y))), k=-1) * y  # [t, s]: y_s if s < t
        if isinstance(self.increments, Tensor):
            return nm.matmul(taken_before, self.increments)
        return taken_before @ self.increments


def policy_head(contexts, doc_vec, params: ParamStore) -> PolicyHead:
    """The head for one document; Tensor inputs keep it on the tape, arrays do not."""
    tape = isinstance(contexts, Tensor)
    w = (lambda name: params[name]) if tape else (lambda name: params[name].data)
    ctx, sel = contexts.shape[-1], params["select_w"].shape[1]
    w1 = w("mlp_w1")
    return PolicyHead(
        fixed=contexts @ w1[:ctx] + doc_vec @ w1[ctx + sel :] + w("mlp_b1"),
        increments=_tanh(contexts @ w("select_w")),
        w1_sel=w1[ctx : ctx + sel],
        w2=w("mlp_w2"),
        b2=w("mlp_b2"),
        w3=w("mlp_w3"),
        b3=w("mlp_b3"),
    )


def extraction_logit(h_t, g_prev, d, params: ParamStore):
    """Pre-sigmoid extraction score of one sentence; feed to log_sigmoid for stable losses."""
    return policy_head(h_t, d, params).logits(g_prev)


def extraction_probability(h_t, g_prev, d, params: ParamStore):
    """Probability of extracting the current sentence, strictly inside (0, 1)."""
    return nm.sigmoid(extraction_logit(h_t, g_prev, d, params))


def decision_log_probs(enc: DocumentEncoding, decisions, params: ParamStore) -> Tensor:
    """log pi(y_t | state_t) of every step of a known decision sequence, [n], on the tape.

    The history of a known sequence has a closed form, so the head runs once
    over all n rows instead of once per step.
    """
    head = policy_head(enc.contexts, enc.doc, params)
    z = head.logits(head.histories(decisions))
    signs = np.where(np.asarray(decisions) == 1, 1.0, -1.0)
    return nm.log_sigmoid(z * signs)


def pretrain_loss(
    doc: Document,
    labels: ExtractionLabels,
    params: ParamStore,
    config: ExtractorConfig,
    encoding: DocumentEncoding | None = None,
) -> Tensor:
    """Teacher-forced negative log-likelihood of the oracle labels."""
    if len(labels.labels) != doc.n_sentences:
        raise ValueError(
            f"document {doc.id!r}: {len(labels.labels)} labels for {doc.n_sentences} sentences"
        )
    enc = encoding or encode_document(doc, params, config)
    return -decision_log_probs(enc, labels.labels, params).sum()


def teacher_forced_probabilities(
    doc: Document, labels: ExtractionLabels, params: ParamStore, config: ExtractorConfig
) -> list[float]:
    """p_t conditioned on the ground-truth selection history, as plain floats."""
    enc = encode_document(doc, params, config)
    head = policy_head(enc.contexts.data, enc.doc.data, params)
    return nm.sigmoid(head.logits(head.histories(labels.labels))).data.tolist()


def pretrain(
    labeled_docs: list[tuple[Document, ExtractionLabels]],
    config: ExtractorConfig,
    rng: np.random.Generator,
    params: ParamStore | None = None,
    epoch_losses: list[float] | None = None,
) -> ParamStore:
    """Minimize the mean teacher-forced NLL with plain SGD.

    Batch gradients are means over per-document gradients; document order is
    reshuffled every epoch from the supplied generator.
    """
    if not labeled_docs:
        raise ValueError("pretraining needs a non-empty labeled corpus")
    if params is None:
        params = init_extractor_params(config, rng)
    for epoch in range(config.epochs):
        order = rng.permutation(len(labeled_docs))
        epoch_total, seen = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = [labeled_docs[i] for i in order[start : start + config.batch_size]]
            losses = [pretrain_loss(doc, labels, params, config) for doc, labels in batch]
            batch_loss = losses[0]
            for term in losses[1:]:
                batch_loss = batch_loss + term
            batch_loss = batch_loss / len(losses)
            grads = nm.gradients(batch_loss, params)
            nm.sgd_step(params, grads, config.lr)
            epoch_total += batch_loss.item() * len(losses)
            seen += len(losses)
        if epoch_losses is not None:
            epoch_losses.append(epoch_total / seen)
        log.info("pretrain epoch %d: mean loss %.6f", epoch + 1, epoch_total / seen)
    return params

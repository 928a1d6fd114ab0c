"""Sentence-extraction policy: word convolutions, Bi-GRU context, MLP head.

Each document runs as a few batched ops rather than one op per token
window, GRU step or decision:

- Sentence vectors. The word convolutions are linear (no activation) and
  only their mean over a sentence's m real positions is used, so
  mean_i(conv_k(E)_i) = window_means_k(E) @ W_k + b_k exactly, where
  window_means_k averages the k-row embedding windows at those positions
  (`numeric.window_means`: one batched band matmul over one embedding
  gather per document; per-word features are never built).
- Context. Each GRU direction is one node (`numeric.gru_sequence`): it
  projects all sentence vectors with one GEMM over its three gate weights,
  runs the recurrence, and backward is hand-written backpropagation through
  time. The joined gate weights and the [n, 3h] projection are built for
  the forward pass and dropped, so the tape keeps no per-document copy.
- Head. A sigmoid MLP over [context; selection history; document vector]
  gives the per-sentence extraction probability (`PolicyHead`). The history
  enters the first layer linearly, so the head keeps each sentence's
  selection increment already multiplied by the history block of that layer,
  and a history is a sum of those [m1] rows. For a known decision sequence
  (teacher-forced pretraining, the policy-gradient replay) the history is an
  exclusive cumulative sum, so the head runs as three matmuls over all
  sentences. Sampling and decoding run the same head on arrays and add the
  history to the first layer's pre-activation: no product per step touches
  the [context_dim, m1] block.

The per-step form this replaces (per-sentence word features, a GRU cell
loop, a step-by-step head replay) is kept in tests/reference_policy.py as
the reference the batched ops are tested against, and so is the head
evaluated for one sentence and one history at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric as nm
from .config import ExtractorConfig
from .corpus import Document
from .numeric import ParamStore, Tensor


_GRU_GATES = ("z", "r", "h")


def param_layout(config: ExtractorConfig) -> list[tuple[str, tuple, str]]:
    """Every parameter as (name, shape, init) in draw order (`numeric.init_params`)."""
    layout = [("embed", (config.vocab_size, config.embed_dim), "uniform")]
    for k, f in zip(config.word_kernels, config.word_filters):
        layout += [(f"conv{k}_w", (k * config.embed_dim, f), "uniform"),
                   (f"conv{k}_b", (f,), "zeros")]
    for direction in ("fwd", "bwd"):
        for gate in _GRU_GATES:
            prefix = f"gru_{direction}_{gate}"
            layout += [(f"{prefix}_w", (config.word_dim, config.gru_hidden), "uniform"),
                       (f"{prefix}_v", (config.gru_hidden, config.gru_hidden), "uniform"),
                       (f"{prefix}_b", (config.gru_hidden,), "zeros")]
    # [context; selection history; document], the history in the context's space
    mlp_in = 2 * config.context_dim + config.doc_dim
    m1, m2 = config.mlp_hidden
    return layout + [
        ("doc_w", (config.context_dim, config.doc_dim), "uniform"),
        ("doc_b", (config.doc_dim,), "zeros"),
        ("select_w", (config.context_dim, config.context_dim), "uniform"),
        ("mlp_w1", (mlp_in, m1), "uniform"),
        ("mlp_b1", (m1,), "zeros"),
        ("mlp_w2", (m1, m2), "uniform"),
        ("mlp_b2", (m2,), "zeros"),
        ("mlp_w3", (m2, 1), "uniform"),
        ("mlp_b3", (1,), "zeros"),
    ]


def init_extractor_params(config: ExtractorConfig, rng: np.random.Generator,
                          rows: np.ndarray | None = None) -> ParamStore:
    """Fresh parameters: uniform [-0.08, 0.08] weights, zero biases.

    `rows`, if given, are the only embedding rows drawn and kept.
    """
    return nm.init_params(param_layout(config), rng, None if rows is None else {"embed": rows})


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
    """One GRU direction over all rows of x, as one node (`numeric.gru_sequence`)."""
    gates = lambda kind: [params[f"gru_{direction}_{gate}_{kind}"] for gate in _GRU_GATES]
    return nm.gru_sequence(x, gates("w"), gates("b"), gates("v"), reverse=direction == "bwd")


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

    With the selection vector g_{t-1} = sum_{s<t} y_s tanh(h_s W_g), the first
    layer is tanh(h_t W1_ctx + g_{t-1} W1_sel + d W1_doc + b1). The history
    term is linear in the decisions, so it is kept folded into W1_sel:
        fixed_t = h_t W1_ctx + d W1_doc + b1,  increment_t = tanh(h_t W_g) W1_sel,
        logit_t = tanh(tanh(fixed_t + G_{t-1}) W2 + b2) W3 + b3,
        G_t = G_{t-1} + y_t * increment_t,  G_{-1} = 0,
    where G_t = g_t W1_sel is the history as the first layer sees it, [m1].
    This is the unsplit MLP up to rounding. Built from Tensors the head is on
    the tape (pretraining, policy gradient); built from arrays it runs in
    plain numpy (sampling, decoding). Both are this one piece of arithmetic.
    """

    fixed: Tensor | np.ndarray  # [n, m1]
    increments: Tensor | np.ndarray  # [n, m1]
    w2: Tensor | np.ndarray
    b2: Tensor | np.ndarray
    w3: Tensor | np.ndarray
    b3: Tensor | np.ndarray

    def logits(self, histories, t: int | None = None):
        """Logits for histories G [..., m1]: of sentence t, or row-wise of all sentences."""
        fixed = self.fixed if t is None else self.fixed[t]
        a1 = _tanh(fixed + histories)
        a2 = _tanh(a1 @ self.w2 + self.b2)
        return (a2 @ self.w3 + self.b3)[..., 0]

    def histories(self, decisions) -> Tensor:
        """G_{t-1} for every t of a known decision sequence, on the tape: an exclusive cumsum."""
        y = np.asarray(decisions, dtype=np.float64)
        taken_before = np.tril(np.ones((len(y), len(y))), k=-1) * y  # [t, s]: y_s if s < t
        return nm.matmul(taken_before, self.increments)


def policy_head(contexts, doc_vec, params: ParamStore) -> PolicyHead:
    """The head for one document; Tensor inputs keep it on the tape, arrays do not."""
    tape = isinstance(contexts, Tensor)
    w = (lambda name: params[name]) if tape else (lambda name: params[name].data)
    ctx, sel = contexts.shape[-1], params["select_w"].shape[1]
    w1 = w("mlp_w1")
    return PolicyHead(
        fixed=contexts @ w1[:ctx] + doc_vec @ w1[ctx + sel :] + w("mlp_b1"),
        increments=_tanh(contexts @ w("select_w")) @ w1[ctx : ctx + sel],
        w2=w("mlp_w2"),
        b2=w("mlp_b2"),
        w3=w("mlp_w3"),
        b3=w("mlp_b3"),
    )


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
    labels: list[int],
    params: ParamStore,
    config: ExtractorConfig,
) -> Tensor:
    """Teacher-forced negative log-likelihood of the oracle labels."""
    enc = encode_document(doc, params, config)
    return -decision_log_probs(enc, labels, params).sum()


def pretrain(
    labeled_docs: list[tuple[Document, list[int]]],
    config: ExtractorConfig,
    rng: np.random.Generator,
    rows: np.ndarray | None = None,
) -> ParamStore:
    """Fresh parameters from `rng`, then SGD on the mean teacher-forced NLL for config.epochs.

    With `rows`, the embedding holds only those rows of the table, and the
    documents' ids are rows of it (`init_extractor_params`).
    """
    params = init_extractor_params(config, rng, rows)
    return nm.minibatch_sgd(labeled_docs,
                            lambda batch, p: sum(pretrain_loss(*item, p, config) for item in batch),
                            params, rng, config.lr, config.batch_size, config.epochs, "pretrain")

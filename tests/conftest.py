"""Shared fixtures: tiny model geometries, toy corpora, gradient-check oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from cohsum import numeric as nm
from cohsum.coherence import CoherenceConfig
from cohsum.config import DEFAULT_MAX_TOKENS
from cohsum.corpus import Document, Sentence, Vocabulary, encode_sentence, make_document
from cohsum.extractor import ExtractorConfig
from cohsum.numeric import ParamStore
from reference_numeric import topological_order


def finite_difference_grads(loss_fn, params: ParamStore, step: float = 1e-5) -> dict:
    """Central differences of loss_fn() with respect to every parameter entry.

    loss_fn must re-evaluate the computation from params.data on each call;
    it is the independent oracle for the reverse-mode gradients.
    """
    grads = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * step)
        grads[name] = g.reshape(p.data.shape)
    return grads


def sgd_hand_offs(loss, params: ParamStore) -> list[tuple[str, object]]:
    """(name, gradient) for every hand-off to `sgd_step` in `nm.gradients(loss, params, 1.0)`.

    `nm.sgd_step` is replaced by a recorder for the walk, the same binding
    the benchmark's tracer wraps, so nothing steps. Each gradient is as the
    walk leaves it: a dense array, or a list of deferred terms of one kind,
    `gather_rows`'s `numeric._Rows` segments or `numeric._Product`s (see
    `gradient_form`).
    """
    handed = []
    step = nm.sgd_step
    nm.sgd_step = lambda p, g, lr, name: handed.append((name, g))
    try:
        nm.gradients(loss, params, 1.0)
    finally:
        nm.sgd_step = step
    return handed


def gradient_form(g) -> str:
    """"dense", "rows" or "products": the form of a gradient as the walk hands it over."""
    if isinstance(g, np.ndarray):
        return "dense"
    return {nm._Rows: "rows", nm._Product: "products"}[type(g[0])]


def dense_gradient(g, shape: tuple) -> np.ndarray:
    """A handed-over gradient as a dense array, as `numeric._dense_grad` makes it; None as zeros."""
    holder = nm.Tensor(np.zeros(shape))
    holder.grad = g
    return nm._dense_grad(holder)


def gradients_of(loss, params: ParamStore, dense: bool = True) -> dict:
    """d(loss)/d(p) per parameter, as the walk of `nm.gradients` hands it to `sgd_step`.

    By default every parameter is named, with a dense array (`dense_gradient`):
    zeros for one the loss does not reach. With dense=False only the
    parameters handed over are named, each gradient as it was handed.
    """
    handed = dict(sgd_hand_offs(loss, params))
    if not dense:
        return handed
    return {name: dense_gradient(handed.get(name), p.data.shape) for name, p in params.items()}


def assert_grads_close(analytic: dict, numeric: dict, rel_tol: float = 1e-4,
                       abs_tol: float = 1e-9) -> None:
    """Relative error below rel_tol, with an absolute floor for the FD noise.

    Central differences with step 1e-5 carry roundoff around 1e-11 on unit-scale
    losses, so near-zero entries are compared absolutely rather than relatively.
    """
    assert set(analytic) == set(numeric)
    for name in analytic:
        a, f = np.asarray(analytic[name]).reshape(-1), np.asarray(numeric[name]).reshape(-1)
        for av, fv in zip(a, f):
            scale = max(abs(av), abs(fv))
            assert abs(av - fv) <= rel_tol * scale + abs_tol, (
                f"{name}: {av} vs {fv} (diff {abs(av - fv):.3e}, scale {scale:.3e})"
            )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def small_vocab(tokens=("alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                        "eta", "theta", "iota", "kappa")) -> Vocabulary:
    return Vocabulary(tokens)


def tiny_extractor_config(vocab_size: int, **overrides) -> ExtractorConfig:
    defaults = dict(
        vocab_size=vocab_size,
        embed_dim=8,
        word_kernels=(3, 5, 7),
        word_filters=(4, 4, 4),
        gru_hidden=6,
        doc_dim=8,
        mlp_hidden=(8, 4),
        max_tokens=10,
        max_sentences=12,
        lr=0.1,
        batch_size=8,
        epochs=2,
    )
    defaults.update(overrides)
    return ExtractorConfig(**defaults)


def tiny_coherence_config(vocab_size: int, **overrides) -> CoherenceConfig:
    defaults = dict(
        vocab_size=vocab_size,
        embed_dim=8,
        window=3,
        conv_filters=(4, 4, 4),
        conv_kernel=3,
        fc_units=(8, 4),
        max_tokens=10,
        lr=0.1,
        batch_size=8,
        epochs=2,
    )
    defaults.update(overrides)
    return CoherenceConfig(**defaults)


_FILLER = ["the", "sky", "river", "stone", "wind", "light", "cloud", "branch",
           "valley", "shore", "ember", "field"]


def toy_document(doc_id: str, rng: np.random.Generator, vocab: Vocabulary | None,
                 n_sentences: int = 5, tokens_per_sentence: int = 5,
                 max_tokens: int = 10, highlight_sentences: tuple[int, ...] = (0,),
                 word_pool: list[str] | None = None) -> Document:
    """Random document whose highlights copy the given sentence positions."""
    pool = word_pool or _FILLER
    sentences = [
        " ".join(pool[rng.integers(0, len(pool))] for _ in range(tokens_per_sentence))
        for _ in range(n_sentences)
    ]
    highlights = [sentences[i] for i in highlight_sentences if i < n_sentences]
    doc = make_document(doc_id, sentences, highlights)
    return doc if vocab is None else encoded(doc, vocab, max_tokens)


def encoded(item: Document | Sentence, vocab: Vocabulary, max_tokens: int = DEFAULT_MAX_TOKENS):
    """item, with the ids of each of its sentences set to their vocabulary ids, and returned.

    The ids are rows of the whole table; the CLI's `corpus.encode_as_rows` gives
    rows of a table of only the rows they read. A document's highlights stay
    unencoded, as in the CLI.
    """
    for sent in item.sentences if isinstance(item, Document) else [item]:
        sent.ids = encode_sentence(sent.tokens, vocab.token_to_id, max_tokens)
    return item


def logged_epoch_losses(caplog, name: str) -> list[float]:
    """The exact per-epoch mean losses that `numeric.minibatch_sgd` logged for `name`."""
    return [r.args[2] for r in caplog.records
            if r.name == "cohsum.numeric" and r.msg.startswith("%s epoch") and r.args[0] == name]


def recording_nodes(monkeypatch) -> list:
    """Every Tensor that an op builds from now on, in order, through `numeric._node`."""
    built = []
    node = nm._node

    def recording(*args):
        out = node(*args)
        built.append(out)
        return out

    monkeypatch.setattr(nm, "_node", recording)
    return built


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory: a itself, or the base at the end of its view chain."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_arrays(fn) -> list[np.ndarray]:
    arrays = []
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # a cell not yet bound
            continue
        if isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


def tape_holdings(loss, params: ParamStore) -> list[tuple[str, object, list[np.ndarray]]]:
    """(op, node, buffers) for every node of a loss's tape, each node after its parents.

    A node holds its data and the arrays its backward closure reads; the op is
    the function that built the closure ("leaf" for a node without one). A
    view counts as the array that owns its memory, and each buffer goes to
    the first node that holds it, so a reshape or a slice holds none of its
    own. Parameter buffers are left out.
    """
    owners = {id(_owner(p.data)) for _, p in params.items()}
    holdings = []
    for node in topological_order(loss):
        fn = node._backward_fn
        op = "leaf" if fn is None else fn.__qualname__.split(".")[0]
        buffers = []
        for a in [node.data] + ([] if fn is None else _closure_arrays(fn)):
            a = _owner(a)
            if id(a) not in owners:
                owners.add(id(a))
                buffers.append(a)
        holdings.append((op, node, buffers))
    return holdings


def tape_bytes(loss, params: ParamStore) -> dict[str, int]:
    """The bytes of the distinct buffers a loss's tape holds, summed by op, parameters excluded."""
    total: dict[str, int] = {}
    for op, _, buffers in tape_holdings(loss, params):
        total[op] = total.get(op, 0) + sum(a.nbytes for a in buffers)
    return total


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of fn(), above what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

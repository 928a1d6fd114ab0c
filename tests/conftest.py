"""Shared fixtures: tiny model geometries, toy corpora, gradient-check oracle."""

from __future__ import annotations

import numpy as np
import pytest

from cohsum.coherence import CoherenceConfig
from cohsum.corpus import Document, Vocabulary, make_document
from cohsum.extractor import ExtractorConfig
from cohsum.numeric import ParamStore


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
    return make_document(doc_id, sentences, highlights, vocab=vocab, max_tokens=max_tokens)

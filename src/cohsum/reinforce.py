"""Policy-gradient fine-tuning of the extractor with mixed rewards.

Each step samples one extraction episode from the current policy, scores
selected sentences with the frozen coherence model (immediate rewards) and
the finished summary with the combined ROUGE measure (final reward), turns
those into per-step returns, and takes one ascent step on the sampled
log-likelihood weighted by the returns.

The document is encoded once per step. Sampling and the update share that
`DocumentEncoding` and the extractor's one `PolicyHead`: sampling runs the
head on arrays, one step at a time, since each decision feeds the next; the
update replays the sampled decisions on the tape in one batched pass.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numeric as nm
from .config import ExtractorConfig, RewardWeights, RLConfig
from .corpus import Document, placeholder_sentence, tokens_of
from .extractor import DocumentEncoding, decision_log_probs, encode_document, policy_head
from .numeric import ParamStore, Tensor
from .rouge import combined_rouge

log = logging.getLogger(__name__)

# scorer signature: [(first_sentence_ids, second_sentence_ids), ...] -> one score per pair
CoherenceScorer = Callable[[list[tuple[np.ndarray, np.ndarray]]], np.ndarray]

MOVING_WINDOW = 100  # steps in the logged moving average of the combined reward


@dataclass
class Episode:
    """One sampled trajectory of extraction decisions over a document."""

    decisions: list[int]
    rewards: list[float] = field(default_factory=list)
    final_reward: float = 0.0
    returns: list[float] = field(default_factory=list)


def sample_episode(enc: DocumentEncoding, params: ParamStore, rng: np.random.Generator) -> Episode:
    """Draw y_t ~ Bernoulli(p_t) for each encoded sentence in turn, threading the history."""
    head = policy_head(enc.contexts.data, enc.doc.data, params)
    g = np.zeros(head.increments.shape[1])
    decisions: list[int] = []
    for t in range(len(enc.contexts)):
        z = float(head.logits(g, t))
        p = float(nm.sigmoid_np(z))
        y = 1 if rng.random() < p else 0
        decisions.append(y)
        if y == 1:
            g = g + head.increments[t]
    return Episode(decisions=decisions)


def immediate_rewards(doc: Document, decisions: list[int], scorer: CoherenceScorer) -> list[float]:
    """Coherence of each selected sentence with the previously selected one.

    The chain starts from the boundary placeholder; skipped sentences earn
    zero and do not advance the chain. The chain's pairs go to the scorer in
    one call, or in none when nothing was selected.
    """
    if len(decisions) != doc.n_sentences:
        raise ValueError(f"{len(decisions)} decisions for {doc.n_sentences} sentences")
    selected = [t for t, y in enumerate(decisions) if y == 1]
    rewards = [0.0] * doc.n_sentences
    if selected:
        chain = [placeholder_sentence(len(doc.sentences[0].ids))]
        chain += [doc.sentences[t] for t in selected]
        scores = scorer([(a.ids, b.ids) for a, b in zip(chain, chain[1:])])
        for t, score in zip(selected, scores):
            rewards[t] = float(score)
    return rewards


def final_reward(doc: Document, decisions: list[int], weights: RewardWeights) -> float:
    """Combined ROUGE of the extracted summary against the highlights."""
    candidate = tokens_of(sent for sent, y in zip(doc.sentences, decisions) if y == 1)
    return combined_rouge(candidate, doc.highlight_tokens(), weights)


def compute_returns(rewards: list[float], r_final: float, lam: float) -> list[float]:
    """R_t = lam * sum_{i>=t} r_i + r_final (undiscounted)."""
    returns = [0.0] * len(rewards)
    suffix = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        suffix += rewards[t]
        returns[t] = lam * suffix + r_final
    return returns


def surrogate_objective(
    params: ParamStore, doc: Document, enc: DocumentEncoding, episode: Episode
) -> Tensor:
    """sum_t R_t * log pi(y_t | state_t) on the tape, returns held constant."""
    if len(episode.decisions) != doc.n_sentences or len(episode.returns) != doc.n_sentences:
        raise ValueError(
            f"episode with {len(episode.decisions)} decisions / {len(episode.returns)} returns "
            f"does not match document {doc.id!r} with {doc.n_sentences} sentences"
        )
    log_probs = decision_log_probs(enc, episode.decisions, params)
    return (log_probs * np.asarray(episode.returns, dtype=np.float64)).sum()


def policy_gradient_step(
    params: ParamStore, doc: Document, enc: DocumentEncoding, episode: Episode, alpha: float
) -> ParamStore:
    """One ascent step on the surrogate sum_t R_t * log pi(y_t | state_t).

    `enc` is `doc` encoded under `params`; the gradient flows back through
    its tape, and `numeric.gradients` steps each parameter by alpha times
    the negated surrogate's gradient as soon as that gradient is complete,
    so no gradient outlives its step. All returns are treated as
    constants and every gradient is evaluated at the pre-update parameters,
    so the step equals the per-t update loop applied jointly.
    """
    nm.gradients(-surrogate_objective(params, doc, enc, episode), params, alpha)
    return params


def train_rnes(
    docs: list[Document],
    params: ParamStore,
    coherence_scorer: CoherenceScorer | None,
    rl_config: RLConfig,
    config: ExtractorConfig,
    rng: np.random.Generator,
) -> ParamStore:
    """REINFORCE loop: sample, score, return, update; documents drawn uniformly.

    The coherence scorer is None only when lambda is zero, and is never
    invoked then. Each step's rewards and the moving average of the combined
    reward go to the module logger as one INFO record whose args carry the
    exact floats.
    """
    recent_combined: deque[float] = deque(maxlen=MOVING_WINDOW)
    for step in range(1, rl_config.steps + 1):
        doc = docs[int(rng.integers(0, len(docs)))]
        enc = encode_document(doc, params, config)
        episode = sample_episode(enc, params, rng)
        if rl_config.lam > 0:
            episode.rewards = immediate_rewards(doc, episode.decisions, coherence_scorer)
        else:
            episode.rewards = [0.0] * doc.n_sentences
        episode.final_reward = final_reward(doc, episode.decisions, rl_config.weights)
        episode.returns = compute_returns(episode.rewards, episode.final_reward, rl_config.lam)
        policy_gradient_step(params, doc, enc, episode, rl_config.alpha)
        del enc  # its tape, before the next step encodes

        coh_sum = sum(episode.rewards)
        combined = episode.final_reward + rl_config.lam * coh_sum
        recent_combined.append(combined)
        log.info(
            "step %d: rouge %.4f coherence %.4f combined %.4f (avg %.4f)",
            step,
            episode.final_reward,
            coh_sum,
            combined,
            sum(recent_combined) / len(recent_combined),
        )
    return params

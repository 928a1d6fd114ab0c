"""Policy-gradient fine-tuning of the extractor with mixed rewards.

Each step samples one extraction episode from the current policy, scores
selected sentences with the frozen coherence model (immediate rewards) and
the finished summary with the combined ROUGE measure (final reward), turns
those into per-step returns, and takes one ascent step on the sampled
log-likelihood weighted by the returns.

Sampling and the update share the extractor's one `PolicyHead`: sampling runs
it on arrays, one step at a time, since each decision feeds the next; the
update replays the sampled decisions on the tape in one batched pass.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numeric as nm
from .corpus import Document, placeholder_sentence
from .extractor import (
    DocumentEncoding,
    ExtractorConfig,
    decision_log_probs,
    encode_document,
    policy_head,
)
from .numeric import ParamStore, Tensor
from .rouge import RewardWeights, combined_rouge

log = logging.getLogger(__name__)

# scorer signature: (first_sentence_ids, second_sentence_ids) -> float
CoherenceScorer = Callable[[np.ndarray, np.ndarray], float]


@dataclass
class RLConfig:
    lam: float = 0.01  # weight of coherence rewards in the return
    alpha: float = 0.001  # ascent step size
    steps: int = 1000
    weights: RewardWeights = field(default_factory=RewardWeights)
    moving_window: int = 100

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")


@dataclass
class Episode:
    """One sampled trajectory of extraction decisions over a document."""

    decisions: list[int]
    probs: list[float]  # probability of the action actually taken
    rewards: list[float] = field(default_factory=list)
    final_reward: float = 0.0
    returns: list[float] = field(default_factory=list)


def sample_episode(
    doc: Document,
    params: ParamStore,
    config: ExtractorConfig,
    rng: np.random.Generator,
    encoding: DocumentEncoding | None = None,
) -> Episode:
    """Draw y_t ~ Bernoulli(p_t) sequentially, threading the selection history."""
    enc = encoding or encode_document(doc, params, config)
    head = policy_head(enc.contexts.data, enc.doc.data, params)
    g = np.zeros(head.increments.shape[1])
    decisions: list[int] = []
    probs: list[float] = []
    for t in range(doc.n_sentences):
        z = float(head.logits(g, t))
        p = float(np.exp(-np.logaddexp(0.0, -z)))
        y = 1 if rng.random() < p else 0
        decisions.append(y)
        probs.append(p if y == 1 else 1.0 - p)
        if y == 1:
            g = g + head.increments[t]
    return Episode(decisions=decisions, probs=probs)


def immediate_rewards(doc: Document, decisions: list[int], scorer: CoherenceScorer) -> list[float]:
    """Coherence of each selected sentence with the previously selected one.

    The chain starts from the boundary placeholder; skipped sentences earn
    zero and do not advance the chain.
    """
    if len(decisions) != doc.n_sentences:
        raise ValueError(f"{len(decisions)} decisions for {doc.n_sentences} sentences")
    previous = placeholder_sentence(len(doc.sentences[0].ids))
    rewards = [0.0] * doc.n_sentences
    for t, y in enumerate(decisions):
        if y == 1:
            rewards[t] = scorer(previous.ids, doc.sentences[t].ids)
            previous = doc.sentences[t]
    return rewards


def final_reward(doc: Document, decisions: list[int], weights: RewardWeights) -> float:
    """Combined ROUGE of the extracted summary against the highlights."""
    if not doc.highlights:
        raise ValueError(f"document {doc.id!r} has no highlights to reward against")
    candidate: list[str] = []
    for sent, y in zip(doc.sentences, decisions):
        if y == 1:
            candidate.extend(sent.tokens)
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
    params: ParamStore,
    doc: Document,
    episode: Episode,
    config: ExtractorConfig,
    encoding: DocumentEncoding | None = None,
) -> Tensor:
    """sum_t R_t * log pi(y_t | state_t) on the tape, returns held constant."""
    if len(episode.decisions) != doc.n_sentences or len(episode.returns) != doc.n_sentences:
        raise ValueError(
            f"episode with {len(episode.decisions)} decisions / {len(episode.returns)} returns "
            f"does not match document {doc.id!r} with {doc.n_sentences} sentences"
        )
    enc = encoding or encode_document(doc, params, config)
    log_probs = decision_log_probs(enc, episode.decisions, params)
    return (log_probs * np.asarray(episode.returns, dtype=np.float64)).sum()


def policy_gradient_step(
    params: ParamStore,
    doc: Document,
    episode: Episode,
    alpha: float,
    config: ExtractorConfig,
    encoding: DocumentEncoding | None = None,
) -> ParamStore:
    """One ascent step on the surrogate sum_t R_t * log pi(y_t | state_t).

    All returns are treated as constants and gradients are evaluated at the
    pre-update parameters, so the step equals the per-t update loop applied
    jointly.
    """
    surrogate = surrogate_objective(params, doc, episode, config, encoding)
    grads = nm.gradients(-surrogate, params)
    return nm.sgd_step(params, grads, alpha)


def train_rnes(
    docs: list[Document],
    params: ParamStore,
    coherence_scorer: CoherenceScorer | None,
    rl_config: RLConfig,
    config: ExtractorConfig,
    rng: np.random.Generator,
    metrics: list[dict] | None = None,
) -> ParamStore:
    """REINFORCE loop: sample, score, return, update; documents drawn uniformly.

    The coherence scorer is never invoked when lambda is zero. Per-step and
    moving-average rewards go to the module logger; pass `metrics` to capture
    them programmatically.
    """
    if not docs:
        raise ValueError("cannot run policy-gradient training on an empty corpus")
    if rl_config.lam > 0 and coherence_scorer is None:
        raise ValueError("lambda > 0 requires a coherence scorer")
    window = rl_config.moving_window
    recent_rouge: deque[float] = deque(maxlen=window)
    recent_coh: deque[float] = deque(maxlen=window)
    recent_combined: deque[float] = deque(maxlen=window)
    for step in range(1, rl_config.steps + 1):
        doc = docs[int(rng.integers(0, len(docs)))]
        enc = encode_document(doc, params, config)
        episode = sample_episode(doc, params, config, rng, encoding=enc)
        if rl_config.lam > 0:
            episode.rewards = immediate_rewards(doc, episode.decisions, coherence_scorer)
        else:
            episode.rewards = [0.0] * doc.n_sentences
        episode.final_reward = final_reward(doc, episode.decisions, rl_config.weights)
        episode.returns = compute_returns(episode.rewards, episode.final_reward, rl_config.lam)
        policy_gradient_step(params, doc, episode, rl_config.alpha, config, encoding=enc)

        coh_sum = sum(episode.rewards)
        combined = episode.final_reward + rl_config.lam * coh_sum
        recent_rouge.append(episode.final_reward)
        recent_coh.append(coh_sum)
        recent_combined.append(combined)
        log.info(
            "step %d: rouge %.4f coherence %.4f combined %.4f (avg %.4f)",
            step,
            episode.final_reward,
            coh_sum,
            combined,
            sum(recent_combined) / len(recent_combined),
        )
        if metrics is not None:
            metrics.append(
                {
                    "step": step,
                    "doc": doc.id,
                    "rouge": episode.final_reward,
                    "coherence_sum": coh_sum,
                    "combined": combined,
                    "avg_rouge": sum(recent_rouge) / len(recent_rouge),
                    "avg_coherence": sum(recent_coh) / len(recent_coh),
                    "avg_combined": sum(recent_combined) / len(recent_combined),
                }
            )
    return params

"""Episode sampling, reward plumbing, returns, and the policy-gradient step."""

import numpy as np
import pytest

from cohsum.corpus import make_document, placeholder_sentence
from cohsum.extractor import encode_document, extraction_probability, init_extractor_params
from cohsum.reinforce import (
    Episode,
    RLConfig,
    compute_returns,
    final_reward,
    immediate_rewards,
    policy_gradient_step,
    sample_episode,
    train_rnes,
)
from cohsum.rouge import RewardWeights

from conftest import small_vocab, tiny_extractor_config, toy_document
from reference_policy import initial_selection


@pytest.fixture
def vocab():
    return small_vocab()


@pytest.fixture
def config(vocab):
    return tiny_extractor_config(vocab.size)


@pytest.fixture
def params(config, rng):
    return init_extractor_params(config, rng)


def _doc(vocab, config, texts, highlights):
    return make_document("d", texts, highlights, vocab=vocab, max_tokens=config.max_tokens)


# -- config invariants -------------------------------------------------------------


def test_rl_config_rejects_negative_lambda():
    with pytest.raises(ValueError, match="lambda"):
        RLConfig(lam=-0.1)


# -- episode sampling ---------------------------------------------------------------


def test_saturated_policy_selects_everything(vocab, config, params, rng):
    params["mlp_b3"].data[:] = 25.0
    doc = toy_document("d", rng, vocab, n_sentences=4, max_tokens=config.max_tokens)
    episode = sample_episode(doc, params, config, rng)
    assert episode.decisions == [1, 1, 1, 1]
    assert all(p > 0.999 for p in episode.probs)


def test_saturated_policy_selects_nothing(vocab, config, params, rng):
    params["mlp_b3"].data[:] = -25.0
    doc = toy_document("d", rng, vocab, n_sentences=4, max_tokens=config.max_tokens)
    episode = sample_episode(doc, params, config, rng)
    assert episode.decisions == [0, 0, 0, 0]
    assert all(p > 0.999 for p in episode.probs)  # probability of the taken action


def test_unbiased_coin_at_zero_params(vocab, config, rng):
    params = init_extractor_params(config, np.random.default_rng(0))
    for _, p in params.items():
        p.data[:] = 0.0
    doc = toy_document("d", rng, vocab, n_sentences=4, max_tokens=config.max_tokens)
    enc = encode_document(doc, params, config)
    counts = np.zeros(4)
    n_samples = 4000
    for _ in range(n_samples):
        episode = sample_episode(doc, params, config, rng, encoding=enc)
        counts += episode.decisions
    freq = counts / n_samples
    # 3 standard errors of a fair coin over 4000 draws is ~0.024
    assert np.all(np.abs(freq - 0.5) < 0.024)


def test_episode_probs_are_action_probabilities(vocab, config, params, rng):
    doc = toy_document("d", rng, vocab, n_sentences=5, max_tokens=config.max_tokens)
    enc = encode_document(doc, params, config)
    episode = sample_episode(doc, params, config, rng, encoding=enc)
    g = initial_selection(config)
    from reference_policy import selection_update

    for t, (y, prob) in enumerate(zip(episode.decisions, episode.probs)):
        p = extraction_probability(enc.contexts[t], g, enc.doc, params).item()
        assert prob == pytest.approx(p if y == 1 else 1.0 - p)
        g = selection_update(g, enc.contexts[t], y, params)


# -- immediate rewards -----------------------------------------------------------------


class RecordingScorer:
    """Deterministic stand-in that logs every pair it was asked to score."""

    def __init__(self):
        self.calls = []

    def __call__(self, first_ids, second_ids):
        self.calls.append((tuple(first_ids), tuple(second_ids)))
        return 0.25 * len(self.calls)


def test_no_selection_no_rewards(vocab, config):
    doc = _doc(vocab, config, ["alpha beta", "gamma delta"], ["alpha"])
    scorer = RecordingScorer()
    assert immediate_rewards(doc, [0, 0], scorer) == [0.0, 0.0]
    assert scorer.calls == []


def test_single_selection_scores_against_placeholder(vocab, config):
    doc = _doc(vocab, config, ["alpha beta", "gamma delta", "epsilon"], ["alpha"])
    scorer = RecordingScorer()
    rewards = immediate_rewards(doc, [0, 1, 0], scorer)
    chi = placeholder_sentence(config.max_tokens)
    assert rewards == [0.0, 0.25, 0.0]
    assert scorer.calls == [(tuple(chi.ids), tuple(doc.sentences[1].ids))]


def test_reward_chain_threads_previous_selection(vocab, config):
    # selections at positions 2 and 5: first scores against the placeholder,
    # second against sentence 2
    texts = [f"alpha beta {w}" for w in ("gamma", "delta", "epsilon", "zeta", "eta", "theta")]
    doc = _doc(vocab, config, texts, ["alpha"])
    scorer = RecordingScorer()
    rewards = immediate_rewards(doc, [0, 0, 1, 0, 0, 1], scorer)
    chi = placeholder_sentence(config.max_tokens)
    assert rewards == [0.0, 0.0, 0.25, 0.0, 0.0, 0.5]
    assert scorer.calls == [
        (tuple(chi.ids), tuple(doc.sentences[2].ids)),
        (tuple(doc.sentences[2].ids), tuple(doc.sentences[5].ids)),
    ]


def test_reward_placement_only_on_selected_steps(vocab, config, params, rng):
    doc = toy_document("d", rng, vocab, n_sentences=6, max_tokens=config.max_tokens)
    scorer = lambda a, b: 0.7
    for _ in range(10):
        episode = sample_episode(doc, params, config, rng)
        rewards = immediate_rewards(doc, episode.decisions, scorer)
        for y, r in zip(episode.decisions, rewards):
            if r != 0.0:
                assert y == 1


# -- final reward -------------------------------------------------------------------------


def test_final_reward_empty_selection(vocab, config):
    doc = _doc(vocab, config, ["alpha beta"], ["gamma"])
    assert final_reward(doc, [0], RewardWeights()) == 0.0


def test_final_reward_verbatim_highlights(vocab, config):
    doc = _doc(vocab, config, ["alpha beta gamma", "delta epsilon"], ["alpha beta gamma"])
    assert final_reward(doc, [1, 0], RewardWeights()) == pytest.approx(1.9)


def test_final_reward_bounded(vocab, config, rng):
    doc = toy_document("d", rng, vocab, n_sentences=5, max_tokens=config.max_tokens)
    for decisions in ([1, 1, 0, 0, 1], [0, 1, 0, 1, 0], [1, 1, 1, 1, 1]):
        value = final_reward(doc, decisions, RewardWeights())
        assert 0.0 <= value <= 1.9


def test_final_reward_requires_highlights(vocab, config):
    doc = _doc(vocab, config, ["alpha"], [])
    with pytest.raises(ValueError, match="highlights"):
        final_reward(doc, [1], RewardWeights())


# -- returns ---------------------------------------------------------------------------------


def test_returns_direct_evaluation():
    returns = compute_returns([0.5, 0.0, 0.2], 0.3, 0.01)
    assert returns == pytest.approx([0.307, 0.302, 0.302])


def test_returns_lambda_zero_all_final():
    assert compute_returns([0.9, 0.1], 0.4, 0.0) == [0.4, 0.4]


def test_returns_all_zero():
    assert compute_returns([0.0, 0.0], 0.0, 0.5) == [0.0, 0.0]


def test_return_recurrence_property(rng):
    for _ in range(25):
        n = int(rng.integers(1, 9))
        rewards = rng.normal(size=n).tolist()
        r_final = float(rng.normal())
        lam = float(rng.uniform(0, 1))
        returns = compute_returns(rewards, r_final, lam)
        assert returns[-1] == pytest.approx(lam * rewards[-1] + r_final)
        for t in range(n - 1):
            assert returns[t] == pytest.approx(returns[t + 1] + lam * rewards[t])


# -- policy gradient step ----------------------------------------------------------------------


def _episode_for(doc, params, config, rng):
    episode = sample_episode(doc, params, config, rng)
    episode.rewards = [0.0] * doc.n_sentences
    return episode


def test_zero_returns_leave_parameters_unchanged(vocab, config, params, rng):
    doc = toy_document("d", rng, vocab, n_sentences=3, max_tokens=config.max_tokens)
    episode = _episode_for(doc, params, config, rng)
    episode.returns = [0.0] * doc.n_sentences
    before = {name: p.data.copy() for name, p in params.items()}
    policy_gradient_step(params, doc, episode, alpha=0.05, config=config)
    for name, p in params.items():
        assert np.array_equal(p.data, before[name])


def test_zero_alpha_leaves_parameters_unchanged(vocab, config, params, rng):
    doc = toy_document("d", rng, vocab, n_sentences=3, max_tokens=config.max_tokens)
    episode = _episode_for(doc, params, config, rng)
    episode.returns = [1.0] * doc.n_sentences
    before = {name: p.data.copy() for name, p in params.items()}
    policy_gradient_step(params, doc, episode, alpha=0.0, config=config)
    for name, p in params.items():
        assert np.array_equal(p.data, before[name])


def test_positive_return_raises_probability_of_taken_selection(vocab, config, params):
    doc = _doc(vocab, config, ["alpha beta gamma"], ["alpha beta gamma"])

    def p_select():
        enc = encode_document(doc, params, config)
        return extraction_probability(enc.contexts[0], initial_selection(config), enc.doc, params).item()

    before = p_select()
    episode = Episode(decisions=[1], probs=[before], rewards=[0.0], final_reward=1.0, returns=[1.0])
    policy_gradient_step(params, doc, episode, alpha=0.01, config=config)
    assert p_select() > before


def test_step_validates_episode_document_match(vocab, config, params, rng):
    doc = toy_document("d", rng, vocab, n_sentences=3, max_tokens=config.max_tokens)
    episode = Episode(decisions=[1], probs=[0.5], rewards=[0.0], final_reward=0.0, returns=[0.0])
    with pytest.raises(ValueError, match="does not match"):
        policy_gradient_step(params, doc, episode, alpha=0.1, config=config)


# -- training loop ------------------------------------------------------------------------------


def _toy_corpus(vocab, config, rng, n_docs=4):
    return [
        toy_document(f"d{i}", rng, vocab, n_sentences=4, max_tokens=config.max_tokens,
                     highlight_sentences=(0, 2))
        for i in range(n_docs)
    ]


def test_lambda_zero_never_invokes_scorer(vocab, config, params, rng):
    docs = _toy_corpus(vocab, config, rng)
    scorer = RecordingScorer()
    rl_config = RLConfig(lam=0.0, alpha=0.001, steps=20)
    train_rnes(docs, params, scorer, rl_config, config, rng)
    assert scorer.calls == []


def test_lambda_positive_requires_scorer(vocab, config, params, rng):
    docs = _toy_corpus(vocab, config, rng)
    with pytest.raises(ValueError, match="scorer"):
        train_rnes(docs, params, None, RLConfig(lam=0.01, steps=5), config, rng)


def test_zero_steps_identity(vocab, config, params, rng):
    docs = _toy_corpus(vocab, config, rng)
    before = {name: p.data.copy() for name, p in params.items()}
    train_rnes(docs, params, None, RLConfig(lam=0.0, steps=0), config, rng)
    for name, p in params.items():
        assert np.array_equal(p.data, before[name])


def test_empty_corpus_rejected(config, params, rng):
    with pytest.raises(ValueError, match="empty"):
        train_rnes([], params, None, RLConfig(lam=0.0, steps=1), config, rng)


def test_metrics_capture_combined_objective(vocab, config, params, rng):
    docs = _toy_corpus(vocab, config, rng)
    scorer = lambda a, b: 0.5
    metrics = []
    rl_config = RLConfig(lam=0.01, alpha=0.0, steps=10)
    train_rnes(docs, params, scorer, rl_config, config, rng, metrics=metrics)
    assert len(metrics) == 10
    for record in metrics:
        expected = record["rouge"] + 0.01 * record["coherence_sum"]
        assert record["combined"] == pytest.approx(expected)

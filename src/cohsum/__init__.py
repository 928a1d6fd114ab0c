"""Coherence-rewarded extractive summarization.

A self-contained numpy implementation of the full pipeline: corpus handling
with greedy oracle labels, exact ROUGE-1/2/L, a small reverse-mode autodiff
core, a cross-sentence coherence scorer trained by pairwise ranking, a
Bi-GRU extraction policy with supervised pretraining, policy-gradient
fine-tuning on mixed coherence/ROUGE rewards, and beam-search decoding.
"""

__version__ = "0.1.0"

"""Coherence-rewarded extractive summarization.

A self-contained numpy implementation of the full pipeline: corpus handling
with greedy oracle labels, exact ROUGE-1/2/L, a small reverse-mode autodiff
core, a cross-sentence coherence scorer trained by pairwise ranking, a
Bi-GRU extraction policy with supervised pretraining, policy-gradient
fine-tuning on mixed coherence/ROUGE rewards, and beam-search decoding.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 unless they are already set, before anything imports
numpy. A threaded BLAS sums a product's terms in an order that depends on
the thread count, so one thread makes the same seed give the same artifacts
on any core count. A user who sets one of these variables keeps the value,
and then gets artifacts that depend on the thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

"""Earlier forms of `corpus` functions, kept as test oracles.

`tokenize` is `corpus.tokenize` as it was before whole alphanumeric chunks
were appended in one step: every character of every chunk is checked for
punctuation. `cohsum.corpus.tokenize` is tested against it.

`generate_oracle_labels` is `corpus.generate_oracle_labels` as it was before
the incremental form: each candidate summary is joined and scored whole by
`combined_rouge`. `cohsum.corpus.generate_oracle_labels` is tested against it.
"""

from __future__ import annotations

from cohsum.config import RewardWeights
from cohsum.corpus import Document, _is_punct, tokens_of
from cohsum.rouge import combined_rouge


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and break punctuation into own tokens."""
    out: list[str] = []
    for chunk in text.lower().split():
        buf = ""
        for ch in chunk:
            if _is_punct(ch):
                if buf:
                    out.append(buf)
                    buf = ""
                out.append(ch)
            else:
                buf += ch
        if buf:
            out.append(buf)
    return out


def generate_oracle_labels(doc: Document, weights: RewardWeights, max_selected: int) -> list[int]:
    """Greedy labels: repeatedly add the sentence that most improves the combined ROUGE.

    Stops when no addition strictly increases the score against the
    highlights, or after max_selected sentences.
    """
    reference = doc.highlight_tokens()
    selected: set[int] = set()
    best_score = combined_rouge([], reference, weights)
    while len(selected) < max_selected:
        best_gain, best_idx, best_total = 0.0, None, best_score
        for i in range(doc.n_sentences):
            if i in selected:
                continue
            candidate = tokens_of(doc.sentences[j] for j in sorted(selected | {i}))
            score = combined_rouge(candidate, reference, weights)
            if score - best_score > best_gain:
                best_gain, best_idx, best_total = score - best_score, i, score
        if best_idx is None:
            break
        selected.add(best_idx)
        best_score = best_total
    return [1 if i in selected else 0 for i in range(doc.n_sentences)]

"""Character-at-a-time tokenizer, kept as a test oracle.

This is `corpus.tokenize` as it was before whole alphanumeric chunks were
appended in one step: every character of every chunk is checked for
punctuation. `cohsum.corpus.tokenize` is tested against this function.
"""

from __future__ import annotations

from cohsum.corpus import _is_punct


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

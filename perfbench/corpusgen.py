"""Seeded planted-structure corpus for the benchmark.

Documents are topic chains with entity carry-over: sentence t mentions the
entity that sentence t-1 introduced and introduces the next one, so a true
successor shares an entity with its predecessor while a distant sentence
usually does not (the sentence-ordering setup of Barzilay & Lapata, 2008).
Filler tokens follow a Zipf law over a fixed token universe, mixed with a
per-document topic band. Highlights are compressed copies of 3-4 chosen
source sentences, so oracle labels and ROUGE are not trivial.

Every random draw comes from numpy generators seeded with (seed, stream), and
only `Generator.random` is used, so the same seed gives the same bytes.
Sentence lengths are a shuffled fixed multiset, so the amount of work per
document does not depend on the seed.
"""

from __future__ import annotations

import functools
import json
import zlib

import numpy as np

SPECIALS = ("<PAD>", "<UNK>", "<BOUNDARY>")
UNIVERSE = 150_000 - len(SPECIALS)  # tokens in the full vocabulary file
MIN_TOKENS, MAX_TOKENS = 15, 35  # sentence length range
ZIPF_EXPONENT = 1.05
ENTITY_BASE, ENTITY_POOL = 400, 4000  # entity tokens are ranks [400, 4400)
TOPIC_BAND = 300  # each topic owns this many consecutive mid-frequency ranks
TOPIC_SHARE = 0.3  # chance that a filler token comes from the topic band
KEEP_SHARE = 0.6  # chance that a non-entity token survives into a highlight
NEGATIVE_WINDOW = 9  # same rule as cohsum.corpus.sample_coherence_triplet

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def word(rank: int) -> str:
    """The lowercase letters-only token of a Zipf rank; distinct ranks differ."""
    n = len(_SYLLABLES)
    digits, width = rank, 1
    while digits >= n**width:
        digits -= n**width
        width += 1
    out = []
    for _ in range(width):
        digits, k = divmod(digits, n)
        out.append(_SYLLABLES[k])
    return "".join(out)


def stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


@functools.lru_cache(maxsize=1)
def _zipf_cdf() -> np.ndarray:
    weights = 1.0 / np.arange(1, UNIVERSE + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return np.cumsum(weights / weights.sum())


class _Sampler:
    """Zipf ranks by inverse CDF, driven only by uniform draws."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def uniform(self, n: int | None = None):
        return self.rng.random(n)

    def index(self, n: int) -> int:
        return min(int(self.rng.random() * n), n - 1)

    def zipf(self, count: int) -> np.ndarray:
        ranks = np.searchsorted(_zipf_cdf(), self.rng.random(count), side="right")
        return np.minimum(ranks, UNIVERSE - 1)

    def shuffle(self, values: list) -> list:
        order = np.argsort(self.rng.random(len(values)), kind="stable")
        return [values[i] for i in order]


def _sentence(sampler: _Sampler, length: int, subject: int, obj: int, topic: int) -> list[int]:
    ranks = sampler.zipf(length)
    from_topic = sampler.uniform(length) < TOPIC_SHARE
    band = topic + (sampler.uniform(length) * TOPIC_BAND).astype(np.int64)
    ranks = np.where(from_topic, band, ranks).tolist()
    ranks[sampler.index(3)] = subject  # the carried entity opens the sentence
    ranks[length // 2 + sampler.index(length - length // 2)] = obj
    return ranks


def _compress(sampler: _Sampler, ranks: list[int], entities: set[int]) -> list[int]:
    keep = sampler.uniform(len(ranks)) < KEEP_SHARE
    kept = [r for r, k in zip(ranks, keep) if k or r in entities]
    return kept if len(kept) >= 5 else ranks[:5]


def sentence_counts(n_docs: int, low: int, high: int) -> list[int]:
    """A fixed, evenly spread multiset of document lengths in [low, high]."""
    if n_docs == 1:
        return [(low + high) // 2]
    return [int(round(low + (high - low) * i / (n_docs - 1))) for i in range(n_docs)]


def generate_documents(seed: int, split: str, n_docs: int, low: int, high: int) -> list[dict]:
    """Corpus records {id, sentences, highlights} for one split of one seed."""
    sampler = _Sampler(stream(seed, f"docs/{split}"))
    lengths_pool = list(range(MIN_TOKENS, MAX_TOKENS + 1))
    records = []
    for d, n_sent in enumerate(sampler.shuffle(sentence_counts(n_docs, low, high))):
        topic = ENTITY_BASE + ENTITY_POOL + sampler.index(UNIVERSE // 2) // TOPIC_BAND * TOPIC_BAND
        chain = [ENTITY_BASE + sampler.index(ENTITY_POOL) for _ in range(n_sent + 1)]
        lengths = sampler.shuffle((lengths_pool * (n_sent // len(lengths_pool) + 1))[:n_sent])
        sentences = [
            _sentence(sampler, lengths[t], chain[t], chain[t + 1], topic) for t in range(n_sent)
        ]
        n_high = 3 + int(sampler.uniform() < 0.5)
        chosen = sorted(sampler.shuffle(list(range(n_sent)))[:n_high])
        highlights = [_compress(sampler, sentences[t], set(chain)) for t in chosen]
        records.append(
            {
                "id": f"{split}-{d:04d}",
                "sentences": [" ".join(word(r) for r in s) for s in sentences],
                "highlights": [" ".join(word(r) for r in h) for h in highlights],
            }
        )
    return records


def heldout_pairs(seed: int, records: list[dict], n_triplets: int) -> list[tuple[str, str, str]]:
    """(anchor, true successor, in-window distractor) texts from held-out records."""
    sampler = _Sampler(stream(seed, "triplets"))
    out = []
    for k in range(n_triplets):
        sents = records[k % len(records)]["sentences"]
        anchor = sampler.index(len(sents) - 1)
        positive = anchor + 1
        candidates = [
            p for p in range(len(sents))
            if p != positive and abs(p - positive) < NEGATIVE_WINDOW
        ]
        negative = candidates[sampler.index(len(candidates))]
        out.append((sents[anchor], sents[positive], sents[negative]))
    return out


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_pairs(triplets: list[tuple[str, str, str]], path) -> None:
    """Two score-coherence input lines per triplet: (anchor, positive), (anchor, negative)."""
    with open(path, "w", encoding="utf-8") as fh:
        for anchor, positive, negative in triplets:
            fh.write(f"{anchor}\t{positive}\n{anchor}\t{negative}\n")


def write_vocab(path, size: int = UNIVERSE + len(SPECIALS)) -> None:
    """The first `size` entries of the token universe in vocabulary-file format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(SPECIALS + tuple(word(r) for r in range(size - len(SPECIALS)))))
        fh.write("\n")

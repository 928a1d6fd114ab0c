"""Corpus loading, tokenization, vocabulary, oracle labels, Lead-3, triplet sampling.

Corpus files are JSON Lines: one record per line with fields `id` (string,
unique within the file), `sentences` (array of sentence strings) and
`highlights` (array of strings).
The vocabulary file is one token per line behind a three-line header for the
PAD / UNK / BOUNDARY specials, so line number equals id.
"""

from __future__ import annotations

import json
import string
import unicodedata
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from .atomic import atomic_write
from .config import DEFAULT_MAX_SENTENCES, DEFAULT_MAX_TOKENS, RewardWeights
from .rouge import (combined_rouge, f1_score, lcs_masks, lcs_step, matched_masks, ngram_counts,
                    overlap_pr, weighted_f1)

if TYPE_CHECKING:
    import numpy as np

PAD_ID = 0
UNK_ID = 1
BOUNDARY_ID = 2
PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
BOUNDARY_TOKEN = "<BOUNDARY>"
_SPECIALS = (PAD_TOKEN, UNK_TOKEN, BOUNDARY_TOKEN)


class CorpusFormatError(ValueError):
    """A corpus or vocabulary file violates the expected record layout."""


_PUNCT = set(string.punctuation)


def _is_punct(ch: str) -> bool:
    return ch in _PUNCT or unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and break punctuation into own tokens.

    A chunk that is all letters and digits is one token whole: no
    alphanumeric character is punctuation. Only the other chunks are read
    a character at a time.
    """
    out: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalnum():
            out.append(chunk)
            continue
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


class Vocabulary:
    """Token/id bijection with reserved PAD=0, UNK=1, BOUNDARY=2."""

    def __init__(self, tokens: Iterable[str] = ()):
        self.id_to_token: list[str] = [*_SPECIALS, *tokens]
        self.token_to_id: dict[str, int] = dict(zip(self.id_to_token, range(len(self.id_to_token))))
        if len(self.token_to_id) != len(self.id_to_token):
            # a repeated token maps to its last id: the first that does not is repeated
            token = next(t for i, t in enumerate(self.id_to_token) if self.token_to_id[t] != i)
            raise ValueError(f"duplicate vocabulary token {token!r}")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the tokens in id order (`vocab_fingerprint`)."""
        return vocab_fingerprint(self.id_to_token)


def vocab_fingerprint(tokens: list[str]) -> str:
    """SHA-256 hex digest of a vocabulary's tokens in id order, as `save_vocab` writes them."""
    import hashlib  # loads OpenSSL; only the stages that save or load a model need it

    return hashlib.sha256(("\n".join(tokens) + "\n").encode("utf-8")).hexdigest()


def build_vocab(documents: Iterable["Document"], max_size: int) -> Vocabulary:
    """Keep the (max_size - 3) most frequent tokens; ties break lexicographically."""
    counts: Counter[str] = Counter()
    for doc in documents:
        for sent in list(doc.sentences) + list(doc.highlights):
            counts.update(sent.tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary(token for token, _ in ranked[: max_size - 3])


def encode_sentence(tokens: list[str], vocab: Vocabulary | _KeptIds, max_tokens: int) -> np.ndarray:
    """Fixed-length id vector: truncate past max_tokens, PAD-fill the tail."""
    import numpy as np  # the text stages never encode, and start without numpy

    ids = np.full(max_tokens, PAD_ID, dtype=np.int64)
    for i, token in enumerate(tokens[:max_tokens]):
        ids[i] = vocab.lookup(token)
    return ids


@dataclass
class Sentence:
    """One sentence: raw text, its tokens, and (once encoded) fixed-length ids."""

    text: str
    tokens: list[str]
    ids: np.ndarray | None = None

    @property
    def length(self) -> int:
        return len(self.tokens)


def make_sentence(text: str, vocab: Vocabulary | None = None,
                  max_tokens: int = DEFAULT_MAX_TOKENS) -> Sentence:
    tokens = tokenize(text)
    ids = encode_sentence(tokens, vocab, max_tokens) if vocab is not None else None
    return Sentence(text, tokens, ids)


def tokens_of(sentences: Iterable[Sentence]) -> list[str]:
    """The sentences' tokens joined in the given order, as ROUGE reads a summary."""
    return [token for sent in sentences for token in sent.tokens]


def placeholder_sentence(max_tokens: int = DEFAULT_MAX_TOKENS) -> Sentence:
    """The synthetic start sentence used before anything has been extracted."""
    import numpy as np

    ids = np.full(max_tokens, PAD_ID, dtype=np.int64)
    ids[0] = BOUNDARY_ID
    return Sentence(text=BOUNDARY_TOKEN, tokens=[BOUNDARY_TOKEN], ids=ids)


@dataclass
class Document:
    """Ordered sentences plus the reference highlights."""

    id: str
    sentences: list[Sentence]
    highlights: list[Sentence] = field(default_factory=list)

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    def highlight_tokens(self) -> list[str]:
        return tokens_of(self.highlights)


def make_document(
    doc_id: str,
    sentences: list[str],
    highlights: list[str] = (),
    vocab: Vocabulary | None = None,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
) -> Document:
    """Tokenize, drop empty sentences, truncate, and optionally encode the sentences.

    Highlights are only tokenized: ROUGE compares them by their tokens.
    """
    sents = [make_sentence(s, vocab, max_tokens) for s in sentences]
    sents = [s for s in sents if s.tokens][:max_sentences]
    if not sents:
        raise CorpusFormatError(f"document {doc_id!r} has no non-empty sentences")
    highs = [h for h in map(make_sentence, highlights) if h.tokens]
    return Document(id=doc_id, sentences=sents, highlights=highs)


def string_array(record: dict, key: str) -> list[str]:
    """`record[key]` if it is a JSON array of strings; a CorpusFormatError naming `key` if not."""
    value = record[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise CorpusFormatError(f"field {key!r} is not an array of strings")
    return value


def utf8_lines(fh: Iterable[bytes], name) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a file opened in binary mode.

    Each line is decoded as UTF-8 on its own, so one that is not valid UTF-8
    is a `CorpusFormatError` naming the file and the line. The text keeps
    its line end, which a CRLF file gives as a carriage return and a newline.
    """
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _not_utf8(name, lineno) from None


def _not_utf8(name, lineno: int) -> CorpusFormatError:
    return CorpusFormatError(f"{name}: line {lineno}: not valid UTF-8")


def jsonl_records(path) -> Iterator[tuple[int, str, dict]]:
    """(line number, id, record) of each non-blank line of a JSON Lines file.

    Every record must be a JSON object with an `id`, and no two records may
    share one: files are paired with each other by document id.
    """
    first_line: dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, line in utf8_lines(fh, path):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{path}: line {lineno}: record is not an object")
            if "id" not in record:
                raise CorpusFormatError(f"{path}: line {lineno}: missing field 'id'")
            doc_id = str(record["id"])
            if doc_id in first_line:
                raise CorpusFormatError(f"{path}: line {lineno}: id {doc_id!r} already used on "
                                        f"line {first_line[doc_id]}")
            first_line[doc_id] = lineno
            yield lineno, doc_id, record


def load_corpus(
    path,
    vocab: Vocabulary | None = None,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
) -> Iterator[Document]:
    """Yield documents in file order; ids stay unencoded when vocab is None.

    A file with no record is a `CorpusFormatError` naming it, raised once
    the file is read to its end.
    """
    if max_sentences < 1:
        raise ValueError(f"max_sentences must be >= 1, got {max_sentences}")
    lineno = 0
    for lineno, doc_id, record in jsonl_records(path):
        for key in ("sentences", "highlights"):
            if key not in record:
                raise CorpusFormatError(f"{path}: line {lineno}: missing field {key!r}")
        try:
            yield make_document(
                doc_id,
                string_array(record, "sentences"),
                string_array(record, "highlights"),
                vocab=vocab,
                max_tokens=max_tokens,
                max_sentences=max_sentences,
            )
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
    if not lineno:
        raise CorpusFormatError(f"{path}: no records; a corpus needs at least one document")


def save_vocab(vocab: Vocabulary, path) -> None:
    with atomic_write(path) as fh:
        for token in vocab.id_to_token:
            fh.write(token + "\n")


def vocab_lines(path) -> list[str]:
    """The lines of the vocabulary file at path: the special tokens, then one token per line.

    The file is decoded as UTF-8 whole, once, and split at each newline; a
    line's trailing carriage returns are dropped, so a CRLF file reads the
    same, and a carriage return elsewhere is part of the token. Bytes that are
    not valid UTF-8 fail naming the line they are on, as `utf8_lines` does,
    and the first three lines must be the specials. No line is checked
    against the others (`check_distinct` does that).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, data.count(b"\n", 0, exc.start) + 1) from None
    lines = text.split("\n")
    if not lines[-1]:  # the empty text after a final newline is no line
        lines.pop()
    if "\r" in text:  # an LF file has no line to strip
        lines = [line.rstrip("\r") for line in lines]
    if tuple(lines[:3]) != _SPECIALS:
        raise CorpusFormatError(
            f"{path}: expected header lines {_SPECIALS}, got {tuple(lines[:3])}"
        )
    return lines


def check_distinct(lines: list[str], path) -> None:
    """Fail, naming the file and both lines, if a token of `vocab_lines(path)` is repeated."""
    if len(set(lines)) == len(lines):
        return
    first_line: dict[str, int] = {}
    for lineno, token in enumerate(lines, start=1):
        if token in first_line:
            raise CorpusFormatError(f"{path}: line {lineno}: token {token!r} already used on "
                                    f"line {first_line[token]}")
        first_line[token] = lineno


def load_vocab(path) -> Vocabulary:
    """The vocabulary saved at path (`vocab_lines`), its tokens all different (`check_distinct`)."""
    lines = vocab_lines(path)
    check_distinct(lines, path)
    return Vocabulary(lines[3:])


class _KeptIds(dict):
    """The ids of some tokens of a vocabulary; `lookup` gives UNK for any other token."""

    def lookup(self, token: str) -> int:
        return self.get(token, UNK_ID)


def encode_sentences(sentences: list[Sentence], lines: list[str], max_tokens: int) -> None:
    """Set each sentence's ids (`encode_sentence`) from a vocabulary file's `vocab_lines`.

    Only the ids of the sentences' own tokens are kept; a token the file
    lacks is UNK, as in `Vocabulary.lookup`. A repeated token would take its
    last id here, where `Vocabulary` rejects it, but no caller passes one:
    `train-coherence` and `pretrain`, where a vocabulary file first meets a
    model, check the file first (`check_distinct`), and a stage that loads a
    checkpoint first matches the file's size and fingerprint with the
    checkpoint header's, so the file is the token list that passed that
    check when the checkpoint was written.
    """
    used = set(tokens_of(sentences))
    kept = _KeptIds((token, i) for i, token in enumerate(lines) if token in used)
    for sent in sentences:
        sent.ids = encode_sentence(sent.tokens, kept, max_tokens)


@dataclass
class CoherenceTriplet:
    """(anchor, its true successor, an in-document distractor)."""

    anchor: Sentence
    positive: Sentence
    negative: Sentence
    positions: tuple[int, int, int]


# negatives must come from within this window around the true successor
NEGATIVE_WINDOW = 9


def sample_coherence_triplet(doc: Document, rng: np.random.Generator) -> CoherenceTriplet | None:
    """Anchor uniform among sentences with a successor, then a uniform negative.

    The negative is a different sentence of the same document fewer than
    NEGATIVE_WINDOW positions away from the positive. Returns None when the
    document is too short to produce one.
    """
    n = doc.n_sentences
    if n < 3:
        return None
    anchor_pos = int(rng.integers(0, n - 1))
    positive_pos = anchor_pos + 1
    candidates = [
        p for p in range(n)
        if p != positive_pos and abs(p - positive_pos) < NEGATIVE_WINDOW
    ]
    negative_pos = candidates[int(rng.integers(0, len(candidates)))]
    return CoherenceTriplet(
        anchor=doc.sentences[anchor_pos],
        positive=doc.sentences[positive_pos],
        negative=doc.sentences[negative_pos],
        positions=(anchor_pos, positive_pos, negative_pos),
    )


def generate_oracle_labels(doc: Document, weights: RewardWeights, max_selected: int) -> list[int]:
    """Greedy labels: repeatedly add the sentence that most improves the combined ROUGE.

    Stops when no addition strictly increases the score against the
    highlights, or after max_selected sentences. Sentences are tried in
    document order, and a later one must gain strictly more to win.

    Each candidate summary (the selection plus one sentence, in document
    order) is scored as `combined_rouge` scores it joined, without joining it
    (`_GreedySelection`). Every score is built from the same integers (the
    n-gram matches, the token totals and the LCS length) by the same
    divisions in `overlap_pr` and `f1_score`, which `RougeScore` uses, and
    the same sum in `weighted_f1`, so each float, each tie and each label is
    bit for bit the joined candidate's.
    """
    reference = doc.highlight_tokens()
    selection = _GreedySelection(doc.sentences, reference)
    best_score = combined_rouge([], reference, weights)
    while len(selection.chosen) < max_selected:
        best_gain, best_idx, best_total = 0.0, None, best_score
        for i in range(doc.n_sentences):
            if i in selection.members:
                continue
            score = selection.score(i, weights)
            if score - best_score > best_gain:
                best_gain, best_idx, best_total = score - best_score, i, score
        if best_idx is None:
            break
        selection.add(best_idx)
        best_score = best_total
    return [1 if i in selection.members else 0 for i in range(doc.n_sentences)]


class _GreedySelection:
    """The greedy oracle's selection, kept as the counts that `combined_rouge` reads.

    Once per document: the reference's unigram and bigram counts, its LCS
    masks, and each sentence's n-grams that the reference contains (others
    never match). Per round: the selection's clipped matches (the sum of
    min(count, reference count) over its n-grams), its token total, and
    the LCS state after each prefix of the selected sentences. A candidate's
    matches then differ from the selection's only by its own n-grams and the
    at most three bigrams across sentence boundaries that inserting it makes
    or breaks, and its LCS state is stepped on from the prefix before it.
    """

    def __init__(self, sentences: list[Sentence], reference: list[str]):
        self.sentences = sentences
        self.ref1, self.ref2 = ngram_counts(reference, 1), ngram_counts(reference, 2)
        self.ref_totals = (sum(self.ref1.values()), sum(self.ref2.values()), len(reference))
        masks = lcs_masks(reference)
        self.full = (1 << len(reference)) - 1
        self.unigrams = [self._contained(sent.tokens, self.ref1, 1) for sent in sentences]
        self.bigrams = [self._contained(sent.tokens, self.ref2, 2) for sent in sentences]
        self.matched = [matched_masks(sent.tokens, masks) for sent in sentences]
        self.chosen: list[int] = []  # selected sentences in document order
        self.members: set[int] = set()
        self.counts1: dict = {}  # the selection's n-grams that the reference contains
        self.counts2: dict = {}
        self.match1 = self.match2 = self.length = 0
        self.states = [self.full]  # LCS state after each prefix of `chosen`
        self._note_ends()

    @staticmethod
    def _contained(tokens: list[str], ref: Counter, n: int) -> dict:
        return {gram: count for gram, count in ngram_counts(tokens, n).items() if gram in ref}

    def _note_ends(self) -> None:
        """Note, for each insertion point, the selected tokens just before and just after it.

        No selected sentence is token-less: one adds nothing to the summary,
        so it never gains, and is never chosen.
        """
        self.before = [None] + [self.sentences[j].tokens[-1] for j in self.chosen]
        self.after = [self.sentences[j].tokens[0] for j in self.chosen] + [None]

    def _bigram_change(self, i: int, p: int) -> dict:
        """The selection's change in contained bigrams when sentence i goes in at position p."""
        tokens = self.sentences[i].tokens
        change = dict(self.bigrams[i])
        if not tokens:
            return change
        before, after = self.before[p], self.after[p]
        edges = []
        if before is not None:
            edges.append(((before, tokens[0]), 1))
        if after is not None:
            edges.append(((tokens[-1], after), 1))
            if before is not None:
                edges.append(((before, after), -1))
        for gram, step in edges:
            if gram in self.ref2:
                change[gram] = change.get(gram, 0) + step
        return change

    @staticmethod
    def _match_gain(change: dict, counts: dict, ref: Counter) -> int:
        """Change in the clipped matches, sum(min(count, ref count)), as `change` is added."""
        gain = 0
        for gram, step in change.items():
            have, cap = counts.get(gram, 0), ref[gram]
            gain += min(have + step, cap) - min(have, cap)
        return gain

    @staticmethod
    def _add(change: dict, counts: dict) -> None:
        for gram, step in change.items():
            counts[gram] = counts.get(gram, 0) + step

    def score(self, i: int, weights: RewardWeights) -> float:
        """`combined_rouge` of the selection with sentence i added, in document order."""
        p = bisect_left(self.chosen, i)
        match1 = self.match1 + self._match_gain(self.unigrams[i], self.counts1, self.ref1)
        match2 = self.match2 + self._match_gain(self._bigram_change(i, p), self.counts2, self.ref2)
        total = self.length + self.sentences[i].length
        v = lcs_step(self.states[p], self.matched[i], self.full)
        for j in self.chosen[p:]:
            v = lcs_step(v, self.matched[j], self.full)
        total1, total2, total_l = self.ref_totals
        return weighted_f1(weights, f1_score(*overlap_pr(match1, total, total1)),
                           f1_score(*overlap_pr(match2, max(total - 1, 0), total2)),
                           f1_score(*overlap_pr(total_l - v.bit_count(), total, total_l)))

    def add(self, i: int) -> None:
        """Select sentence i."""
        p = bisect_left(self.chosen, i)
        change = self._bigram_change(i, p)
        self.match1 += self._match_gain(self.unigrams[i], self.counts1, self.ref1)
        self.match2 += self._match_gain(change, self.counts2, self.ref2)
        self._add(self.unigrams[i], self.counts1)
        self._add(change, self.counts2)
        self.length += self.sentences[i].length
        self.chosen.insert(p, i)
        self.members.add(i)
        del self.states[p + 1:]
        for j in self.chosen[p:]:
            self.states.append(lcs_step(self.states[-1], self.matched[j], self.full))
        self._note_ends()


def lead3(doc: Document) -> list[int]:
    """Indices of the first three sentences, the standard positional baseline."""
    return list(range(min(3, doc.n_sentences)))

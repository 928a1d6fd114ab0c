"""Command-line entry point: one binary, one subcommand per pipeline stage.

Stages: preprocess, label, train-coherence, pretrain, train-rnes, summarize,
evaluate, score-coherence. All randomness flows from --seed through named
per-stage child generators, so identical argv produce identical artifacts.
A flag that sets a config field (`CoherenceConfig`, `ExtractorConfig`,
`RLConfig`, `RewardWeights`) takes that field's name as its dest and its
default from the dataclass, so the defaults are written once; they mirror
the reference experiment setup (see --help per subcommand).

Every flag can change what its stage writes; `pretrain`'s oracle flags
(--cap and the reward weights) do so when it labels the corpus itself,
without --labels. Sentence geometry comes from one place per stage:

- `train-coherence` and `pretrain` build a model, so --max-tokens is a
  config field there (as is `pretrain`'s --max-sentences), and the
  checkpoint header records it.
- `train-rnes`, `summarize --method beam` and `score-coherence` read the
  geometry from the checkpoint they load.
- `preprocess` and `label` read tokens, never encoded ids, so they take
  only --max-sentences; `train-coherence` also truncates documents at
  --max-sentences before it samples triplets.
- `summarize --method lead3` reads only the text of the first three
  sentences, so it loads the corpus unencoded at the default truncation
  and reads no vocabulary; `--vocab` is required for beam decoding only.

`summarize --method beam` extracts exactly min(--cap, n) sentences of an
n-sentence document, so its summaries are never empty. Both methods give
sentence indices, and a record's summary is the text of those sentences.

Each input is checked once, where it enters, and not again by the library:
`run` checks the integer flags that set no config field (`AT_LEAST`), each
config its own fields, and `load_corpus` a corpus, which must hold a record.
Files paired with the corpus by document id (the `pretrain --labels` file
and the `evaluate --system` file) must hold exactly the corpus ids: a
missing or an unknown id fails with one error line naming the file and
the id, as does a label vector whose length is not its document's
sentence count after truncation. The oracle of `label` and `pretrain`,
`evaluate` and `train-rnes` score against each document's highlights, so
they reject a corpus holding a document with none before any work, naming
the file and the id.

`train-coherence`, `pretrain`, `train-rnes` and `summarize --method beam`
read the vocabulary file in one pass (`corpus.vocab_lines`), which checks
its UTF-8 and header lines, and then the whole corpus before any tensor;
they fail in that order. `train-coherence` and `pretrain` build a model
from the file and write its size and fingerprint into the model's
checkpoint header, so they also reject a repeated token, naming both of
its lines (`corpus.check_distinct`, as `load_vocab` does). `train-rnes`
and `summarize --method beam` check their flags first and match the file's
line count and fingerprint (`corpus.vocab_fingerprint`) with each
checkpoint header before the corpus, and `train-rnes` also checks the
highlights; they look for no repeated token, since a file that matches a
header is the token list that passed that check when the checkpoint was
written. Each stage parses the corpus
once, unencoded, and encodes it with the ids of its sentences' tokens only
(`corpus.encode_sentences`), so no `Vocabulary` of every line is built.
`score-coherence` streams its pairs, so it has no token set up front; it
loads the vocabulary whole (`corpus.load_vocab`), with the check. Each
checkpoint is loaded against the layout of its header's model, which
checks every tensor's name and shape before its data is read.

The models of the three training stages see nothing but the corpus
sentences and, in `train-rnes`, the chain's BOUNDARY placeholder, so each
holds only the embedding rows of the ids those hold, with PAD, UNK and
BOUNDARY at rows 0, 1 and 2; one helper, `_encode_as_rows`, gives the kept
rows and each sentence's ids as rows. The training stages draw only the kept rows of a
fresh table (`numeric.init_params`' `rows`), and the checkpoint they save
holds the whole draw, the other rows drawn again from the generator state.
`train-rnes` loads only the kept rows of the policy and of the frozen
coherence scorer (read only with --lambda > 0); the rows not kept are still
checked to be finite, and the policy's are written back from its source
checkpoint when the trained policy is saved, so `--out` may name that
checkpoint.

Every output file is written through `atomic.atomic_write`, so a stage that
fails leaves no partial output and no temporary file; `score-coherence
--out -` streams to stdout instead.

Imports come in two tiers. This module imports only the text tier at load:
`corpus`, `rouge`, `atomic` and `config`, none of which imports numpy, so
`preprocess`, `label`, `evaluate`, `summarize --method lead3` (`corpus.lead3`)
and `--help` start without it (importing numpy is most of a text stage's
start-up). Each tensor command imports the modules it calls at its own top,
as do `child_rng` and `_encode_as_rows`, and `_model_config` imports
`numeric`: `summarize --method beam` imports `decode`, `extractor` and `numeric`, and `train-rnes`
imports `numeric`, `coherence`, `extractor` and `reinforce`.
`_report_selected` and `evaluate`
take their median and means in plain Python. The module's `__getattr__`
keeps `cli.load_checkpoint` as a name for `numeric.load_checkpoint`,
resolved when it is read, for code that finds the loader here; the
commands call numeric's own.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import sys
import zlib
from functools import partial
from typing import TYPE_CHECKING, Iterable

from . import corpus as cp
from .atomic import atomic_write
from .config import (
    DEFAULT_MAX_SELECTED,
    DEFAULT_MAX_SENTENCES,
    CheckpointError,
    CoherenceConfig,
    ExtractorConfig,
    RewardWeights,
    RLConfig,
)
from .rouge import rouge_l, rouge_n

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)


def __getattr__(name: str):
    """`cli.load_checkpoint` is `numeric.load_checkpoint`, read when it is asked for.

    The commands call numeric's function; this keeps the name for code that
    reads it here without importing numeric, and so numpy, with the CLI.
    """
    if name == "load_checkpoint":
        from . import numeric as nm

        return nm.load_checkpoint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def child_rng(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one pipeline stage, derived from the global seed.

    The label is hashed with crc32 so the stream depends only on (seed, label),
    not on the order stages run in.
    """
    import numpy as np

    return np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])


def _describe(params, kind: str, config, vocab: tuple[int, str]) -> None:
    """Set the checkpoint header that `_model_config` reads back; vocab is (size, fingerprint)."""
    size, fingerprint = vocab
    params.meta = {"model": kind, "config": dataclasses.asdict(config),
                   "vocab": {"size": size, "sha256": fingerprint}}


def _encode_as_rows(docs: list[cp.Document], lines: list[str], max_tokens: int) -> np.ndarray:
    """Encode the documents' sentences (`corpus.encode_sentences`) as rows of a table of their ids.

    Returns those ids, sorted: row k of the table is row used[k] of the
    vocabulary's, and each sentence's ids become rows. PAD, UNK and BOUNDARY
    are always kept, at rows 0, 1 and 2, so the padding and the RL chain's
    placeholder read the same rows. One `np.unique` gives the rows.
    """
    import numpy as np

    sentences = [sent for doc in docs for sent in doc.sentences]
    cp.encode_sentences(sentences, lines, max_tokens)
    specials = [cp.PAD_ID, cp.UNK_ID, cp.BOUNDARY_ID]
    used, rows = np.unique(np.concatenate([specials] + [sent.ids for sent in sentences]),
                           return_inverse=True)
    ends = np.cumsum([len(specials)] + [len(sent.ids) for sent in sentences])
    for sent, lo, hi in zip(sentences, ends[:-1], ends[1:]):
        sent.ids = rows[lo:hi]
    return used


def _model_config(path: str, kind: str, config_cls, vocab: tuple[int, str]):
    """The config in the header of checkpoint `path`, if it is a `kind` model of `vocab`.

    vocab is the vocabulary file's (size, fingerprint). Only the header is
    read, so a command rejects the wrong checkpoint before it reads any
    tensor.
    """
    from .numeric import read_header

    meta = read_header(path)
    if meta.get("model") != kind:
        raise CheckpointError(f"{path}: holds a {meta.get('model')!r} model, expected {kind!r}")
    try:
        cfg = meta["config"]
        odd = sorted(set(cfg) ^ {f.name for f in dataclasses.fields(config_cls)})
        if odd:  # a missing field would silently take its default
            raise ValueError(f"config fields {odd} missing or unknown")
        config = config_cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()})
        digest = meta["vocab"]["sha256"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad {kind} header ({type(exc).__name__}: {exc})") from None
    size, fingerprint = vocab
    if size != config.vocab_size:
        raise CheckpointError(f"{path}: model has a {config.vocab_size}-entry vocabulary, "
                              f"the vocabulary file has {size} entries")
    if fingerprint != digest:
        raise CheckpointError(f"{path}: model was trained on another vocabulary of the same size "
                              f"(the tokens or their order differ)")
    return config


# The least value of each integer flag that sets no config field (a config
# checks its own fields, and `load_corpus` checks --max-sentences); `run`
# checks each flag the command has before the command runs.
AT_LEAST = {"--seed": 0, "--cap": 1, "--beam": 1, "--triplets-per-doc": 1,
            "--max-vocab": 4}  # the three specials and one word


def _config(cls, args, **given):
    """A `cls` config from the parsed flags named after its fields, and `given` for the rest."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in dataclasses.fields(cls) if f.name in flags} | given)


# -- subcommands ---------------------------------------------------------------


def cmd_preprocess(args) -> int:
    docs = cp.load_corpus(args.corpus, max_sentences=args.max_sentences)
    vocab = cp.build_vocab(docs, args.max_vocab)
    cp.save_vocab(vocab, args.out)
    log.info("wrote vocabulary of %d entries to %s", vocab.size, args.out)
    return 0


def _read_by_id(path, parse, ids) -> dict:
    """`parse(record)` of every record of a JSONL file, keyed by its unique id, in file order.

    The file's ids must be exactly `ids`, the ids of the corpus it is paired with.
    """
    values = {}
    for lineno, doc_id, record in cp.jsonl_records(path):
        try:
            values[doc_id] = parse(record)
        except (KeyError, cp.CorpusFormatError) as exc:
            raise cp.CorpusFormatError(f"{path}: line {lineno}: bad record ({exc})") from None
    expected = dict.fromkeys(ids)
    missing = [doc_id for doc_id in expected if doc_id not in values]
    if missing:
        raise cp.CorpusFormatError(f"{path}: no record for {len(missing)} corpus document(s), "
                                   f"the first is {missing[0]!r}")
    unknown = [doc_id for doc_id in values if doc_id not in expected]
    if unknown:
        raise cp.CorpusFormatError(f"{path}: {len(unknown)} id(s) not in the corpus, "
                                   f"the first is {unknown[0]!r}")
    return values


def _require_highlights(docs: Iterable[cp.Document], path) -> None:
    """Reject a corpus holding a document with no highlights, naming the file and the id.

    Such a document cannot be scored or rewarded against its reference.
    """
    bare = [doc.id for doc in docs if not doc.highlights]
    if bare:
        raise cp.CorpusFormatError(f"{path}: {len(bare)} document(s) with no highlights, "
                                   f"the first is {bare[0]!r}")


def _labels(record) -> list[int]:
    values = record["labels"]
    # bool is an int subclass and 1.0 == 1, so compare types, not values
    if not isinstance(values, list) or any(type(v) is not int or v not in (0, 1) for v in values):
        raise cp.CorpusFormatError(f"labels must be an array of integers 0 and 1, got {values!r}")
    return values


def cmd_label(args) -> int:
    weights = _config(RewardWeights, args)
    docs = list(cp.load_corpus(args.corpus, max_sentences=args.max_sentences))
    _require_highlights(docs, args.corpus)
    with atomic_write(args.out) as fh:
        for doc in docs:
            labels = cp.generate_oracle_labels(doc, weights, args.cap)
            fh.write(json.dumps({"id": doc.id, "labels": labels}) + "\n")
    log.info("wrote oracle labels to %s", args.out)
    return 0


def cmd_train_coherence(args) -> int:
    from . import coherence as coh
    from . import numeric as nm

    lines = cp.vocab_lines(args.vocab)
    cp.check_distinct(lines, args.vocab)
    config = _config(CoherenceConfig, args, vocab_size=len(lines))
    docs = list(cp.load_corpus(args.corpus, max_sentences=args.max_sentences))
    vocab = len(lines), cp.vocab_fingerprint(lines)
    used = _encode_as_rows(docs, lines, config.max_tokens)
    del lines
    sample_rng = child_rng(args.seed, "coherence-triplets")
    triplets = []
    for _ in range(args.triplets_per_doc):
        for doc in docs:
            triplet = cp.sample_coherence_triplet(doc, sample_rng)
            if triplet is not None:
                triplets.append(triplet)
    if not triplets:
        raise cp.CorpusFormatError(f"{args.corpus}: no documents long enough to sample "
                                   f"coherence triplets from (each needs 3 sentences)")
    params = coh.train_coherence(triplets, config, child_rng(args.seed, "coherence-train"), used)
    _describe(params, "coherence", config, vocab)
    nm.save_checkpoint(params, args.out)
    log.info("trained on %d triplets; checkpoint at %s", len(triplets), args.out)
    return 0


def cmd_pretrain(args) -> int:
    from . import extractor as ex
    from . import numeric as nm

    lines = cp.vocab_lines(args.vocab)
    cp.check_distinct(lines, args.vocab)
    config = _config(ExtractorConfig, args, vocab_size=len(lines))
    docs = list(cp.load_corpus(args.corpus, max_sentences=config.max_sentences))
    vocab = len(lines), cp.vocab_fingerprint(lines)
    used = _encode_as_rows(docs, lines, config.max_tokens)
    del lines
    if args.labels:
        by_id = _read_by_id(args.labels, _labels, (doc.id for doc in docs))
        labeled = [(doc, by_id[doc.id]) for doc in docs]
        for doc, labels in labeled:
            if len(labels) != doc.n_sentences:
                raise cp.CorpusFormatError(f"{args.labels}: {len(labels)} labels for document "
                                           f"{doc.id!r} of {doc.n_sentences} sentences")
    else:
        _require_highlights(docs, args.corpus)
        weights = _config(RewardWeights, args)
        labeled = [(doc, cp.generate_oracle_labels(doc, weights, args.cap)) for doc in docs]
    params = ex.pretrain(labeled, config, child_rng(args.seed, "pretrain"), used)
    _describe(params, "extractor", config, vocab)
    nm.save_checkpoint(params, args.out)
    log.info("pretrained on %d documents; checkpoint at %s", len(labeled), args.out)
    return 0


def cmd_train_rnes(args) -> int:
    from . import coherence as coh
    from . import extractor as ex
    from . import numeric as nm
    from . import reinforce as rl

    rl_config = _config(RLConfig, args, weights=_config(RewardWeights, args))
    lines = cp.vocab_lines(args.vocab)
    vocab = len(lines), cp.vocab_fingerprint(lines)
    ext_config = _model_config(args.pretrain_checkpoint, "extractor", ExtractorConfig, vocab)
    if rl_config.lam > 0:
        if not args.coherence_checkpoint:
            raise ValueError("--coherence-checkpoint is required when --lambda > 0")
        coh_config = _model_config(args.coherence_checkpoint, "coherence", CoherenceConfig, vocab)
        if coh_config.max_tokens != ext_config.max_tokens:
            raise CheckpointError(f"{args.coherence_checkpoint}: coherence model reads "
                                  f"{coh_config.max_tokens}-token sentences, "
                                  f"{args.pretrain_checkpoint} reads {ext_config.max_tokens}")
    docs = list(cp.load_corpus(args.corpus, max_sentences=ext_config.max_sentences))
    _require_highlights(docs, args.corpus)
    # both models read only the corpus sentences and the chain's placeholder;
    # the highlights are compared by their tokens
    used = _encode_as_rows(docs, lines, ext_config.max_tokens)
    del lines  # freed before the checkpoints load
    params = nm.load_checkpoint(args.pretrain_checkpoint, rows={"embed": used},
                                layout=ex.param_layout(ext_config))
    scorer = None
    if rl_config.lam > 0:
        coh_params = nm.load_checkpoint(args.coherence_checkpoint, rows={"embed": used},
                                        layout=coh.param_layout(coh_config))
        scorer = partial(coh.coherence_forward, params=coh_params, config=coh_config)
    rl.train_rnes(docs, params, scorer, rl_config, ext_config, child_rng(args.seed, "train-rnes"))
    nm.save_checkpoint(params, args.out)  # params.meta still describes the model as loaded
    log.info("policy checkpoint at %s", args.out)
    return 0


def cmd_summarize(args) -> int:
    if args.method == "beam":
        from . import decode as dc
        from . import extractor as ex
        from . import numeric as nm

        if not args.checkpoint:
            raise ValueError("--checkpoint is required for beam decoding")
        if not args.vocab:
            raise ValueError("--vocab is required for beam decoding")
        lines = cp.vocab_lines(args.vocab)
        config = _model_config(args.checkpoint, "extractor", ExtractorConfig,
                               (len(lines), cp.vocab_fingerprint(lines)))
        docs = list(cp.load_corpus(args.corpus, max_sentences=config.max_sentences))
        cp.encode_sentences([sent for doc in docs for sent in doc.sentences], lines,
                            config.max_tokens)
        del lines  # freed before the checkpoint loads
        params = nm.load_checkpoint(args.checkpoint, layout=ex.param_layout(config))
    else:
        docs = cp.load_corpus(args.corpus)
    counts = []
    with atomic_write(args.out) as fh:
        for doc in docs:
            if args.method == "lead3":
                selected = cp.lead3(doc)
            else:
                decisions = dc.beam_search(doc, params, config,
                                           beam_size=args.beam, max_selected=args.cap)
                selected = [i for i, y in enumerate(decisions) if y == 1]
            record = {
                "id": doc.id,
                "selected_indices": selected,
                "summary": [doc.sentences[i].text for i in selected],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            counts.append(len(selected))
    log.info("wrote summaries to %s", args.out)
    _report_selected(counts)
    return 0


def _report_selected(counts: list[int]) -> None:
    empty = counts.count(0)
    if empty:
        log.warning("%d of %d summaries are empty", empty, len(counts))
    ranked = sorted(counts)
    middle = len(ranked) // 2
    median = ranked[middle] if len(ranked) % 2 else (ranked[middle - 1] + ranked[middle]) / 2
    log.info("selected sentences per summary: min %d, median %g, max %d",
             ranked[0], median, ranked[-1])


def _column_means(table: list[list[float]]) -> list[float]:
    """Each column's mean: its rows added in order, then divided by their count."""
    totals = table[0]
    for row in table[1:]:
        totals = [total + v for total, v in zip(totals, row)]
    return [total / len(table) for total in totals]


def cmd_evaluate(args) -> int:
    reference = {doc.id: doc for doc in cp.load_corpus(args.reference)}
    _require_highlights(reference.values(), args.reference)
    system = _read_by_id(args.system, partial(cp.string_array, key="summary"), reference)
    rows, counts = [], []
    for doc_id, summary in system.items():
        candidate = cp.tokens_of(map(cp.make_sentence, summary))
        ref_tokens = reference[doc_id].highlight_tokens()
        scores = (
            rouge_n(candidate, ref_tokens, 1),
            rouge_n(candidate, ref_tokens, 2),
            rouge_l(candidate, ref_tokens),
        )
        rows.append((doc_id, scores))
        counts.append(len(summary))
    _report_selected(counts)
    header = ["id"]
    for variant in ("r1", "r2", "rl"):
        header += [f"{variant}_recall", f"{variant}_precision", f"{variant}_f1"]
    print("\t".join(header))
    table = [[v for s in scores for v in (s.recall, s.precision, s.f1)] for _, scores in rows]
    if args.per_doc:
        for (doc_id, _), values in zip(rows, table):
            print("\t".join([doc_id] + [f"{v:.4f}" for v in values]))
    print("\t".join(["MEAN"] + [f"{v:.4f}" for v in _column_means(table)]))
    return 0


# lines that `score-coherence` scores in one `coherence_forward` call, which
# batches the last convolution and the head over them
SCORE_GROUP = 64


def _coherence_pairs(pairs, name, vocab: cp.Vocabulary, max_tokens: int):
    """The encoded (first, second) sentences of each non-blank line of a pairs file, checked."""
    for lineno, line in cp.utf8_lines(pairs, name):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise cp.CorpusFormatError(f"{name}: line {lineno}: expected two tab-separated "
                                       f"sentences, got {len(parts)} fields")
        tokens = [cp.tokenize(part) for part in parts]
        for side, toks in zip(("first", "second"), tokens):
            if not toks:
                raise cp.CorpusFormatError(f"{name}: line {lineno}: the {side} sentence "
                                           f"has no tokens")
        yield tuple(cp.encode_sentence(toks, vocab, max_tokens) for toks in tokens)


def cmd_score_coherence(args) -> int:
    from . import coherence as coh
    from . import numeric as nm

    vocab = cp.load_vocab(args.vocab)
    config = _model_config(args.checkpoint, "coherence", CoherenceConfig,
                           (vocab.size, vocab.fingerprint()))
    params = nm.load_checkpoint(args.checkpoint, layout=coh.param_layout(config))
    name = "stdin" if args.pairs == "-" else args.pairs
    source = (contextlib.nullcontext(sys.stdin.buffer) if args.pairs == "-"
              else open(args.pairs, "rb"))
    sink = contextlib.nullcontext(sys.stdout) if args.out == "-" else atomic_write(args.out)

    def write(group):
        if group:
            scores = coh.coherence_forward(group, params, config)
            out.writelines(f"{score:.6f}\n" for score in scores)

    with source as pairs, sink as out:
        group = []
        try:
            for pair in _coherence_pairs(pairs, name, vocab, config.max_tokens):
                group.append(pair)
                if len(group) == SCORE_GROUP:
                    write(group)
                    group = []
        except cp.CorpusFormatError:  # a bad line fails after the scores of the lines before it
            write(group)
            raise
        write(group)
    return 0


# -- parser --------------------------------------------------------------------


def _add_corpus_flags(p):
    p.add_argument("--corpus", required=True, help="JSONL corpus file")
    p.add_argument("--max-sentences", type=int, default=DEFAULT_MAX_SENTENCES,
                   help="sentence-count truncation (default %(default)s)")


def _add_field_flag(p, flag: str, cls, field: str, help: str = "") -> None:
    """A flag for config field `cls.<field>` whose default is the field's default."""
    default = getattr(cls, field)
    tuple_valued = isinstance(default, tuple)
    shown = ",".join(map(str, default)) if tuple_valued else "%(default)s"
    p.add_argument(flag, dest=field, type=_int_tuple if tuple_valued else type(default),
                   default=default, metavar=flag[2:].replace("-", "_").upper(),
                   help=f"{help} (default {shown})".lstrip())


def _add_training_flags(p, cls):
    _add_field_flag(p, "--epochs", cls, "epochs")
    p.add_argument("--seed", type=int, default=0)
    _add_field_flag(p, "--lr", cls, "lr")
    _add_field_flag(p, "--batch-size", cls, "batch_size")
    _add_field_flag(p, "--embed-dim", cls, "embed_dim")


def _add_reward_flags(p):
    _add_field_flag(p, "--w1", RewardWeights, "w1", "R-1 weight")
    _add_field_flag(p, "--w2", RewardWeights, "w2", "R-2 weight")
    _add_field_flag(p, "--wl", RewardWeights, "wl", "R-L weight")


def _add_oracle_flags(p):
    p.add_argument("--cap", type=int, default=4,
                   help="max sentences per oracle summary (default %(default)s)")
    _add_reward_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsum",
        description="Coherence-rewarded extractive summarization pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build the vocabulary file from a corpus")
    _add_corpus_flags(p)
    p.add_argument("--out", required=True, help="vocabulary output path")
    p.add_argument("--max-vocab", type=int, default=150_000,
                   help="vocabulary cap including specials (default %(default)s)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("label", help="generate greedy oracle extraction labels")
    _add_corpus_flags(p)
    p.add_argument("--out", required=True, help="labels JSONL output path")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train-coherence", help="train the sentence-pair coherence scorer")
    _add_corpus_flags(p)
    _add_field_flag(p, "--max-tokens", CoherenceConfig, "max_tokens", "encoded sentence length")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    _add_training_flags(p, CoherenceConfig)
    _add_field_flag(p, "--window", CoherenceConfig, "window", "layer-1 window per sentence")
    _add_field_flag(p, "--filters", CoherenceConfig, "conv_filters",
                    "conv filter counts, comma-separated")
    _add_field_flag(p, "--kernel", CoherenceConfig, "conv_kernel",
                    "spatial kernel of later convs")
    _add_field_flag(p, "--fc", CoherenceConfig, "fc_units", "fully-connected widths")
    p.add_argument("--triplets-per-doc", type=int, default=1)
    p.set_defaults(func=cmd_train_coherence)

    p = sub.add_parser("pretrain", help="supervised pretraining of the extractor")
    p.add_argument("--corpus", required=True, help="JSONL corpus file")
    _add_field_flag(p, "--max-tokens", ExtractorConfig, "max_tokens", "encoded sentence length")
    _add_field_flag(p, "--max-sentences", ExtractorConfig, "max_sentences",
                    "sentence-count truncation")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--labels", help="labels JSONL; generated greedily when omitted")
    _add_training_flags(p, ExtractorConfig)
    _add_field_flag(p, "--kernels", ExtractorConfig, "word_kernels", "word conv kernel sizes")
    _add_field_flag(p, "--filters", ExtractorConfig, "word_filters", "word conv filter counts")
    _add_field_flag(p, "--gru-hidden", ExtractorConfig, "gru_hidden")
    _add_field_flag(p, "--doc-dim", ExtractorConfig, "doc_dim")
    _add_field_flag(p, "--mlp", ExtractorConfig, "mlp_hidden", "MLP hidden widths")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-rnes", help="policy-gradient training with mixed rewards")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--pretrain-checkpoint", required=True)
    p.add_argument("--coherence-checkpoint", help="required unless --lambda is 0")
    p.add_argument("--out", required=True)
    _add_field_flag(p, "--lambda", RLConfig, "lam", "coherence reward weight")
    _add_field_flag(p, "--alpha", RLConfig, "alpha", "ascent step size")
    _add_field_flag(p, "--steps", RLConfig, "steps")
    p.add_argument("--seed", type=int, default=0)
    _add_reward_flags(p)
    p.set_defaults(func=cmd_train_rnes)

    p = sub.add_parser("summarize", help="decode summaries with beam search or lead-3")
    p.add_argument("--corpus", required=True, help="JSONL corpus file")
    p.add_argument("--vocab", help="vocabulary file (beam method)")
    p.add_argument("--checkpoint", help="extractor checkpoint (beam method)")
    p.add_argument("--out", required=True, help="summaries JSONL output path")
    p.add_argument("--method", choices=("beam", "lead3"), default="beam")
    p.add_argument("--beam", type=int, default=10, help="beam size (default %(default)s)")
    p.add_argument("--cap", type=int, default=DEFAULT_MAX_SELECTED,
                   help="beam method: extract exactly min(cap, n) of a document's n sentences "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="score system summaries against highlights")
    p.add_argument("--system", required=True, help="summarize output JSONL")
    p.add_argument("--reference", required=True, help="reference corpus JSONL")
    p.add_argument("--per-doc", action="store_true", help="also print one row per document")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score-coherence", help="score tab-separated sentence pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--pairs", default="-", help="input file, '-' for stdin")
    p.add_argument("--out", default="-", help="output file, '-' for stdout")
    p.set_defaults(func=cmd_score_coherence)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO,
        stream=sys.stderr,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        for flag, least in AT_LEAST.items():
            value = getattr(args, flag[2:].replace("-", "_"), least)
            if value < least:
                raise ValueError(f"{flag} must be >= {least}, got {value}")
        return args.func(args)
    except (cp.CorpusFormatError, CheckpointError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 1
    except FloatingPointError as exc:
        log.error("%s: a value overflowed or became NaN; for training, try a smaller step size "
                  "(--lr, --alpha)", exc)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

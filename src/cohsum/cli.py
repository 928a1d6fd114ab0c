"""Command-line entry point: one binary, one subcommand per pipeline stage.

Stages: preprocess, label, train-coherence, pretrain, train-rnes, summarize,
evaluate, score-coherence. All randomness flows from --seed through named
per-stage child generators, so identical argv produce identical artifacts.
Numeric defaults mirror the reference experiment setup (see --help per
subcommand).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from functools import partial

import numpy as np

from . import coherence as coh
from . import corpus as cp
from . import decode as dc
from . import extractor as ex
from . import reinforce as rl
from ._util import child_rng
from .numeric import CheckpointError, load_checkpoint, save_checkpoint
from .rouge import RewardWeights, rouge_l, rouge_n

log = logging.getLogger(__name__)


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _write_meta(path: str, kind: str, config) -> None:
    meta = {"model": kind, "config": dataclasses.asdict(config)}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_meta(ckpt_path: str, kind: str) -> dict:
    meta_path = ckpt_path + ".meta.json"
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"{meta_path}: missing sidecar with the model configuration")
    if meta.get("model") != kind:
        raise CheckpointError(
            f"{meta_path}: checkpoint holds a {meta.get('model')!r} model, expected {kind!r}"
        )
    return meta["config"]


def _coherence_config_from_meta(cfg: dict) -> coh.CoherenceConfig:
    cfg = dict(cfg)
    cfg["conv_filters"] = tuple(cfg["conv_filters"])
    cfg["fc_units"] = tuple(cfg["fc_units"])
    return coh.CoherenceConfig(**cfg)


def _extractor_config_from_meta(cfg: dict) -> ex.ExtractorConfig:
    cfg = dict(cfg)
    cfg["word_kernels"] = tuple(cfg["word_kernels"])
    cfg["word_filters"] = tuple(cfg["word_filters"])
    cfg["mlp_hidden"] = tuple(cfg["mlp_hidden"])
    return ex.ExtractorConfig(**cfg)


def _check_vocab(vocab: cp.Vocabulary, config, ckpt_path: str) -> None:
    """Token ids index the checkpoint's embedding table, so the sizes must agree."""
    if vocab.size != config.vocab_size:
        raise CheckpointError(
            f"{ckpt_path}: model has a {config.vocab_size}-entry vocabulary, "
            f"the vocabulary file has {vocab.size} entries"
        )


def _load_docs(args, vocab=None) -> list[cp.Document]:
    return list(
        cp.load_corpus(
            args.corpus,
            vocab=vocab,
            max_tokens=args.max_tokens,
            max_sentences=getattr(args, "max_sentences", cp.DEFAULT_MAX_SENTENCES),
        )
    )


# -- subcommands ---------------------------------------------------------------


def cmd_preprocess(args) -> int:
    docs = cp.load_corpus(args.corpus, max_tokens=args.max_tokens, max_sentences=args.max_sentences)
    vocab = cp.build_vocab(docs, args.max_vocab)
    cp.save_vocab(vocab, args.out)
    log.info("wrote vocabulary of %d entries to %s", vocab.size, args.out)
    return 0


def cmd_label(args) -> int:
    weights = RewardWeights(args.w1, args.w2, args.wl)
    scorer = partial(cp.combined_rouge, weights=weights)
    with open(args.out, "w", encoding="utf-8") as fh:
        for doc in cp.load_corpus(args.corpus, max_tokens=args.max_tokens,
                                  max_sentences=args.max_sentences):
            labels = cp.generate_oracle_labels(doc, rouge_fn=scorer, max_selected=args.cap)
            fh.write(json.dumps({"id": doc.id, "labels": labels.labels}) + "\n")
    log.info("wrote oracle labels to %s", args.out)
    return 0


def cmd_train_coherence(args) -> int:
    vocab = cp.load_vocab(args.vocab)
    docs = _load_docs(args, vocab)
    sample_rng = child_rng(args.seed, "coherence-triplets")
    triplets = []
    for _ in range(args.triplets_per_doc):
        for doc in docs:
            triplet = cp.sample_coherence_triplet(doc, sample_rng)
            if triplet is not None:
                triplets.append(triplet)
    if not triplets:
        raise ValueError("no documents long enough to sample coherence triplets from")
    config = coh.CoherenceConfig(
        vocab_size=vocab.size,
        embed_dim=args.embed_dim,
        window=args.window,
        conv_filters=args.filters,
        conv_kernel=args.kernel,
        fc_units=args.fc,
        max_tokens=args.max_tokens,
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
    )
    params = coh.train_coherence(triplets, config, child_rng(args.seed, "coherence-train"))
    save_checkpoint(params, args.out)
    _write_meta(args.out, "coherence", config)
    log.info("trained on %d triplets; checkpoint at %s", len(triplets), args.out)
    return 0


def _read_labels(path) -> dict[str, list[int]]:
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                labels[str(record["id"])] = [int(v) for v in record["labels"]]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise cp.CorpusFormatError(f"{path}: line {lineno}: bad label record ({exc})")
    return labels


def cmd_pretrain(args) -> int:
    vocab = cp.load_vocab(args.vocab)
    docs = _load_docs(args, vocab)
    weights = RewardWeights(args.w1, args.w2, args.wl)
    if args.labels:
        by_id = _read_labels(args.labels)
        labeled = []
        for doc in docs:
            if doc.id not in by_id:
                raise ValueError(f"label file {args.labels} has no entry for document {doc.id!r}")
            labeled.append((doc, cp.ExtractionLabels(by_id[doc.id])))
    else:
        scorer = partial(cp.combined_rouge, weights=weights)
        labeled = [(doc, cp.generate_oracle_labels(doc, rouge_fn=scorer, max_selected=args.cap))
                   for doc in docs]
    config = ex.ExtractorConfig(
        vocab_size=vocab.size,
        embed_dim=args.embed_dim,
        word_kernels=args.kernels,
        word_filters=args.filters,
        gru_hidden=args.gru_hidden,
        doc_dim=args.doc_dim,
        mlp_hidden=args.mlp,
        max_tokens=args.max_tokens,
        max_sentences=args.max_sentences,
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
    )
    rng = child_rng(args.seed, "pretrain")
    params = ex.init_extractor_params(config, rng)
    ex.pretrain(labeled, config, rng, params=params)
    save_checkpoint(params, args.out)
    _write_meta(args.out, "extractor", config)
    log.info("pretrained on %d documents; checkpoint at %s", len(labeled), args.out)
    return 0


def cmd_train_rnes(args) -> int:
    vocab = cp.load_vocab(args.vocab)
    ext_config = _extractor_config_from_meta(_read_meta(args.pretrain_checkpoint, "extractor"))
    _check_vocab(vocab, ext_config, args.pretrain_checkpoint)
    params = load_checkpoint(args.pretrain_checkpoint)
    docs = list(
        cp.load_corpus(
            args.corpus,
            vocab=vocab,
            max_tokens=ext_config.max_tokens,
            max_sentences=ext_config.max_sentences,
        )
    )
    scorer = None
    if args.lam > 0:
        if not args.coherence_checkpoint:
            raise ValueError("--coherence-checkpoint is required when --lambda > 0")
        coh_config = _coherence_config_from_meta(
            _read_meta(args.coherence_checkpoint, "coherence")
        )
        _check_vocab(vocab, coh_config, args.coherence_checkpoint)
        scorer = coh.make_scorer(load_checkpoint(args.coherence_checkpoint), coh_config)
    rl_config = rl.RLConfig(
        lam=args.lam,
        alpha=args.alpha,
        steps=args.steps,
        weights=RewardWeights(args.w1, args.w2, args.wl),
    )
    rl.train_rnes(docs, params, scorer, rl_config, ext_config, child_rng(args.seed, "train-rnes"))
    save_checkpoint(params, args.out)
    _write_meta(args.out, "extractor", ext_config)
    log.info("policy checkpoint at %s", args.out)
    return 0


def cmd_summarize(args) -> int:
    vocab = cp.load_vocab(args.vocab)
    if args.method == "beam":
        if not args.checkpoint:
            raise ValueError("--checkpoint is required for beam decoding")
        config = _extractor_config_from_meta(_read_meta(args.checkpoint, "extractor"))
        _check_vocab(vocab, config, args.checkpoint)
        params = load_checkpoint(args.checkpoint)
        max_tokens, max_sentences = config.max_tokens, config.max_sentences
    else:
        params, config = None, None
        max_tokens, max_sentences = args.max_tokens, args.max_sentences
    counts = []
    with open(args.out, "w", encoding="utf-8") as fh:
        for doc in cp.load_corpus(args.corpus, vocab=vocab, max_tokens=max_tokens,
                                  max_sentences=max_sentences):
            if args.method == "lead3":
                summary = dc.lead3(doc)
                selected = list(range(len(summary)))
            else:
                decisions = dc.beam_search(doc, params, config,
                                           beam_size=args.beam, max_selected=args.cap)
                summary = dc.extract_summary(doc, decisions)
                selected = [i for i, y in enumerate(decisions) if y == 1]
            record = {
                "id": doc.id,
                "selected_indices": selected,
                "summary": [s.text for s in summary],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            counts.append(len(selected))
    log.info("wrote summaries to %s", args.out)
    if counts:
        empty = counts.count(0)
        if empty:
            log.warning("%d of %d summaries are empty", empty, len(counts))
        log.info("selected sentences per summary: min %d, median %g, max %d",
                 min(counts), np.median(counts), max(counts))
    return 0


def cmd_evaluate(args) -> int:
    reference = {doc.id: doc for doc in cp.load_corpus(args.reference)}
    rows = []
    with open(args.system, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                doc_id = str(record["id"])
                summary = list(record["summary"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise cp.CorpusFormatError(f"{args.system}: line {lineno}: bad record ({exc})")
            if doc_id not in reference:
                raise ValueError(f"system output {doc_id!r} not present in the reference corpus")
            candidate: list[str] = []
            for sent in summary:
                candidate.extend(cp.tokenize(sent))
            ref_tokens = reference[doc_id].highlight_tokens()
            scores = (
                rouge_n(candidate, ref_tokens, 1),
                rouge_n(candidate, ref_tokens, 2),
                rouge_l(candidate, ref_tokens),
            )
            rows.append((doc_id, scores))
    if not rows:
        raise ValueError(f"{args.system}: no system records to evaluate")
    header = ["id"]
    for variant in ("r1", "r2", "rl"):
        header += [f"{variant}_recall", f"{variant}_precision", f"{variant}_f1"]
    print("\t".join(header))
    table = np.array(
        [[v for s in scores for v in (s.recall, s.precision, s.f1)] for _, scores in rows]
    )
    if args.per_doc:
        for (doc_id, _), values in zip(rows, table):
            print("\t".join([doc_id] + [f"{v:.4f}" for v in values]))
    mean = table.mean(axis=0)
    print("\t".join(["MEAN"] + [f"{v:.4f}" for v in mean]))
    return 0


def cmd_score_coherence(args) -> int:
    vocab = cp.load_vocab(args.vocab)
    config = _coherence_config_from_meta(_read_meta(args.checkpoint, "coherence"))
    _check_vocab(vocab, config, args.checkpoint)
    params = load_checkpoint(args.checkpoint)
    source = sys.stdin if args.pairs == "-" else open(args.pairs, "r", encoding="utf-8")
    sink = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        for lineno, line in enumerate(source, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise cp.CorpusFormatError(
                    f"line {lineno}: expected two tab-separated sentences, got {len(parts)} fields"
                )
            sa = cp.encode_sentence(cp.tokenize(parts[0]), vocab, config.max_tokens)
            sb = cp.encode_sentence(cp.tokenize(parts[1]), vocab, config.max_tokens)
            sink.write(f"{coh.coherence_forward(sa, sb, params, config):.6f}\n")
    finally:
        if source is not sys.stdin:
            source.close()
        if sink is not sys.stdout:
            sink.close()
    return 0


# -- parser --------------------------------------------------------------------


def _add_corpus_flags(p, sentences: bool = True):
    p.add_argument("--corpus", required=True, help="JSONL corpus file")
    p.add_argument("--max-tokens", type=int, default=cp.DEFAULT_MAX_TOKENS,
                   help="encoded sentence length (default %(default)s)")
    if sentences:
        p.add_argument("--max-sentences", type=int, default=cp.DEFAULT_MAX_SENTENCES,
                       help="sentence-count truncation (default %(default)s)")


def _add_reward_flags(p):
    p.add_argument("--w1", type=float, default=0.4, help="R-1 weight (default %(default)s)")
    p.add_argument("--w2", type=float, default=1.0, help="R-2 weight (default %(default)s)")
    p.add_argument("--wl", type=float, default=0.5, help="R-L weight (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsum",
        description="Coherence-rewarded extractive summarization pipeline.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug-level logging")
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
    p.add_argument("--cap", type=int, default=4,
                   help="max sentences per oracle summary (default %(default)s)")
    _add_reward_flags(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train-coherence", help="train the sentence-pair coherence scorer")
    _add_corpus_flags(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--window", type=int, default=3, help="layer-1 window per sentence")
    p.add_argument("--filters", type=_int_tuple, default=(128, 256, 512),
                   help="conv filter counts, comma-separated (default 128,256,512)")
    p.add_argument("--kernel", type=int, default=3, help="spatial kernel of later convs")
    p.add_argument("--fc", type=_int_tuple, default=(512, 256),
                   help="fully-connected widths (default 512,256)")
    p.add_argument("--triplets-per-doc", type=int, default=1)
    p.set_defaults(func=cmd_train_coherence)

    p = sub.add_parser("pretrain", help="supervised pretraining of the extractor")
    _add_corpus_flags(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--labels", help="labels JSONL; generated greedily when omitted")
    p.add_argument("--cap", type=int, default=4, help="oracle label cap when generating")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--embed-dim", type=int, default=128)
    p.add_argument("--kernels", type=_int_tuple, default=(3, 5, 7),
                   help="word conv kernel sizes (default 3,5,7)")
    p.add_argument("--filters", type=_int_tuple, default=(128, 256, 256),
                   help="word conv filter counts (default 128,256,256)")
    p.add_argument("--gru-hidden", type=int, default=256)
    p.add_argument("--doc-dim", type=int, default=512)
    p.add_argument("--mlp", type=_int_tuple, default=(512, 256),
                   help="MLP hidden widths (default 512,256)")
    _add_reward_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-rnes", help="policy-gradient training with mixed rewards")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--pretrain-checkpoint", required=True)
    p.add_argument("--coherence-checkpoint", help="required unless --lambda is 0")
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.01,
                   help="coherence reward weight (default %(default)s)")
    p.add_argument("--alpha", type=float, default=0.001, help="ascent step size")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_reward_flags(p)
    p.set_defaults(func=cmd_train_rnes)

    p = sub.add_parser("summarize", help="decode summaries with beam search or lead-3")
    _add_corpus_flags(p)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", help="extractor checkpoint (beam method)")
    p.add_argument("--out", required=True, help="summaries JSONL output path")
    p.add_argument("--method", choices=("beam", "lead3"), default="beam")
    p.add_argument("--beam", type=int, default=10, help="beam size (default %(default)s)")
    p.add_argument("--cap", type=int, default=dc.DEFAULT_MAX_SELECTED,
                   help="max selected sentences (default %(default)s)")
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
        level=logging.DEBUG if args.verbose else logging.INFO,
        stream=sys.stderr,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
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

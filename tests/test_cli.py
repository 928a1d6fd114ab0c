"""CLI contracts: exit codes, file formats, determinism, stage wiring."""

import json

import numpy as np
import pytest

from cohsum.cli import run
from cohsum.corpus import load_vocab
from cohsum.extractor import init_extractor_params
from cohsum.numeric import load_checkpoint

from conftest import tiny_extractor_config


WORDS = ["river", "stone", "wind", "light", "cloud", "branch", "valley", "shore"]


def _make_corpus(path, n_docs=8, n_sentences=5, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            sentences = [
                " ".join(rng.choice(WORDS, size=4)) for _ in range(n_sentences)
            ]
            record = {
                "id": f"doc{i}",
                "sentences": sentences,
                "highlights": [sentences[0], sentences[2]],
            }
            fh.write(json.dumps(record) + "\n")


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _make_corpus(path)
    return path


TINY_COHERENCE = [
    "--max-tokens", "10", "--embed-dim", "6", "--filters", "4", "--fc", "8",
    "--batch-size", "8", "--epochs", "2",
]
TINY_EXTRACTOR = [
    "--max-tokens", "10", "--embed-dim", "6", "--kernels", "2,3", "--filters", "4,4",
    "--gru-hidden", "4", "--doc-dim", "6", "--mlp", "8,4", "--batch-size", "8",
]


def test_unknown_flag_exits_2(capsys):
    assert run(["evaluate", "--system", "x", "--no-such-flag"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def test_missing_file_exits_1(tmp_path):
    out = tmp_path / "v.txt"
    assert run(["preprocess", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(out)]) == 1


def test_malformed_corpus_exits_1(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert run(["preprocess", "--corpus", str(bad), "--out", str(tmp_path / "v.txt")]) == 1


def test_preprocess_writes_vocab(corpus, tmp_path):
    vocab_path = tmp_path / "vocab.txt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab_path)]) == 0
    vocab = load_vocab(vocab_path)
    assert vocab.size >= 3 + len(WORDS) - 1  # most filler words occur somewhere


def test_label_writes_binary_vectors(corpus, tmp_path):
    labels_path = tmp_path / "labels.jsonl"
    assert run(["label", "--corpus", str(corpus), "--out", str(labels_path)]) == 0
    records = [json.loads(line) for line in labels_path.read_text().splitlines()]
    assert len(records) == 8
    for record in records:
        assert set(record["labels"]) <= {0, 1}
        assert sum(record["labels"]) >= 1  # highlights are verbatim sentences


def test_pretrain_zero_epochs_equals_fresh_initialization(corpus, tmp_path):
    vocab_path = tmp_path / "vocab.txt"
    run(["preprocess", "--corpus", str(corpus), "--out", str(vocab_path)])
    ckpt = tmp_path / "policy.ckpt"
    code = run(
        ["pretrain", "--corpus", str(corpus), "--vocab", str(vocab_path), "--out", str(ckpt),
         "--epochs", "0", "--seed", "7"] + TINY_EXTRACTOR
    )
    assert code == 0
    loaded = load_checkpoint(ckpt)
    vocab = load_vocab(vocab_path)
    config = tiny_extractor_config(
        vocab.size, embed_dim=6, word_kernels=(2, 3), word_filters=(4, 4),
        gru_hidden=4, doc_dim=6, mlp_hidden=(8, 4), max_tokens=10,
        max_sentences=80, batch_size=8, epochs=0, lr=0.1,
    )
    from cohsum._util import child_rng

    fresh = init_extractor_params(config, child_rng(7, "pretrain"))
    assert loaded.names() == fresh.names()
    for name, p in fresh.items():
        assert np.array_equal(loaded[name].data, p.data)


def _run_pipeline(corpus, workdir, seed=3, lam="0.01", steps="6"):
    vocab = workdir / "vocab.txt"
    labels = workdir / "labels.jsonl"
    coh_ckpt = workdir / "coherence.ckpt"
    pre_ckpt = workdir / "pretrained.ckpt"
    rl_ckpt = workdir / "policy.ckpt"
    out = workdir / "summaries.jsonl"
    steps_list = [
        ["preprocess", "--corpus", str(corpus), "--out", str(vocab)],
        ["label", "--corpus", str(corpus), "--out", str(labels)],
        ["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
         "--out", str(coh_ckpt), "--seed", str(seed)] + TINY_COHERENCE,
        ["pretrain", "--corpus", str(corpus), "--vocab", str(vocab), "--labels", str(labels),
         "--out", str(pre_ckpt), "--seed", str(seed), "--epochs", "2"] + TINY_EXTRACTOR,
        ["train-rnes", "--corpus", str(corpus), "--vocab", str(vocab),
         "--pretrain-checkpoint", str(pre_ckpt), "--coherence-checkpoint", str(coh_ckpt),
         "--out", str(rl_ckpt), "--lambda", lam, "--steps", steps, "--seed", str(seed)],
        ["summarize", "--corpus", str(corpus), "--vocab", str(vocab),
         "--checkpoint", str(rl_ckpt), "--out", str(out), "--beam", "4", "--max-tokens", "10"],
    ]
    for argv in steps_list:
        assert run(argv) == 0, argv
    return out, rl_ckpt


def test_full_pipeline_and_evaluate(corpus, tmp_path, capsys):
    out, _ = _run_pipeline(corpus, tmp_path)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 8
    for record in records:
        assert list(record) == ["id", "selected_indices", "summary"]
        assert len(record["selected_indices"]) == len(record["summary"]) <= 4
    assert run(["evaluate", "--system", str(out), "--reference", str(corpus), "--per-doc"]) == 0
    captured = capsys.readouterr().out
    lines = captured.strip().splitlines()
    assert lines[0].startswith("id\t")
    assert lines[-1].startswith("MEAN\t")
    assert len(lines) == 1 + 8 + 1
    mean_fields = lines[-1].split("\t")[1:]
    assert len(mean_fields) == 9
    for field in mean_fields:
        assert len(field.split(".")[1]) == 4  # four decimal places


def test_lead3_summaries_score_perfectly_when_highlights_are_lead3(tmp_path, capsys):
    corpus = tmp_path / "lead.jsonl"
    rng = np.random.default_rng(5)
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(4):
            sentences = [" ".join(rng.choice(WORDS, size=4)) for _ in range(5)]
            fh.write(json.dumps({"id": f"d{i}", "sentences": sentences,
                                 "highlights": sentences[:3]}) + "\n")
    vocab = tmp_path / "vocab.txt"
    out = tmp_path / "lead3.jsonl"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["summarize", "--corpus", str(corpus), "--vocab", str(vocab),
                "--method", "lead3", "--out", str(out)]) == 0
    assert run(["evaluate", "--system", str(out), "--reference", str(corpus)]) == 0
    mean_line = capsys.readouterr().out.strip().splitlines()[-1]
    fields = mean_line.split("\t")
    assert fields[3] == "1.0000"  # R-1 F1


def test_score_coherence_six_decimals(corpus, tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    ckpt = tmp_path / "coh.ckpt"
    run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)])
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(ckpt), "--seed", "1", "--epochs", "1"] + TINY_COHERENCE[2:]
               + ["--max-tokens", "10", "--embed-dim", "6"]) == 0
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("river stone wind\tlight cloud\nbranch valley\tshore river\n")
    out = tmp_path / "scores.txt"
    assert run(["score-coherence", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--pairs", str(pairs), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        value = float(line)
        assert -1.0 < value < 1.0
        assert len(line.split(".")[1]) == 6


def test_score_coherence_rejects_malformed_pair(corpus, tmp_path):
    vocab = tmp_path / "vocab.txt"
    ckpt = tmp_path / "coh.ckpt"
    run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)])
    run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
         "--out", str(ckpt), "--seed", "1"] + TINY_COHERENCE)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("only one field\n")
    assert run(["score-coherence", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--pairs", str(pairs), "--out", str(tmp_path / "s.txt")]) == 1


def test_train_rnes_lambda_positive_needs_coherence_checkpoint(corpus, tmp_path):
    vocab = tmp_path / "vocab.txt"
    pre = tmp_path / "pre.ckpt"
    run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)])
    run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(pre),
         "--epochs", "0", "--seed", "1"] + TINY_EXTRACTOR)
    code = run(["train-rnes", "--corpus", str(corpus), "--vocab", str(vocab),
                "--pretrain-checkpoint", str(pre), "--out", str(tmp_path / "rl.ckpt"),
                "--lambda", "0.01", "--steps", "1"])
    assert code == 1


def test_pipeline_is_byte_identical_across_runs(tmp_path):
    corpus_a = tmp_path / "a" / "corpus.jsonl"
    corpus_b = tmp_path / "b" / "corpus.jsonl"
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    _make_corpus(corpus_a, seed=2)
    _make_corpus(corpus_b, seed=2)
    out_a, ckpt_a = _run_pipeline(corpus_a, tmp_path / "a")
    out_b, ckpt_b = _run_pipeline(corpus_b, tmp_path / "b")
    assert out_a.read_bytes() == out_b.read_bytes()
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()


# -- vocabulary larger than the checkpoint's ------------------------------------


@pytest.fixture
def larger_vocab(tmp_path):
    """A vocabulary built from the corpus words plus words the corpus never uses."""
    extra = tmp_path / "extra.jsonl"
    sentences = [" ".join(WORDS + ["ember", "field", "meadow", "harbor"])]
    extra.write_text(json.dumps({"id": "x", "sentences": sentences, "highlights": sentences}) + "\n")
    path = tmp_path / "larger_vocab.txt"
    assert run(["preprocess", "--corpus", str(extra), "--out", str(path)]) == 0
    return path


def _assert_one_line_vocab_error(caplog):
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0] and "vocabulary" in errors[0]


def _pretrained(corpus, tmp_path):
    vocab = tmp_path / "vocab.txt"
    ckpt = tmp_path / "pre.ckpt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(ckpt),
                "--epochs", "0"] + TINY_EXTRACTOR) == 0
    return ckpt


def test_train_rnes_rejects_vocabulary_larger_than_checkpoint(corpus, tmp_path, larger_vocab,
                                                              caplog):
    ckpt = _pretrained(corpus, tmp_path)
    code = run(["train-rnes", "--corpus", str(corpus), "--vocab", str(larger_vocab),
                "--pretrain-checkpoint", str(ckpt), "--out", str(tmp_path / "rl.ckpt"),
                "--lambda", "0", "--steps", "1"])
    assert code == 1
    _assert_one_line_vocab_error(caplog)
    assert not (tmp_path / "rl.ckpt").exists()


def test_summarize_rejects_vocabulary_larger_than_checkpoint(corpus, tmp_path, larger_vocab,
                                                             caplog):
    ckpt = _pretrained(corpus, tmp_path)
    code = run(["summarize", "--corpus", str(corpus), "--vocab", str(larger_vocab),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.jsonl"),
                "--max-tokens", "10"])
    assert code == 1
    _assert_one_line_vocab_error(caplog)


def test_score_coherence_rejects_vocabulary_larger_than_checkpoint(corpus, tmp_path, larger_vocab,
                                                                   caplog):
    vocab = tmp_path / "vocab.txt"
    ckpt = tmp_path / "coh.ckpt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(ckpt), "--epochs", "1"] + TINY_COHERENCE) == 0
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("meadow harbor\triver stone\n")
    code = run(["score-coherence", "--checkpoint", str(ckpt), "--vocab", str(larger_vocab),
                "--pairs", str(pairs), "--out", str(tmp_path / "scores.txt")])
    assert code == 1
    _assert_one_line_vocab_error(caplog)

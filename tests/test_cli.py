"""CLI contracts: exit codes, file formats, determinism, stage wiring."""

import argparse
import dataclasses
import io
import json
import logging
import os
import struct
import subprocess
import sys
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cohsum
from cohsum import cli
from cohsum.cli import _config, build_parser, child_rng, run
from cohsum.coherence import CoherenceConfig, coherence_forward
from cohsum.corpus import CorpusFormatError, load_corpus, load_vocab
from cohsum.extractor import ExtractorConfig, init_extractor_params
from cohsum.numeric import ParamStore, load_checkpoint, read_header, save_checkpoint
from cohsum.reinforce import RLConfig, train_rnes
from cohsum.rouge import RewardWeights

from conftest import tiny_extractor_config, traced_peak


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
         "--checkpoint", str(rl_ckpt), "--out", str(out), "--beam", "4"],
    ]
    for argv in steps_list:
        assert run(argv) == 0, argv
    return out, rl_ckpt


def test_full_pipeline_and_evaluate(corpus, tmp_path, capsys):
    out, _ = _run_pipeline(corpus, tmp_path)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 8
    docs = {doc.id: doc for doc in load_corpus(corpus)}
    for record in records:
        assert list(record) == ["id", "selected_indices", "summary"]
        selected = record["selected_indices"]
        assert selected == sorted(set(selected)) and len(selected) == 4  # min(--cap, 5)
        assert record["summary"] == [docs[record["id"]].sentences[i].text for i in selected]
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


def test_score_coherence_rejects_malformed_pair(corpus, tmp_path, caplog):
    vocab = tmp_path / "vocab.txt"
    ckpt = tmp_path / "coh.ckpt"
    run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)])
    run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
         "--out", str(ckpt), "--seed", "1"] + TINY_COHERENCE)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("river stone\tlight cloud\nonly one field\n")
    caplog.clear()
    assert run(["score-coherence", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--pairs", str(pairs), "--out", str(tmp_path / "s.txt")]) == 1
    assert f"{pairs}: line 2:" in _one_error_line(caplog)
    assert sorted(os.listdir(tmp_path)) == ["coh.ckpt", "corpus.jsonl", "pairs.tsv", "vocab.txt"]


@pytest.mark.parametrize("line, side", [("\t", "first"), ("river stone\t  ", "second")],
                         ids=["both empty", "second empty"])
def test_score_coherence_rejects_a_sentence_without_tokens(corpus, tmp_path, caplog, line,
                                                          side):
    vocab = tmp_path / "vocab.txt"
    ckpt = tmp_path / "coh.ckpt"
    run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)])
    run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
         "--out", str(ckpt), "--seed", "1"] + TINY_COHERENCE)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"river stone\tlight cloud\n{line}\n")
    caplog.clear()
    assert run(["score-coherence", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--pairs", str(pairs), "--out", str(tmp_path / "s.txt")]) == 1
    assert f"{pairs}: line 2: the {side} sentence has no tokens" in _one_error_line(caplog)
    assert sorted(os.listdir(tmp_path)) == ["coh.ckpt", "corpus.jsonl", "pairs.tsv", "vocab.txt"]


def _corpus_with_bad_third_record(corpus, tmp_path):
    lines = corpus.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "sentences": 5})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    return bad


@pytest.mark.parametrize("argv", [["label"], ["summarize", "--method", "lead3"]],
                         ids=["label", "summarize lead3"])
def test_stage_failing_part_way_leaves_no_output(corpus, tmp_path, caplog, argv):
    # the first two records are written before the third fails to parse
    bad = _corpus_with_bad_third_record(corpus, tmp_path)
    caplog.clear()
    assert run(argv + ["--corpus", str(bad), "--out", str(tmp_path / "out.jsonl")]) == 1
    assert f"{bad}: line 3:" in _one_error_line(caplog)
    assert sorted(os.listdir(tmp_path)) == ["bad.jsonl", "corpus.jsonl"]


def test_lead3_reads_no_vocabulary(corpus, tmp_path):
    out = tmp_path / "lead3.jsonl"
    for vocab in (["--vocab", str(tmp_path / "no-such-vocab.txt")], []):
        assert run(["summarize", "--corpus", str(corpus), "--method", "lead3",
                    "--out", str(out)] + vocab) == 0
        assert len(out.read_text().splitlines()) == 8


def test_beam_decoding_requires_a_vocabulary(corpus, tmp_path, caplog):
    ckpt = _pretrained(corpus, tmp_path)
    caplog.clear()
    assert run(["summarize", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "s.jsonl")]) == 1
    assert "--vocab" in _one_error_line(caplog)
    assert not (tmp_path / "s.jsonl").exists()


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
    _run_pipeline(corpus_a, tmp_path / "a")
    _run_pipeline(corpus_b, tmp_path / "b")
    # the checkpoint headers describe the models, so they must not vary either
    for name in ("summaries.jsonl", "coherence.ckpt", "pretrained.ckpt", "policy.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


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


def _one_error_line(caplog):
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None  # no traceback logged either
    message = errors[0].getMessage()
    assert "\n" not in message
    return message


def _assert_one_line_vocab_error(caplog):
    assert "vocabulary" in _one_error_line(caplog)


def _recorded_loads(monkeypatch) -> list:
    """The paths the CLI passes to `load_checkpoint`, recorded as it runs."""
    loads = []

    def recording_load(path, rows=None, *, layout=None):
        loads.append(str(path))
        return load_checkpoint(path, rows=rows, layout=layout)

    monkeypatch.setattr(cohsum.numeric, "load_checkpoint", recording_load)
    return loads


def _pretrained(corpus, tmp_path):
    vocab = tmp_path / "vocab.txt"
    ckpt = tmp_path / "pre.ckpt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(ckpt),
                "--epochs", "0"] + TINY_EXTRACTOR) == 0
    return ckpt


def test_train_rnes_rejects_vocabulary_larger_than_checkpoint(corpus, tmp_path, larger_vocab,
                                                              caplog, monkeypatch):
    ckpt = _pretrained(corpus, tmp_path)
    loads = _recorded_loads(monkeypatch)
    code = run(["train-rnes", "--corpus", str(corpus), "--vocab", str(larger_vocab),
                "--pretrain-checkpoint", str(ckpt), "--out", str(tmp_path / "rl.ckpt"),
                "--lambda", "0", "--steps", "1"])
    assert code == 1
    _assert_one_line_vocab_error(caplog)
    assert loads == []  # the header is checked before any tensor is read
    assert not (tmp_path / "rl.ckpt").exists()


def test_summarize_rejects_vocabulary_larger_than_checkpoint(corpus, tmp_path, larger_vocab,
                                                             caplog, monkeypatch):
    ckpt = _pretrained(corpus, tmp_path)
    loads = _recorded_loads(monkeypatch)
    code = run(["summarize", "--corpus", str(corpus), "--vocab", str(larger_vocab),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.jsonl")])
    assert code == 1
    _assert_one_line_vocab_error(caplog)
    assert loads == []  # the header is checked before any tensor is read


def test_score_coherence_rejects_vocabulary_larger_than_checkpoint(corpus, tmp_path, larger_vocab,
                                                                   caplog, monkeypatch):
    vocab = tmp_path / "vocab.txt"
    ckpt = tmp_path / "coh.ckpt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(ckpt), "--epochs", "1"] + TINY_COHERENCE) == 0
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("meadow harbor\triver stone\n")
    loads = _recorded_loads(monkeypatch)
    code = run(["score-coherence", "--checkpoint", str(ckpt), "--vocab", str(larger_vocab),
                "--pairs", str(pairs), "--out", str(tmp_path / "scores.txt")])
    assert code == 1
    _assert_one_line_vocab_error(caplog)
    assert loads == []  # the header is checked before any tensor is read


# -- diverging runs and summary statistics ---------------------------------------


def test_diverging_pretrain_exits_1_with_one_error_line(corpus, tmp_path):
    vocab = tmp_path / "vocab.txt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    package_root = os.path.dirname(os.path.dirname(cohsum.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "from cohsum.cli import main; main()",
         "pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
         "--out", str(tmp_path / "p.ckpt"), "--lr", "1e300"] + TINY_EXTRACTOR,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if " ERROR " in line]
    assert len(errors) == 1 and "non-finite" in errors[0]
    assert not (tmp_path / "p.ckpt").exists()


def test_train_rnes_step_that_overflows_exits_1_and_writes_no_policy(corpus, tmp_path, caplog):
    # the run's only step overflows, and no forward pass follows it to catch that;
    # rewards 100 times the default weights make the step's gradient exceed 1
    ckpt = _pretrained(corpus, tmp_path)
    out = tmp_path / "rl.ckpt"
    caplog.clear()
    assert run(["train-rnes", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.txt"),
                "--pretrain-checkpoint", str(ckpt), "--out", str(out),
                "--lambda", "0", "--steps", "1", "--alpha", "1e308",
                "--w1", "40", "--w2", "100", "--wl", "50"]) == 1
    assert "NaN or infinite" in _one_error_line(caplog)
    assert not out.exists()


def _summarize(corpus, tmp_path, caplog, method):
    ckpt = _pretrained(corpus, tmp_path)
    out = tmp_path / "s.jsonl"
    with caplog.at_level(logging.INFO):
        assert run(["summarize", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.txt"),
                    "--checkpoint", str(ckpt), "--out", str(out), "--method", method]) == 0
    counts = [len(json.loads(line)["selected_indices"]) for line in out.read_text().splitlines()]
    return out, counts


def _assert_selected_counts_reported(caplog, counts):
    messages = [(r.levelname, r.getMessage()) for r in caplog.records]
    empty = counts.count(0)
    warnings = [m for level, m in messages if level == "WARNING"]
    assert warnings == ([f"{empty} of {len(counts)} summaries are empty"] if empty else [])
    assert ("INFO", f"selected sentences per summary: min {min(counts)}, "
            f"median {np.median(counts):g}, max {max(counts)}") in messages


# the beam extracts min(--cap, n) sentences and lead-3 min(3, n); the documents have 5
SELECTED = {"beam": 4, "lead3": 3}


@pytest.mark.parametrize("method", ["beam", "lead3"])
def test_summarize_reports_empty_summaries_and_selected_counts(corpus, tmp_path, caplog, method):
    _, counts = _summarize(corpus, tmp_path, caplog, method)
    assert counts == [SELECTED[method]] * 8
    _assert_selected_counts_reported(caplog, counts)


@pytest.mark.parametrize("method", ["beam", "lead3"])
def test_evaluate_reports_empty_summaries_and_selected_counts(corpus, tmp_path, caplog, capsys,
                                                              method):
    out, counts = _summarize(corpus, tmp_path, caplog, method)
    assert counts == [SELECTED[method]] * 8
    caplog.clear()
    with caplog.at_level(logging.INFO):
        assert run(["evaluate", "--system", str(out), "--reference", str(corpus)]) == 0
    _assert_selected_counts_reported(caplog, counts)
    assert capsys.readouterr().out.splitlines()[-1].startswith("MEAN\t")


def test_evaluate_warns_of_the_empty_summaries_of_a_system_file(corpus, tmp_path, caplog, capsys):
    docs = list(load_corpus(corpus))
    counts = [0, 2, 0, 1, 3, 0, 1, 2]
    system = tmp_path / "system.jsonl"
    system.write_text("".join(
        json.dumps({"id": doc.id, "summary": [s.text for s in doc.sentences[:k]]}) + "\n"
        for doc, k in zip(docs, counts)))
    with caplog.at_level(logging.INFO):
        assert run(["evaluate", "--system", str(system), "--reference", str(corpus)]) == 0
    _assert_selected_counts_reported(caplog, counts)
    assert "3 of 8 summaries are empty" in caplog.text
    assert capsys.readouterr().out.splitlines()[-1].startswith("MEAN\t")


# -- self-describing checkpoints ---------------------------------------------------


@pytest.mark.parametrize("case, expected", [
    ("missing config field", "'gru_hidden'"),
    ("unknown config field", "'dropout'"),
    ("coherence model", "holds a 'coherence' model, expected 'extractor'"),
    ("reordered vocabulary", "another vocabulary of the same size"),
    ("version 1 file", "unsupported checkpoint version 1"),
    ("truncated header", "truncated while reading header"),
    ("max_tokens 10.5", "max_tokens must be int, got 10.5"),
    ("max_sentences 2.5", "max_sentences must be int, got 2.5"),
    ("gru_hidden 4.0", "gru_hidden must be int, got 4.0"),  # equal to an int, yet not one
    ("word_filters [4, 4.0]", "word_filters entries must be int, got (4, 4.0)"),
    ("doc_dim true", "doc_dim must be int, got True"),
    ("gru_hidden [4]", "gru_hidden must be int, got (4,)"),  # read as a tuple of one size
    ("word_kernels 3", "word_kernels must be a tuple, got 3"),
    ("lr NaN", "lr must be finite and >= 0, got nan"),
    ("lr Infinity", "lr must be finite and >= 0, got inf"),
    ("lr true", "lr must be a number, got True"),
    ("epochs 1.5", "epochs must be int, got 1.5"),
])
def test_bad_checkpoint_exits_1_with_one_error_line(corpus, tmp_path, caplog, monkeypatch, case,
                                                    expected):
    ckpt = _pretrained(corpus, tmp_path)
    vocab = tmp_path / "vocab.txt"
    params = load_checkpoint(ckpt)
    if case == "missing config field":
        del params.meta["config"]["gru_hidden"]  # has a default, so it would go unnoticed
    elif case == "unknown config field":
        params.meta["config"]["dropout"] = 0.5
    elif " " in case and case.split()[0] in params.meta["config"]:  # a size set to a non-int
        field, value = case.split(" ", 1)
        params.meta["config"][field] = json.loads(value)
    save_checkpoint(params, ckpt)
    if case == "coherence model":
        assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                    "--out", str(ckpt), "--epochs", "0"] + TINY_COHERENCE[:-2]) == 0
    elif case == "reordered vocabulary":
        tokens = vocab.read_text().splitlines()
        vocab.write_text("\n".join(tokens[:3] + tokens[:2:-1]) + "\n")
    elif case == "version 1 file":
        ckpt.write_bytes(b"COHSUMCK" + struct.pack("<II", 1, 0))  # the v1 layout, no tensors
    elif case == "truncated header":
        ckpt.write_bytes(ckpt.read_bytes()[:8 + 8 + 20])
    caplog.clear()
    loads = _recorded_loads(monkeypatch)
    code = run(["summarize", "--corpus", str(corpus), "--vocab", str(vocab),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.jsonl")])
    assert code == 1
    message = _one_error_line(caplog)
    assert str(ckpt) in message and expected in message
    assert loads == []  # the header is checked before any tensor is read


def _edit_tensor(ckpt, name, data):
    """Rewrite checkpoint `ckpt` with tensor `name` set to data, or dropped if data is None."""
    params = load_checkpoint(ckpt)
    edited = ParamStore()
    edited.meta = params.meta
    for key, p in params.items():
        if key != name:
            edited.add(key, p.data)
    if data is not None:
        edited.add(name, data)
    save_checkpoint(edited, ckpt)


@pytest.mark.parametrize("command", ["summarize", "train-rnes"])
@pytest.mark.parametrize("name, data, expected", [
    ("mlp_b3", None, "no tensor 'mlp_b3', which the model in its header has"),
    ("embed", np.zeros((3, 6)), "'embed'"),  # 3 rows for the 11-entry vocabulary
    ("mlp_w3", np.zeros((4, 2)), "tensor 'mlp_w3' has shape (4, 2), the model in its header "
                                 "needs (4, 1)"),
    ("mlp_b4", np.zeros(1), "tensor 'mlp_b4' is not a parameter of the model in its header"),
], ids=["missing", "too few rows", "misshapen", "extra"])
def test_policy_checkpoint_whose_tensors_do_not_match_its_header_exits_1(
        corpus, tmp_path, caplog, command, name, data, expected):
    ckpt = _pretrained(corpus, tmp_path)
    vocab = tmp_path / "vocab.txt"
    assert load_vocab(vocab).size == 11
    _edit_tensor(ckpt, name, data)
    out = tmp_path / "out"
    caplog.clear()
    if command == "summarize":
        argv = ["summarize", "--checkpoint", str(ckpt), "--out", str(out)]
    else:
        argv = ["train-rnes", "--pretrain-checkpoint", str(ckpt), "--out", str(out),
                "--lambda", "0", "--steps", "1"]
    assert run(argv + ["--corpus", str(corpus), "--vocab", str(vocab)]) == 1
    message = _one_error_line(caplog)
    assert str(ckpt) in message and expected in message
    assert not out.exists()


def test_coherence_checkpoint_whose_tensors_do_not_match_its_header_exits_1(corpus, tmp_path,
                                                                           caplog):
    vocab, ckpt = tmp_path / "vocab.txt", tmp_path / "coh.ckpt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(ckpt), "--epochs", "0"] + TINY_COHERENCE[:-2]) == 0
    _edit_tensor(ckpt, "out_w", np.zeros((8, 2)))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("river stone\tlight cloud\n")
    caplog.clear()
    assert run(["score-coherence", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--pairs", str(pairs), "--out", str(tmp_path / "s.txt")]) == 1
    message = _one_error_line(caplog)
    assert str(ckpt) in message and "tensor 'out_w' has shape (8, 2)" in message
    assert not (tmp_path / "s.txt").exists()


def test_score_coherence_rejects_a_policy_checkpoint_before_reading_it(corpus, tmp_path, caplog,
                                                                      monkeypatch):
    ckpt = _pretrained(corpus, tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("meadow harbor\triver stone\n")
    loads = _recorded_loads(monkeypatch)
    code = run(["score-coherence", "--checkpoint", str(ckpt), "--vocab",
                str(tmp_path / "vocab.txt"), "--pairs", str(pairs)])
    assert code == 1
    message = _one_error_line(caplog)
    assert str(ckpt) in message and "holds a 'extractor' model, expected 'coherence'" in message
    assert loads == []


def test_train_rnes_rejects_models_of_different_sentence_lengths(corpus, tmp_path, caplog,
                                                                 monkeypatch):
    pre = _pretrained(corpus, tmp_path)  # reads 10-token sentences
    coh = tmp_path / "coh.ckpt"
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.txt"),
                "--out", str(coh), "--epochs", "0"] + TINY_COHERENCE[2:-2]
               + ["--max-tokens", "12"]) == 0
    caplog.clear()
    loads = _recorded_loads(monkeypatch)
    corpora = []
    monkeypatch.setattr(cli.cp, "load_corpus", lambda *a, **kw: corpora.append(a) or [])
    code = run(["train-rnes", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.txt"),
                "--pretrain-checkpoint", str(pre), "--coherence-checkpoint", str(coh),
                "--out", str(tmp_path / "rl.ckpt"), "--lambda", "0.01", "--steps", "1"])
    assert code == 1
    message = _one_error_line(caplog)
    assert "12-token" in message and "reads 10" in message
    assert loads == corpora == []  # both headers are checked before the corpus and any tensor
    assert not (tmp_path / "rl.ckpt").exists()


def test_training_stages_write_only_their_checkpoint(corpus, tmp_path):
    vocab = tmp_path / "vocab.txt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    outs = {stage: tmp_path / stage / "model.ckpt" for stage in ("coh", "pre", "rl")}
    for path in outs.values():
        path.parent.mkdir()
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(outs["coh"]), "--epochs", "1"] + TINY_COHERENCE) == 0
    assert run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(outs["pre"]), "--epochs", "1"] + TINY_EXTRACTOR) == 0
    assert run(["train-rnes", "--corpus", str(corpus), "--vocab", str(vocab),
                "--pretrain-checkpoint", str(outs["pre"]),
                "--coherence-checkpoint", str(outs["coh"]), "--out", str(outs["rl"]),
                "--steps", "2"]) == 0
    for path in outs.values():
        assert os.listdir(path.parent) == ["model.ckpt"]  # no sidecar, no temporary file
    assert load_checkpoint(outs["rl"]).meta == load_checkpoint(outs["pre"]).meta


# -- malformed records from outside the program -------------------------------------


@pytest.mark.parametrize("field, value", [
    ("sentences", [1, 2]),
    ("sentences", "abc def. ghi"),
    ("highlights", [["nested"]]),
    ("highlights", "abc def"),
])
def test_corpus_field_that_is_not_an_array_of_strings_exits_1(tmp_path, caplog, field, value):
    corpus = tmp_path / "corpus.jsonl"
    good = {"id": "a", "sentences": ["river stone"], "highlights": ["river"]}
    corpus.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", field: value}) + "\n")
    caplog.clear()
    assert run(["label", "--corpus", str(corpus), "--out", str(tmp_path / "labels.jsonl")]) == 1
    message = _one_error_line(caplog)
    assert str(corpus) in message and "line 2" in message and repr(field) in message


@pytest.mark.parametrize("summary", [[1, 2], "alpha beta", None])
def test_evaluate_summary_that_is_not_an_array_of_strings_exits_1(corpus, tmp_path, caplog,
                                                                   summary):
    system = tmp_path / "system.jsonl"
    system.write_text(json.dumps({"id": "doc0", "summary": ["river stone"]}) + "\n"
                      + json.dumps({"id": "doc1", "summary": summary}) + "\n")
    caplog.clear()
    assert run(["evaluate", "--system", str(system), "--reference", str(corpus)]) == 1
    message = _one_error_line(caplog)
    assert str(system) in message and "line 2" in message and "'summary'" in message


@pytest.mark.parametrize("bad", [[2, 0, 2, 0, 0], [0, -1, 0, 0, 0], [0, 0.5, 0, 0, 1], "10000",
                                 [True, False, 0, 0, 0], [1.0, 0, 0, 0, 0]])
def test_pretrain_rejects_labels_other_than_0_or_1(corpus, tmp_path, caplog, bad):
    vocab = tmp_path / "vocab.txt"
    labels = tmp_path / "labels.jsonl"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["label", "--corpus", str(corpus), "--out", str(labels)]) == 0
    records = [json.loads(line) for line in labels.read_text().splitlines()]
    records[2]["labels"] = bad
    labels.write_text("".join(json.dumps(r) + "\n" for r in records))
    caplog.clear()
    code = run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab), "--labels", str(labels),
                "--out", str(tmp_path / "p.ckpt"), "--epochs", "0"] + TINY_EXTRACTOR)
    assert code == 1
    message = _one_error_line(caplog)
    assert str(labels) in message and "line 3" in message
    assert not (tmp_path / "p.ckpt").exists()


@pytest.mark.parametrize("label_flags, pretrain_flags, expected", [
    (["--max-sentences", "6"], [], "6 labels for document 'd2' of 8 sentences"),  # too few
    ([], ["--max-sentences", "4"], "5 labels for document 'd0' of 4 sentences"),  # too many
])
def test_pretrain_rejects_a_label_vector_of_another_length_before_training(
        tmp_path, caplog, monkeypatch, label_flags, pretrain_flags, expected):
    rng = np.random.default_rng(0)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i, n in enumerate([5, 6, 8, 5, 10, 6]):
            sentences = [" ".join(rng.choice(WORDS, size=4)) for _ in range(n)]
            fh.write(json.dumps({"id": f"d{i}", "sentences": sentences,
                                 "highlights": sentences[:2]}) + "\n")
    vocab, labels, out = tmp_path / "vocab.txt", tmp_path / "labels.jsonl", tmp_path / "p.ckpt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["label", "--corpus", str(corpus), "--out", str(labels)] + label_flags) == 0
    steps = []
    monkeypatch.setattr(cohsum.numeric, "gradients", lambda *a, **kw: steps.append(a))
    caplog.clear()
    assert run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                "--labels", str(labels), "--out", str(out), "--epochs", "1"]
               + TINY_EXTRACTOR + ["--batch-size", "1"] + pretrain_flags) == 1
    message = _one_error_line(caplog)
    assert message.startswith(f"{labels}: ") and expected in message
    assert steps == []  # no document was trained on first
    assert not out.exists()


def _run_on_edited_file(corpus, tmp_path, caplog, kind, edit):
    """(path, exit code) of the stage reading the `kind` file after `edit` changed its records.

    `kind` is the corpus or the label file, both read by `pretrain`, or the
    system file that `evaluate` reads.
    """
    vocab = tmp_path / "vocab.txt"
    labels = tmp_path / "labels.jsonl"
    system = tmp_path / "system.jsonl"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["label", "--corpus", str(corpus), "--out", str(labels)]) == 0
    assert run(["summarize", "--corpus", str(corpus), "--vocab", str(vocab), "--method", "lead3",
                "--out", str(system)]) == 0
    path = {"corpus": corpus, "labels": labels, "system": system}[kind]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    caplog.clear()
    if kind == "system":
        code = run(["evaluate", "--system", str(system), "--reference", str(corpus)])
    else:
        code = run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                    "--labels", str(labels), "--out", str(tmp_path / "p.ckpt"),
                    "--epochs", "0"] + TINY_EXTRACTOR)
    return path, code


@pytest.mark.parametrize("kind", ["corpus", "labels", "system"])
def test_repeated_id_exits_1_naming_both_lines(corpus, tmp_path, caplog, kind):
    def repeat(records):
        records[3]["id"] = records[1]["id"]  # the id of line 2 again on line 4

    path, code = _run_on_edited_file(corpus, tmp_path, caplog, kind, repeat)
    assert code == 1
    message = _one_error_line(caplog)
    assert str(path) in message and "line 4" in message and "line 2" in message
    assert not (tmp_path / "p.ckpt").exists()


def test_repeated_vocabulary_token_exits_1_naming_both_lines(corpus, tmp_path, caplog):
    vocab = tmp_path / "vocab.txt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    lines = vocab.read_text(encoding="utf-8").splitlines()
    lines.append(lines[4])  # the token of line 5 again, on the last line
    vocab.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    caplog.clear()
    ckpt = tmp_path / "coh.ckpt"
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(ckpt)] + TINY_COHERENCE) == 1
    message = _one_error_line(caplog)
    assert str(vocab) in message and repr(lines[4]) in message
    assert f"line {len(lines)}:" in message and message.endswith("line 5")
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "vocab.txt"]


@pytest.mark.parametrize("kind", ["labels", "system"])
@pytest.mark.parametrize("change", ["missing", "unknown"])
def test_file_paired_by_id_must_hold_exactly_the_corpus_ids(corpus, tmp_path, caplog, kind,
                                                            change):
    def edit(records):
        if change == "missing":
            del records[1:]  # only doc0 is left
        else:
            records.append({**records[0], "id": "zz"})

    path, code = _run_on_edited_file(corpus, tmp_path, caplog, kind, edit)
    assert code == 1
    message = _one_error_line(caplog)
    assert str(path) in message and ("'doc1'" if change == "missing" else "'zz'") in message
    assert not (tmp_path / "p.ckpt").exists()


def test_evaluate_rejects_a_reference_document_without_highlights(tmp_path, caplog, capsys):
    reference = tmp_path / "reference.jsonl"
    reference.write_text(
        json.dumps({"id": "a", "sentences": ["river stone wind"], "highlights": ["river stone"]})
        + "\n" + json.dumps({"id": "b", "sentences": ["light cloud"], "highlights": []}) + "\n")
    system = tmp_path / "system.jsonl"
    assert run(["summarize", "--corpus", str(reference), "--method", "lead3",
                "--out", str(system)]) == 0
    capsys.readouterr()
    caplog.clear()
    assert run(["evaluate", "--system", str(system), "--reference", str(reference),
                "--per-doc"]) == 1
    message = _one_error_line(caplog)
    assert str(reference) in message and "'b'" in message and "highlights" in message
    assert capsys.readouterr().out == ""  # no table, not even its header


def test_train_rnes_rejects_a_document_without_highlights_before_step_1(corpus, tmp_path,
                                                                        caplog):
    pre = _pretrained(corpus, tmp_path)
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    records[5]["highlights"] = []
    bare = tmp_path / "bare.jsonl"
    bare.write_text("".join(json.dumps(r) + "\n" for r in records))
    caplog.clear()
    with caplog.at_level(logging.INFO):
        code = run(["train-rnes", "--corpus", str(bare), "--vocab", str(tmp_path / "vocab.txt"),
                    "--pretrain-checkpoint", str(pre), "--out", str(tmp_path / "rl.ckpt"),
                    "--lambda", "0", "--steps", "50"])
    assert code == 1
    message = _one_error_line(caplog)
    assert str(bare) in message and "'doc5'" in message and "highlights" in message
    assert not [r for r in caplog.records if r.name == "cohsum.reinforce"]  # no step ran
    assert not (tmp_path / "rl.ckpt").exists()


@pytest.mark.parametrize("command", ["label", "pretrain"])
def test_oracle_labelling_rejects_a_document_without_highlights_before_labelling(
        command, tmp_path, caplog, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"id": "a", "sentences": ["river stone wind", "light cloud"],
                    "highlights": ["river stone"]}) + "\n"
        + json.dumps({"id": "b", "sentences": ["branch valley"], "highlights": []}) + "\n")
    vocab = tmp_path / "vocab.txt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    labelled = []
    monkeypatch.setattr(cohsum.corpus, "generate_oracle_labels",
                        lambda doc, *_: labelled.append(doc.id))
    out = tmp_path / "out"
    args = {"label": ["label", "--corpus", str(corpus), "--out", str(out)],
            "pretrain": ["pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                         "--out", str(out), "--epochs", "0"] + TINY_EXTRACTOR}[command]
    caplog.clear()
    assert run(args) == 1
    message = _one_error_line(caplog)
    assert str(corpus) in message and "'b'" in message and "highlights" in message
    assert labelled == []  # document 'a' was not labelled first
    assert not out.exists()


# a flag value outside the range of the config field it sets, and that field
OUT_OF_RANGE = [
    (["pretrain", "--batch-size", "0"], "batch_size"),
    (["train-coherence", "--batch-size", "0"], "batch_size"),
    (["pretrain", "--embed-dim", "0"], "embed_dim"),
    (["train-coherence", "--embed-dim", "0"], "embed_dim"),
    (["pretrain", "--kernels", "0,3"], "word_kernels"),
    (["pretrain", "--kernels", ",", "--filters", ","], "word_kernels"),
    (["pretrain", "--kernels", "3,3", "--filters", "4,4"], "word_kernels"),
    (["pretrain", "--filters", "0,4"], "word_filters"),
    (["pretrain", "--gru-hidden", "0"], "gru_hidden"),
    (["pretrain", "--doc-dim", "0"], "doc_dim"),
    (["pretrain", "--mlp", "8"], "mlp_hidden"),
    (["pretrain", "--max-tokens", "0"], "max_tokens"),
    (["pretrain", "--max-sentences", "0"], "max_sentences"),
    (["pretrain", "--lr", "-0.1"], "lr"),
    (["pretrain", "--epochs", "-1"], "epochs"),
    (["train-coherence", "--window", "0"], "window"),
    (["train-coherence", "--filters", "0"], "conv_filters"),
    (["train-coherence", "--kernel", "0"], "conv_kernel"),
    (["train-coherence", "--fc", "0"], "fc_units"),
    (["train-coherence", "--max-sentences", "0"], "max_sentences"),
    (["label", "--max-sentences", "0"], "max_sentences"),
    (["train-rnes", "--steps", "-1"], "steps"),
    (["train-rnes", "--lambda", "-1"], "lambda"),
    (["train-rnes", "--lambda", "nan"], "lambda"),
    (["train-rnes", "--alpha", "-1"], "alpha"),
    (["train-rnes", "--w1", "-1"], "w1"),
    (["pretrain", "--lr", "nan", "--epochs", "1"], "lr"),
    (["train-coherence", "--lr", "inf", "--epochs", "1"], "lr"),
    (["label", "--w1", "nan"], "w1"),
    (["preprocess", "--max-vocab", "3"], "--max-vocab"),
    (["train-coherence", "--max-tokens", "3"], "max_tokens 3 must exceed the layer-1 window 3"),
    (["train-coherence", "--triplets-per-doc", "0"], "--triplets-per-doc"),
    (["label", "--cap", "-1"], "--cap"),
    (["pretrain", "--cap", "-1"], "--cap"),
    (["summarize", "--cap", "-1"], "--cap"),
    (["summarize", "--cap", "0"], "--cap"),
    (["summarize", "--beam", "0"], "--beam"),
    (["train-coherence", "--seed", "-1"], "--seed"),
    (["pretrain", "--seed", "-1"], "--seed"),
    (["train-rnes", "--seed", "-1"], "--seed"),
]


@pytest.mark.parametrize("argv, field", OUT_OF_RANGE, ids=[" ".join(a) for a, _ in OUT_OF_RANGE])
def test_config_value_out_of_range_exits_1_naming_the_field(corpus, tmp_path, caplog, argv,
                                                            field):
    ckpt = _pretrained(corpus, tmp_path)
    given = {
        "preprocess": [],
        "label": [],
        "train-coherence": ["--vocab", str(tmp_path / "vocab.txt"), "--epochs", "0"]
                           + TINY_COHERENCE[:-2],
        "pretrain": ["--vocab", str(tmp_path / "vocab.txt"), "--epochs", "0"] + TINY_EXTRACTOR,
        "train-rnes": ["--vocab", str(tmp_path / "vocab.txt"), "--pretrain-checkpoint", str(ckpt),
                       "--lambda", "0"],
        "summarize": ["--vocab", str(tmp_path / "vocab.txt"), "--checkpoint", str(ckpt)],
    }[argv[0]]
    caplog.clear()
    assert run(argv[:1] + ["--corpus", str(corpus), "--out", str(tmp_path / "out")] + given
               + argv[1:]) == 1
    assert field in _one_error_line(caplog)
    assert not [name for name in os.listdir(tmp_path) if name.startswith("out")]


def test_checkpoint_header_with_a_repeated_word_kernel_exits_1(corpus, tmp_path, caplog,
                                                               monkeypatch):
    ckpt = _pretrained(corpus, tmp_path)
    params = load_checkpoint(ckpt)
    params.meta["config"]["word_kernels"] = [3, 3]  # two kernels would share conv3_*
    save_checkpoint(params, ckpt)
    loads = _recorded_loads(monkeypatch)
    caplog.clear()
    assert run(["summarize", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.txt"),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.jsonl")]) == 1
    message = _one_error_line(caplog)
    assert str(ckpt) in message and "word_kernels must not repeat a size" in message
    assert loads == []
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("stage", ["preprocess", "label", "train-coherence", "pretrain",
                                   "train-rnes", "summarize beam", "summarize lead3", "evaluate"])
def test_corpus_with_no_record_exits_1_naming_the_file(corpus, tmp_path, caplog, capsys,
                                                       monkeypatch, stage):
    ckpt = _pretrained(corpus, tmp_path)
    vocab = str(tmp_path / "vocab.txt")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")  # a blank line is no record
    out = tmp_path / "out"
    out.mkdir()
    io = ["--corpus", str(empty), "--out", str(out / "result")]
    argv = {
        "preprocess": ["preprocess"] + io,
        "label": ["label"] + io,
        "train-coherence": ["train-coherence", "--vocab", vocab] + io + TINY_COHERENCE,
        "pretrain": ["pretrain", "--vocab", vocab] + io + TINY_EXTRACTOR,
        "train-rnes": ["train-rnes", "--vocab", vocab, "--pretrain-checkpoint", str(ckpt),
                       "--lambda", "0"] + io,
        "summarize beam": ["summarize", "--vocab", vocab, "--checkpoint", str(ckpt)] + io,
        "summarize lead3": ["summarize", "--method", "lead3"] + io,
        # the reference corpus is read before the system file
        "evaluate": ["evaluate", "--reference", str(empty), "--system", str(empty)],
    }[stage]
    loads = _recorded_loads(monkeypatch)
    capsys.readouterr()
    caplog.clear()
    assert run(argv) == 1
    assert _one_error_line(caplog) == f"{empty}: no records; a corpus needs at least one document"
    assert loads == []  # train-rnes and summarize read no tensor first
    assert os.listdir(out) == [] and capsys.readouterr().out == ""


def test_train_coherence_on_documents_too_short_for_a_triplet_exits_1(tmp_path, caplog):
    corpus = tmp_path / "short.jsonl"
    corpus.write_text("".join(  # a triplet needs three sentences
        json.dumps({"id": f"d{n}", "sentences": WORDS[:n], "highlights": WORDS[:1]}) + "\n"
        for n in (1, 2)))
    vocab = tmp_path / "vocab.txt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    caplog.clear()
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(tmp_path / "coh.ckpt")] + TINY_COHERENCE) == 1
    message = _one_error_line(caplog)
    assert message.startswith(f"{corpus}: no documents long enough to sample coherence "
                              f"triplets from")
    assert sorted(os.listdir(tmp_path)) == ["short.jsonl", "vocab.txt"]


# -- generated flag values -----------------------------------------------------------------


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """The base argv of each stage that has a numeric flag, at tiny geometry, sans --out."""
    root = tmp_path_factory.mktemp("stage_inputs")
    corpus, vocab = str(root / "corpus.jsonl"), str(root / "vocab.txt")
    coh_ckpt, pre_ckpt = str(root / "coh.ckpt"), str(root / "pre.ckpt")
    _make_corpus(corpus)
    assert run(["preprocess", "--corpus", corpus, "--out", vocab]) == 0
    assert run(["train-coherence", "--corpus", corpus, "--vocab", vocab, "--out", coh_ckpt,
                "--epochs", "0"] + TINY_COHERENCE[:-2]) == 0
    assert run(["pretrain", "--corpus", corpus, "--vocab", vocab, "--out", pre_ckpt,
                "--epochs", "0"] + TINY_EXTRACTOR) == 0
    assert run(["label", "--corpus", corpus, "--out", str(root / "labels.jsonl")]) == 0
    assert run(["summarize", "--corpus", corpus, "--method", "lead3",
                "--out", str(root / "system.jsonl")]) == 0
    (root / "score_pairs.tsv").write_text("river stone wind\tlight cloud\n"
                                          "wind shore\tvalley branch\nstone\triver light\n")
    return root, {
        "preprocess": ["preprocess", "--corpus", corpus],
        "label": ["label", "--corpus", corpus],
        "train-coherence": ["train-coherence", "--corpus", corpus, "--vocab", vocab]
                           + TINY_COHERENCE + ["--epochs", "1"],
        "pretrain": ["pretrain", "--corpus", corpus, "--vocab", vocab, "--epochs", "1"]
                    + TINY_EXTRACTOR,
        "train-rnes": ["train-rnes", "--corpus", corpus, "--vocab", vocab,
                       "--pretrain-checkpoint", pre_ckpt, "--coherence-checkpoint", coh_ckpt,
                       "--steps", "2"],
        "summarize beam": ["summarize", "--corpus", corpus, "--vocab", vocab,
                           "--checkpoint", pre_ckpt],
        "summarize lead3": ["summarize", "--corpus", corpus, "--method", "lead3"],
    }


# least values of the config fields that are not sizes (`config.check_config`, `RLConfig`);
# every other config size is at least 1, and so is --max-sentences (`load_corpus`)
LEAST_OF_FIELD = {"epochs": 0, "steps": 0}
FLOAT_VALUES = ["-1", "0", "0.5", "nan", "inf", "-inf"]


def _numeric_flags(parser) -> list[tuple[str, argparse.Action]]:
    """(subcommand, action) of every int, float and int-tuple option of every subcommand."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, action) for name, p in subparsers.choices.items() for action in p._actions
            if action.type in (int, float, cli._int_tuple)]


def _flag_value(parser, action, base, data) -> str:
    """A drawn value of a flag: ints from its least value - 2 to + 1, floats from FLOAT_VALUES.

    An int tuple keeps its base entries but one, which is drawn like an int.
    """
    if action.type is float:
        return data.draw(st.sampled_from(FLOAT_VALUES))
    flag = action.option_strings[0]
    least = cli.AT_LEAST.get(flag, LEAST_OF_FIELD.get(action.dest, 1))
    value = data.draw(st.integers(least - 2, least + 1))
    if action.type is int:
        return str(value)
    entries = list(getattr(parser.parse_args(base + ["--out", "o"]), action.dest))
    entries[data.draw(st.integers(0, len(entries) - 1))] = value
    return ",".join(map(str, entries))


# caplog is cleared at the start of each example
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_flag_value_exits_0_or_1_with_one_error_line_and_no_output(stage_inputs, caplog,
                                                                       data):
    root, bases = stage_inputs
    parser = build_parser()
    stage, action = data.draw(st.sampled_from(
        [(stage, action) for name, action in _numeric_flags(parser) for stage in bases
         if stage.split()[0] == name]), label="flag")
    base = bases[stage]
    value = _flag_value(parser, action, base, data)
    _assert_exits_0_or_1_cleanly(root, base + [f"{action.option_strings[0]}={value}"], caplog)


def _assert_exits_0_or_1_cleanly(root, argv, caplog, out: bool = True) -> None:
    """Run argv with --out in a fresh directory under root, which is removed after.

    It must exit 0 with no error, writing only the output, or exit 1 with
    one error line and no traceback, leaving no file. With out=False argv
    gets no --out, for a command that only prints (`evaluate`).
    """
    out_dir = tempfile.mkdtemp(dir=root)
    caplog.clear()
    code = run(argv + (["--out", os.path.join(out_dir, "out")] if out else []))
    left = os.listdir(out_dir)
    assert code in (0, 1)
    if code == 1:
        _one_error_line(caplog)
        assert left == []  # neither the output nor its temporary file
    else:
        assert not [r for r in caplog.records if r.levelname == "ERROR"]
        assert left == (["out"] if out else [])
        for name in left:
            os.remove(os.path.join(out_dir, name))
    os.rmdir(out_dir)


HEADER_VALUES = [-1, 0, 1, 1.5, "x", None, [], [1]]


def _mutated_header(blob: bytes, meta: dict) -> bytes:
    """Checkpoint bytes `blob` with its JSON header replaced by `meta` (see `save_checkpoint`)."""
    (length,) = struct.unpack("<I", blob[12:16])
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<II", 2, len(header)) + header + blob[16 + length:]


def _mutated_checkpoint(blob: bytes, meta: dict, data) -> bytes:
    """One drawn mutation of the checkpoint bytes `blob`, whose header is `meta`."""
    kind = data.draw(st.sampled_from(["truncate", "byte", "config value", "drop field",
                                      "model or digest"]), label="mutation")
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    if kind == "byte":
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        return blob[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + blob[at + 1:]
    meta = json.loads(json.dumps(meta))
    if kind == "config value":
        field = data.draw(st.sampled_from(sorted(meta["config"])), label="field")
        meta["config"][field] = data.draw(st.sampled_from(HEADER_VALUES), label="value")
    elif kind == "drop field":
        paths = [(key,) for key in meta] + [(key, sub) for key in ("config", "vocab")
                                            for sub in meta[key]]
        *parents, key = data.draw(st.sampled_from(sorted(paths)), label="field")
        del (meta[parents[0]] if parents else meta)[key]
    elif data.draw(st.booleans(), label="model"):
        other = {"extractor": "coherence", "coherence": "extractor"}[meta["model"]]
        meta["model"] = data.draw(st.sampled_from([other, "x", None]), label="value")
    else:
        meta["vocab"]["sha256"] = "0" * 64
    return _mutated_header(blob, meta)


# caplog is cleared at the start of each example
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_policy_checkpoint_mutation_exits_0_or_1_with_one_error_line_and_no_output(
        stage_inputs, caplog, data):
    root, _ = stage_inputs
    source = root / "pre.ckpt"
    blob = source.read_bytes()
    ckpt = root / "mutated.ckpt"
    ckpt.write_bytes(_mutated_checkpoint(blob, read_header(source), data))
    io = ["--corpus", str(root / "corpus.jsonl"), "--vocab", str(root / "vocab.txt")]
    argv = data.draw(st.sampled_from([
        ["summarize", "--checkpoint", str(ckpt)],
        ["train-rnes", "--pretrain-checkpoint", str(ckpt), "--lambda", "0", "--steps", "1"],
    ]), label="stage")
    _assert_exits_0_or_1_cleanly(root, argv + io, caplog)


# caplog is cleared at the start of each example
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_coherence_checkpoint_mutation_exits_0_or_1_with_one_error_line_and_no_output(
        stage_inputs, caplog, data):
    root, _ = stage_inputs
    source = root / "coh.ckpt"
    ckpt = root / "mutated.ckpt"
    ckpt.write_bytes(_mutated_checkpoint(source.read_bytes(), read_header(source), data))
    pairs = root / "pairs.tsv"
    pairs.write_text("river stone wind\tlight cloud\n")
    vocab = ["--vocab", str(root / "vocab.txt")]
    argv = data.draw(st.sampled_from([
        ["score-coherence", "--checkpoint", str(ckpt), "--pairs", str(pairs)],
        ["train-rnes", "--corpus", str(root / "corpus.jsonl"), "--pretrain-checkpoint",
         str(root / "pre.ckpt"), "--coherence-checkpoint", str(ckpt), "--lambda", "0.01",
         "--steps", "1"],
    ]), label="stage")
    _assert_exits_0_or_1_cleanly(root, argv + vocab, caplog)


def _mutated_lines(blob: bytes, data) -> bytes:
    """One drawn mutation of the text file bytes `blob`.

    A line dropped, repeated or swapped with another, one byte replaced, or the file truncated.
    """
    kind = data.draw(st.sampled_from(["drop", "repeat", "swap", "byte", "truncate"]),
                     label="mutation")
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    if kind == "byte":
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        byte = data.draw(st.sampled_from(b"\xff\x00\n\r x"), label="byte")
        return blob[:at] + bytes([byte]) + blob[at + 1:]
    lines = blob.splitlines(keepends=True)
    i, j = (data.draw(st.integers(0, len(lines) - 1), label=label) for label in ("line", "other"))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


@pytest.mark.parametrize("blob", [b"<PAD>\n<UNK>\n<BOUNDARY>\nriver\n\xffstone\n",
                                  b"<PAD>\n<BOUNDARY>\n<UNK>\nriver\n"])
@pytest.mark.parametrize("stage", ["train-rnes", "summarize beam", "train-coherence", "pretrain"])
def test_checkpoint_stages_fail_on_a_bad_vocabulary_as_load_vocab_does_before_the_corpus(
        stage_inputs, tmp_path, caplog, blob, stage):
    # these stages read the vocabulary file in one pass, keeping only the
    # corpus's tokens; a bad file fails there, before a missing corpus does
    _assert_fails_as_load_vocab_before_the_corpus(stage_inputs, tmp_path, caplog, blob, stage)


@pytest.mark.parametrize("stage", ["train-coherence", "pretrain"])
def test_training_stages_fail_on_a_repeated_vocabulary_token_naming_both_lines(
        stage_inputs, tmp_path, caplog, stage):
    # these stages build a model from the file, so a repeated token fails as
    # in `load_vocab`, naming both of its lines, and before a missing corpus
    blob = b"<PAD>\n<UNK>\n<BOUNDARY>\nriver\nstone\nriver\n"
    _assert_fails_as_load_vocab_before_the_corpus(stage_inputs, tmp_path, caplog, blob, stage)


def _assert_fails_as_load_vocab_before_the_corpus(stage_inputs, tmp_path, caplog, blob, stage):
    _, bases = stage_inputs
    vocab = tmp_path / "bad_vocab.txt"
    vocab.write_bytes(blob)
    with pytest.raises(CorpusFormatError) as expected:
        load_vocab(vocab)
    argv = bases[stage] + ["--vocab", str(vocab), "--corpus", str(tmp_path / "no-such.jsonl"),
                           "--out", str(tmp_path / "out")]
    caplog.clear()
    assert run(argv) == 1
    assert _one_error_line(caplog) == str(expected.value)
    assert sorted(os.listdir(tmp_path)) == ["bad_vocab.txt"]


def _encode_whole_table(docs, lines, max_tokens):
    """`cli._encode_as_rows` as the whole table would read it: vocabulary ids, no rows."""
    from cohsum import corpus as cp

    cp.encode_sentences([sent for doc in docs for sent in doc.sentences], lines, max_tokens)
    return None  # `init_params` then draws every row


@pytest.mark.parametrize("epochs", ["0", "2"])
@pytest.mark.parametrize("stage", ["train-coherence", "pretrain"])
def test_training_stages_write_the_checkpoint_of_the_whole_table(corpus, larger_vocab, tmp_path,
                                                                 monkeypatch, stage, epochs):
    # the model holds only the rows of the corpus's ids; the words only the
    # larger vocabulary has are drawn again into the checkpoint, as the whole
    # table held them, and training moves the same kept rows by the same steps
    flags = TINY_COHERENCE if stage == "train-coherence" else TINY_EXTRACTOR
    argv = [stage, "--corpus", str(corpus), "--vocab", str(larger_vocab), "--seed", "5",
            *flags, "--epochs", epochs, "--out"]
    assert run(argv + [str(tmp_path / "rows.ckpt")]) == 0
    monkeypatch.setattr(cli, "_encode_as_rows", _encode_whole_table)
    assert run(argv + [str(tmp_path / "whole.ckpt")]) == 0
    assert (tmp_path / "rows.ckpt").read_bytes() == (tmp_path / "whole.ckpt").read_bytes()


def _scores_one_call_per_line(root, pairs: str) -> list[str]:
    """The scores of `score-coherence` on the pairs, each line scored alone, 6 decimals."""
    from cohsum import corpus as cp

    vocab = load_vocab(root / "vocab.txt")
    params = load_checkpoint(root / "coh.ckpt")
    config = cli._model_config(root / "coh.ckpt", "coherence", CoherenceConfig,
                               (vocab.size, vocab.fingerprint()))
    scores = []
    for line in pairs.splitlines():
        sa, sb = (cp.encode_sentence(cp.tokenize(part), vocab, config.max_tokens)
                  for part in line.split("\t"))
        scores.append(f"{coherence_forward([(sa, sb)], params, config)[0]:.6f}")
    return scores


@pytest.mark.parametrize("bad_line", [None, 4, 5],
                         ids=["all good", "in a group", "a group's first"])
def test_score_coherence_scores_in_groups_what_it_scores_one_line_at_a_time(
        stage_inputs, tmp_path, monkeypatch, capsys, caplog, bad_line):
    # groups of 2: lines 1-2, 3-4, 5-6, 7; a bad line still fails naming
    # itself, after the scores of every line before it
    root, _ = stage_inputs
    monkeypatch.setattr(cli, "SCORE_GROUP", 2)
    good = ["river stone wind\tlight cloud", "wind shore\tvalley branch", "stone\triver light",
            "cloud cloud\tshore", "valley\tbranch wind stone", "light\tlight", "shore\triver"]
    lines = list(good)
    if bad_line is not None:
        lines[bad_line - 1] = "one field only"
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("\n".join(lines) + "\n")
    caplog.clear()
    code = run(["score-coherence", "--checkpoint", str(root / "coh.ckpt"),
                "--vocab", str(root / "vocab.txt"), "--pairs", str(pairs)])
    printed = capsys.readouterr().out.splitlines()
    expected = _scores_one_call_per_line(root, "\n".join(good))
    if bad_line is None:
        assert code == 0 and printed == expected
    else:
        assert code == 1 and printed == expected[:bad_line - 1]
        assert f"{pairs}: line {bad_line}: expected two tab-separated" in _one_error_line(caplog)


# caplog is cleared at the start of each example
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_vocabulary_mutation_exits_0_or_1_with_one_error_line_and_no_output(
        stage_inputs, caplog, data):
    root, _ = stage_inputs
    vocab = root / "mutated.txt"
    vocab.write_bytes(_mutated_lines((root / "vocab.txt").read_bytes(), data))
    corpus = ["--corpus", str(root / "corpus.jsonl")]
    pairs = root / "pairs.tsv"
    pairs.write_text("river stone wind\tlight cloud\n")
    argv = data.draw(st.sampled_from([
        ["pretrain", "--epochs", "1"] + TINY_EXTRACTOR + corpus,
        ["summarize", "--checkpoint", str(root / "pre.ckpt")] + corpus,
        ["train-rnes", "--pretrain-checkpoint", str(root / "pre.ckpt"), "--lambda", "0",
         "--steps", "1"] + corpus,
        ["score-coherence", "--checkpoint", str(root / "coh.ckpt"), "--pairs", str(pairs)],
    ]), label="stage")
    _assert_exits_0_or_1_cleanly(root, argv + ["--vocab", str(vocab)], caplog)


JSON_VALUES = [None, True, 0, 1.5, "x", [], [1], ["x"], {}]


def _mutated_records(blob: bytes, data) -> bytes:
    """One drawn record-aware mutation of the JSON Lines bytes `blob`.

    A record's field dropped or given a value of another JSON type, a
    record given another record's id, a corpus record's `sentences` emptied,
    or a label vector made one entry shorter or longer.
    """
    records = [json.loads(line) for line in blob.splitlines()]
    record = records[data.draw(st.integers(0, len(records) - 1), label="record")]
    kinds = ["drop field", "retype field", "repeat id"]
    kinds += [kind for key, kind in (("sentences", "empty sentences"), ("labels", "label count"))
              if key in record]
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind in ("drop field", "retype field"):
        field = data.draw(st.sampled_from(sorted(record)), label="field")
        if kind == "drop field":
            del record[field]
        else:
            record[field] = data.draw(st.sampled_from(JSON_VALUES), label="value")
    elif kind == "repeat id":
        record["id"] = records[data.draw(st.integers(0, len(records) - 1), label="other")]["id"]
    elif kind == "empty sentences":
        record["sentences"] = []
    elif data.draw(st.booleans(), label="shorter"):
        record["labels"] = record["labels"][:-1]
    else:
        record["labels"] = record["labels"] + [0]
    return b"".join(json.dumps(r).encode("utf-8") + b"\n" for r in records)


def _mutated_pairs(blob: bytes, data) -> bytes:
    """One drawn mutation of the tab-separated pairs `blob`: a side emptied, dropped or added."""
    lines = blob.decode("utf-8").splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    sides = lines[i].split("\t")
    kind = data.draw(st.sampled_from(["empty", "drop", "add"]), label="mutation")
    side = data.draw(st.integers(0, 1), label="side")
    if kind == "empty":
        sides[side] = data.draw(st.sampled_from(["", " ", "!"]), label="text")
    elif kind == "drop":
        del sides[side]
    else:
        sides.insert(side, "wind")
    lines[i] = "\t".join(sides)
    return "".join(line + "\n" for line in lines).encode("utf-8")


# the stages that read a corpus, label, summary or pair file, and the files each reads
RECORD_STAGES = {
    "label": ["corpus"],
    "pretrain --labels": ["corpus", "labels"],
    "train-rnes": ["corpus"],
    "summarize beam": ["corpus"],
    "evaluate": ["corpus", "system"],
    "score-coherence": ["pairs"],
}


# caplog is cleared at the start of each example
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_record_or_pair_mutation_exits_0_or_1_with_one_error_line_and_no_output(
        stage_inputs, caplog, data):
    root, _ = stage_inputs
    stage, name = data.draw(st.sampled_from(
        [(stage, name) for stage, names in RECORD_STAGES.items() for name in names]),
        label="input")
    good = {"corpus": "corpus.jsonl", "labels": "labels.jsonl", "system": "system.jsonl",
            "pairs": "score_pairs.tsv"}
    files = {key: str(root / file) for key, file in good.items()}
    blob = (root / good[name]).read_bytes()
    if data.draw(st.booleans(), label="by line"):
        blob = _mutated_lines(blob, data)
    else:
        blob = (_mutated_pairs if name == "pairs" else _mutated_records)(blob, data)
    files[name] = str(root / f"mutated.{name}")
    (root / f"mutated.{name}").write_bytes(blob)
    corpus, vocab, pre = ["--corpus", files["corpus"]], ["--vocab", str(root / "vocab.txt")], \
        str(root / "pre.ckpt")
    argv = {
        "label": ["label"] + corpus,
        "pretrain --labels": ["pretrain", "--labels", files["labels"], "--epochs", "1"]
                             + TINY_EXTRACTOR + corpus + vocab,
        "train-rnes": ["train-rnes", "--pretrain-checkpoint", pre, "--lambda", "0",
                       "--steps", "1"] + corpus + vocab,
        "summarize beam": ["summarize", "--checkpoint", pre] + corpus + vocab,
        "evaluate": ["evaluate", "--reference", files["corpus"], "--system", files["system"]],
        "score-coherence": ["score-coherence", "--checkpoint", str(root / "coh.ckpt"),
                            "--pairs", files["pairs"]] + vocab,
    }[stage]
    _assert_exits_0_or_1_cleanly(root, argv, caplog, out=stage != "evaluate")


@pytest.mark.parametrize("name", ["corpus", "labels", "system", "vocab", "pairs", "stdin"])
def test_a_line_that_is_not_utf8_exits_1_naming_the_file_and_the_line(
        stage_inputs, tmp_path, monkeypatch, caplog, name):
    root, _ = stage_inputs
    corpus, vocab = str(root / "corpus.jsonl"), str(root / "vocab.txt")
    good = {"corpus": corpus, "vocab": vocab}.get(name, tmp_path / "good")
    if name == "labels":
        assert run(["label", "--corpus", corpus, "--out", str(good)]) == 0
    elif name == "system":
        assert run(["summarize", "--corpus", corpus, "--method", "lead3", "--out", str(good)]) == 0
    elif name in ("pairs", "stdin"):
        good.write_text("river stone\tlight cloud\nwind shore\tvalley branch\n")
    lines = open(good, "rb").readlines()
    bad = tmp_path / "bad"
    bad.write_bytes(b"".join([lines[0], b"\xff" + lines[1], *lines[2:]]))
    path, shown = str(bad), str(bad)
    if name == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
        path, shown = "-", "stdin"
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "corpus": ["preprocess", "--corpus", path] + out,
        "labels": ["pretrain", "--corpus", corpus, "--vocab", vocab, "--labels", path,
                   "--epochs", "0"] + TINY_EXTRACTOR + out,
        "system": ["evaluate", "--reference", corpus, "--system", path],
        "vocab": ["pretrain", "--corpus", corpus, "--vocab", path, "--epochs", "0"]
                 + TINY_EXTRACTOR + out,
        "pairs": ["score-coherence", "--checkpoint", str(root / "coh.ckpt"), "--vocab", vocab,
                  "--pairs", path] + out,
    }
    argv["stdin"] = argv["pairs"]
    caplog.clear()
    assert run(argv[name]) == 1
    assert _one_error_line(caplog) == f"{shown}: line 2: not valid UTF-8"
    assert not (tmp_path / "out").exists()


def test_every_integer_flag_that_sets_no_config_field_has_a_least_value():
    fields = {f.name for cls in (CoherenceConfig, ExtractorConfig, RLConfig, RewardWeights)
              for f in dataclasses.fields(cls)}
    unbounded = {action.option_strings[0] for _, action in _numeric_flags(build_parser())
                 if action.type is int and action.dest not in fields}
    # load_corpus checks --max-sentences, and names the field
    assert unbounded - {"--max-sentences"} == set(cli.AT_LEAST)


# every rate setting of every config: (config, field, the name its errors give)
RATE_FIELDS = [(CoherenceConfig, "lr", "lr"), (ExtractorConfig, "lr", "lr"),
               (RLConfig, "lam", "lambda"), (RLConfig, "alpha", "alpha"),
               (RewardWeights, "w1", "w1"), (RewardWeights, "w2", "w2"),
               (RewardWeights, "wl", "wl")]


def test_the_rate_table_names_every_float_field():
    floats = {(cls, f.name) for cls in (CoherenceConfig, ExtractorConfig, RLConfig, RewardWeights)
              for f in dataclasses.fields(cls) if isinstance(f.default, float)}
    assert floats == {(cls, field) for cls, field, _ in RATE_FIELDS}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0, True, "0.1"],
                         ids=repr)
@pytest.mark.parametrize("cls, field, name", RATE_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, field, _ in RATE_FIELDS])
def test_every_rate_setting_rejects_the_same_bad_values(cls, field, name, value):
    # every rate, `RewardWeights`' included, goes through `config.check_rate`
    sizes = {"vocab_size": 10} if cls in (CoherenceConfig, ExtractorConfig) else {}
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**sizes, **{field: value})


def test_lead3_rejects_a_beam_size_it_does_not_use(corpus, tmp_path, caplog):
    caplog.clear()
    assert run(["summarize", "--corpus", str(corpus), "--method", "lead3", "--beam", "0",
                "--out", str(tmp_path / "s.jsonl")]) == 1
    assert _one_error_line(caplog) == "--beam must be >= 1, got 0"
    assert not (tmp_path / "s.jsonl").exists()


# -- parser and packaging --------------------------------------------------------------


def test_flag_defaults_are_the_config_defaults():
    parser = build_parser()
    required = ["--corpus", "c", "--vocab", "v", "--out", "o"]
    args = parser.parse_args(["train-coherence"] + required)
    assert _config(CoherenceConfig, args, vocab_size=7) == CoherenceConfig(vocab_size=7)
    args = parser.parse_args(["pretrain"] + required)
    assert _config(ExtractorConfig, args, vocab_size=7) == ExtractorConfig(vocab_size=7)
    assert _config(RewardWeights, args) == RewardWeights()
    args = parser.parse_args(["train-rnes", "--pretrain-checkpoint", "p"] + required)
    weights = _config(RewardWeights, args)
    assert weights == RewardWeights()
    assert _config(RLConfig, args, weights=weights) == RLConfig()


# Every option each subcommand declares; a new flag is added here on purpose.
CLI_SURFACE = {
    "preprocess": {"--corpus", "--max-sentences", "--out", "--max-vocab"},
    "label": {"--corpus", "--max-sentences", "--out", "--cap", "--w1", "--w2", "--wl"},
    "train-coherence": {"--corpus", "--max-sentences", "--max-tokens", "--vocab", "--out",
                        "--epochs", "--seed", "--lr", "--batch-size", "--embed-dim", "--window",
                        "--filters", "--kernel", "--fc", "--triplets-per-doc"},
    "pretrain": {"--corpus", "--max-tokens", "--max-sentences", "--vocab", "--out", "--labels",
                 "--epochs", "--seed", "--lr", "--batch-size", "--embed-dim", "--kernels",
                 "--filters", "--gru-hidden", "--doc-dim", "--mlp", "--cap", "--w1", "--w2",
                 "--wl"},
    "train-rnes": {"--corpus", "--vocab", "--pretrain-checkpoint", "--coherence-checkpoint",
                   "--out", "--lambda", "--alpha", "--steps", "--seed", "--w1", "--w2", "--wl"},
    "summarize": {"--corpus", "--vocab", "--checkpoint", "--out", "--method", "--beam", "--cap"},
    "evaluate": {"--system", "--reference", "--per-doc"},
    "score-coherence": {"--checkpoint", "--vocab", "--pairs", "--out"},
}


def _options(parser) -> set[str]:
    return {option for action in parser._actions for option in action.option_strings
            if not isinstance(action, argparse._HelpAction)}


def test_cli_surface_is_the_table():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert _options(parser) == set()
    assert {name: _options(p) for name, p in subparsers.choices.items()} == CLI_SURFACE


@pytest.mark.parametrize("argv", [
    ["--verbose", "label", "--corpus", "c", "--out", "o"],
    ["preprocess", "--corpus", "c", "--out", "o", "--max-tokens", "10"],
    ["label", "--corpus", "c", "--out", "o", "--max-tokens", "10"],
    ["summarize", "--corpus", "c", "--vocab", "v", "--out", "o", "--max-tokens", "10"],
    ["summarize", "--corpus", "c", "--vocab", "v", "--out", "o", "--max-sentences", "10"],
])
def test_flags_that_changed_no_output_are_unknown(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point_runs_without_runtime_warnings():
    package_root = os.path.dirname(os.path.dirname(cohsum.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cohsum.cli", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: cohsum" in proc.stdout


def test_importing_corpus_loads_neither_hashlib_nor_the_autodiff_core():
    # preprocess, label and evaluate need neither; hashlib maps OpenSSL into the process
    package_root = os.path.dirname(os.path.dirname(cohsum.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cohsum.corpus; "
         "print(sorted({'hashlib', 'cohsum.numeric'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs the CLI on argv[1:] in this fresh interpreter, then prints its exit code
# and the cohsum and numpy modules it loaded, as JSON.
LOADED_MODULES = (
    "import json, sys\n"
    "from cohsum.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('cohsum', 'numpy'))\n"
    "print(json.dumps({'code': code, 'loaded': loaded}))\n"
)


def _modules_loaded_by(argv) -> set[str]:
    package_root = os.path.dirname(os.path.dirname(cohsum.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *map(str, argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return set(report["loaded"])


def test_text_stages_and_help_start_without_numpy(corpus, tmp_path):
    # preprocess, label, evaluate and Lead-3 read only tokens, so they never import numpy
    summaries = tmp_path / "lead3.jsonl"
    stages = {
        "help": ["--help"],
        "preprocess": ["preprocess", "--corpus", corpus, "--out", tmp_path / "vocab.txt"],
        "label": ["label", "--corpus", corpus, "--out", tmp_path / "labels.jsonl"],
        "summarize lead3": ["summarize", "--corpus", corpus, "--method", "lead3",
                            "--out", summaries],
        "evaluate": ["evaluate", "--system", summaries, "--reference", corpus, "--per-doc"],
    }
    for stage, argv in stages.items():  # evaluate reads the Lead-3 summaries
        loaded = _modules_loaded_by(argv)
        assert "cohsum.cli" in loaded, stage
        assert not {"numpy", "cohsum.numeric", "cohsum.decode"} & loaded, stage


def test_beam_decoding_loads_neither_the_coherence_scorer_nor_reinforce(corpus, tmp_path):
    ckpt = _pretrained(corpus, tmp_path)
    loaded = _modules_loaded_by(["summarize", "--corpus", corpus, "--vocab",
                                 tmp_path / "vocab.txt", "--checkpoint", ckpt,
                                 "--out", tmp_path / "beam.jsonl"])
    assert {"numpy", "cohsum.decode", "cohsum.extractor"} <= loaded
    assert not {"cohsum.coherence", "cohsum.reinforce"} & loaded


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_importing_the_cli_defaults_blas_to_one_thread_and_keeps_a_set_value(preset, expected):
    package_root = os.path.dirname(os.path.dirname(cohsum.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = package_root
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", "import os, cohsum.cli; print(os.environ['OPENBLAS_NUM_THREADS'], "
         "os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected, "1", "1"]


# -- the frozen scorer keeps only the embedding rows its corpus uses -----------------


def _rl_models(corpus, tmp_path, vocab):
    """Coherence and pretrained checkpoints at tiny geometry on `vocab`."""
    coh_ckpt, pre_ckpt = tmp_path / "coh.ckpt", tmp_path / "pre.ckpt"
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(coh_ckpt), "--seed", "3"] + TINY_COHERENCE) == 0
    assert run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(pre_ckpt), "--seed", "3", "--epochs", "1"] + TINY_EXTRACTOR) == 0
    return coh_ckpt, pre_ckpt


def _train_rnes(corpus, vocab, pre_ckpt, coh_ckpt, out, lam="0.01"):
    return run(["train-rnes", "--corpus", str(corpus), "--vocab", str(vocab),
                "--pretrain-checkpoint", str(pre_ckpt), "--coherence-checkpoint", str(coh_ckpt),
                "--out", str(out), "--lambda", lam, "--steps", "6", "--seed", "3"])


def test_train_rnes_writes_the_policy_of_the_full_table_scorer(corpus, tmp_path, larger_vocab,
                                                               monkeypatch):
    # the larger vocabulary holds words the corpus never uses, so rows are dropped
    coh_ckpt, pre_ckpt = _rl_models(corpus, tmp_path, larger_vocab)
    table_rows = {}

    def recording_load(path, rows=None, *, layout=None):
        params = load_checkpoint(path, rows=rows, layout=layout)
        table_rows[str(path)] = len(params["embed"].data)
        return params

    monkeypatch.setattr(cohsum.numeric, "load_checkpoint", recording_load)
    out = tmp_path / "rl.ckpt"
    assert _train_rnes(corpus, larger_vocab, pre_ckpt, coh_ckpt, out) == 0
    vocab = load_vocab(larger_vocab)
    # both tables keep PAD, UNK, BOUNDARY and the corpus words: the 4 unused words are dropped
    assert table_rows[str(pre_ckpt)] == table_rows[str(coh_ckpt)] == vocab.size - 4

    # the reference: rl.train_rnes in process, its scorer reading the whole table
    policy = load_checkpoint(pre_ckpt)
    ext_config = ExtractorConfig(**{k: tuple(v) if isinstance(v, list) else v
                                    for k, v in policy.meta["config"].items()})
    coh_params = load_checkpoint(coh_ckpt)
    coh_config = CoherenceConfig(**{k: tuple(v) if isinstance(v, list) else v
                                    for k, v in coh_params.meta["config"].items()})
    assert len(coh_params["embed"].data) == vocab.size
    docs = list(load_corpus(corpus, vocab=vocab, max_tokens=ext_config.max_tokens,
                            max_sentences=ext_config.max_sentences))
    scorer = partial(coherence_forward, params=coh_params, config=coh_config)
    train_rnes(docs, policy, scorer, RLConfig(lam=0.01, steps=6), ext_config,
               child_rng(3, "train-rnes"))
    reference = tmp_path / "reference.ckpt"
    save_checkpoint(policy, reference)
    assert out.read_bytes() == reference.read_bytes()
    # and the coherence reward did reach the policy
    assert _train_rnes(corpus, larger_vocab, pre_ckpt, coh_ckpt, tmp_path / "lam0.ckpt",
                       lam="0") == 0
    assert (tmp_path / "lam0.ckpt").read_bytes() != out.read_bytes()


@pytest.mark.parametrize("word", ["river", "ember"], ids=["kept row", "dropped row"])
def test_train_rnes_exits_1_on_a_nan_in_any_coherence_embedding_row(corpus, tmp_path,
                                                                    larger_vocab, caplog, word):
    coh_ckpt, pre_ckpt = _rl_models(corpus, tmp_path, larger_vocab)
    params = load_checkpoint(coh_ckpt)
    params["embed"].data[load_vocab(larger_vocab).token_to_id[word], 2] = np.nan
    save_checkpoint(params, coh_ckpt)
    caplog.clear()
    assert _train_rnes(corpus, larger_vocab, pre_ckpt, coh_ckpt, tmp_path / "rl.ckpt") == 1
    message = _one_error_line(caplog)
    assert str(coh_ckpt) in message and "'embed'" in message
    assert not (tmp_path / "rl.ckpt").exists()


# -- the policy keeps only those rows too, and writes the rest back from its source ------


def test_train_rnes_may_write_over_its_pretrain_checkpoint(corpus, tmp_path, larger_vocab):
    coh_ckpt, pre_ckpt = _rl_models(corpus, tmp_path, larger_vocab)
    elsewhere = tmp_path / "rl.ckpt"
    assert _train_rnes(corpus, larger_vocab, pre_ckpt, coh_ckpt, elsewhere) == 0
    # the rows not kept are read from the source before the new file replaces it
    assert _train_rnes(corpus, larger_vocab, pre_ckpt, coh_ckpt, pre_ckpt) == 0
    assert pre_ckpt.read_bytes() == elsewhere.read_bytes()
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


@pytest.mark.parametrize("word", ["river", "ember"], ids=["kept row", "dropped row"])
def test_train_rnes_exits_1_on_a_nan_in_any_policy_embedding_row(corpus, tmp_path, larger_vocab,
                                                                 caplog, word):
    coh_ckpt, pre_ckpt = _rl_models(corpus, tmp_path, larger_vocab)
    params = load_checkpoint(pre_ckpt)
    params["embed"].data[load_vocab(larger_vocab).token_to_id[word], 2] = np.nan
    save_checkpoint(params, pre_ckpt)
    caplog.clear()
    assert _train_rnes(corpus, larger_vocab, pre_ckpt, coh_ckpt, tmp_path / "rl.ckpt") == 1
    message = _one_error_line(caplog)
    assert str(pre_ckpt) in message and "'embed'" in message
    assert not (tmp_path / "rl.ckpt").exists()


def test_train_rnes_never_holds_the_whole_policy_table(corpus, tmp_path):
    vocab = tmp_path / "vocab.txt"  # the corpus words and 20000 it never uses
    vocab.write_text("\n".join(["<PAD>", "<UNK>", "<BOUNDARY>"] + WORDS
                               + [f"unused{i}" for i in range(20000)]) + "\n")
    pre_ckpt = tmp_path / "pre.ckpt"
    assert run(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(pre_ckpt),
                "--epochs", "0"] + TINY_EXTRACTOR + ["--embed-dim", "128"]) == 0
    table_bytes = load_checkpoint(pre_ckpt)["embed"].data.nbytes  # 20.5 MB
    out = tmp_path / "rl.ckpt"
    peak = traced_peak(lambda: run(["train-rnes", "--corpus", str(corpus), "--vocab", str(vocab),
                                    "--pretrain-checkpoint", str(pre_ckpt), "--out", str(out),
                                    "--lambda", "0", "--steps", "2"]))
    assert out.stat().st_size == pre_ckpt.stat().st_size
    # what is not the table (the vocabulary above all) peaks at about 3 MB
    assert peak < table_bytes / 4


@pytest.mark.parametrize("case, expected", [
    ("nan", "tensor 'out_b' holds a NaN or infinite value"),
    ("not utf-8", "name is not valid UTF-8"),
    ("repeated name", "tensor 'fc1_w' appears twice"),
])
def test_corrupt_coherence_checkpoint_error_names_the_file(corpus, tmp_path, caplog, case,
                                                           expected):
    vocab, ckpt = tmp_path / "vocab.txt", tmp_path / "coh.ckpt"
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(ckpt), "--epochs", "0"] + TINY_COHERENCE[:-2]) == 0
    if case == "nan":
        params = load_checkpoint(ckpt)
        params["out_b"].data[0] = np.nan
        save_checkpoint(params, ckpt)
    else:  # rename the tensor after fc1_w, keeping the name's length
        blob = ckpt.read_bytes()
        assert blob.count(b"fc1_b") == 1
        ckpt.write_bytes(blob.replace(b"fc1_b", b"\xffc1_b" if case == "not utf-8" else b"fc1_w"))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("river stone\tlight cloud\n")
    caplog.clear()
    assert run(["score-coherence", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--pairs", str(pairs), "--out", str(tmp_path / "s.txt")]) == 1
    message = _one_error_line(caplog)
    assert str(ckpt) in message and expected in message
    assert not (tmp_path / "s.txt").exists()


def test_train_rnes_rejects_a_coherence_model_of_a_smaller_vocabulary(corpus, tmp_path,
                                                                      larger_vocab, caplog):
    small = tmp_path / "vocab.txt"  # fewer rows than the corpus ids reach
    assert run(["preprocess", "--corpus", str(corpus), "--out", str(small),
                "--max-vocab", "6"]) == 0
    coh_ckpt = tmp_path / "coh.ckpt"
    assert run(["train-coherence", "--corpus", str(corpus), "--vocab", str(small),
                "--out", str(coh_ckpt), "--epochs", "0"] + TINY_COHERENCE[:-2]) == 0
    (tmp_path / "large").mkdir()
    _, pre_ckpt = _rl_models(corpus, tmp_path / "large", larger_vocab)
    caplog.clear()
    assert _train_rnes(corpus, larger_vocab, pre_ckpt, coh_ckpt, tmp_path / "rl.ckpt") == 1
    message = _one_error_line(caplog)  # the header says so before a tensor is read
    assert str(coh_ckpt) in message and "model has a 6-entry vocabulary" in message
    assert not (tmp_path / "rl.ckpt").exists()
    # a header that claims the larger vocabulary over the 6-row table: the layout check says
    # so from the table's shape, before any row is selected
    params = load_checkpoint(coh_ckpt)
    vocab = load_vocab(larger_vocab)
    params.meta["config"]["vocab_size"] = vocab.size
    params.meta["vocab"] = {"size": vocab.size, "sha256": vocab.fingerprint()}
    save_checkpoint(params, coh_ckpt)
    caplog.clear()
    assert _train_rnes(corpus, larger_vocab, pre_ckpt, coh_ckpt, tmp_path / "rl.ckpt") == 1
    message = _one_error_line(caplog)
    assert str(coh_ckpt) in message and (f"tensor 'embed' has shape (6, 6), the model in its "
                                         f"header needs ({vocab.size}, 6)") in message
    assert not (tmp_path / "rl.ckpt").exists()

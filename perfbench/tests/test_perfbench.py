"""Tests of the benchmark itself: generator, tracer arithmetic, tiny smoke runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import corpusgen  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from test_cli import TINY_COHERENCE, TINY_EXTRACTOR  # noqa: E402

TINY = bench.Geometry(coherence=tuple(TINY_COHERENCE), extractor=tuple(TINY_EXTRACTOR))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- generator -------------------------------------------------------------------


def _write_all(directory: Path, seed: int) -> dict[str, bytes]:
    directory.mkdir()
    records = corpusgen.generate_documents(seed, "train", 5, 28, 32)
    corpusgen.write_jsonl(records, directory / "c.jsonl")
    corpusgen.write_pairs(corpusgen.heldout_pairs(seed, records, 7), directory / "p.tsv")
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    first = _write_all(tmp_path / "a", 11)
    assert first == _write_all(tmp_path / "b", 11)
    assert first["c.jsonl"] != _write_all(tmp_path / "c", 12)["c.jsonl"]


def test_documents_follow_the_planted_layout():
    from cohsum.corpus import make_document

    records = corpusgen.generate_documents(5, "heldout", 6, 60, 80)
    assert sorted(len(r["sentences"]) for r in records) == [60, 64, 68, 72, 76, 80]
    for record in records:
        doc = make_document(record["id"], record["sentences"], record["highlights"])
        assert doc.n_sentences == len(record["sentences"])
        assert all(corpusgen.MIN_TOKENS <= s.length <= corpusgen.MAX_TOKENS
                   for s in doc.sentences)
        assert len(doc.highlights) in (3, 4)
        sources = [set(s.tokens) for s in doc.sentences]
        # each highlight is a compressed copy of some source sentence
        assert all(any(set(h.tokens) <= src for src in sources) for h in doc.highlights)
        # entity carry-over: consecutive sentences share a token more often than not
        shared = sum(bool(a & b) for a, b in zip(sources, sources[1:]))
        assert shared == len(sources) - 1


def test_vocabulary_file_loads_with_150k_entries(tmp_path):
    from cohsum.corpus import load_vocab

    corpusgen.write_vocab(tmp_path / "v.txt")
    vocab = load_vocab(tmp_path / "v.txt")
    assert vocab.size == 150_000
    record = corpusgen.generate_documents(1, "train", 1, 30, 30)[0]
    tokens = " ".join(record["sentences"]).split()
    assert all(vocab.lookup(t) > 2 for t in tokens)


# -- tracer ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ["parent", 0.0, 10.0, -1, "s"],
        ["child", 1.0, 3.0, 0, "s"],
        ["child", 2.0, 4.0, 0, "s"],  # overlaps the first child
        ["grandchild", 2.5, 3.5, 2, "s"],  # counts against its parent only
        ["child", 9.0, 12.0, 0, "s"],  # runs past the parent's end
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 3.0])
    table = tracer.summarize_spans(spans)
    assert table["child"] == {"calls": 3, "self_s": pytest.approx(6.0)}


def test_tracer_wraps_every_binding_restores_and_reports_missing(tmp_path):
    import cohsum.cli as cli
    import cohsum.corpus as cp
    import cohsum.numeric as nm
    import cohsum.reinforce as rl
    import cohsum.rouge as rouge

    originals = (nm.load_checkpoint, cli.load_checkpoint, rouge.combined_rouge,
                 cp.combined_rouge, rl.combined_rouge, cp.load_corpus)
    corpus = tmp_path / "c.jsonl"
    corpusgen.write_jsonl(corpusgen.generate_documents(2, "train", 3, 5, 5), corpus)
    t = tracer.Tracer("unit")
    t.install(tracer.TARGETS + (("rouge", "no_such_function"),))
    try:
        assert cli.load_checkpoint is nm.load_checkpoint is not originals[0]
        assert cp.combined_rouge is rl.combined_rouge is rouge.combined_rouge
        assert rouge.combined_rouge is not originals[2]
        docs = list(cp.load_corpus(corpus))
        cp.combined_rouge(docs[0].sentences[0].tokens, docs[0].highlight_tokens())
    finally:
        t.uninstall()
    assert (nm.load_checkpoint, cli.load_checkpoint, rouge.combined_rouge,
            cp.combined_rouge, rl.combined_rouge, cp.load_corpus) == originals
    assert t.missing == ["rouge.no_such_function"]
    table = tracer.summarize_spans(t.spans)
    assert table["corpus.load_corpus"]["calls"] == 4  # three documents, then the end
    assert table["rouge.combined_rouge"]["calls"] == 1
    assert table["rouge.lcs_length"]["calls"] == 1
    assert t.counts["rouge.lcs_cells"] == len(docs[0].sentences[0].tokens) * len(
        docs[0].highlight_tokens())


def test_benchmark_file_names_only_metrics_the_run_produces():
    assert {m["name"] for m in SPEC["per_layer"]} <= bench.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(bench.REPORTED)


# -- smoke runs at the tests' tiny geometry --------------------------------------


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_tiny_traced_run_is_correct_and_attributes_coherence_calls(workload, capsys):
    result = bench.run(workload, seed=3, seconds=0.0, trace=True, root=ROOT, geometry=TINY)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    coherence_calls = metrics["total.coherence.coherence_forward.calls"]["value"]
    if workload == "rl-coherence":
        assert metrics["rl.coherence.coherence_forward.calls"]["value"] > 0
        assert coherence_calls == metrics["rl.coherence.coherence_forward.calls"]["value"]
    else:
        assert coherence_calls == 0
    report = capsys.readouterr().out
    assert "failed_frac = 0 fraction" in report
    assert "trace target missing" not in report


def test_tiny_plain_run_reports_every_end_to_end_metric(capsys):
    result = bench.run("decode-long", seed=4, seconds=0.0, trace=False, root=ROOT, geometry=TINY)
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = capsys.readouterr().out
    for name, unit in bench.REPORTED.items():
        assert f"{name} = " in report


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "supervised", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

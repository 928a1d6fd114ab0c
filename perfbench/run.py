"""Benchmark of the `cohsum` CLI: seeded inputs, the real stages, output checks.

    python3 perfbench/run.py --workload supervised --seed 1 --seconds 30 --trace 0

Each workload generates its inputs from --seed, sets up (several times; the
median is `setup_s`), then runs its CLI stages one after another, each in its
own process as a user runs them, repeating the whole pipeline for about
--seconds. Every stage must exit 0, every output is checked, and repeats must
produce byte-identical artifacts. Quality numbers are computed outside the
timed region.

With --trace 0 the last line carries the end-to-end metrics of BENCHMARK.json.
With --trace 1 repeats alternate between plain and traced stage processes
(perfbench/tracer.py); the last line carries the per-layer metrics, including
the tracing overhead. Earlier lines report the environment and every metric
the workload measures, by name and unit.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned for the benchmark and every stage; at most nproc
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import corpusgen  # noqa: E402
import tracer  # noqa: E402

_CALIBRATION_MATRIX = np.random.default_rng(0).random((300, 300))
_CALIBRATION_STREAM = np.random.default_rng(0).random(1 << 20)  # 8 MB, past the caches

SETUP_REPEATS = 3
MIN_REPEATS = 2  # two pipelines at least, so determinism is always checked
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
# On a machine whose cores are shared with other tenants (measured on a 2-vCPU
# VM) CPU speed swings by up to about 1.5x, in phases from under a second to
# about a minute, which moves whole runs. Timed spans are therefore also
# reported in calibrated seconds: the time a span would take were the
# calibration kernel to take CALIBRATION_REF_S, its CPU time in a fast phase.
CALIBRATION_REF_S = 0.005
CALIBRATION_PERIOD_S = 0.2
WORK_DIR = ".perfbench_work"
CONSOLE_SCRIPT = "from cohsum.cli import main; main()"  # what the `cohsum` command runs

STAGES = ("label", "coh_train", "pretrain", "rl", "summarize", "evaluate")

# Every metric a run can report, with its unit; per-stage throughputs name
# the stage that produces them.
REPORTED = {
    "setup_s": "s",
    "raw_setup_s": "s",
    "wall_s": "s",
    "raw_wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
    "label_docs_per_s": "1/s",
    "coh_train_triplets_per_s": "1/s",
    "pretrain_docs_per_s": "1/s",
    "rl_steps_per_s": "1/s",
    "summarize_docs_per_s": "1/s",
    "coh_pairwise_acc": "fraction",
    "rouge2_f1": "fraction",
    "rouge_l_f1": "fraction",
    "empty_summary_frac": "fraction",
}
THROUGHPUT = {
    "label": "label_docs_per_s",
    "coh_train": "coh_train_triplets_per_s",
    "pretrain": "pretrain_docs_per_s",
    "rl": "rl_steps_per_s",
    "summarize": "summarize_docs_per_s",
}

# Input sizes. Documents of the training workloads have about 30 sentences,
# decode-long's held-out documents 60-80 (the CLI truncates at 80).
SUPERVISED_DOCS, TRAIN_SENTENCES = 4, (28, 32)
TRIPLETS_PER_DOC = 2
HELDOUT_DOCS, HELDOUT_TRIPLETS = 8, 24
RL_DOCS, RL_STEPS, RL_SENTENCES = 4, 5, (30, 30)  # equal lengths: which doc a step draws costs the same
DECODE_TRAIN_DOCS, DECODE_DOCS, LONG_SENTENCES = 2, 4, (60, 80)
SUMMARY_CAP = 4  # the CLI's default --cap for summarize
MAX_SENTENCES = 80  # the CLI's default --max-sentences, which every stage here uses


@dataclass(frozen=True)
class Geometry:
    """Extra flags for the model-building stages; empty means the CLI's paper defaults."""

    coherence: tuple[str, ...] = ()
    extractor: tuple[str, ...] = ()


PAPER = Geometry()


@dataclass(frozen=True)
class Stage:
    id: str
    argv: tuple[str, ...]
    units: float  # documents, triplets or steps the stage processes
    stdout: str | None = None  # file in the repeat directory that receives stdout


@dataclass
class StageRun:
    wall_s: float
    rss_mb: float
    code: int
    units: float = 0.0
    calibrated_s: float = 0.0
    spans: dict | None = None


def calibration_kernel_s() -> float:
    """CPU seconds of one run of a fixed Python-loop, matmul and memory-stream kernel."""
    start = time.thread_time()
    total = 0
    for i in range(100_000):
        total += i
    _CALIBRATION_MATRIX @ _CALIBRATION_MATRIX
    _CALIBRATION_STREAM.sum()
    return time.thread_time() - start


class Calibration:
    """Times the calibration kernel around and during a `with` block.

    The kernel runs three times before, every CALIBRATION_PERIOD_S during
    (from a thread on the same CPU, in its own CPU time, so the stage's share
    of the CPU does not count) and three times after. Raw seconds times
    `factor` are calibrated seconds, which cancels most of the machine's
    speed swings.
    """

    def __enter__(self) -> "Calibration":
        self.samples = [calibration_kernel_s() for _ in range(3)]
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(CALIBRATION_PERIOD_S):
            self.samples.append(calibration_kernel_s())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._sampler.join()
        self.samples.extend(calibration_kernel_s() for _ in range(3))
        self.factor = CALIBRATION_REF_S / statistics.fmean(self.samples)


class Bench:
    """Runs CLI processes for one benchmark invocation and counts checks."""

    def __init__(self, root: Path, geometry: Geometry, seed: int, deadline: float):
        self.root = root
        self.geometry = geometry
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def cli(self, stage: str, argv, cwd: Path, stdout: Path | None = None,
            spans: Path | None = None) -> StageRun:
        """One stage in its own process; wall time and peak RSS from wait4."""
        if spans is None:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), "--stage", stage,
                   "--out", str(spans), "--", *argv]
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        with open(cwd / f"{stage}.log", "ab") as log:
            try:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=log)
                timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if out is not subprocess.DEVNULL:
                    out.close()
        run = StageRun(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode)
        if spans is not None and spans.exists():
            run.spans = json.loads(spans.read_text(encoding="utf-8"))
        self.check(run.code == 0, f"{stage}: exit code {run.code} (see {cwd / (stage + '.log')})")
        return run


# -- inputs ----------------------------------------------------------------------


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_split(bench: Bench, path: Path, split: str, n_docs: int, sizes) -> list[dict]:
    records = corpusgen.generate_documents(bench.seed, split, n_docs, *sizes)
    corpusgen.write_jsonl(records, path)
    return records


def setup_supervised(bench: Bench, d: Path) -> None:
    write_split(bench, d / "corpus.jsonl", "train", SUPERVISED_DOCS, TRAIN_SENTENCES)
    heldout = corpusgen.generate_documents(bench.seed, "heldout", HELDOUT_DOCS, *TRAIN_SENTENCES)
    corpusgen.write_pairs(corpusgen.heldout_pairs(bench.seed, heldout, HELDOUT_TRIPLETS),
                          d / "pairs.tsv")
    bench.cli("preprocess", ["preprocess", "--corpus", d / "corpus.jsonl",
                             "--out", d / "vocab.txt"], d)


def setup_rl(bench: Bench, d: Path) -> None:
    records = write_split(bench, d / "corpus.jsonl", "train", RL_DOCS, RL_SENTENCES)
    corpusgen.write_jsonl(records[:1], d / "short.jsonl")
    corpusgen.write_vocab(d / "vocab.txt")
    common = ["--corpus", d / "short.jsonl", "--vocab", d / "vocab.txt"]
    bench.cli("setup_coherence", ["train-coherence", *common, *bench.geometry.coherence,
                                  "--out", d / "coherence.ckpt", "--epochs", "1",
                                  "--triplets-per-doc", "1"], d)
    bench.cli("setup_policy", ["pretrain", *common, *bench.geometry.extractor,
                               "--out", d / "policy0.ckpt", "--epochs", "0"], d)


def setup_decode(bench: Bench, d: Path) -> None:
    write_split(bench, d / "train.jsonl", "train", DECODE_TRAIN_DOCS, TRAIN_SENTENCES)
    write_split(bench, d / "heldout.jsonl", "heldout", DECODE_DOCS, LONG_SENTENCES)
    bench.cli("preprocess", ["preprocess", "--corpus", d / "train.jsonl",
                             "--out", d / "vocab.txt"], d)
    bench.cli("setup_pretrain", ["pretrain", "--corpus", d / "train.jsonl",
                                 "--vocab", d / "vocab.txt",
                                 *bench.geometry.extractor,
                                 "--out", d / "extractor.ckpt", "--epochs", "1"], d)


# -- stages ----------------------------------------------------------------------


def stages_supervised(bench: Bench, s: Path, r: Path) -> list[Stage]:
    corpus, vocab = s / "corpus.jsonl", s / "vocab.txt"
    return [
        Stage("label", ("label", "--corpus", corpus, "--out", r / "labels.jsonl"),
              SUPERVISED_DOCS),
        Stage("coh_train", ("train-coherence", "--corpus", corpus, "--vocab", vocab,
                            *bench.geometry.coherence,
                            "--out", r / "coherence.ckpt", "--epochs", "1",
                            "--triplets-per-doc", str(TRIPLETS_PER_DOC)),
              SUPERVISED_DOCS * TRIPLETS_PER_DOC),
        Stage("pretrain", ("pretrain", "--corpus", corpus, "--vocab", vocab,
                           *bench.geometry.extractor,
                           "--labels", r / "labels.jsonl", "--out", r / "extractor.ckpt",
                           "--epochs", "1"),
              SUPERVISED_DOCS),
    ]


def stages_rl(bench: Bench, s: Path, r: Path) -> list[Stage]:
    return [
        Stage("rl", ("train-rnes", "--corpus", s / "corpus.jsonl", "--vocab", s / "vocab.txt",
                     "--pretrain-checkpoint", s / "policy0.ckpt",
                     "--coherence-checkpoint", s / "coherence.ckpt",
                     "--out", r / "policy.ckpt", "--steps", str(RL_STEPS)),
              RL_STEPS),
    ]


def stages_decode(bench: Bench, s: Path, r: Path) -> list[Stage]:
    return [
        Stage("summarize", ("summarize", "--method", "beam", "--corpus", s / "heldout.jsonl",
                            "--vocab", s / "vocab.txt", "--checkpoint", s / "extractor.ckpt",
                            "--out", r / "summaries.jsonl"),
              DECODE_DOCS),
        Stage("evaluate", ("evaluate", "--system", r / "summaries.jsonl",
                           "--reference", s / "heldout.jsonl"),
              DECODE_DOCS, stdout="evaluate.tsv"),
    ]


# -- output checks (outside the timed region) ------------------------------------


def check_checkpoint(bench: Bench, path: Path) -> None:
    from cohsum.numeric import CheckpointError, load_checkpoint

    try:
        params = load_checkpoint(path)
    except (CheckpointError, OSError, ValueError) as exc:
        bench.check(False, f"{path.name}: does not load ({exc})")
        return
    finite = all(bool(np.isfinite(p.data).all()) for _, p in params.items())
    bench.check(len(params) > 0 and finite, f"{path.name}: empty or non-finite parameters")


def read_jsonl(bench: Bench, path: Path) -> list[dict] | None:
    try:
        return read_records(path)
    except (OSError, json.JSONDecodeError) as exc:
        bench.check(False, f"{path.name}: unreadable ({exc})")
        return None


def sentence_counts(records: list[dict]) -> list[int]:
    return [min(len(r["sentences"]), MAX_SENTENCES) for r in records]


def check_supervised(bench: Bench, s: Path, r: Path) -> None:
    corpus = read_records(s / "corpus.jsonl")
    labels = read_jsonl(bench, r / "labels.jsonl")
    if labels is not None:
        ok = [x.get("id") for x in labels] == [d["id"] for d in corpus] and all(
            len(x["labels"]) == n and set(x["labels"]) <= {0, 1}
            for x, n in zip(labels, sentence_counts(corpus))
        )
        bench.check(ok, "labels: not one 0/1 vector of the right length per document")
    check_checkpoint(bench, r / "coherence.ckpt")
    check_checkpoint(bench, r / "extractor.ckpt")


def check_rl(bench: Bench, s: Path, r: Path) -> None:
    check_checkpoint(bench, r / "policy.ckpt")


def parse_mean_row(path: Path) -> list[float] | None:
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        if fields[0] == "MEAN":
            try:
                return [float(v) for v in fields[1:]]
            except ValueError:
                return None
    return None


def check_decode(bench: Bench, s: Path, r: Path) -> None:
    corpus = read_records(s / "heldout.jsonl")
    summaries = read_jsonl(bench, r / "summaries.jsonl")
    if summaries is not None:
        ok = [x.get("id") for x in summaries] == [d["id"] for d in corpus]
        for x, n in zip(summaries, sentence_counts(corpus)):
            chosen = x.get("selected_indices", [])
            ok = ok and len(chosen) <= SUMMARY_CAP and len(x.get("summary", [])) == len(chosen)
            ok = ok and all(0 <= i < n for i in chosen) and chosen == sorted(set(chosen))
        bench.check(ok, "summaries: not one in-range record of at most the cap per document")
    mean = parse_mean_row(r / "evaluate.tsv")
    bench.check(mean is not None and len(mean) == 9 and all(0.0 <= v <= 1.0 for v in mean),
                "evaluate: no MEAN row of 9 values in [0, 1]")


# -- quality numbers (outside the timed region) ----------------------------------


def quality_supervised(bench: Bench, s: Path, r: Path) -> dict[str, float]:
    """Held-out pairwise accuracy: the true successor must score above the distractor."""
    out = r / "pair_scores.txt"
    bench.cli("score_pairs", ["score-coherence", "--checkpoint", r / "coherence.ckpt",
                              "--vocab", s / "vocab.txt", "--pairs", s / "pairs.tsv",
                              "--out", out], r)
    try:
        scores = [float(v) for v in out.read_text(encoding="utf-8").split()]
    except (OSError, ValueError):
        scores = []
    if not bench.check(len(scores) == 2 * HELDOUT_TRIPLETS and
                       all(-1.0 < v < 1.0 for v in scores), "score-coherence: bad scores"):
        return {}
    wins = sum(pos > neg for pos, neg in zip(scores[::2], scores[1::2]))
    return {"coh_pairwise_acc": wins / HELDOUT_TRIPLETS}


def quality_decode(bench: Bench, s: Path, r: Path) -> dict[str, float]:
    mean = parse_mean_row(r / "evaluate.tsv")
    summaries = read_records(r / "summaries.jsonl")
    out = {"empty_summary_frac": sum(not x["selected_indices"] for x in summaries) / len(summaries)}
    if mean is not None and len(mean) == 9:
        out["rouge2_f1"], out["rouge_l_f1"] = mean[5], mean[8]
    return out


def quality_none(bench: Bench, s: Path, r: Path) -> dict[str, float]:
    return {}


@dataclass(frozen=True)
class Workload:
    why: str
    setup: Callable[[Bench, Path], None]
    stages: Callable[[Bench, Path, Path], list[Stage]]
    check: Callable[[Bench, Path, Path], None]
    quality: Callable[[Bench, Path, Path], dict[str, float]]


WORKLOADS = {
    "supervised": Workload(
        "training from labels: oracle/ROUGE, coherence and extractor forward+backward",
        setup_supervised, stages_supervised, check_supervised, quality_supervised),
    "rl-coherence": Workload(
        "REINFORCE from an untrained policy at a 150k vocabulary with the coherence reward",
        setup_rl, stages_rl, check_rl, quality_none),
    "decode-long": Workload(
        "beam decoding and evaluation of 60-80 sentence documents; no training",
        setup_decode, stages_decode, check_decode, quality_decode),
}


# -- measurement -----------------------------------------------------------------


def file_digests(directory: Path, suffixes=(".ckpt", ".json", ".jsonl", ".tsv", ".txt")) -> dict:
    out = {}
    for path in sorted(directory.iterdir()):
        if path.is_file() and path.suffix in suffixes and not path.name.endswith("spans.json"):
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            out[path.name] = digest.hexdigest()
    return out


@dataclass
class Repeat:
    traced: bool
    runs: dict[str, StageRun] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs.values())

    @property
    def calibrated_s(self) -> float:
        return sum(run.calibrated_s for run in self.runs.values())


def run_repeat(bench: Bench, workload: Workload, s: Path, r: Path, traced: bool) -> Repeat:
    r.mkdir(parents=True)
    rep = Repeat(traced)
    for stage in workload.stages(bench, s, r):
        with Calibration() as calibration:
            run = bench.cli(stage.id, stage.argv, r,
                            stdout=r / stage.stdout if stage.stdout else None,
                            spans=r / f"{stage.id}.spans.json" if traced else None)
        run.units, run.calibrated_s = stage.units, run.wall_s * calibration.factor
        rep.runs[stage.id] = run
        if run.code != 0:
            break
    return rep


def set_up(bench: Bench, workload: Workload, work: Path,
           repeats: int) -> tuple[Path, list[tuple[float, float]]]:
    """Set up `repeats` times, timed (raw, calibrated); keep the first copy, check the others."""
    times, first = [], None
    for i in range(repeats):
        d = work / f"setup{i}"
        d.mkdir(parents=True)
        with Calibration() as calibration:
            start = time.perf_counter()
            workload.setup(bench, d)
            raw = time.perf_counter() - start
        times.append((raw, raw * calibration.factor))
        digests = file_digests(d)
        if first is None:
            first = (d, digests)
        else:
            bench.check(digests == first[1], f"setup {i}: artifacts differ from setup 0")
            shutil.rmtree(d)
    return first[0], times


def measure(bench: Bench, workload: Workload, work: Path, seconds: float, trace: bool):
    s, setup_times = set_up(bench, workload, work, 1 if trace else SETUP_REPEATS)
    repeats: list[Repeat] = []
    reference = None
    start = time.perf_counter()
    while bench.failed == 0:
        r = work / f"repeat{len(repeats)}"
        t0 = time.perf_counter()
        rep = run_repeat(bench, workload, s, r, traced=trace and len(repeats) % 2 == 1)
        if any(run.code != 0 for run in rep.runs.values()):
            break
        repeats.append(rep)
        digests = file_digests(r)
        if reference is None:
            reference = (r, digests)
            workload.check(bench, s, r)
        else:
            bench.check(digests == reference[1],
                        f"repeat {len(repeats) - 1}: artifacts differ from repeat 0")
            shutil.rmtree(r)
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(repeats) >= MIN_REPEATS and (elapsed + last > seconds or
                                            time.monotonic() + last > bench.deadline):
            break
    quality = workload.quality(bench, s, reference[0]) if reference and bench.failed == 0 else {}
    return setup_times, repeats, quality


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(setup_times, repeats: list[Repeat], quality: dict, bench: Bench) -> dict:
    plain = [rep for rep in repeats if not rep.traced]
    out = {
        "setup_s": median(c for _, c in setup_times),
        "raw_setup_s": median(r for r, _ in setup_times),
        "wall_s": median(rep.calibrated_s for rep in plain),
        "raw_wall_s": median(rep.wall_s for rep in plain),
        "peak_rss_mb": median(max(run.rss_mb for run in rep.runs.values()) for rep in plain),
        "failed_frac": bench.failed / max(bench.attempted, 1),
    }
    for stage, name in THROUGHPUT.items():
        if plain and stage in plain[0].runs:
            out[name] = median(rep.runs[stage].units / rep.runs[stage].calibrated_s
                               for rep in plain)
    out.update(quality)
    return out


def per_layer(repeats: list[Repeat]) -> tuple[dict, list[str]]:
    """Per-layer values from the traced repeats (medians), plus missing targets."""
    traced = [rep for rep in repeats if rep.traced]
    samples: dict[str, list[float]] = {}
    missing: set[str] = set()
    for rep in traced:
        values = {"total.coherence.coherence_forward.calls": 0.0}
        for stage, run in rep.runs.items():
            if run.spans is None:
                missing.add(f"{stage}: no spans written")
                continue
            missing.update(run.spans["missing"])
            table = tracer.summarize_spans(run.spans["spans"])
            for name, entry in table.items():
                values[f"{stage}.{name}.calls"] = entry["calls"]
                values[f"{stage}.{name}.self_s"] = entry["self_s"]
            counts = run.spans["counts"]
            for key in ("rouge.lcs_cells", "numeric.checkpoint_bytes"):
                values[f"{stage}.{key}"] = counts.get(key, 0.0)
            steps = table.get("reinforce.sample_episode", {}).get("calls", 0)
            values[f"{stage}.reinforce.selected_per_step"] = (
                counts.get("reinforce.selected", 0.0) / steps if steps else 0.0)
            beams = table.get("decode.beam_search", {}).get("calls", 0)
            values[f"{stage}.decode.selected_per_doc"] = (
                counts.get("decode.selected", 0.0) / beams if beams else 0.0)
            in_process = sum(end - start for name, start, end, *_ in run.spans["spans"]
                             if name == "cli.run")
            values[f"{stage}.cli.self_s"] = table.get("cli.run", {}).get("self_s", 0.0)
            values[f"{stage}.wall_s"] = run.wall_s
            values[f"{stage}.startup_s"] = run.wall_s - in_process
            values["total.coherence.coherence_forward.calls"] += (
                table.get("coherence.coherence_forward", {}).get("calls", 0))
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    out = {key: median(vals) for key, vals in samples.items()}
    plain_wall = median(rep.calibrated_s for rep in repeats if not rep.traced)
    traced_wall = median(rep.calibrated_s for rep in traced)
    out["tracing_overhead_frac"] = (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0
    return out, sorted(missing)


def per_layer_names() -> set[str]:
    """Every per-layer metric name the traced run can produce."""
    names = {"tracing_overhead_frac", "total.coherence.coherence_forward.calls"}
    for stage in STAGES:
        for short, func in tracer.TARGETS:
            names.update({f"{stage}.{short}.{func}.calls", f"{stage}.{short}.{func}.self_s"})
        names.update(f"{stage}.{key}" for key in (
            "rouge.lcs_cells", "numeric.checkpoint_bytes", "reinforce.selected_per_step",
            "decode.selected_per_doc", "cli.self_s", "wall_s", "startup_s"))
    return names


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def benchmark_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
        geometry: Geometry = PAPER) -> dict:
    """One benchmark invocation; returns the result object and prints the report."""
    spec = benchmark_spec(root)
    workload = WORKLOADS[workload_name]
    work = root / WORK_DIR / f"{workload_name}-{seed}-{'trace' if trace else 'plain'}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, geometry, seed, time.monotonic() + DEADLINE_S)
    # One CPU for this process and every stage it starts (they inherit it), so
    # the calibration kernel runs where the stages run.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        setup_times, repeats, quality = measure(bench, workload, work, seconds, trace)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work, ignore_errors=True)
    measured = end_to_end(setup_times, repeats, quality, bench)
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {workload_name} seed {seed}: {workload.why}")
    print(f"# repeats {len(repeats)} ({sum(r.traced for r in repeats)} traced), "
          f"set-ups {len(setup_times)}, checks {bench.attempted}, failed {bench.failed}")
    print("# repeat wall s, raw/calibrated: " + " ".join(
        f"{rep.wall_s:.3f}/{rep.calibrated_s:.3f}{' traced' if rep.traced else ''}"
        for rep in repeats))
    for problem in bench.problems:
        print(f"# FAILED {problem}")
    for name, unit in REPORTED.items():
        value = measured.get(name)
        shown = "n/a (not measured by this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"{name} = {shown}")
    if trace:
        layers, missing = per_layer(repeats)
        for name in missing:
            print(f"# trace target missing: {name}")
        print(f"# tracing overhead {layers['tracing_overhead_frac']:+.1%} of untraced wall time")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {
        "correct": bench.failed == 0 and bool(repeats),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cohsum" / "cli.py").is_file():
        print(f"perfbench: no cohsum sources under {root / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    return 0


if __name__ == "__main__":
    sys.exit(main())

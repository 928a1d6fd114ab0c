"""Outside-in span tracer for one `cohsum` CLI stage.

The tracer replaces public functions of the `cohsum` modules with wrappers
that record spans, at every module that binds them (`from .x import f`
copies a binding, so each copy is replaced). Spans stay in memory and are
written out when the stage ends. Nothing inside the program changes, and the
originals are restored afterwards.

Run one stage under the tracer:

    python3 perfbench/tracer.py --stage label --out spans.json -- label --corpus c.jsonl --out l.jsonl
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "cohsum"
MODULES = ("corpus", "rouge", "numeric", "coherence", "extractor", "reinforce", "decode", "cli")

# (defining module, function) pairs wrapped in every module that binds them.
TARGETS = (
    ("cli", "run"),
    ("corpus", "load_corpus"),
    ("corpus", "generate_oracle_labels"),
    ("rouge", "rouge_n"),
    ("rouge", "rouge_l"),
    ("rouge", "lcs_length"),
    ("rouge", "combined_rouge"),
    ("numeric", "gradients"),
    ("numeric", "sgd_step"),
    ("numeric", "save_checkpoint"),
    ("numeric", "load_checkpoint"),
    ("coherence", "coherence_forward"),
    ("coherence", "triplet_loss"),
    ("coherence", "train_coherence"),
    ("extractor", "encode_document"),
    ("extractor", "pretrain_loss"),
    ("extractor", "pretrain"),
    ("reinforce", "sample_episode"),
    ("reinforce", "immediate_rewards"),
    ("reinforce", "final_reward"),
    ("reinforce", "policy_gradient_step"),
    ("reinforce", "train_rnes"),
    ("decode", "beam_search"),
)

GENERATORS = {"corpus.load_corpus"}  # timed per `next`, not per call


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_lcs_cells(args, result) -> dict:
    return {"rouge.lcs_cells": len(args[0]) * len(args[1])}


def _count_checkpoint_bytes(args, result) -> dict:
    return {"numeric.checkpoint_bytes": _file_size(args[-1] if args else None)}


def _count_episode(args, result) -> dict:
    return {"reinforce.selected": sum(result.decisions)}


def _count_beam(args, result) -> dict:
    return {"decode.selected": sum(result)}


# Named counts taken from a wrapped call's arguments and result.
COUNTERS = {
    "rouge.lcs_length": _count_lcs_cells,
    "numeric.save_checkpoint": _count_checkpoint_bytes,
    "numeric.load_checkpoint": _count_checkpoint_bytes,
    "reinforce.sample_episode": _count_episode,
    "decode.beam_search": _count_beam,
}


class Tracer:
    """Spans as (name, start, end, parent index, stage id) plus named counts."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.stage])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap_function(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                try:
                    counted = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    counted = {}
                    if f"{name} count" not in self.missing:
                        self.missing.append(f"{name} count")
                for key, value in counted.items():
                    self.counts[key] += value
            return result

        return functools.wraps(fn)(traced)

    def _wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            try:
                while True:
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        return functools.wraps(fn)(traced)

    def install(self, targets=TARGETS) -> None:
        """Wrap each target wherever a `cohsum` module binds it; note missing ones."""
        modules = [importlib.import_module(PACKAGE)]
        for short in MODULES:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{short}"))
            except ImportError:
                self.missing.append(short)
        for short, func in targets:
            name = f"{short}.{func}"
            home = sys.modules.get(f"{PACKAGE}.{short}")
            original = getattr(home, func, None)
            if not callable(original):
                self.missing.append(name)
                continue
            make = self._wrap_generator if name in GENERATORS else self._wrap_function
            wrapper = make(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original and not attr.startswith("_"):
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        record = {
            "stage": self.stage,
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize_spans(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of spans and summed self time."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = table[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
    return dict(table)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", required=True, help="stage id recorded in every span")
    parser.add_argument("--out", required=True, help="where to write spans and counts")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the cohsum arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.stage)
    sys.argv = [PACKAGE, *cli_args]
    try:
        with tracer:
            # the console-script entry point, looked up after wrapping
            entry = getattr(sys.modules[f"{PACKAGE}.cli"], "main")
            entry()
        return 0
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

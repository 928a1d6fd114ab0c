"""SHA-256 of every artifact the benchmark workloads write, for checking that a change keeps the bits.

    python3 scripts/artifact_sha256.py ROOT OUT.json

Loads ROOT/perfbench/run.py and, for each workload at seeds 1 and 2, runs
its `set_up` once and one untraced `run_repeat` against the sources under
ROOT/src, in a temporary directory. OUT.json maps
"<workload>/seed<k>/<setup|repeat>/<file>" to the file's SHA-256, as
`file_digests` computes it. Two checkouts keep the same bits when their
outputs are equal:

    python3 scripts/artifact_sha256.py parent parent.json
    python3 scripts/artifact_sha256.py . change.json
    diff parent.json change.json

Exits 1, naming the stage, if a stage of a workload fails.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

SEEDS = (1, 2)


def load_run(root: Path):
    """ROOT/perfbench/run.py as a module (it pins the BLAS threads every stage inherits)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def artifact_digests(root: Path) -> tuple[dict[str, str], list[str]]:
    """(file key -> SHA-256, problems) over every workload and seed."""
    run = load_run(root)
    digests: dict[str, str] = {}
    problems: list[str] = []
    for name, workload in sorted(run.WORKLOADS.items()):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="artifact_sha256-") as tmp:
                work = Path(tmp)
                bench = run.Bench(root, run.PAPER, seed, time.monotonic() + run.DEADLINE_S)
                s, _ = run.set_up(bench, workload, work, 1)
                run.run_repeat(bench, workload, s, work / "repeat", traced=False)
                problems += [f"{name} seed {seed}: {p}" for p in bench.problems]
                for part, directory in (("setup", s), ("repeat", work / "repeat")):
                    for file, digest in run.file_digests(directory).items():
                        digests[f"{name}/seed{seed}/{part}/{file}"] = digest
    return digests, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    root, out = Path(argv[0]).resolve(), Path(argv[1])
    digests, problems = artifact_digests(root)
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"artifact_sha256: {problem}", file=sys.stderr)
    print(f"{len(digests)} files written to {out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

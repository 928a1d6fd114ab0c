"""SHA-256 of every artifact the benchmark workloads write, for checking that a change keeps the bits.

    python3 scripts/artifact_sha256.py ROOT OUT.json
    python3 scripts/artifact_sha256.py --fixture ROOT

Loads ROOT/perfbench/run.py and, for each workload at seeds 1 and 2, runs
its `set_up` once and one untraced `run_repeat` against the sources under
ROOT/src, in a temporary directory. OUT.json maps
"<workload>/seed<k>/<setup|repeat>/<file>" to the file's SHA-256, as
`file_digests` computes it. Two checkouts keep the same bits when their
outputs are equal:

    python3 scripts/artifact_sha256.py parent parent.json
    python3 scripts/artifact_sha256.py . change.json
    diff parent.json change.json

With --fixture it runs seed 1 only and writes its digests together with the
Python, numpy and BLAS versions they were taken on to `FIXTURE`, the file
that tests/test_artifact_bits.py compares a fresh run against. A change that
moves an artifact's bits on purpose writes the fixture again.

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
FIXTURE_SEED = 1
FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "artifact_sha256_seed1.json"


def load_run(root: Path):
    """ROOT/perfbench/run.py as a module (it pins the BLAS threads every stage inherits)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def artifact_digests(root: Path, seeds=SEEDS) -> tuple[dict[str, str], list[str], dict]:
    """(file key -> SHA-256, problems, versions) over every workload at each of `seeds`.

    versions names the Python, numpy and BLAS the stages ran on, as the
    benchmark reports them.
    """
    run = load_run(root)
    digests: dict[str, str] = {}
    problems: list[str] = []
    for name, workload in sorted(run.WORKLOADS.items()):
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="artifact_sha256-") as tmp:
                work = Path(tmp)
                bench = run.Bench(root, run.PAPER, seed, time.monotonic() + run.DEADLINE_S)
                s, _ = run.set_up(bench, workload, work, 1)
                run.run_repeat(bench, workload, s, work / "repeat", traced=False)
                problems += [f"{name} seed {seed}: {p}" for p in bench.problems]
                for part, directory in (("setup", s), ("repeat", work / "repeat")):
                    for file, digest in run.file_digests(directory).items():
                        digests[f"{name}/seed{seed}/{part}/{file}"] = digest
    environment = run.environment()
    versions = {key: environment[key] for key in ("python", "numpy", "blas", "machine")}
    return digests, problems, versions


def main(argv: list[str]) -> int:
    fixture = argv[:1] == ["--fixture"]
    paths = argv[1:] if fixture else argv
    if len(paths) != (1 if fixture else 2):
        print("\n".join(line.strip() for line in __doc__.splitlines()[2:4]), file=sys.stderr)
        return 2
    root, out = Path(paths[0]).resolve(), FIXTURE if fixture else Path(paths[1])
    digests, problems, versions = artifact_digests(root, (FIXTURE_SEED,) if fixture else SEEDS)
    written = {"versions": versions, "digests": digests} if fixture else digests
    out.write_text(json.dumps(written, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"artifact_sha256: {problem}", file=sys.stderr)
    print(f"{len(digests)} files written to {out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

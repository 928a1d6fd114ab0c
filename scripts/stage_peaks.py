"""Peak RSS of each benchmark stage run on its own, by default and with a fixed mmap threshold.

    python3 scripts/stage_peaks.py ROOT

Loads ROOT/perfbench/run.py (as `artifact_sha256.py` does) and, for each
workload at seed 1, runs its `set_up` once against the sources under
ROOT/src, in a temporary directory. Then it runs the workload's stages in
order, REPEATS times in the default environment and REPEATS times with
MALLOC_MMAP_THRESHOLD_=131072, which fixes glibc's dynamic mmap threshold.
Each stage starts from a small launcher process, which reads the stage's
`ru_maxrss` from `os.wait4`: a child's peak starts at the RSS of the process
it was forked from, so a stage the benchmark starts inherits the benchmark's
own high-water mark, and one the launcher starts does not. Prints each
stage's median peak in MB, one line per stage.

Exits 1, naming the stage, if a stage fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from artifact_sha256 import load_run

SEED = 1
REPEATS = 3
ENVIRONMENTS = {"default": {}, "mmap_threshold": {"MALLOC_MMAP_THRESHOLD_": "131072"}}

# Runs argv[1:], its stdout discarded, and prints its exit code and peak RSS
# (KiB) as JSON. It imports nothing large, so the stage it forks starts small.
LAUNCHER = """
import json, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps({"code": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}))
"""


def stage_peak(run, bench, stage, cwd: Path, extra_env: dict) -> float:
    """Peak RSS in MB of one stage started by the launcher; raises if the stage fails."""
    argv = [sys.executable, "-c", run.CONSOLE_SCRIPT, *map(str, stage.argv)]
    with open(cwd / f"{stage.id}.log", "ab") as log:
        launched = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], cwd=cwd,
                                  env={**bench.env, **extra_env}, stdout=subprocess.PIPE,
                                  stderr=log, check=True)
    report = json.loads(launched.stdout)
    if report["code"] != 0:
        raise RuntimeError(f"{stage.id}: exit code {report['code']} (see {cwd / stage.id}.log)")
    return report["maxrss_kb"] / 1024.0


def workload_peaks(run, root: Path, workload) -> dict[str, dict[str, float]]:
    """stage id -> environment name -> median peak RSS in MB over REPEATS runs."""
    peaks: dict[str, dict[str, list[float]]] = {}
    with tempfile.TemporaryDirectory(prefix="stage_peaks-") as tmp:
        work = Path(tmp)
        bench = run.Bench(root, run.PAPER, SEED, time.monotonic() + run.DEADLINE_S)
        s, _ = run.set_up(bench, workload, work, 1)
        if bench.problems:
            raise RuntimeError(f"set-up: {bench.problems[0]}")
        for env_name, extra_env in ENVIRONMENTS.items():
            for k in range(REPEATS):
                r = work / f"{env_name}{k}"
                r.mkdir()
                for stage in workload.stages(bench, s, r):
                    peak = stage_peak(run, bench, stage, r, extra_env)
                    peaks.setdefault(stage.id, {}).setdefault(env_name, []).append(peak)
    return {stage: {env: statistics.median(values) for env, values in by_env.items()}
            for stage, by_env in peaks.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    run = load_run(root)
    print(f"{'workload':<14}{'stage':<12}" + "".join(f"{env + ' MB':>20}" for env in ENVIRONMENTS))
    for name, workload in sorted(run.WORKLOADS.items()):
        try:
            peaks = workload_peaks(run, root, workload)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"stage_peaks: {name}: {exc}", file=sys.stderr)
            return 1
        for stage, by_env in peaks.items():
            print(f"{name:<14}{stage:<12}"
                  + "".join(f"{by_env[env]:>20.1f}" for env in ENVIRONMENTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

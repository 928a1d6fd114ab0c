"""Peak RSS and wall time of each benchmark stage alone, with and without a fixed mmap threshold.

    python3 scripts/stage_peaks.py ROOT [WORKLOAD ...]

Loads ROOT/perfbench/run.py (as `artifact_sha256.py` does) and, for each
named workload (every workload when none is named) at seed 1, runs its
`set_up` against the sources under ROOT/src, in a temporary directory, and
then the workload's stages in order against the first set-up's files. Both
run REPEATS times in the default environment and REPEATS times with
MALLOC_MMAP_THRESHOLD_=131072, which fixes glibc's dynamic mmap threshold.
Each stage, a set-up's CLI calls (`Bench.cli`) included, starts from a small
launcher process, which reads the stage's `ru_maxrss` from `os.wait4`: a
child's peak starts at the RSS of the process it was forked from, so a
stage the benchmark starts inherits the benchmark's own high-water mark,
and one the launcher starts does not. The launcher also times the stage
from its start to its exit, start-up included, which a traced run
(`run.py --trace 1`) cannot show: its tracer imports every module. Prints
each stage's median peak in MB and median wall seconds, one line per stage:
the set-up's stages first, under the names the set-up gives them, then the
workload's own.

Exits 1, naming the stage, if a stage fails, and 2 on an unknown workload.
"""

from __future__ import annotations

import json
import shutil
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

# Runs argv[1:], its stdout discarded, and prints its exit code, peak RSS (KiB)
# and wall seconds as JSON. It imports nothing large, so the stage it forks
# starts small.
LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
print(json.dumps({"code": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss,
                  "wall_s": wall}))
"""


def stage_run(run, bench, stage_id: str, argv, cwd: Path, extra_env: dict) -> tuple[float, float]:
    """(peak RSS in MB, wall seconds) of one stage started by the launcher; raises if it fails."""
    argv = [sys.executable, "-c", run.CONSOLE_SCRIPT, *map(str, argv)]
    with open(cwd / f"{stage_id}.log", "ab") as log:
        launched = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], cwd=cwd,
                                  env={**bench.env, **extra_env}, stdout=subprocess.PIPE,
                                  stderr=log, check=True)
    report = json.loads(launched.stdout)
    if report["code"] != 0:
        raise RuntimeError(f"{stage_id}: exit code {report['code']} (see {cwd / stage_id}.log)")
    return report["maxrss_kb"] / 1024.0, report["wall_s"]


def workload_peaks(run, root: Path, workload) -> dict[str, dict[str, tuple[float, float]]]:
    """stage id -> environment name -> median (peak RSS in MB, wall s) over REPEATS runs."""
    peaks: dict[str, dict[str, list[tuple[float, float]]]] = {}

    def measure(stage_id, argv, cwd, env_name):
        measured = stage_run(run, bench, stage_id, argv, cwd, ENVIRONMENTS[env_name])
        peaks.setdefault(stage_id, {}).setdefault(env_name, []).append(measured)

    with tempfile.TemporaryDirectory(prefix="stage_peaks-") as tmp:
        work = Path(tmp)
        bench = run.Bench(root, run.PAPER, SEED, time.monotonic() + run.DEADLINE_S)
        s = None  # the first set-up's directory; the others are removed
        for env_name in ENVIRONMENTS:
            for k in range(REPEATS):
                bench.cli = lambda stage, argv, cwd, env=env_name, **_: measure(stage, argv,
                                                                                cwd, env)
                d, _ = run.set_up(bench, workload, work / f"setup-{env_name}{k}", 1)
                if s is None:
                    s = d
                else:
                    shutil.rmtree(d)
        if bench.problems:
            raise RuntimeError(f"set-up: {bench.problems[0]}")
        for env_name in ENVIRONMENTS:
            for k in range(REPEATS):
                r = work / f"{env_name}{k}"
                r.mkdir()
                for stage in workload.stages(bench, s, r):
                    measure(stage.id, stage.argv, r, env_name)
    return {stage: {env: tuple(map(statistics.median, zip(*values)))
                    for env, values in by_env.items()}
            for stage, by_env in peaks.items()}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    run = load_run(root)
    names = argv[1:] or sorted(run.WORKLOADS)
    unknown = [name for name in names if name not in run.WORKLOADS]
    if unknown:
        print(f"stage_peaks: unknown workload {unknown[0]!r}; the workloads are "
              f"{', '.join(sorted(run.WORKLOADS))}", file=sys.stderr)
        return 2
    print(f"{'workload':<14}{'stage':<16}" + "".join(f"{env + ' MB':>20}{env + ' s':>20}"
                                                      for env in ENVIRONMENTS))
    for name in names:
        workload = run.WORKLOADS[name]
        try:
            peaks = workload_peaks(run, root, workload)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"stage_peaks: {name}: {exc}", file=sys.stderr)
            return 1
        for stage, by_env in peaks.items():
            print(f"{name:<14}{stage:<16}"
                  + "".join(f"{by_env[env][0]:>20.1f}{by_env[env][1]:>20.3f}"
                            for env in ENVIRONMENTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's seed-1 artifacts keep the bits recorded in tests/fixtures.

`scripts/artifact_sha256.py --fixture` wrote the fixture: the SHA-256 of
each file that one set-up and one repeat of every benchmark workload write
at seed 1, with the Python, numpy and BLAS versions they were taken on. The
test runs the same stages against this checkout's sources and compares, so a
change that moves any artifact's bits fails here; one that does so on purpose
writes the fixture again. Another BLAS build may sum in another order, so a
failure names both version sets.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import artifact_sha256  # noqa: E402


def test_seed_1_artifacts_keep_the_fixture_digests():
    fixture = json.loads(artifact_sha256.FIXTURE.read_text(encoding="utf-8"))
    digests, problems, versions = artifact_sha256.artifact_digests(
        ROOT, seeds=(artifact_sha256.FIXTURE_SEED,))
    assert not problems, problems
    expected = fixture["digests"]
    moved = sorted(key for key in expected.keys() | digests.keys()
                   if expected.get(key) != digests.get(key))
    assert not moved, (f"{len(moved)} artifacts moved: {', '.join(moved)}; fixture taken on "
                       f"{json.dumps(fixture['versions'], sort_keys=True)}, this run on "
                       f"{json.dumps(versions, sort_keys=True)}")

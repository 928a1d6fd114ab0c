"""Atomic output files: complete or absent, never partial.

A failed block is tested through its callers: `save_checkpoint` in
test_numeric.py and the CLI stages in test_cli.py.
"""

import os

from cohsum.atomic import atomic_write


def test_completed_block_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new ü\n")
        fh.flush()
        assert path.read_text() == "old\n"  # nothing is visible before the block ends
    assert path.read_text(encoding="utf-8") == "new ü\n"
    assert os.listdir(tmp_path) == ["out.txt"]

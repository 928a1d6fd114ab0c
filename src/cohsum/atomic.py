"""Output files that appear only when complete.

Every file a CLI stage writes (checkpoints, the vocabulary, labels,
summaries, coherence scores) goes through `atomic_write`, so a stage that
fails part-way leaves neither a partial output nor a temporary file behind.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """The open file `<path>.<pid>.tmp`, moved over `path` once the block completes.

    The temporary file sits in the same directory as `path`, so `os.replace`
    moves it in one step. If the block raises, the temporary file is removed
    and any previous `path` is left as it was. Text modes write UTF-8.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise

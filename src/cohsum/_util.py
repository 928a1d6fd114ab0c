"""Small shared helpers."""

from __future__ import annotations

import zlib

import numpy as np


def child_rng(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one pipeline stage, derived from the global seed.

    The label is hashed with crc32 so the stream depends only on (seed, label),
    not on the order stages run in.
    """
    return np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])

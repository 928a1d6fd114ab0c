"""Settings of every stage, and the rules that check them: standard library only.

The CLI builds its parser from these dataclasses' fields and defaults, and
`cli.run` catches `CheckpointError`, so the parser and the text stages
(preprocess, label, evaluate) read them without loading numpy or any module
that imports it. The modules that use a setting import it from here:
`coherence.CoherenceConfig`, `extractor.ExtractorConfig`,
`reinforce.RLConfig`, `rouge.RewardWeights` and `numeric.CheckpointError`
are these classes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

DEFAULT_MAX_TOKENS = 50  # fixed encoded sentence length
DEFAULT_MAX_SENTENCES = 80  # documents truncated to this many sentences
DEFAULT_MAX_SELECTED = 4  # sentences a beam-decoded summary extracts


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupt, or has the wrong version."""


def check_rate(name: str, value) -> None:
    """Reject a rate (a step size, a weight) that is not a number, or is negative, NaN or infinite.

    A bool is not a number here.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def check_config(config) -> None:
    """Reject a model config with a bad rate, a bad `epochs` or a size that is not an int >= 1.

    A field whose default is a float, such as `lr`, is a rate (`check_rate`).
    Every other field is an int, or a tuple of ints where the field's default
    is a tuple, such as the per-layer filter counts; a bool is not an int
    here. Each int is at least 1, a size, except `epochs`, which may be 0.
    The error names the field.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(f.default, float):
            check_rate(f.name, value)
            continue
        tuple_field = isinstance(f.default, tuple)
        if isinstance(value, tuple) != tuple_field:
            raise ValueError(f"{f.name} must be {'a tuple' if tuple_field else 'int'}, "
                             f"got {value!r}")
        entries = value if tuple_field else (value,)
        what = f"{f.name} entries" if tuple_field else f.name
        if any(isinstance(v, bool) or not isinstance(v, int) for v in entries):
            raise ValueError(f"{what} must be int, got {value!r}")
        least = 0 if f.name == "epochs" else 1
        if any(v < least for v in entries):
            raise ValueError(f"{what} must be >= {least}, got {value}")


@dataclass(frozen=True)
class RewardWeights:
    """Mixing weights for the combined R-1 / R-2 / R-L reward."""

    w1: float = 0.4
    w2: float = 1.0
    wl: float = 0.5

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check_rate(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class CoherenceConfig:
    vocab_size: int
    embed_dim: int = 64
    window: int = 3
    conv_filters: tuple[int, ...] = (128, 256, 512)
    conv_kernel: int = 3
    fc_units: tuple[int, ...] = (512, 256)
    max_tokens: int = DEFAULT_MAX_TOKENS
    lr: float = 0.1
    batch_size: int = 64
    epochs: int = 5

    def __post_init__(self):
        check_config(self)
        if self.max_tokens <= self.window:  # a grid of at least 2x2 starts with a pool
            raise ValueError(f"max_tokens {self.max_tokens} must exceed the layer-1 window "
                             f"{self.window}")
        if not self.conv_filters:
            raise ValueError("conv_filters must name at least the layer-1 filter count")

    @property
    def grid_size(self) -> int:
        return self.max_tokens - self.window + 1


@dataclass(frozen=True)
class ExtractorConfig:
    vocab_size: int
    embed_dim: int = 128
    word_kernels: tuple[int, ...] = (3, 5, 7)
    word_filters: tuple[int, ...] = (128, 256, 256)
    gru_hidden: int = 256
    doc_dim: int = 512
    mlp_hidden: tuple[int, int] = (512, 256)
    max_tokens: int = DEFAULT_MAX_TOKENS
    max_sentences: int = DEFAULT_MAX_SENTENCES
    lr: float = 0.1
    batch_size: int = 64
    epochs: int = 5

    def __post_init__(self):
        check_config(self)
        if len(self.mlp_hidden) != 2:
            raise ValueError(f"mlp_hidden must be exactly two widths, got {self.mlp_hidden}")
        if not self.word_kernels:
            raise ValueError("word_kernels must name at least one kernel size")
        if len(set(self.word_kernels)) != len(self.word_kernels):  # one conv{k}_* per size
            raise ValueError(f"word_kernels must not repeat a size, got {self.word_kernels}")
        if len(self.word_kernels) != len(self.word_filters):
            raise ValueError(
                f"word_kernels {self.word_kernels} and word_filters {self.word_filters} differ in length"
            )

    @property
    def word_dim(self) -> int:
        return sum(self.word_filters)

    @property
    def context_dim(self) -> int:
        return 2 * self.gru_hidden


@dataclass
class RLConfig:
    lam: float = 0.01  # weight of coherence rewards in the return
    alpha: float = 0.001  # ascent step size
    steps: int = 1000
    weights: RewardWeights = field(default_factory=RewardWeights)

    def __post_init__(self):
        check_rate("lambda", self.lam)
        check_rate("alpha", self.alpha)
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")

"""JSON run configuration with strict validation.

A run config is a single JSON object with optional sections ``seed``,
``dataset``, ``networks``, ``train``, ``tgstn``, and ``bounds``. Missing
sections and fields fall back to defaults; unknown keys are hard errors so
a misspelled hyperparameter cannot silently revert to its default.

The config holds only what a file sets. The one seed is the root ``seed``,
which the stages receive as an argument, and the ablation mode is the
``--mode`` of ``segan train``; a file that sets either inside a stage
section is rejected with the reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .datagen import ShiftParams, benchmark_shifts
from .networks import DiscSpec, SegNetSpec, StyleGenSpec
from .trainer import TGSTNConfig, TrainConfig
from .utils import ConfigError, record_from_dict, record_to_dict


@dataclass
class DatasetConfig:
    """Synthetic benchmark shape and the two domain shift parameter sets.

    The domain defaults are the stock benchmark, so a config without a
    dataset section renders a usable shifted pair out of the box.
    """

    n_source: int = 200
    n_target: int = 200
    height: int = 64
    width: int = 64
    classes: int = 4
    source: ShiftParams = field(default_factory=lambda: benchmark_shifts()[0])
    target: ShiftParams = field(default_factory=lambda: benchmark_shifts()[1])

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("dataset.classes", f"need at least 2 classes, got {self.classes}")
        if self.n_source < 1 or self.n_target < 1:
            raise ConfigError(
                "dataset.n_source/n_target",
                f"need at least one scene per domain, got {self.n_source}/{self.n_target}",
            )
        if self.height < 8 or self.width < 8:
            raise ConfigError(
                "dataset.height/width", f"images below 8x8, got {self.height}x{self.width}"
            )


@dataclass
class NetworksConfig:
    """Architecture widths; channel counts are filled from the dataset."""

    segnet_widths: tuple[int, ...] = (16, 32, 32)
    segnet_downsample: int = 2
    disc_widths: tuple[int, ...] = (8, 16, 32, 64, 1)
    stylegen_widths: tuple[int, ...] = (16, 16)
    stylegen_residual: bool = True

    def segnet_spec(self, classes: int) -> SegNetSpec:
        return SegNetSpec(
            class_count=classes, widths=self.segnet_widths, downsample=self.segnet_downsample
        )

    def disc_spec(self, in_channels: int) -> DiscSpec:
        return DiscSpec(in_channels=in_channels, widths=self.disc_widths)

    def stylegen_spec(self) -> StyleGenSpec:
        return StyleGenSpec(widths=self.stylegen_widths, residual=self.stylegen_residual)


@dataclass
class BoundsConfig:
    """Inputs of the discriminator complexity measurement and bound chain."""

    epsilon: float = 1.0
    n: int = 10**8  # large enough that n >= 3R for desk-scale discriminators
    delta: float = 0.05
    phi: float = 0.0
    m_policy: str = "zero"
    tight_sigmoid: bool = False
    power_iters: int = 200
    batch_count: int = 8

    def __post_init__(self):
        if self.m_policy not in ("zero", "init"):
            raise ConfigError("bounds.m_policy", f"expected 'zero' or 'init', got {self.m_policy!r}")
        if not 0 < self.delta <= 1:
            raise ConfigError("bounds.delta", f"must be in (0, 1], got {self.delta}")
        if self.epsilon <= 0:
            raise ConfigError("bounds.epsilon", f"must be > 0, got {self.epsilon}")
        if self.n < 1:
            raise ConfigError("bounds.n", f"must be >= 1, got {self.n}")
        if self.batch_count < 1:
            raise ConfigError("bounds.batch_count", f"must be >= 1, got {self.batch_count}")
        if self.power_iters < 1:
            raise ConfigError("bounds.power_iters", f"must be >= 1, got {self.power_iters}")


@dataclass
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    networks: NetworksConfig = field(default_factory=NetworksConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    tgstn: TGSTNConfig = field(default_factory=TGSTNConfig)
    bounds: BoundsConfig = field(default_factory=BoundsConfig)

    def with_seed(self, seed: int | None) -> "RunConfig":
        """Root seed override (the --seed flag); None keeps the file's."""
        return self if seed is None else replace(self, seed=int(seed))

    def to_dict(self) -> dict:
        return record_to_dict(self)


_ROOT_SEED = "stage seeds derive from the top-level seed; set 'seed' at the root"
_FROM_MODE = "the ablation flags come from the --mode of 'segan train'"
# Stage keys that older configs may carry but the program sets itself; a
# config file that gives one is rejected with the reason.
_NOT_IN_FILE = {
    "train": {"seed": _ROOT_SEED,
              **dict.fromkeys(("at", "se", "aug", "st", "mst"), _FROM_MODE)},
    "tgstn": {"seed": _ROOT_SEED},
}


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    for sect, keys in _NOT_IN_FILE.items():
        for key, reason in keys.items():
            if isinstance(data, dict) and isinstance(data.get(sect), dict) and key in data[sect]:
                raise ConfigError(f"{sect}.{key}", reason)
    return record_from_dict(RunConfig, data)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file; missing file means defaults."""
    if path is None:
        return RunConfig()
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError("", f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    return parse_config(data)

"""JSON run configuration with strict validation.

A run config is a single JSON object with optional sections ``seed``,
``dataset``, ``networks``, ``train``, ``tgstn``, and ``bounds``. Missing
sections and fields fall back to defaults; unknown keys are hard errors so
a misspelled hyperparameter cannot silently revert to its default.

Each section but ``dataset`` is defined beside the code that takes it
whole: :class:`~segan.networks.NetworksConfig`, the trainer's stage configs
and :class:`~segan.bounds.BoundsConfig`.

The config holds only what a file sets. The one seed is the root ``seed``,
which the stages receive as an argument, and the ablation mode is the
``--mode`` of ``segan train``; a file that sets either inside a stage
section is rejected with the reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .bounds import BoundsConfig
from .datagen import PALETTE, ShiftParams, benchmark_shifts
from .networks import NetworksConfig
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
            raise ConfigError("classes", f"need at least 2 classes, got {self.classes}")
        if self.classes > len(PALETTE):
            raise ConfigError(
                "classes",
                f"the palette supports at most {len(PALETTE)} classes, got {self.classes}",
            )
        for domain in ("source", "target"):
            n = len(getattr(self, domain).layout)
            if n != self.classes - 1:
                raise ConfigError(
                    f"{domain}.layout",
                    f"{self.classes} classes need {self.classes - 1} class priors, got {n}",
                )
        for name in ("n_source", "n_target"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"need at least one scene per domain, got "
                                        f"{getattr(self, name)}")
        for name in ("height", "width"):
            if getattr(self, name) < 8:
                raise ConfigError(name, f"images below 8x8, got {self.height}x{self.width}")


@dataclass
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    networks: NetworksConfig = field(default_factory=NetworksConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    tgstn: TGSTNConfig = field(default_factory=TGSTNConfig)
    bounds: BoundsConfig = field(default_factory=BoundsConfig)

    def __post_init__(self):
        if self.seed < 0:  # seeds key numpy's SeedSequence, which takes no negatives
            raise ConfigError("seed", f"must be non-negative, got {self.seed}")

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

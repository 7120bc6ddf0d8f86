"""JSON run configuration with strict validation.

A run config is a single JSON object with optional sections ``seed``,
``dataset``, ``networks``, ``train``, ``tgstn``, and ``bounds``. Missing
sections and fields fall back to defaults; unknown keys are hard errors so
a misspelled hyperparameter cannot silently revert to its default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .datagen import (
    AppearanceParams,
    ClassPrior,
    LayoutParams,
    ShiftParams,
    benchmark_shifts,
    shift_params_to_dict,
)
from .networks import DiscSpec, SegNetSpec, StyleGenSpec
from .trainer import TGSTNConfig, TrainConfig


class ConfigError(Exception):
    """Malformed run configuration; ``path`` is the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


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
        """Root seed override (the --seed flag); propagates to the stages."""
        seed = self.seed if seed is None else int(seed)
        return replace(
            self,
            seed=seed,
            train=replace(self.train, seed=seed),
            tgstn=replace(self.tgstn, seed=seed),
        )

    def to_dict(self) -> dict:
        train = _simple_to_dict(self.train)
        tgstn = _simple_to_dict(self.tgstn)
        for sect, keys in (("train", train), ("tgstn", tgstn)):
            for key in _NOT_IN_FILE[sect]:
                del keys[key]
        return {
            "seed": self.seed,
            "dataset": _dataset_to_dict(self.dataset),
            "networks": _simple_to_dict(self.networks),
            "train": train,
            "tgstn": tgstn,
            "bounds": _simple_to_dict(self.bounds),
        }


_ROOT_SEED = "stage seeds derive from the top-level seed; set 'seed' at the root"
_FROM_MODE = "the ablation flags come from the --mode of 'segan train'"
# Stage fields the program sets itself: a config file may not give them, and
# RunConfig.to_dict leaves them out.
_NOT_IN_FILE = {
    "train": {"seed": _ROOT_SEED,
              **dict.fromkeys(("at", "se", "aug", "st", "mst"), _FROM_MODE)},
    "tgstn": {"seed": _ROOT_SEED},
}


def _simple_to_dict(obj) -> dict:
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def _dataset_to_dict(ds: DatasetConfig) -> dict:
    return {
        "n_source": ds.n_source,
        "n_target": ds.n_target,
        "height": ds.height,
        "width": ds.width,
        "classes": ds.classes,
        "source": shift_params_to_dict(ds.source),
        "target": shift_params_to_dict(ds.target),
    }


# ---------------------------------------------------------------------------
# parsing


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, allowed, path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path}.{unknown[0]}" if path else unknown[0],
            f"unknown key; known keys: {', '.join(sorted(allowed))}",
        )


def _scalar(obj: dict, key: str, kind, default, path: str):
    if key not in obj:
        return default
    v = obj[key]
    label = f"{path}.{key}" if path else key
    if kind is bool:
        if not isinstance(v, bool):
            raise ConfigError(label, f"expected a boolean, got {v!r}")
        return v
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(label, f"expected an integer, got {v!r}")
        return v
    if kind is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(label, f"expected a number, got {v!r}")
        return float(v)
    if kind is str:
        if not isinstance(v, str):
            raise ConfigError(label, f"expected a string, got {v!r}")
        return v
    raise AssertionError(kind)


def _number_list(obj: dict, key: str, default, path: str, cast=float):
    if key not in obj:
        return default
    v = obj[key]
    label = f"{path}.{key}" if path else key
    if not isinstance(v, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in v
    ):
        raise ConfigError(label, f"expected a list of numbers, got {v!r}")
    return tuple(cast(x) for x in v)


def _parse_dataclass(obj: dict, cls, path: str, default=None):
    """Populate a flat dataclass whose fields are scalars or number tuples;
    missing fields fall back to ``default`` (a dataclass instance) when
    given, else to the class defaults."""
    obj = _expect_object(obj, path)
    spec = {f.name: f for f in fields(cls)}
    _check_keys(obj, spec, path)
    kwargs = {}
    inst = cls() if default is None else default
    for name, f in spec.items():
        current = getattr(inst, name)
        if isinstance(current, tuple):
            cast = int if all(isinstance(x, int) for x in current) else float
            kwargs[name] = _number_list(obj, name, current, path, cast)
        elif isinstance(current, bool):
            kwargs[name] = _scalar(obj, name, bool, current, path)
        elif isinstance(current, int):
            kwargs[name] = _scalar(obj, name, int, current, path)
        elif isinstance(current, float):
            kwargs[name] = _scalar(obj, name, float, current, path)
        elif current is None:
            if name in obj and obj[name] is not None:
                kwargs[name] = _scalar(obj, name, float, current, path)
            else:
                kwargs[name] = current
        elif isinstance(current, str):
            kwargs[name] = _scalar(obj, name, str, current, path)
        else:
            raise AssertionError(f"unsupported field {cls.__name__}.{name}")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_prior(obj, path: str) -> ClassPrior:
    obj = _expect_object(obj, path)
    _check_keys(obj, ("prob", "mean", "cov", "size_range"), path)
    prob = _scalar(obj, "prob", float, 1.0, path)
    mean = _number_list(obj, "mean", (0.5, 0.5), path)
    size_range = _number_list(obj, "size_range", (0.08, 0.16), path)
    cov = obj.get("cov", [[0.01, 0.0], [0.0, 0.01]])
    if (
        not isinstance(cov, list)
        or len(cov) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in cov)
    ):
        raise ConfigError(f"{path}.cov", f"expected a 2x2 number matrix, got {cov!r}")
    if len(mean) != 2:
        raise ConfigError(f"{path}.mean", f"expected two numbers, got {list(mean)}")
    if len(size_range) != 2:
        raise ConfigError(f"{path}.size_range", f"expected two numbers, got {list(size_range)}")
    try:
        return ClassPrior(
            prob=prob,
            mean=tuple(mean),
            cov=tuple(tuple(float(x) for x in row) for row in cov),
            size_range=tuple(size_range),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_shift(obj, path: str, default: ShiftParams) -> ShiftParams:
    obj = _expect_object(obj, path)
    _check_keys(obj, ("appearance", "layout"), path)
    appearance = default.appearance
    if "appearance" in obj:
        appearance = _parse_dataclass(
            obj["appearance"], AppearanceParams, f"{path}.appearance", default.appearance
        )
    layout = default.layout
    if "layout" in obj:
        raw = obj["layout"]
        if not isinstance(raw, list):
            raise ConfigError(f"{path}.layout", f"expected a list of priors, got {raw!r}")
        layout = LayoutParams(
            tuple(_parse_prior(p, f"{path}.layout[{i}]") for i, p in enumerate(raw))
        )
    return ShiftParams(appearance=appearance, layout=layout)


def _parse_dataset(obj, path: str) -> DatasetConfig:
    obj = _expect_object(obj, path)
    allowed = ("n_source", "n_target", "height", "width", "classes", "source", "target")
    _check_keys(obj, allowed, path)
    d = DatasetConfig()
    return DatasetConfig(
        n_source=_scalar(obj, "n_source", int, d.n_source, path),
        n_target=_scalar(obj, "n_target", int, d.n_target, path),
        height=_scalar(obj, "height", int, d.height, path),
        width=_scalar(obj, "width", int, d.width, path),
        classes=_scalar(obj, "classes", int, d.classes, path),
        source=_parse_shift(obj.get("source", {}), f"{path}.source", d.source),
        target=_parse_shift(obj.get("target", {}), f"{path}.target", d.target),
    )


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    data = _expect_object(data, "")
    _check_keys(data, ("seed", "dataset", "networks", "train", "tgstn", "bounds"), "")
    seed = _scalar(data, "seed", int, 0, "")
    for sect, keys in _NOT_IN_FILE.items():
        for key, reason in keys.items():
            if isinstance(data.get(sect), dict) and key in data[sect]:
                raise ConfigError(f"{sect}.{key}", reason)
    cfg = RunConfig(
        seed=seed,
        dataset=_parse_dataset(data.get("dataset", {}), "dataset"),
        networks=_parse_dataclass(data.get("networks", {}), NetworksConfig, "networks"),
        train=_parse_dataclass(data.get("train", {}), TrainConfig, "train"),
        tgstn=_parse_dataclass(data.get("tgstn", {}), TGSTNConfig, "tgstn"),
        bounds=_parse_dataclass(data.get("bounds", {}), BoundsConfig, "bounds"),
    )
    return cfg.with_seed(seed)


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

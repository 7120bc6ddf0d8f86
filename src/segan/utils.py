"""Shared helpers: deterministic named RNG substreams, one-hot encoding, and
the one JSON codec of the program's dataclass records (run configs, dataset
metadata, network specs, bound reports)."""

from __future__ import annotations

import dataclasses
import sys
import typing
import zlib

import numpy as np


def _key_ints(keys) -> list[int]:
    out = []
    for k in keys:
        if isinstance(k, str):
            out.append(zlib.crc32(k.encode("utf-8")))
        elif isinstance(k, (int, np.integer)):
            if int(k) < 0:
                raise ValueError(f"seed keys must be non-negative, got {k}")
            out.append(int(k))
        else:
            raise TypeError(f"seed keys must be int or str, got {type(k).__name__}")
    return out


def substream(*keys) -> np.random.Generator:
    """Independent generator for the named stream; same keys, same stream."""
    return np.random.default_rng(np.random.SeedSequence(_key_ints(keys)))


def derive_seed(*keys) -> int:
    """Collapse named keys into a single reproducible integer seed."""
    return int(np.random.SeedSequence(_key_ints(keys)).generate_state(1, np.uint64)[0])


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    """Map integer labels (...,) to float32 one-hot (..., class_count)."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= class_count:
        raise ValueError(
            f"labels must lie in [0, {class_count}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    # np.take gathers rows ~8x faster than fancy indexing at a training
    # batch's 2x64x64 labels
    return np.take(np.eye(class_count, dtype=np.float32), labels, axis=0)


# ---------------------------------------------------------------------------
# dataclass records <-> JSON objects


class ConfigError(ValueError):
    """A record that does not fit its dataclass; ``path`` is the dotted field
    path, e.g. ``dataset.target.layout[0].cov``. A record's own check raises
    it at the field's name, and :func:`record_from_dict` prefixes the
    record's path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def record_to_dict(record) -> dict:
    """JSON object of a dataclass record: fields in declaration order, nested
    records as objects, tuples as lists."""
    return {f.name: _to_json(getattr(record, f.name)) for f in dataclasses.fields(record)}


def _to_json(value):
    if dataclasses.is_dataclass(value):
        return record_to_dict(value)
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def record_from_dict(cls, data, path: str = "", default=None, **given):
    """Read a ``cls`` record from a decoded JSON object, checking each field
    against its type hint. Unknown keys and wrongly typed values raise
    :class:`ConfigError` at their dotted path. A missing field comes from
    ``default`` (a ``cls`` record) when given, else from the field's default.
    ``given`` fields are set by the caller and may not appear in ``data``.
    """
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    known = [f.name for f in dataclasses.fields(cls) if f.name not in given]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(_join(path, unknown[0]),
                          f"unknown key; known keys: {', '.join(sorted(known))}")
    kwargs = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        fallback = getattr(default, f.name) if default is not None else (
            f.default if f.default_factory is dataclasses.MISSING else f.default_factory())
        if f.name in data:
            kwargs[f.name] = _decode(hints[f.name], data[f.name], _join(path, f.name), fallback)
        elif fallback is dataclasses.MISSING:
            raise ConfigError(_join(path, f.name), "missing")
        else:
            kwargs[f.name] = fallback
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(_join(path, exc.path), exc.message) from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path and key else path or key


def _decode(tp, value, path: str, fallback):
    if dataclasses.is_dataclass(tp):
        return record_from_dict(tp, value, path,
                                None if fallback is dataclasses.MISSING else fallback)
    args = typing.get_args(tp)
    if args[-1:] == (Ellipsis,) and dataclasses.is_dataclass(args[0]):
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list of objects, got {value!r}")
        return tuple(record_from_dict(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    try:
        return _plain(tp, value)
    except TypeError:
        raise ConfigError(path, f"expected {_describe(tp)}, got {value!r}") from None


def _plain(tp, value):
    """A JSON value as ``tp``, a scalar or a tuple of them; TypeError if it
    is not one. Booleans are not numbers, integers take no fractions, and
    floats are finite: Python's ``json`` reads NaN and Infinity."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if tp is int and number and isinstance(value, int):
        return value
    if tp in (bool, str) and isinstance(value, tp):
        return value
    args = typing.get_args(tp)
    if args and isinstance(value, list):
        item_types = args[:1] * len(value) if args[-1:] == (Ellipsis,) else args
        if len(item_types) == len(value):
            return tuple(_plain(a, v) for a, v in zip(item_types, value))
    raise TypeError(tp)


def _describe(tp) -> str:
    names = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}
    if tp in names:
        return names[tp]
    args = typing.get_args(tp)
    if args[-1:] == (Ellipsis,):
        return "a list of numbers (integers)" if args[0] is int else "a list of finite numbers"
    if typing.get_args(args[0]):
        return f"a {len(args)}x{len(typing.get_args(args[0]))} number matrix"
    return f"a list of {len(args)} numbers"

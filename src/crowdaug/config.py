"""Flat ``key = value`` config files mapped onto typed dataclass fields.

The format is deliberately dumb: one assignment per line, ``#`` comments,
no sections, no nesting. Unknown keys are hard errors so a typo in a
hyper-parameter name can never silently fall back to a default.
"""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any, TypeVar

T = TypeVar("T")


class ConfigError(ValueError):
    """Malformed config text, unknown key, or value of the wrong type."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a string map."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config_file(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
               "false": False, "no": False, "0": False, "off": False}


def _coerce_value(raw: str, typ: Any, key: str):
    if typ is bool:
        word = raw.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None
    if typ is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r}: non-finite value {raw!r}")
        return value
    if typ is str:
        return raw
    raise ConfigError(f"key {key!r}: unsupported config field type {typ!r}")


def apply_overrides(cls: type[T], values: dict[str, str], **fixed) -> T:
    """Build dataclass ``cls`` from string values plus keyword overrides.

    Every key in ``values`` must name a field of ``cls``; values are coerced
    to the field's annotated type. ``fixed`` entries are passed through
    untouched (already typed) and win over file values.
    """
    field_types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, raw in values.items():
        if key not in field_types:
            raise ConfigError(f"unknown config key {key!r}")
        typ = field_types[key]
        if isinstance(typ, str):  # annotations stored as strings under future-import
            typ = {"bool": bool, "int": int, "float": float, "str": str}.get(typ, typ)
        kwargs[key] = _coerce_value(raw, typ, key)
    kwargs.update(fixed)
    return cls(**kwargs)


def check_finite(cfg) -> None:
    """Reject a config dataclass with a non-finite value in a float field."""
    for f in dataclasses.fields(cfg):
        if f.type in (float, "float") and not math.isfinite(getattr(cfg, f.name)):
            raise ConfigError(f"{f.name} must be finite, got {getattr(cfg, f.name)}")


def config_as_dict(cfg) -> dict[str, Any]:
    """Materialize every field (defaults included) for manifests and echoes."""
    return dataclasses.asdict(cfg)

"""Run configuration: `ModelConfig` plus the run settings, serialized as
sectioned `key = value` text (configparser syntax).

The dataclass is the whole schema: the fields `RunConfig` inherits from
`ModelConfig` are the `[model]` keys, each of its own fields names its ini
section in its metadata, and each parser follows from its annotation.

Precedence is file < explicit overrides (CLI flags), and every command
echoes the effective config into its output directory so a run can be
reproduced from its artifacts alone.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError
from .model import ModelConfig


def _in(section: str, default):
    """A RunConfig field stored under `[section]` in the config text."""
    return dataclasses.field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class RunConfig(ModelConfig):
    data_root: str = _in("data", "")
    learning_rate: float = _in("train", 1e-2)
    momentum: float = _in("train", 0.0)
    steps: int = _in("train", 200)
    log_every: int = _in("train", 20)
    seed: int = _in("run", 0)

    def __post_init__(self):
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 < self.learning_rate < math.inf:   # NaN fails too
            raise ValidationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.log_every < 1:
            raise ValidationError(f"log_every must be >= 1, got {self.log_every}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        super().__post_init__()


# fields inherited from ModelConfig carry no section: they are the [model] keys
_SECTION = {f.name: f.metadata.get("section", "model") for f in dataclasses.fields(RunConfig)}
_SECTIONS = ("data", "model", "train", "run")   # the order config_to_text writes


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValidationError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


_SPECIAL_PARSERS = {bool: _parse_bool, tuple[int, ...]: _parse_int_tuple}
_PARSERS = {name: _SPECIAL_PARSERS.get(hint, hint)
            for name, hint in typing.get_type_hints(RunConfig).items()}


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def _ini() -> configparser.ConfigParser:
    # no interpolation: a '%' in a path is just a character
    return configparser.ConfigParser(interpolation=None)


def config_to_text(cfg: RunConfig) -> str:
    parser = _ini()
    for section in _SECTIONS:
        parser.add_section(section)
    for name, section in _SECTION.items():
        parser[section][name] = _render_value(getattr(cfg, name))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _coerce_items(items) -> dict:
    values = {}
    for key, raw in items:
        if key not in _PARSERS:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from exc
    return values


def config_from_text(text: str, source: str = "<string>") -> RunConfig:
    """Parse config text; every error message starts with `source`."""
    parser = _ini()
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ValidationError(f"malformed config text: {message}") from exc
    try:
        items = []
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ValidationError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if _SECTION.get(key) != section:
                    raise ValidationError(f"key {key!r} does not belong in section [{section}]")
                items.append((key, raw))
        return RunConfig(**_coerce_items(items))
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def read_text(path) -> str:
    """A file's UTF-8 text; other bytes are a ValidationError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: byte {exc.start} "
                              f"is {exc.object[exc.start]:#04x}") from exc


def load_config(path) -> RunConfig:
    return config_from_text(read_text(path), source=str(path))


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(config_to_text(cfg))


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Replace fields from a {name: value} dict; strings are coerced."""
    clean = _coerce_items((k, v) for k, v in overrides.items() if v is not None)
    return dataclasses.replace(cfg, **clean) if clean else cfg

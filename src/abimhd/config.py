"""Flat key = value run configuration.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment (full
line or trailing); ``[section]`` headers prefix subsequent keys as
``section.key``. Keys and section names are case-sensitive; values are
stored verbatim (trimmed) and typed on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Malformed configuration text or an out-of-range parameter."""


def _finite(raw: str) -> float:
    if not math.isfinite(val := float(raw)):
        raise ValueError(raw)
    return val


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"line {lineno}: empty section name")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        full = f"{section}.{key}" if section else key
        out[full] = value.strip()
    return out


@dataclass
class RunConfig:
    """Typed access to parsed key/value pairs with range validation."""

    values: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        return cls(parse_config_text(text))

    def _get(self, key: str, default, parse, what: str):
        """parse(value) of key, or default when the key is absent."""
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        try:
            return parse(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{key} must be {what}, got {raw!r}")

    def get_str(self, key: str, default: str | None = None) -> str:
        return self._get(key, default, str, "a string")

    def get_int(self, key: str, default: int | None = None, *,
                minimum: int | None = None) -> int:
        val = self._get(key, default, int, "an integer")
        if minimum is not None and val < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {val}")
        return val

    def get_float(self, key: str, default: float | None = None, *,
                  exclusive_min: float | None = None) -> float:
        val = float(self._get(key, default, _finite, "a finite number"))
        if exclusive_min is not None and not val > exclusive_min:
            raise ConfigError(f"{key} must be > {exclusive_min}, got {val}")
        return val

    def get_bool(self, key: str, default: bool = False) -> bool:
        return self._get(key, default, lambda raw: _BOOLS[raw.lower()],
                         "a boolean")

    def get_float_list(self, key: str, default: list[float] | None = None) -> list[float]:
        return list(self._get(
            key, default,
            lambda raw: [_finite(x) for x in raw.replace(",", " ").split()],
            "a list of finite numbers"))

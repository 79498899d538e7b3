"""Study configuration: one JSON file, flag overrides, content-based hashing.

Paths in the file, the default output directory ``out`` included, are
resolved relative to the file's own directory, so a study folder can be moved
wholesale; an ``--out`` flag resolves against the working directory. The
config hash covers every parameter that influences results plus the bytes of
every input file; it keys the stage caches, so editing an input or a threshold
forces a recompute while re-running an untouched study is cheap.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .network import SeasonCalendar


class ConfigError(ValueError):
    """Bad study configuration."""


# the six input CSVs, in the order the config hash reads them
INPUT_KEYS = (
    "buses",
    "lines",
    "generators",
    "demand",
    "bus_shares",
    "res_availability",
)

# which parameters each pipeline stage depends on; out_dir never affects
# results and stays out of every hash
_DISPATCH_PARAMS = ("scenario", "slack_bus", "system_base_mva", "snsp_cap")
_SCREEN_PARAMS = _DISPATCH_PARAMS + (
    "voltage_levels",
    "derate",
    "near_pct",
    "overload_pct",
    "summer_months",
    "screen_from_stage1",
)
_SITING_PARAMS = _SCREEN_PARAMS + ("pfc_cap_pct", "bisection_tol_pp")
_SCOPE_PARAMS = {
    "dispatch": _DISPATCH_PARAMS,
    "screen": _SCREEN_PARAMS,
    "siting": _SITING_PARAMS,
}


@dataclass(frozen=True)
class StudyConfig:
    inputs: dict[str, str]
    scenario: str = "base"
    slack_bus: str | None = None
    system_base_mva: float = 100.0
    voltage_levels: tuple[float, ...] = (110.0,)
    snsp_cap: float = 0.65
    derate: float = 0.10
    near_pct: float = 90.0
    overload_pct: float = 100.0
    pfc_cap_pct: float = 40.0
    bisection_tol_pp: float = 0.1
    summer_months: tuple[int, ...] = (4, 5, 6, 7, 8, 9)
    out_dir: str = "out"
    screen_from_stage1: bool = False

    def __post_init__(self):
        missing = [k for k in INPUT_KEYS if k not in self.inputs]
        if missing:
            raise ConfigError(f"config inputs missing entries: {missing}")
        unknown = sorted(set(self.inputs) - set(INPUT_KEYS))
        if unknown:
            raise ConfigError(f"config inputs has unknown entries: {unknown}")
        if not self.voltage_levels:
            raise ConfigError("voltage_levels must list at least one kV level")
        if not (0 < self.near_pct < self.overload_pct):
            raise ConfigError("need 0 < near threshold < overload threshold")
        if not (0 < self.pfc_cap_pct <= 100):
            raise ConfigError("pfc cap must lie in (0, 100] percent")
        if not (0 < self.snsp_cap <= 1):
            raise ConfigError("snsp_cap must lie in (0, 1]")
        if not (0 <= self.derate < 0.5):
            raise ConfigError("derate must lie in [0, 0.5)")
        if self.bisection_tol_pp <= 0:
            raise ConfigError("bisection tolerance must be > 0")
        bad = [m for m in self.summer_months if not 1 <= m <= 12]
        if bad:
            raise ConfigError(f"summer_months outside 1..12: {bad}")

    def calendar(self) -> SeasonCalendar:
        return SeasonCalendar.from_months(
            summer_months=tuple(self.summer_months), derate_factor=self.derate
        )

    def content_hash(self, scope: str) -> str:
        """sha256 over the input file bytes and the parameters a stage uses.

        Scoped hashing keeps caches precise: changing the PFC cap must not
        invalidate a year of dispatch, while touching an input file
        invalidates everything.
        """
        if scope not in _SCOPE_PARAMS:
            raise ConfigError(f"unknown hash scope {scope!r}")
        params = self._values(_SCOPE_PARAMS[scope])
        digest = hashlib.sha256()
        digest.update(json.dumps(params, sort_keys=True).encode())
        for key in INPUT_KEYS:
            path = Path(self.inputs[key])
            digest.update(key.encode())
            if path.exists():
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def parameter_echo(self) -> dict:
        """The defaults/settings block printed into summary.json: every
        parameter that shapes results, bar the scenario and slack bus."""
        return self._values(
            name for name in _SITING_PARAMS if name not in ("scenario", "slack_bus")
        )

    def _values(self, names) -> dict:
        """The named parameters as JSON values (tuples as lists)."""
        values = {}
        for name in names:
            value = getattr(self, name)
            values[name] = list(value) if isinstance(value, tuple) else value
        return values


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    """An integer or a finite float: Python's json reads NaN and Infinity."""
    return _integer(value) or isinstance(value, float) and math.isfinite(value)


# the JSON form each StudyConfig field accepts, keyed by its annotation:
# (check, what the error message says it must be)
_JSON_TYPES = {
    "dict[str, str]": (
        lambda v: isinstance(v, dict) and all(isinstance(p, str) for p in v.values()),
        "an object of path strings",
    ),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "float": (_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "tuple[float, ...]": (
        lambda v: isinstance(v, list) and all(map(_number, v)), "a list of finite numbers"
    ),
    "tuple[int, ...]": (
        lambda v: isinstance(v, list) and all(map(_integer, v)), "a list of integers"
    ),
}


def load_config(path) -> StudyConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    types = {f.name: f.type for f in fields(StudyConfig)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    if "inputs" not in raw:
        raise ConfigError(f"{path}: config needs an 'inputs' object")
    for key, value in raw.items():
        check, expected = _JSON_TYPES[types[key]]
        if not check(value):
            raise ConfigError(f"{path}: {key} must be {expected}, got {value!r}")

    def resolve(value: str) -> str:
        if Path(value).is_absolute():
            return value
        return str((path.parent / value).resolve())

    kwargs = {
        "inputs": {key: resolve(value) for key, value in raw["inputs"].items()},
        "out_dir": resolve(raw.get("out_dir", StudyConfig.out_dir)),
    }
    for key, value in raw.items():
        if key not in kwargs:
            kwargs[key] = tuple(value) if isinstance(value, list) else value
    return StudyConfig(**kwargs)


def apply_overrides(config: StudyConfig, **flags) -> StudyConfig:
    """Command-line flags win over the config file; a flag left unset (None)
    keeps the file's value."""
    return replace(config, **{k: v for k, v in flags.items() if v is not None})

"""Declarative experiment configuration.

Experiments are described by a single commented YAML file with typed keys.
The `model:` and `pickands:` sections are the library's own `ModelParams`
and `ExtrapolationProtocol`; every key is optional and keeps the default of
`ExperimentConfig()`.  Quadrature tolerances are not a key: the CLI runs at
`quad.DEFAULT_CONFIG`, the library takes others.  Unknown keys and values
of the wrong type are rejected at every nesting level, so a typo cannot
silently fall back to a default, and every section checks its own values
in `__post_init__`, so a bad value fails at load, named by its key path,
before any output is written.  Each run's MANIFEST holds the loaded
config as `dataclasses.asdict` gives it, a mapping that loads back to an
equal config, which together with the seed makes CSV outputs
byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .fieldsim import BLOCK_H_REPLICATES, BLOCK_N_GRID, BlockSpec
from .model import ModelParams, Point2
from .pickands import ExtrapolationProtocol
from .streams import DEFAULT_BATCH

__all__ = [
    "ExperimentConfig",
    "GridSection",
    "BlocksSection",
    "IntegralBranch",
    "SweepSection",
    "ConfigError",
    "load_config",
]


class ConfigError(ValueError):
    """Malformed experiment configuration; `key`, if given, names the field at fault."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key


@dataclass
class GridSection:
    kind: str = "square"  # "square" (uniform lattice) or "side" (strip-emphasis lattice)
    n_per_axis: int = 64  # square grids only

    def __post_init__(self) -> None:
        if self.kind not in ("square", "side"):
            raise ConfigError(f"unknown grid kind {self.kind!r}; expected 'square' or 'side'")
        if self.n_per_axis < 2:
            raise ConfigError(f"n_per_axis must be at least 2, got {self.n_per_axis}")


@dataclass
class BlocksSection:
    v1: float = 0.0  # block base point
    v2: float = 0.0
    s1: float = 2.0  # side multipliers in q_u units
    s2: float = 2.0
    u_values: list = field(default_factory=lambda: [3.0, 4.0])
    n_grid: int = BLOCK_N_GRID  # lattice points per block axis
    n_samples: list = field(default_factory=lambda: [1_000_000, 3_000_000])  # one per u
    h_replicates: int = BLOCK_H_REPLICATES

    def __post_init__(self) -> None:
        if not self.u_values:
            raise ConfigError("u_values must hold at least one level")
        if len(self.n_samples) != len(self.u_values):
            raise ConfigError("n_samples must hold one count per u_values level")
        self.specs()  # the base, side and level rules of a block
        if self.n_grid < 2:
            raise ConfigError(f"n_grid must be at least 2, got {self.n_grid}")
        if min(self.n_samples) < 1:
            raise ConfigError(f"n_samples must be at least 1, got {min(self.n_samples)}")
        if self.h_replicates < 2:
            raise ConfigError(f"h_replicates must be at least 2, got {self.h_replicates}")

    def specs(self) -> list[BlockSpec]:
        """The block at each level of `u_values`; `cli.main` checks that it fits the model."""
        return [BlockSpec(Point2(self.v1, self.v2), self.s1, self.s2, u) for u in self.u_values]


@dataclass
class IntegralBranch:
    gamma: float = 1.0
    a: float = 2.0
    delta: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("gamma", "a", "delta"):
            if not (0 < getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass
class SweepSection:
    a_min: float = 0.3
    a_max: float = 1.5
    n_points: int = 61
    u: float = 10.0

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise ConfigError(f"n_points must be at least 1, got {self.n_points}")
        if not (0 < self.a_min <= self.a_max):
            raise ConfigError(f"need 0 < a_min <= a_max, got {self.a_min}, {self.a_max}")
        for name in ("a_max", "u"):  # a_min <= a_max is finite then
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class ExperimentConfig:
    seed: int = 12345
    workers: int = 1
    out: str = "results"
    n_samples: int = 100_000
    batch_size: int = DEFAULT_BATCH
    u_ladder: list = field(default_factory=lambda: [2.0, 2.5, 3.0])
    h_alpha: float | None = None  # None -> known-value table (alpha = 1)
    model: ModelParams = field(default_factory=lambda: ModelParams(1.0, 2.0, 2.0))
    grid: GridSection = field(default_factory=GridSection)
    pickands: ExtrapolationProtocol = field(default_factory=ExtrapolationProtocol)
    blocks: BlocksSection = field(default_factory=BlocksSection)
    integrals: list = field(default_factory=lambda: [
        IntegralBranch(gamma=1.0, a=2.0, delta=1.0, label="classical"),
        IntegralBranch(gamma=1.0, a=1.0, delta=1.0, label="critical"),
        IntegralBranch(gamma=1.0, a=0.8, delta=1.0, label="log"),
    ])
    sweep: SweepSection = field(default_factory=SweepSection)

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError("must be at least 1", key="n_samples")
        if self.workers < 1:
            raise ConfigError("must be at least 1", key="workers")
        if self.batch_size < 1:
            raise ConfigError("must be at least 1", key="batch_size")
        if not self.u_ladder:
            raise ConfigError("must hold at least one level", key="u_ladder")
        if not all(map(math.isfinite, self.u_ladder)):
            raise ConfigError(f"levels must be finite, got {self.u_ladder}", key="u_ladder")
        if any(b <= a for a, b in zip(self.u_ladder, self.u_ladder[1:])):
            raise ConfigError("must be strictly increasing", key="u_ladder")
        if self.u_ladder[0] <= 0:
            raise ConfigError(f"levels must be positive, got {self.u_ladder[0]}", key="u_ladder")
        if self.h_alpha is not None and not (0 < self.h_alpha < math.inf):
            raise ConfigError(f"must be positive and finite, got {self.h_alpha}", key="h_alpha")
        labels = self.integral_labels()
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigError(f"labels must be unique; repeated: {repeated}", key="integrals")

    def integral_labels(self) -> list[str]:
        """The name of each `integrals` branch: its label, or branch{i} if empty."""
        return [b.label or f"branch{i}" for i, b in enumerate(self.integrals)]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked(default: Any, value: Any, where: str) -> Any:
    """value, if its type fits the default it replaces (an int fits a float,
    None fits only h_alpha); a list replacing a tuple becomes a tuple."""
    if isinstance(default, (list, tuple)):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if default and _is_number(default[0]):
            for i, item in enumerate(value):
                _checked(default[0], item, f"{where}[{i}]")
        return type(default)(value)
    if default is None or isinstance(default, float):
        ok = _is_number(value) or (default is None and value is None)
        expected = "a number"
    else:
        ok = isinstance(value, type(default)) and not isinstance(value, bool)
        expected = type(default).__name__
    if not ok:
        hint = "; a YAML float needs a dot and a signed exponent: write 1.0e+3, not 1e3 or 1.0e3"
        raise ConfigError(
            f"{where}: expected {expected}, got {value!r}{hint if isinstance(value, str) else ''}"
        )
    return value


def _build(default: Any, data: Any, where: str) -> Any:
    """A copy of the dataclass instance `default` with the keys of the
    mapping `data` replaced.  A field whose default is a dataclass is a
    section and is built the same way; unknown keys are rejected."""
    if data is None:
        return default
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    names = [f.name for f in dataclasses.fields(default)]
    unknown = set(data) - set(names)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; valid keys: {sorted(names)}")
    changes = {}
    for name, value in data.items():
        old, key = getattr(default, name), f"{where}.{name}"
        if dataclasses.is_dataclass(old):
            changes[name] = _build(old, value, key)
        elif name == "integrals":
            branches = enumerate(_checked(old, value, key))
            changes[name] = [_build(IntegralBranch(), b, f"{key}[{i}]") for i, b in branches]
        else:
            changes[name] = _checked(old, value, key)
    try:
        return dataclasses.replace(default, **changes)
    except ValueError as exc:
        sep = "." if getattr(exc, "key", None) else ": "
        raise ConfigError(f"{where}{sep}{exc}") from None


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a YAML config file (optional) and apply CLI overrides."""
    data: dict = {}
    if path is not None:
        data = yaml.safe_load(Path(path).read_text())
        if data is None:  # an empty file
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return _build(ExperimentConfig(), data, "config")


"""Declarative experiment configuration.

Experiments are described by a single commented YAML file with typed keys.
Every field has a default; unknown keys are rejected at every nesting level
so a typo cannot silently fall back to a default.  The normalized config is
echoed into each run's MANIFEST, which together with the seed makes CSV
outputs byte-reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .model import ModelParams
from .quad import QuadratureConfig

__all__ = [
    "ExperimentConfig",
    "ModelSection",
    "GridSection",
    "PickandsSection",
    "BlocksSection",
    "IntegralBranch",
    "SweepSection",
    "ConfigError",
    "load_config",
    "config_to_dict",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = ("constants", "integrals", "pickands", "mc", "blocks", "sweep")


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass
class ModelSection:
    alpha: float = 1.0
    beta: float = 2.0
    a: float = 2.0
    T: float = 1.0
    c1: float = 0.0
    c2: float = 0.0

    def to_params(self) -> ModelParams:
        return ModelParams(self.alpha, self.beta, self.a, self.T, self.c1, self.c2)


@dataclass
class GridSection:
    kind: str = "square"  # "square" (uniform lattice) or "side" (strip-emphasis lattice)
    n_per_axis: int = 64
    n_uniform: int = 72  # side grids: uniform sweep size per axis
    n_geo: int = 28  # side grids: geometric strip refinement per axis
    width: float = 0.25  # side grids: strip width receiving the refinement
    inner: float = 1e-4  # side grids: innermost refined coordinate


@dataclass
class PickandsSection:
    s_ladder: list = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0])
    spacing_factor: float = 0.05
    n_replicates: int = 400_000
    sampler: str = "auto"
    batch_size: int = 2048


@dataclass
class BlocksSection:
    v1: float = 0.0  # block base point
    v2: float = 0.0
    s1: float = 2.0  # side multipliers in q_u units
    s2: float = 2.0
    u_values: list = field(default_factory=lambda: [3.0, 4.0])
    n_grid: int = 32  # lattice points per block axis
    n_samples: list = field(default_factory=lambda: [1_000_000, 3_000_000])
    h_replicates: int = 200_000


@dataclass
class IntegralBranch:
    gamma: float = 1.0
    a: float = 2.0
    delta: float = 1.0
    label: str = ""


@dataclass
class SweepSection:
    a_min: float = 0.3
    a_max: float = 1.5
    n_points: int = 61
    u: float = 10.0


@dataclass
class ExperimentConfig:
    kind: str = "constants"
    seed: int = 12345
    workers: int = 1
    out: str = "results"
    n_samples: int = 100_000
    batch_size: int = 2048
    u_ladder: list = field(default_factory=lambda: [2.0, 2.5, 3.0])
    h_alpha: float | None = None  # None -> known-value table (alpha = 1)
    model: ModelSection = field(default_factory=ModelSection)
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)
    grid: GridSection = field(default_factory=GridSection)
    pickands: PickandsSection = field(default_factory=PickandsSection)
    blocks: BlocksSection = field(default_factory=BlocksSection)
    integrals: list = field(default_factory=lambda: [
        IntegralBranch(gamma=1.0, a=2.0, delta=1.0, label="classical"),
        IntegralBranch(gamma=1.0, a=1.0, delta=1.0, label="critical"),
        IntegralBranch(gamma=1.0, a=0.8, delta=1.0, label="log"),
    ])
    sweep: SweepSection = field(default_factory=SweepSection)

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.u_ladder and any(
            b <= a for a, b in zip(self.u_ladder, self.u_ladder[1:])
        ):
            raise ConfigError("u_ladder must be strictly increasing")
        self.model.to_params()  # raises on invalid model parameters


# Nested sections, by field name (annotations are strings at runtime).
_SECTION_TYPES = {
    "model": ModelSection,
    "quad": QuadratureConfig,
    "grid": GridSection,
    "pickands": PickandsSection,
    "blocks": BlocksSection,
    "sweep": SweepSection,
}


def _build(cls: type, data: Any, where: str) -> Any:
    """Recursively build a dataclass from a mapping, rejecting unknown keys."""
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; valid keys: {sorted(fields)}")
    kwargs = {}
    for name, value in data.items():
        if name in _SECTION_TYPES:
            kwargs[name] = _build(_SECTION_TYPES[name], value, f"{where}.{name}")
        elif name == "integrals":
            if not isinstance(value, list):
                raise ConfigError(f"{where}.integrals: expected a list")
            kwargs[name] = [
                _build(IntegralBranch, item, f"{where}.integrals[{i}]")
                for i, item in enumerate(value)
            ]
        else:
            kwargs[name] = value
    return cls(**kwargs)


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a YAML config file (optional) and apply CLI overrides."""
    data: dict = {}
    if path is not None:
        raw = Path(path).read_text()
        loaded = yaml.safe_load(raw)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        data = loaded
    cfg = _build(ExperimentConfig, data, "config")
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Normalized plain-dict form (for the MANIFEST echo)."""
    def convert(obj: Any) -> Any:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: convert(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, list):
            return [convert(v) for v in obj]
        return obj

    return convert(cfg)

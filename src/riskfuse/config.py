"""Pipeline configuration: defaults, validation, JSON loading.

A single JSON document configures every stage: the DEMATEL linguistic
scale, the clustering radius, the crow-search constants, the coefficient
search range, the split/cross-validation protocol, the dataset column
mapping, and the TOPSIS criteria kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import DEFAULT_ORDINAL_VALUES, ORDINAL_LEVELS
from .ecsa import EcsaConfig, check_count, is_integer, is_real
from .errors import DataError, read_json
from .fuzzy import DEFAULT_DEMATEL_SCALE, LinguisticScale
from .topsis import CriterionKind

# Coefficient search ranges for the parameter-scaling tuner.
MAGNITUDE_DELTA = 1.0   # mode A: U in [10^-delta, 10^+delta], signs preserved
SIGNED_LIMIT = 10.0     # mode B: U in [-M, +M]

# The crow-search constants, the fields PipelineConfig shares with EcsaConfig.
_SEARCH_FIELDS = tuple(f.name for f in fields(EcsaConfig) if f.name != "bounds")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs besides the data files."""

    scale: LinguisticScale = DEFAULT_DEMATEL_SCALE
    cluster_radius: float = 0.5
    split_fraction: float = 0.7
    cv_folds: int = 3
    # Crow-search constants: defaults and checks come from EcsaConfig.
    seed: int = EcsaConfig.seed
    population_size: int = EcsaConfig.population_size
    max_iterations: int = EcsaConfig.max_iterations
    flight_length: float = EcsaConfig.flight_length
    ap_min: float = EcsaConfig.ap_min
    ap_max: float = EcsaConfig.ap_max
    runs: int = 20
    coefficient_mode: str = "magnitude"
    # Dataset mapping.
    anfis_inputs: str = "groups"
    ordinal_values: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_ORDINAL_VALUES)
    )
    missing_value: float = DEFAULT_ORDINAL_VALUES["nominal"]
    # TOPSIS: one kind per criterion, or empty for all-benefit.
    criteria_kinds: tuple[CriterionKind, ...] = ()

    def __post_init__(self):
        for f in fields(self):  # annotations are strings under postponed evaluation
            value = getattr(self, f.name)
            if f.name in _SEARCH_FIELDS:
                continue
            if f.type == "int" and not is_integer(value):
                raise DataError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not is_real(value):
                raise DataError(f"{f.name} must be a finite number, got {value!r}")
        levels = self.ordinal_values
        if not (isinstance(levels, dict) and all(map(is_real, levels.values()))):
            raise DataError(f"ordinal_values must map levels to finite numbers, got {levels!r}")
        unknown = [key for key in levels if key not in ORDINAL_LEVELS]
        if unknown:
            raise DataError(f"unknown ordinal_values keys: {unknown}; levels: {ORDINAL_LEVELS}")
        self.ecsa_config(1)  # the crow-search constants' one check
        if not (0.0 < self.split_fraction < 1.0):
            raise DataError(
                f"split_fraction must be inside (0, 1), got {self.split_fraction}"
            )
        if self.cv_folds < 2:
            raise DataError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if self.cluster_radius <= 0:
            raise DataError(f"cluster_radius must be positive, got {self.cluster_radius}")
        check_count("runs", self.runs)
        if self.coefficient_mode not in ("magnitude", "signed"):
            raise DataError(
                f"coefficient_mode must be 'magnitude' or 'signed', "
                f"got {self.coefficient_mode!r}"
            )
        if self.anfis_inputs not in ("groups", "codes"):
            raise DataError(
                f"anfis_inputs must be 'groups' or 'codes', got {self.anfis_inputs!r}"
            )

    def coefficient_bounds(self) -> tuple[float, float]:
        """Per-dimension bounds of the coefficient search box."""
        if self.coefficient_mode == "magnitude":
            return (10.0**-MAGNITUDE_DELTA, 10.0**MAGNITUDE_DELTA)
        return (-SIGNED_LIMIT, SIGNED_LIMIT)

    def ecsa_config(self, dim: int) -> EcsaConfig:
        """The crow-search constants over a ``dim``-dimensional coefficient box."""
        return EcsaConfig(
            bounds=np.full((dim, 2), self.coefficient_bounds()),
            **{k: getattr(self, k) for k in _SEARCH_FIELDS},
        )

    def kinds_for(self, n_criteria: int) -> tuple[CriterionKind, ...]:
        if not self.criteria_kinds:
            return tuple(CriterionKind.BENEFIT for _ in range(n_criteria))
        if len(self.criteria_kinds) != n_criteria:
            raise DataError(
                f"config supplies {len(self.criteria_kinds)} criteria kinds "
                f"for {n_criteria} criteria"
            )
        return self.criteria_kinds


def _scale_from_dict(payload: dict) -> LinguisticScale:
    if not (isinstance(payload, dict) and {"labels", "tfns"} <= payload.keys()):
        raise DataError("a linguistic scale must be an object with 'labels' and 'tfns'")
    return LinguisticScale(payload.get("name", "custom"), payload["labels"], payload["tfns"])


def config_from_dict(payload: dict) -> PipelineConfig:
    """Build a PipelineConfig from a parsed JSON document.

    The document must be a JSON object.  Unknown keys are rejected so
    typos do not silently fall back to defaults.
    """
    if not isinstance(payload, dict):
        raise DataError(f"a configuration must be a JSON object, got {type(payload).__name__}")
    payload = dict(payload)
    kwargs = {}
    if "scale" in payload:
        kwargs["scale"] = _scale_from_dict(payload.pop("scale"))
    if "criteria_kinds" in payload:
        try:
            kwargs["criteria_kinds"] = tuple(
                CriterionKind(kind) for kind in payload.pop("criteria_kinds")
            )
        except (TypeError, ValueError) as exc:
            raise DataError(f"criteria_kinds: {exc}") from exc
    for f in fields(PipelineConfig):
        if f.name in payload:
            kwargs[f.name] = payload.pop(f.name)
    if payload:
        raise DataError(f"unknown configuration keys: {sorted(payload)}")
    return PipelineConfig(**kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON configuration file."""
    return config_from_dict(read_json(path, "configuration"))

"""NASA-93 style dataset ingestion and feature mapping.

Loads COCOMO-81 format project records from CSV or ARFF files, resolves
the risk-criteria catalog (six groups P..U) against the dataset columns,
and maps ordinal ratings onto normalized [0, 1] feature values.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

ORDINAL_LEVELS = ("very_low", "low", "nominal", "high", "very_high", "extra_high")

# Equally spaced default mapping; override through the pipeline config.
DEFAULT_ORDINAL_VALUES = {
    "very_low": 0.0,
    "low": 0.2,
    "nominal": 0.4,
    "high": 0.6,
    "very_high": 0.8,
    "extra_high": 1.0,
}

_SHORT_TOKENS = {
    "vl": "very_low",
    "l": "low",
    "n": "nominal",
    "h": "high",
    "vh": "very_high",
    "xh": "extra_high",
}

_MISSING_TOKENS = {"", "?", "na", "nan"}

# COCOMO-81 effort-multiplier columns as they appear in the PROMISE files.
RATING_COLUMNS = (
    "rely", "data", "cplx", "time", "stor", "virt", "turn",
    "acap", "aexp", "pcap", "vexp", "lexp", "modp", "tool", "sced",
)

_SIZE_COLUMNS = ("kloc", "equivphyskloc", "size", "ksloc")
_EFFORT_COLUMNS = ("effort", "act_effort", "acteffort", "actual_effort")
_ID_COLUMNS = ("recordnumber", "id", "project", "projectname")


@dataclass(frozen=True)
class ProjectRecord:
    """One project: ordinal ratings plus size and actual effort."""

    identifier: str
    ratings: dict[str, str | None]
    size: float | None = None
    effort: float | None = None
    extras: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for column, level in self.ratings.items():
            if level is not None and level not in ORDINAL_LEVELS:
                raise DataError(
                    f"record {self.identifier}: rating {column}={level!r} is not "
                    f"one of {ORDINAL_LEVELS}"
                )
        if self.size is not None and self.size <= 0:
            raise DataError(f"record {self.identifier}: size must be positive")
        if self.effort is not None and self.effort <= 0:
            raise DataError(f"record {self.identifier}: effort must be positive")


@dataclass(frozen=True)
class CriteriaCatalog:
    """Risk criteria grouped P..U with dataset-column resolution.

    ``columns`` maps each code to the dataset column carrying it, or
    None when the attribute does not exist in COCOMO-81 data.  SIZE is
    special-cased onto the numeric size field.
    """

    groups: dict[str, tuple[str, ...]]
    columns: dict[str, str | None]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for group, codes in self.groups.items():
            for code in codes:
                if code in seen:
                    raise DataError(f"code {code} appears in more than one group")
                seen.add(code)
        unknown = set(self.columns) - seen
        if unknown:
            raise DataError(f"column mapping for codes outside the catalog: {unknown}")

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(code for codes in self.groups.values() for code in codes)

    def resolvable_codes(self) -> tuple[str, ...]:
        return tuple(c for c in self.codes if self.columns.get(c) is not None)

    def group_names(self) -> tuple[str, ...]:
        return tuple(self.groups)


def default_catalog() -> CriteriaCatalog:
    """The bundled six-group catalog for NASA-93 COCOMO data.

    DATA is listed under both product and platform risk in the source
    material; it is kept once (product) and the duplicate is flagged.
    """
    return CriteriaCatalog(
        groups={
            "P": ("SCED",),
            "Q": ("RELY", "DATA", "SIZE", "CPLX", "DOCU"),
            "R": ("TIME", "STOR"),
            "S": ("ACAP", "AEXP", "LTEX", "PCAP", "VEXP", "PCON"),
            "T": ("TOOL", "SITE", "PREC", "FLEX", "RESL", "TEAM", "PMAT", "INCREMENTS"),
            "U": ("RUSE",),
        },
        columns={
            "SCED": "sced",
            "RELY": "rely",
            "DATA": "data",
            "SIZE": "kloc",
            "CPLX": "cplx",
            "DOCU": None,
            "TIME": "time",
            "STOR": "stor",
            "ACAP": "acap",
            "AEXP": "aexp",
            "LTEX": "lexp",
            "PCAP": "pcap",
            "VEXP": "vexp",
            "PCON": None,
            "TOOL": "tool",
            "SITE": None,
            "PREC": None,
            "FLEX": None,
            "RESL": None,
            "TEAM": None,
            "PMAT": None,
            "INCREMENTS": None,
            "RUSE": None,
        },
        notes=("duplicate DATA row in source grouping kept once under group Q",),
    )


def _parse_rating(token: str, column: str, line: int) -> str | None:
    cleaned = token.strip().lower()
    if cleaned in _MISSING_TOKENS:
        return None
    if cleaned in _SHORT_TOKENS:
        return _SHORT_TOKENS[cleaned]
    if cleaned in ORDINAL_LEVELS:
        return cleaned
    raise DataError(
        f"line {line}: unknown ordinal token {token!r} in column '{column}'"
    )


def _parse_number(token: str, column: str, line: int) -> float | None:
    cleaned = token.strip()
    if cleaned.lower() in _MISSING_TOKENS:
        return None
    try:
        value = float(cleaned)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        raise DataError(
            f"line {line}: cannot parse {token!r} in column '{column}' as a finite number"
        )
    return value


# Header name -> the record field it gives: a rating column, "size",
# "effort", or "id"; any other column is an extra.
_FIELDS = {
    **{column: column for column in RATING_COLUMNS},
    **dict.fromkeys(_SIZE_COLUMNS, "size"),
    **dict.fromkeys(_EFFORT_COLUMNS, "effort"),
    **dict.fromkeys(_ID_COLUMNS, "id"),
}


def _header_field(column: str, seen: dict[str, str], line: int) -> tuple[str | None, str]:
    """A header column's (field, name).  ``seen`` maps each field to the
    column that gave it: none takes two columns, and every ID column
    after the first is an extra."""
    name = column.strip().lower()
    field = _FIELDS.get(name)
    if field == "id" and field in seen:
        field = None
    elif field is not None:
        if field in seen:
            raise DataError(f"line {line}: columns {seen[field]!r} and {name!r} both give {field}")
        seen[field] = name
    return field, name


def _build_record(
    header: list[tuple[str | None, str]], values: list[str], line: int, index: int
) -> ProjectRecord:
    if len(values) != len(header):
        raise DataError(
            f"line {line}: row has {len(values)} fields, header has {len(header)}"
        )
    ratings: dict[str, str | None] = {}
    extras: dict[str, str] = {}
    identifier = str(index + 1)
    size = effort = None
    for (field, name), token in zip(header, values):
        if field in RATING_COLUMNS:
            ratings[name] = _parse_rating(token, name, line)
        elif field == "size":
            size = _parse_number(token, name, line)
        elif field == "effort":
            effort = _parse_number(token, name, line)
        elif field == "id":
            identifier = token.strip() or identifier
        else:
            extras[name] = token.strip()
    return ProjectRecord(
        identifier=identifier, ratings=ratings, size=size, effort=effort, extras=extras
    )


def _load_csv(path: Path) -> list[ProjectRecord]:
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        rows = [(line, row) for line, row in enumerate(reader, start=1) if row]
    if not rows:
        raise DataError(f"{path}: no header row found")
    header_line, columns = rows[0]
    seen: dict[str, str] = {}
    header = [_header_field(column, seen, header_line) for column in columns]
    return [_build_record(header, row, line, i) for i, (line, row) in enumerate(rows[1:])]


def _load_arff(path: Path) -> list[ProjectRecord]:
    header: list[tuple[str | None, str]] = []
    seen: dict[str, str] = {}
    records: list[ProjectRecord] = []
    in_data = False
    index = 0
    with path.open(encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            lowered = line.lower()
            if lowered.startswith("@attribute"):
                if in_data:
                    raise DataError(f"line {line_no}: @attribute declaration after @data")
                parts = line.split(None, 2)
                if len(parts) < 2:
                    raise DataError(f"line {line_no}: malformed @attribute declaration")
                header.append(_header_field(parts[1].strip("'\""), seen, line_no))
            elif lowered.startswith("@data"):
                in_data = True
                if not header:
                    raise DataError(f"{path}: @data before any @attribute")
            elif lowered.startswith("@"):
                continue
            elif in_data:
                values = next(csv.reader([line]))
                records.append(_build_record(header, values, line_no, index))
                index += 1
    if not in_data:
        raise DataError(f"{path}: no @data section found")
    return records


_READERS = {"csv": _load_csv, "arff": _load_arff}


def load_dataset(path: str | Path, format: str | None = None) -> list[ProjectRecord]:
    """Load project records from a CSV or ARFF file.

    Args:
        path: file to read.
        format: "csv" or "arff"; inferred from the suffix when omitted.

    Returns:
        One record per data row.  An empty data section yields an empty
        list with a logged warning.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not readable: {path}")
    if format is None:
        format = path.suffix.lstrip(".").lower() or "csv"
    if format not in _READERS:
        raise DataError(f"unsupported dataset format {format!r} (csv or arff)")
    try:
        records = _READERS[format](path)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a UTF-8 {format} file ({exc})") from exc
    if not records:
        log.warning("%s: data section is empty", path)
    log.info("%s: loaded %d records", path, len(records))
    return records


@dataclass(frozen=True)
class FeatureMapping:
    """Value mapping fitted over a loaded dataset.

    Ordinal ratings read the configured level values, size is min-max
    scaled over ``size_range`` and effort divided by ``max_effort``; each
    is None when no fitted record carried the field.  Missing entries
    read ``missing_value``.
    """

    ordinal_values: dict[str, float]
    size_range: tuple[float, float] | None
    max_effort: float | None
    missing_value: float = DEFAULT_ORDINAL_VALUES["nominal"]

    @classmethod
    def fit(
        cls,
        records: list[ProjectRecord],
        ordinal_values: dict[str, float] | None = None,
        missing_value: float = DEFAULT_ORDINAL_VALUES["nominal"],
    ) -> "FeatureMapping":
        values = dict(DEFAULT_ORDINAL_VALUES if ordinal_values is None else ordinal_values)
        sizes = [r.size for r in records if r.size is not None]
        efforts = [r.effort for r in records if r.effort is not None]
        return cls(
            ordinal_values=values,
            size_range=(min(sizes), max(sizes)) if sizes else None,
            max_effort=max(efforts) if efforts else None,
            missing_value=missing_value,
        )


def feature_table(
    records: list[ProjectRecord], catalog: CriteriaCatalog, mapping: FeatureMapping
) -> tuple[np.ndarray, np.ndarray]:
    """The (records, resolvable codes) feature table and the effort targets
    of the records that carry an effort, built and checked one column at
    a time.

    Ratings read the mapping's level values and size its min-max scale,
    clipped to [0, 1]; a missing entry, or any size when the fitted range
    is one value, reads ``missing_value``.  The target is effort over the
    largest fitted effort, so it is never zero and percentage errors stay
    defined.  Raises DataError when no record carries an effort, and for
    an unmapped rating level, sizes without a fitted range, or a mapping
    without a positive fitted effort.
    """
    records = [r for r in records if r.effort is not None]
    if not records:
        raise DataError("no records carry an effort value to learn from")
    codes = catalog.resolvable_codes()
    levels = {None: mapping.missing_value, **mapping.ordinal_values}
    table = np.full((len(records), len(codes)), float(mapping.missing_value))
    for j, code in enumerate(codes):
        if code == "SIZE":
            sizes = np.array([np.nan if r.size is None else r.size for r in records])
            known = ~np.isnan(sizes)
            if mapping.size_range is None and known.any():
                raise DataError("no fitted range for numeric attribute 'size'")
            lo, hi = mapping.size_range or (0.0, 0.0)
            if hi > lo:
                table[known, j] = np.clip((sizes[known] - lo) / (hi - lo), 0.0, 1.0)
            continue
        column = catalog.columns[code]
        try:
            table[:, j] = [levels[r.ratings.get(column)] for r in records]
        except KeyError as exc:
            raise DataError(f"no mapped value for ordinal level {exc.args[0]!r}") from None
    if mapping.max_effort is None or mapping.max_effort <= 0:
        raise DataError("no positive effort range fitted over the dataset")
    return table, np.array([r.effort for r in records]) / mapping.max_effort


def bundled_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(str(resources.files("riskfuse").joinpath("data", name)))

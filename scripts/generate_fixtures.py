#!/usr/bin/env python3
"""Regenerate the bundled data fixtures under src/riskfuse/data/.

The project dataset is a schema-faithful synthetic sample in the
NASA-93 / COCOMO-81 layout (same columns, ordinal levels, and record
count as the PROMISE file) generated with a fixed seed.  It is NOT the
original PROMISE data; effort values follow the intermediate COCOMO
formula with mode-specific constants, multiplier tables, and lognormal
noise so the ratings carry real signal.

Run from the repository root:  python scripts/generate_fixtures.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "riskfuse" / "data"

SEED = 20240917
N_RECORDS = 93

# Intermediate COCOMO-81 effort multipliers per rating column.
MULTIPLIERS = {
    "rely": {"vl": 0.75, "l": 0.88, "n": 1.00, "h": 1.15, "vh": 1.40},
    "data": {"l": 0.94, "n": 1.00, "h": 1.08, "vh": 1.16},
    "cplx": {"vl": 0.70, "l": 0.85, "n": 1.00, "h": 1.15, "vh": 1.30, "xh": 1.65},
    "time": {"n": 1.00, "h": 1.11, "vh": 1.30, "xh": 1.66},
    "stor": {"n": 1.00, "h": 1.06, "vh": 1.21, "xh": 1.56},
    "virt": {"l": 0.87, "n": 1.00, "h": 1.15, "vh": 1.30},
    "turn": {"l": 0.87, "n": 1.00, "h": 1.07, "vh": 1.15},
    "acap": {"vh": 0.71, "h": 0.86, "n": 1.00, "l": 1.19, "vl": 1.46},
    "aexp": {"vh": 0.82, "h": 0.91, "n": 1.00, "l": 1.13, "vl": 1.29},
    "pcap": {"vh": 0.70, "h": 0.86, "n": 1.00, "l": 1.17, "vl": 1.42},
    "vexp": {"h": 0.90, "n": 1.00, "l": 1.10, "vl": 1.21},
    "lexp": {"h": 0.95, "n": 1.00, "l": 1.07, "vl": 1.14},
    "modp": {"vh": 0.82, "h": 0.91, "n": 1.00, "l": 1.10, "vl": 1.24},
    "tool": {"vh": 0.83, "h": 0.91, "n": 1.00, "l": 1.10, "vl": 1.24},
    "sced": {"vh": 1.10, "h": 1.04, "n": 1.00, "l": 1.08, "vl": 1.23},
}

MODES = {
    "organic": (3.2, 1.05),
    "semidetached": (3.0, 1.12),
    "embedded": (2.8, 1.20),
}

CATEGORIES = (
    "avionics", "datacapture", "missionplanning", "realdataprocessing",
    "monitor_control", "simulation", "utility", "science",
)

COLUMNS = [
    "recordnumber", "projectname", "cat2", "forg", "center", "year", "mode",
    "rely", "data", "cplx", "time", "stor", "virt", "turn", "acap", "aexp",
    "pcap", "vexp", "lexp", "modp", "tool", "sced", "kloc", "effort",
]


def _draw_rating(rng, levels, weights):
    return levels[rng.choice(len(levels), p=np.array(weights) / sum(weights))]


def generate_records() -> list[dict]:
    rng = np.random.default_rng(SEED)
    records = []
    for i in range(N_RECORDS):
        mode = ("organic", "semidetached", "embedded")[rng.choice(3, p=[0.25, 0.35, 0.40])]
        ratings = {
            "rely": _draw_rating(rng, ["l", "n", "h", "vh"], [2, 4, 4, 2]),
            "data": _draw_rating(rng, ["l", "n", "h", "vh"], [2, 5, 4, 1]),
            "cplx": _draw_rating(rng, ["l", "n", "h", "vh", "xh"], [1, 4, 4, 2, 1]),
            "time": _draw_rating(rng, ["n", "h", "vh", "xh"], [5, 3, 2, 1]),
            "stor": _draw_rating(rng, ["n", "h", "vh", "xh"], [5, 3, 2, 1]),
            "virt": _draw_rating(rng, ["l", "n", "h"], [3, 5, 2]),
            "turn": _draw_rating(rng, ["l", "n", "h"], [3, 5, 2]),
            "acap": _draw_rating(rng, ["vl", "l", "n", "h", "vh"], [1, 2, 4, 4, 2]),
            "aexp": _draw_rating(rng, ["vl", "l", "n", "h", "vh"], [1, 2, 4, 4, 2]),
            "pcap": _draw_rating(rng, ["vl", "l", "n", "h", "vh"], [1, 2, 4, 4, 2]),
            "vexp": _draw_rating(rng, ["vl", "l", "n", "h"], [1, 3, 5, 3]),
            "lexp": _draw_rating(rng, ["vl", "l", "n", "h"], [1, 3, 5, 3]),
            "modp": _draw_rating(rng, ["vl", "l", "n", "h", "vh"], [1, 3, 4, 3, 1]),
            "tool": _draw_rating(rng, ["vl", "l", "n", "h", "vh"], [1, 3, 4, 3, 1]),
            "sced": _draw_rating(rng, ["vl", "l", "n", "h", "vh"], [1, 3, 5, 2, 1]),
        }
        kloc = round(float(np.exp(rng.normal(3.0, 1.3))), 1)
        kloc = min(max(kloc, 0.9), 980.0)
        a, b = MODES[mode]
        eaf = math.prod(MULTIPLIERS[col][level] for col, level in ratings.items())
        effort = a * kloc**b * eaf * float(np.exp(rng.normal(0.0, 0.15)))
        records.append(
            {
                "recordnumber": i + 1,
                "projectname": f"proj{i + 1:02d}",
                "cat2": CATEGORIES[rng.choice(len(CATEGORIES))],
                "forg": "fg"[rng.choice(2)],
                "center": int(rng.choice([1, 2, 3, 4, 5, 6])),
                "year": int(rng.choice(range(1971, 1988))),
                "mode": mode,
                **ratings,
                "kloc": kloc,
                "effort": round(effort, 1),
            }
        )
    return records


def write_csv(records: list[dict], path: Path) -> None:
    lines = [",".join(COLUMNS)]
    for record in records:
        lines.append(",".join(str(record[c]) for c in COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def write_arff(records: list[dict], path: Path) -> None:
    header = [
        "% Synthetic sample in the NASA-93 / COCOMO-81 PROMISE layout.",
        "% Generated by scripts/generate_fixtures.py with a fixed seed;",
        "% NOT the original PROMISE records.",
        "@relation nasa93-format-sample",
    ]
    nominal = {
        "projectname": sorted({r["projectname"] for r in records}),
        "cat2": sorted({r["cat2"] for r in records}),
        "forg": ["f", "g"],
        "mode": ["embedded", "organic", "semidetached"],
    }
    for column in COLUMNS:
        if column in MULTIPLIERS:
            levels = sorted({r[column] for r in records})
            header.append(f"@attribute {column} {{{','.join(levels)}}}")
        elif column in nominal:
            header.append(f"@attribute {column} {{{','.join(nominal[column])}}}")
        else:
            header.append(f"@attribute {column} real")
    header.append("@data")
    rows = [",".join(str(r[c]) for c in COLUMNS) for r in records]
    path.write_text("\n".join(header + rows) + "\n")


def write_respondents(path: Path) -> None:
    """Four respondents judging the six risk-criteria groups P..U on the
    default five-level influence scale."""
    labels = ["No influence", "Very low", "Low", "High", "Very high"]
    ni, vl, lo, hi, vh = labels
    respondents = [
        [
            [ni, hi, lo, vl, lo, vl],
            [vh, ni, hi, lo, hi, lo],
            [lo, hi, ni, vl, lo, vl],
            [hi, vh, lo, ni, hi, lo],
            [lo, hi, vl, lo, ni, vl],
            [vl, lo, vl, vl, lo, ni],
        ],
        [
            [ni, vh, lo, lo, vl, vl],
            [vh, ni, vh, lo, lo, vl],
            [lo, lo, ni, vl, vl, ni],
            [vh, vh, lo, ni, lo, vl],
            [vl, lo, lo, hi, ni, lo],
            [ni, vl, vl, lo, vl, ni],
        ],
        [
            [ni, hi, vl, lo, lo, ni],
            [hi, ni, hi, hi, lo, lo],
            [vl, hi, ni, lo, vl, vl],
            [hi, hi, vl, ni, vh, vl],
            [lo, lo, lo, hi, ni, vl],
            [vl, vl, ni, vl, vl, ni],
        ],
        [
            [ni, vh, lo, vl, hi, vl],
            [vh, ni, lo, lo, hi, vl],
            [lo, hi, ni, ni, lo, lo],
            [vh, hi, lo, ni, hi, vl],
            [vl, hi, vl, lo, ni, ni],
            [lo, vl, vl, ni, vl, ni],
        ],
    ]
    payload = {
        "criteria": ["P", "Q", "R", "S", "T", "U"],
        "respondents": respondents,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def write_dematel_2x2(path: Path) -> None:
    payload = {
        "criteria": ["C1", "C2"],
        "respondents": [[[0, 2], [1, 0]]],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def write_default_config(path: Path) -> None:
    payload = {
        "cluster_radius": 0.5,
        "split_fraction": 0.7,
        "cv_folds": 3,
        "seed": 0,
        "population_size": 10,
        "max_iterations": 100,
        "flight_length": 2.0,
        "ap_min": 0.1,
        "ap_max": 0.8,
        "runs": 20,
        "coefficient_mode": "magnitude",
        "anfis_inputs": "groups",
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    records = generate_records()
    write_csv(records, OUT_DIR / "nasa93.csv")
    write_arff(records, OUT_DIR / "nasa93.arff")
    write_respondents(OUT_DIR / "respondents.json")
    write_dematel_2x2(OUT_DIR / "dematel_2x2.json")
    write_default_config(OUT_DIR / "default_config.json")
    print(f"wrote fixtures for {len(records)} records to {OUT_DIR}")


if __name__ == "__main__":
    main()

"""Intuitionistic fuzzy TOPSIS ranking.

Builds the weighted IF decision matrix, extracts positive and negative
ideal solutions per criterion, measures normalized Euclidean separation
from both, and ranks alternatives by the relative closeness coefficient.
The helpers take IF cells as one float (alternatives, criteria, 3) array
and a benefit mask, True per benefit criterion (``IfDecisionMatrix.benefit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import DataError
from .fuzzy import check_ifv, ifv_multiply, lift_crisp


class CriterionKind(Enum):
    BENEFIT = "benefit"
    COST = "cost"


@dataclass(frozen=True)
class IfDecisionMatrix:
    """Alternatives-by-criteria grid of intuitionistic fuzzy cells.

    ``rows`` may be any nested sequence of (mu, nu, pi) triples, such as
    tuples of ``IntuitionisticFuzzyValue``; it is stored as one read-only
    float array of shape (alternatives, criteria, 3), validated once.
    """

    rows: np.ndarray
    criteria_kinds: tuple[CriterionKind, ...]

    def __post_init__(self):
        rows = check_ifv(self.rows).copy()
        if rows.ndim != 3 or 0 in rows.shape:
            raise DataError(
                "decision matrix needs shape (alternatives, criteria, 3) with at "
                f"least one alternative and one criterion, got {rows.shape}"
            )
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        if len(self.criteria_kinds) != rows.shape[1]:
            raise DataError(
                f"{len(self.criteria_kinds)} criterion kinds for {rows.shape[1]} criteria"
            )

    @property
    def benefit(self) -> np.ndarray:
        """The benefit mask: True for each benefit criterion, False for cost."""
        return np.array([kind is CriterionKind.BENEFIT for kind in self.criteria_kinds])


def lift_crisp_weights(weights: Sequence[float]) -> np.ndarray:
    """Lift crisp weights in [0, 1] to IF weights (w, 1-w, 0), shape (criteria, 3),
    as ``fuzzy.lift_crisp`` does, when no expert IF weights are supplied."""
    return lift_crisp(weights)


def weighted_if_matrix(raw: IfDecisionMatrix, weights: ArrayLike) -> np.ndarray:
    """Multiply every cell by its criterion's intuitionistic weight; the
    (criteria, 3) weights broadcast over the alternatives."""
    weights = check_ifv(weights)
    if weights.shape != raw.rows.shape[1:]:
        raise DataError(
            f"weights of shape {weights.shape} supplied for {raw.rows.shape[1]} criteria"
        )
    return ifv_multiply(raw.rows, weights)


def ideal_solutions(cells: np.ndarray, benefit: ArrayLike) -> np.ndarray:
    """Per-criterion ideal IF cells: one (2, criteria, 3) array holding
    the positive ideal, then the negative one.

    Benefit criteria: positive ideal takes (max mu, min nu) across the
    alternatives and the negative ideal (min mu, max nu); the roles swap
    for cost criteria.  Hesitation is recomputed as 1 - mu - nu.
    """
    if np.shape(benefit) != cells.shape[1:2]:
        raise DataError(f"benefit mask of shape {np.shape(benefit)} for {cells.shape[1]} criteria")
    mu, nu = cells[:, :, 0], cells[:, :, 1]
    best_mu, best_nu = mu.max(axis=0), nu.min(axis=0)
    worst_mu, worst_nu = mu.min(axis=0), nu.max(axis=0)
    best = np.stack([best_mu, best_nu, 1.0 - best_mu - best_nu], axis=-1)
    worst = np.stack([worst_mu, worst_nu, 1.0 - worst_mu - worst_nu], axis=-1)
    return np.where(np.asarray(benefit)[:, None], [best, worst], [worst, best])


def separation_measures(cells: np.ndarray, ideals: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Normalized Euclidean distances of every alternative to the
    positive and negative ideals, the (2, criteria, 3) ``ideals``.

    Each cell's three squares are summed first, then the criteria in
    order, as the per-alternative loop of the definition does.
    """
    ideals = np.asarray(ideals, dtype=float)
    if ideals.shape != (2, *cells.shape[1:]):
        raise DataError(
            f"ideal solutions of shape {ideals.shape} do not match (2, {cells.shape[1]}, 3)"
        )
    squares = (cells - ideals[:, None]) ** 2
    v_pos, v_neg = np.sqrt(squares.sum(axis=3).sum(axis=2) / (2.0 * cells.shape[1]))
    return v_pos, v_neg


def closeness(vp: np.ndarray, vn: np.ndarray) -> np.ndarray:
    """Relative closeness xi = vn / (vn + vp), in [0, 1].

    An alternative on the positive ideal (vp = 0) scores 1.0.  That is
    the ratio's value whenever vn > 0, and it also covers vp = vn = 0,
    where both ideals coincide with the alternative: a single
    alternative, or alternatives that are all identical.
    """
    vp = np.asarray(vp, dtype=float)
    vn = np.asarray(vn, dtype=float)
    if vp.shape != vn.shape:
        raise DataError(f"separation vectors differ in length: {vp.shape} vs {vn.shape}")
    return np.divide(vn, vp + vn, out=np.ones_like(vn), where=vp > 0.0)


def rank_alternatives(xi: np.ndarray) -> list[int]:
    """Indices sorted by descending closeness; ties break by original index."""
    xi = np.asarray(xi, dtype=float)
    if xi.size == 0:
        raise DataError("cannot rank an empty closeness vector")
    return sorted(range(xi.size), key=lambda i: (-xi[i], i))


def tied_groups(xi: np.ndarray) -> list[list[int]]:
    """Groups of alternatives sharing identical closeness (for reports)."""
    xi = np.asarray(xi, dtype=float)
    groups: dict[float, list[int]] = {}
    for i, value in enumerate(xi):
        groups.setdefault(float(value), []).append(i)
    return [members for members in groups.values() if len(members) > 1]


def rank_weighted(cells: np.ndarray, benefit: ArrayLike) -> tuple[np.ndarray, list[int]]:
    """Ideals, separations, closeness and ranking of already-weighted
    cells: the closeness coefficients and the ranked alternative indices."""
    v_pos, v_neg = separation_measures(cells, ideal_solutions(cells, benefit))
    xi = closeness(v_pos, v_neg)
    return xi, rank_alternatives(xi)


def evaluate(
    raw: IfDecisionMatrix, weights: ArrayLike
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Full chain: weighting, then ``rank_weighted``.

    Returns the weighted cells, the closeness coefficients, and the
    ranked alternative indices.
    """
    weighted = weighted_if_matrix(raw, weights)
    return (weighted, *rank_weighted(weighted, raw.benefit))

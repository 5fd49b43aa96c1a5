"""Fuzzy DEMATEL: criterion weights from respondent judgment matrices.

The procedure defuzzifies the respondents' triangular fuzzy judgments
per cell (CFCS), normalizes the resulting direct-relation matrix,
derives the total-relation matrix through the resolvent (I - Q)^-1,
and turns row/column prominence into priority weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DataError, NumericalError
from .fuzzy import LinguisticScale, cfcs_defuzzify, tfn_from_linguistic

FIXED_POINT_TOL = 1e-8


@dataclass(frozen=True)
class DematelResult:
    """All intermediate and final DEMATEL artifacts.

    Attributes:
        q: normalized direct-relation matrix.
        t: total-relation matrix.
        prominence: R + C, the row plus the column sums of t (influence
            given plus influence received).
        relation: R - C.
        weights: normalized prominence, summing to 1.
    """

    q: np.ndarray
    t: np.ndarray
    prominence: np.ndarray
    relation: np.ndarray
    weights: np.ndarray


def _direct_matrix(s) -> np.ndarray:
    """``s`` as a float array, checked to be a square direct-relation
    matrix with a zero diagonal and nonnegative entries."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or not len(s):
        raise DataError(f"direct-relation matrix must be square (n >= 1), got {s.shape}")
    if np.any(np.diag(s) != 0.0):
        raise DataError("direct-relation matrix must have a zero diagonal")
    if np.any(s < 0.0):
        raise DataError("direct-relation matrix entries must be nonnegative")
    return s


def _judgment(cell, scale: LinguisticScale):
    """One judgment cell as an (l, m, u) triple; ``check_tfn`` validates it."""
    if isinstance(cell, str):
        return tfn_from_linguistic(cell, scale)
    triple = cell if isinstance(cell, (tuple, list)) and len(cell) == 3 else (cell,) * 3
    if not all(isinstance(v, Real) and not isinstance(v, bool) for v in triple):
        raise DataError(f"cannot interpret judgment cell {cell!r}")
    return triple


def aggregate_responses(matrices: list, scale: LinguisticScale) -> np.ndarray:
    """Aggregate respondent judgment matrices into one crisp (n, n) matrix.

    The grids become one (respondents, n, n, 3) TFN array, and each cell
    of the result is the CFCS defuzzification of that cell's judgments
    across all respondents (CFCS averages over respondents as its final
    step).  Diagonals are forced to zero.

    Args:
        matrices: one n-by-n grid per respondent; cells may be TFNs or
            ``[l, m, u]`` lists, linguistic labels resolved through
            ``scale``, or numbers c (the crisp TFN (c, c, c)).
        scale: linguistic scale used to resolve label cells.
    """
    if isinstance(matrices, (str, dict)):
        raise DataError(f"respondent matrices must be a list, got {type(matrices).__name__}")
    try:
        tfns = np.array(
            [[[_judgment(cell, scale) for cell in row] for row in grid] for grid in matrices],
            dtype=float,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"respondent matrices are not grids of judgment cells ({exc})") from None
    if tfns.ndim != 4 or tfns.shape[1] != tfns.shape[2] or not tfns.size:
        raise DataError(
            f"need one n-by-n grid (n >= 1) per respondent, got shape {tfns.shape[:-1]}"
        )
    crisp = cfcs_defuzzify(tfns)
    np.fill_diagonal(crisp, 0.0)
    return crisp


def normalize_direct_matrix(s: np.ndarray) -> np.ndarray:
    """Normalize the direct-relation matrix by its maximum row sum.

    Q = S / max_j(sum_i s_ji); every entry of Q lies in [0, 1].
    """
    s = _direct_matrix(s)
    max_row = s.sum(axis=1).max()
    if max_row <= 0.0:
        raise NumericalError("direct-relation matrix is all zero; cannot normalize")
    return s / max_row


def total_relation_matrix(q: np.ndarray) -> np.ndarray:
    """Total-relation matrix T = Q (I - Q)^-1.

    Solved through an LU factorization of (I - Q) rather than an explicit
    inverse.  The spectral radius of Q must be below 1 for the underlying
    influence series to converge.

    Raises:
        NumericalError: if the spectral radius is >= 1 or (I - Q) is
            numerically singular.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    radius = np.max(np.abs(np.linalg.eigvals(q)))
    if radius >= 1.0 - 1e-12:
        raise NumericalError(
            f"spectral radius of normalized matrix is {radius:.6g} >= 1; "
            "total-relation series does not converge"
        )
    ident = np.eye(n)
    try:
        # T (I - Q) = Q  <=>  (I - Q)^T T^T = Q^T
        t = np.linalg.solve((ident - q).T, q.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"(I - Q) is singular: {exc}") from exc
    residual = np.max(np.abs(t - (q + q @ t))) if n else 0.0
    if residual > FIXED_POINT_TOL:
        raise NumericalError(
            f"total-relation solve is unstable (fixed-point residual {residual:.3g})"
        )
    return t


def prominence_relation(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums R_i and column sums C_i of the total-relation matrix."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DataError(f"total-relation matrix must be square, got {t.shape}")
    return t.sum(axis=1), t.sum(axis=0)


def priority_weights(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Priority weights w_i = (R_i + C_i) / sum_k (R_k + C_k)."""
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    if r.shape != c.shape:
        raise DataError(f"R and C lengths differ: {r.shape} vs {c.shape}")
    prominence = r + c
    total = prominence.sum()
    if total <= 0.0:
        raise NumericalError("total prominence is zero; weights are undefined")
    return prominence / total


def evaluate(s: np.ndarray) -> DematelResult:
    """Run the full DEMATEL chain on a crisp (n, n) direct-relation matrix.

    A lone criterion relates to nothing: it takes the full weight, and
    its relation matrices and sums are zero.
    """
    if len(_direct_matrix(s)) == 1:
        zero, zeros = np.zeros((1, 1)), np.zeros(1)
        return DematelResult(zero, zero, zeros, zeros, weights=np.ones(1))
    q = normalize_direct_matrix(s)
    t = total_relation_matrix(q)
    r, c = prominence_relation(t)
    return DematelResult(
        q=q, t=t, prominence=r + c, relation=r - c, weights=priority_weights(r, c)
    )

"""Fuzzy value types shared by the whole package.

Provides the check of triangular fuzzy (l, m, u) cells, linguistic
scales, the CFCS (Converting Fuzzy data into Crisp Scores)
defuzzification used to turn expert judgments into crisp matrices, and
intuitionistic fuzzy values with the product operator needed for
weighted decision matrices.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import DataError

IFV_TOL = 1e-9


def _checked_triples(cells: ArrayLike, kind: str, faults) -> np.ndarray:
    """``cells`` as a float (..., 3) array that ``faults`` accepts.

    ``faults(cells, first, second, third)`` gives (mask, description)
    pairs over the cells; the first cell a mask flags raises DataError.
    """
    try:
        cells = np.asarray(cells, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{kind} cells must be numeric triples ({exc})") from None
    if cells.shape[-1:] != (3,):
        raise DataError(f"{kind} cells need a last axis of 3, got shape {cells.shape}")
    for bad, what in faults(cells, *np.moveaxis(cells, -1, 0)):
        if bad.any():
            where = tuple(int(i) for i in np.argwhere(bad)[0])
            at = f" at {where}" if where else ""
            raise DataError(f"{kind} cell {tuple(cells[where].tolist())}{at} has {what}")
    return cells


def check_tfn(cells: ArrayLike) -> np.ndarray:
    """Validate triangular fuzzy cells (..., 3) = (l, m, u).

    The one check of the TFN invariants: finite components with
    l <= m <= u.  Returns the cells as a float array.
    """
    return _checked_triples(cells, "TFN (l, m, u)", lambda c, l, m, u: (
        (~np.isfinite(c).all(axis=-1), "a non-finite component"),
        (~((l <= m) & (m <= u)), "not l <= m <= u"),
    ))


@dataclass(frozen=True)
class LinguisticScale:
    """Ordered linguistic terms with one TFN (l, m, u) per term.

    ``labels`` is a list or tuple of distinct strings; ``tfns`` is any
    (levels, 3) table of numbers, checked once by ``check_tfn`` and kept
    as a tuple of float triples, so scales compare by value.  Modal
    values must be strictly increasing so the scale preserves the
    ordering of the judgments it encodes.
    """

    name: str
    labels: tuple[str, ...]
    tfns: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        labels = self.labels
        if not (
            isinstance(labels, (list, tuple))
            and all(isinstance(label, str) for label in labels)
            and len(set(labels)) == len(labels)
        ):
            raise DataError(
                f"scale '{self.name}': labels must be a list of distinct strings, got {labels!r}"
            )
        tfns = check_tfn(self.tfns)
        if tfns.ndim != 2 or len(tfns) != len(labels):
            raise DataError(
                f"scale '{self.name}': {len(labels)} labels need a ({len(labels)}, 3) "
                f"table of TFNs, got shape {tfns.shape}"
            )
        if len(labels) < 2:
            raise DataError(f"scale '{self.name}' needs at least 2 levels")
        modes = tfns[:, 1]
        if (modes[1:] <= modes[:-1]).any():
            raise DataError(
                f"scale '{self.name}': modal values must be strictly increasing, "
                f"got {modes.tolist()}"
            )
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "tfns", tuple(map(tuple, tfns.tolist())))


# Conventional five-level influence scale for DEMATEL judgments; the
# pipeline configuration may replace it with any valid LinguisticScale.
DEFAULT_DEMATEL_SCALE = LinguisticScale(
    name="dematel-influence-0-4",
    labels=("No influence", "Very low", "Low", "High", "Very high"),
    tfns=(
        (0.00, 0.00, 0.25),
        (0.00, 0.25, 0.50),
        (0.25, 0.50, 0.75),
        (0.50, 0.75, 1.00),
        (0.75, 1.00, 1.00),
    ),
)


def tfn_from_linguistic(label: str, scale: LinguisticScale) -> tuple[float, float, float]:
    """The (l, m, u) triple mapped to a linguistic term.

    Raises:
        DataError: if the label is not part of the scale.
    """
    try:
        return scale.tfns[scale.labels.index(label)]
    except ValueError:
        raise DataError(
            f"unknown label {label!r} for scale '{scale.name}' "
            f"(expected one of {list(scale.labels)})"
        ) from None


def cfcs_defuzzify(judgments: ArrayLike) -> np.ndarray:
    """Convert the respondents' triangular fuzzy judgments into crisp scores.

    Implements the five-step CFCS procedure per cell: normalize l/m/u
    over the span of the cell's judgments, compute left and right
    normalized scores, combine them into a total normalized crisp value,
    rescale back, and average over the respondents.  Each score lies
    within [min l, max u] of its cell.

    Args:
        judgments: TFN cells (respondents, ..., 3); the first axis holds
            one judgment per respondent.

    Returns:
        One crisp score per cell, of shape ``judgments.shape[1:-1]``.
    """
    tfns = check_tfn(judgments)
    if tfns.ndim < 2 or not len(tfns):
        raise DataError("cfcs_defuzzify requires at least one judgment per cell")
    lo = tfns[..., 0].min(axis=0)
    hi = tfns[..., 2].max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        span = hi - lo
        # A zero span means every judgment is the same degenerate TFN; it
        # is already crisp.
        constant = span == 0.0
        span = np.where(constant, 1.0, span)
        xl, xm, xu = ((tfns[..., k] - lo) / span for k in range(3))
        left = xm / (1.0 + xm - xl)
        right = xu / (1.0 + xu - xm)
        total = (left * (1.0 - left) + right * right) / (1.0 - left + right)
        crisp = np.where(constant, tfns[0, ..., 1], (lo + total * span).sum(axis=0) / len(tfns))
    if not np.isfinite(crisp).all():
        raise DataError("judgments out of range: their CFCS scores overflow the float range")
    return crisp


def check_ifv(cells: ArrayLike) -> np.ndarray:
    """Validate intuitionistic fuzzy cells (..., 3) = (mu, nu, pi).

    The one check of the IF invariants, within ``IFV_TOL``: every
    component in [0, 1], mu + nu <= 1 and pi = 1 - mu - nu.  Returns the
    cells as a float array.
    """
    return _checked_triples(cells, "IF (mu, nu, pi)", lambda c, mu, nu, pi: (
        (~((c >= -IFV_TOL) & (c <= 1.0 + IFV_TOL)).all(axis=-1), "a component outside [0, 1]"),
        (mu + nu > 1.0 + IFV_TOL, "mu + nu > 1"),
        (np.abs(pi - (1.0 - mu - nu)) > IFV_TOL, "pi inconsistent with 1 - mu - nu"),
    ))


def lift_crisp(values: ArrayLike) -> np.ndarray:
    """Lift crisp scores in [0, 1] to IF cells (v, 1 - v, 0): one more
    axis of length 3."""
    values = np.asarray(values, dtype=float)
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        raise DataError(
            f"crisp value {values[outside].flat[0]} outside [0, 1] cannot be lifted"
        )
    return np.stack([values, 1.0 - values, np.zeros_like(values)], axis=-1)


class IntuitionisticFuzzyValue(namedtuple("IntuitionisticFuzzyValue", "mu nu pi")):
    """Intuitionistic fuzzy value (mu, nu, pi) with pi = 1 - mu - nu.

    A validated triple: ``pi`` may be omitted and is then derived from mu
    and nu, and ``check_ifv`` enforces the invariants.  Being a tuple,
    nested sequences of values convert with ``np.asarray(..., float)``.
    """

    __slots__ = ()

    def __new__(cls, mu: float, nu: float, pi: float | None = None):
        if pi is None:
            pi = 1.0 - mu - nu
        return super().__new__(cls, *check_ifv((mu, nu, pi)).tolist())

    @classmethod
    def _make(cls, iterable) -> "IntuitionisticFuzzyValue":
        # namedtuple's _make (and so _replace) skips __new__; validate here too.
        return cls(*iterable)

    @classmethod
    def from_crisp(cls, value: float) -> "IntuitionisticFuzzyValue":
        """Lift a crisp score in [0, 1] to the IFV (value, 1 - value, 0)."""
        return cls(*lift_crisp(value).tolist())


def ifv_multiply(a: ArrayLike, w: ArrayLike) -> np.ndarray:
    """Standard intuitionistic fuzzy product of (..., 3) cells, broadcast.

    Membership multiplies, non-membership combines as a probabilistic sum,
    and hesitation is recomputed so the invariants hold:

        mu = a.mu * w.mu
        nu = a.nu + w.nu - a.nu * w.nu
        pi = 1 - mu - nu
    """
    a, w = np.asarray(a, dtype=float), np.asarray(w, dtype=float)
    mu = a[..., 0] * w[..., 0]
    nu = a[..., 1] + w[..., 1] - a[..., 1] * w[..., 1]
    return np.stack([mu, nu, 1.0 - mu - nu], axis=-1)

"""First-order Takagi-Sugeno neuro-fuzzy model.

Covers the five-layer forward pass (fuzzification, product firing
strengths, normalization, rule consequents, weighted sum), subtractive
clustering for rule extraction, least-squares and ridge consequent
fitting, error metrics, and the multiplicative premise scaling the
optimizer tunes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DataError, NumericalError

# Subtractive clustering constants (standard defaults).
SQUASH_FACTOR = 1.25
ACCEPT_RATIO = 0.5
REJECT_RATIO = 0.15

# Lower clamp for width/shape parameters driven nonpositive by scaling.
MIN_SHAPE_PARAM = 1e-6

# Ridge penalty of the tuning fit, per training row: the consequents
# minimize ||residual||^2 + RIDGE * n * ||consequents||^2, solved on the
# smaller side of the design (see ``_ridge_fit``).
RIDGE = 1e-2

Levels = tuple[np.ndarray, np.ndarray, np.ndarray]  # see ``_input_levels``


def bell_membership(u, m, l, k):
    """Membership degree 1 / (1 + |(u - m) / l|^(2k)), in [0, 1].

    Broadcasts over all four arguments.  Far-off inputs overflow
    |z|^(2k) to inf, which cleanly underflows the membership to zero;
    that is the intended limit behavior.
    """
    return _bell(u, np.array(np.broadcast_arrays(u, m, l, k)[1:], dtype=float))[()]


def _bell(u, block: np.ndarray) -> np.ndarray:
    """``bell_membership`` of u under the (m, l, k) on the first axis of
    a float block, computed in place: overwrites the block and returns
    its m slot.  The formula's operations in its order, so its bits."""
    z, l, k = block[0, ...], block[1, ...], block[2, ...]  # views, also when 0-d
    with np.errstate(over="ignore"):
        np.subtract(u, z, out=z)
        z /= l
        np.abs(z, out=z)
        k *= 2.0
        z **= k
        z += 1.0
        return np.divide(1.0, z, out=z)


@dataclass(frozen=True)
class AnfisModel:
    """Immutable rule set with the input spans observed at initialization.

    ``premises`` has shape (rules, inputs, 3) and holds the bell
    parameters (m, l, k) per rule and input, with width l > 0 and shape
    exponent k > 0.  ``consequents`` has shape (rules, inputs + 1): one
    slope per input followed by the bias.

    ``input_normalization`` records per-dimension (min, max) of the
    training inputs.  ``forward`` operates in the same coordinates the
    model was built in and applies no transformation itself.
    """

    premises: np.ndarray
    consequents: np.ndarray
    input_normalization: np.ndarray
    diagnostics: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for name in ("premises", "consequents", "input_normalization"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        premises, norm = self.premises, self.input_normalization
        if premises.ndim != 3 or premises.shape[2] != 3 or len(premises) == 0:
            raise DataError(f"premises must be (rules >= 1, inputs, 3), got {premises.shape}")
        r, d = premises.shape[:2]
        if self.consequents.shape != (r, d + 1) or norm.shape != (d, 2):
            raise DataError(
                f"consequents {self.consequents.shape} and spans {norm.shape} do not "
                f"fit {r} rules of {d} inputs"
            )
        if np.any(norm[:, 1] - norm[:, 0] <= 0.0):
            raise DataError("normalization spans must be positive")
        if np.any(premises[..., 1:] <= 0.0):
            raise DataError("bell widths and shape exponents must be positive")

    @property
    def input_dim(self) -> int:
        return self.premises.shape[1]

    @property
    def n_rules(self) -> int:
        return self.premises.shape[0]

    @property
    def n_parameters(self) -> int:
        """Tunable parameter count: 3 premise values per rule and input.
        The consequents are fitted in closed form, not tuned."""
        return self.premises.size


def _input_levels(x: np.ndarray, n_inputs: int) -> Levels:
    """``(values, counts, where)`` of the rows x: each column's sorted
    distinct values, concatenated column by column; the number per
    column; and the (inputs, rows) index of each row's value in
    ``values``.  Memberships computed per level and gathered back to the
    rows cost a fraction of one per row, with the same bits, as ordinal
    inputs take few values.  ``DataError`` unless every value is finite."""
    if x.ndim != 2 or x.shape[1] != n_inputs:
        raise DataError(f"expected rows of {n_inputs} inputs, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataError("model inputs must be finite numbers")
    columns = x.T
    order = np.argsort(columns, axis=1, kind="stable")
    rows = np.arange(len(columns))[:, None]
    ranked = columns[rows, order]
    first = np.ones(ranked.shape, dtype=bool)  # first of its value in sorted order
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    where = np.empty(ranked.shape, dtype=np.intp)
    where[rows, order] = np.cumsum(first).reshape(ranked.shape) - 1
    return ranked[first], np.count_nonzero(first, axis=1), where


def _membership_matrix(premises: np.ndarray, levels: Levels) -> np.ndarray:
    """Firing strengths of the (..., rules, inputs, 3) premises for the
    rows whose ``_input_levels`` are given: shape (..., n_rules,
    n_samples), over any leading candidate axes.  One in-place bell pass
    covers every input's levels; their memberships are gathered back to
    the rows and multiplied in one input at a time, in input order."""
    values, counts, where = levels
    block = np.repeat(np.moveaxis(premises, -1, 0), counts, axis=-1)  # (3, ..., R, levels)
    bell = _bell(values, block)
    w = bell[..., where[0]]
    for index in where[1:]:
        w *= bell[..., index]
    return w


def _strengths(premises: np.ndarray, levels: Levels) -> tuple[np.ndarray, np.ndarray]:
    """Firing strengths of ``_membership_matrix`` normalized over the rule
    axis, shape (..., n_rules, n_samples), plus the (..., n_samples) mask
    of samples where every activation underflowed; those stay at zero."""
    w = _membership_matrix(premises, levels)
    totals = w.sum(axis=-2, keepdims=True)
    dead = totals <= 0.0
    return np.divide(w, np.where(dead, 1.0, totals), out=w), dead[..., 0, :]


def _require_alive(dead: np.ndarray) -> None:
    if np.any(dead):
        raise NumericalError(
            f"all rule activations underflowed to zero for {int(dead.sum())} "
            "input(s); the model cannot evaluate there"
        )


def _rule_outputs(consequents: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-rule consequent outputs q . x + s for the rows of x: shape
    (n_samples, n_rules)."""
    return x @ consequents[:, :-1].T + consequents[:, -1]


def forward(model: AnfisModel, inputs: np.ndarray) -> float:
    """Model output at one input vector; see ``forward_batch``."""
    return float(forward_batch(model, np.atleast_1d(inputs)[None, :])[0])


def forward_batch(model: AnfisModel, x: np.ndarray) -> np.ndarray:
    """Model output per row of x: the normalized-firing-strength weighted
    sum of the rule consequents.

    Raises:
        NumericalError: if every rule activation underflows to zero.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    wbar, dead = _strengths(model.premises, _input_levels(x, model.input_dim))
    _require_alive(dead)
    return (wbar * _rule_outputs(model.consequents, x).T).sum(axis=0)


def subtractive_clustering(data: np.ndarray, radius: float) -> np.ndarray:
    """Select cluster centers by the subtractive potential method.

    Every returned center is one of the data points.  Uses the standard
    constants: squash factor 1.25, accept ratio 0.5, reject ratio 0.15.

    Args:
        data: (n_samples, dim) array, expected pre-normalized to [0, 1].
        radius: neighborhood radius controlling cluster granularity.

    Returns:
        (n_centers, dim) array with at least one center.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.size == 0:
        raise DataError("subtractive clustering needs non-empty data")
    if radius <= 0.0:
        raise DataError(f"radius must be positive, got {radius}")

    alpha = 4.0 / radius**2
    beta = 4.0 / (SQUASH_FACTOR * radius) ** 2
    sq_dists = ((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2)
    potential = np.exp(-alpha * sq_dists).sum(axis=1)

    first = int(np.argmax(potential))
    first_potential = potential[first]
    centers = [first]
    potential = potential - first_potential * np.exp(-beta * sq_dists[first])

    while True:
        candidate = int(np.argmax(potential))
        p = potential[candidate]
        if p > ACCEPT_RATIO * first_potential:
            accept = True
        elif p < REJECT_RATIO * first_potential:
            break
        else:
            # Gray zone: accept only if far enough from existing centers.
            d_min = math.sqrt(min(sq_dists[candidate, c] for c in centers))
            accept = d_min / radius + p / first_potential >= 1.0
        if accept:
            centers.append(candidate)
            potential = potential - p * np.exp(-beta * sq_dists[candidate])
        else:
            potential[candidate] = 0.0
            if np.all(potential <= 0.0):
                break
    return data[centers]


def _stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """Sample inputs (scalars or vectors) as an (n, d) matrix, plus the
    targets as a vector; ``DataError`` unless every input is a vector of
    one shared length and every input and target a finite number."""
    try:
        x = np.array([inp for inp, _ in samples], dtype=float)
        y = np.array([target for _, target in samples], dtype=float)
    except (TypeError, ValueError) as exc:  # ValueError: ragged or non-numeric
        raise DataError(f"samples must be numeric (input, target) pairs: {exc}") from exc
    if len(y) == 0:
        raise DataError("samples must hold at least one (input, target) pair")
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or y.ndim != 1:
        raise DataError("sample inputs must be vectors of one length, and targets scalars")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("sample inputs and targets must be finite numbers")
    return x, y


def _data_spans(x: np.ndarray) -> np.ndarray:
    """Per-dimension (min, max); degenerate dimensions fall back to the
    nominal unit span so widths stay positive."""
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    degenerate = hi - lo < 1e-12
    hi = np.where(degenerate, lo + 1.0, hi)
    return np.column_stack([lo, hi])


def init_fis(
    train: list[tuple[np.ndarray, float]], radius: float
) -> AnfisModel:
    """The rule base of a Sugeno model, by subtractive clustering of the
    training inputs.

    One rule per cluster center: premise centers at the cluster
    coordinates, widths radius * span / sqrt(8) per dimension, and shape
    exponent 1.  The consequents are zero; a caller fits them at these
    premises (``fit_consequents_least_squares`` or
    ``fit_consequents_ridge``), as tuning does after every search.
    """
    x, _ = _stack_samples(train)

    centers = subtractive_clustering(x, radius)
    spans = _data_spans(x)
    widths = radius * (spans[:, 1] - spans[:, 0]) / math.sqrt(8.0)
    premises = np.stack(
        [centers, np.broadcast_to(widths, centers.shape), np.ones_like(centers)], axis=-1
    )
    return AnfisModel(
        premises=premises,
        consequents=np.zeros((len(centers), x.shape[1] + 1)),
        input_normalization=spans,
    )


def _augment(x: np.ndarray) -> np.ndarray:
    return np.column_stack([x, np.ones(len(x))])


def _design_t(wbar: np.ndarray, augmented: np.ndarray) -> np.ndarray:
    """The rule design transposed, (..., rules * (inputs + 1), n), for the
    (..., rules, n) normalized strengths: row (j, d) holds wbar_j * x_d,
    with the bias column of ``augmented`` last."""
    design_t = wbar[..., None, :] * np.ascontiguousarray(augmented.T)  # (..., R, D + 1, n)
    return design_t.reshape(wbar.shape[:-2] + (-1, wbar.shape[-1]))


def fit_consequents_least_squares(
    model: AnfisModel, train: list[tuple[np.ndarray, float]]
) -> AnfisModel:
    """Refit all rule consequents by (minimum-norm) linear least squares.

    Premises stay fixed, so the model output is linear in the consequent
    coefficients and the global optimum is a single solve.  Rank-deficient
    designs do not fail; the minimum-norm solution is used and a
    diagnostic is recorded on the returned model.
    """
    x, y = _stack_samples(train)
    wbar, dead = _strengths(model.premises, _input_levels(x, model.input_dim))
    _require_alive(dead)
    solution, _, rank, _ = np.linalg.lstsq(_design_t(wbar, _augment(x)).T, y, rcond=None)
    consequents = solution.reshape(model.consequents.shape)
    diagnostics = model.diagnostics
    if rank < consequents.size:
        diagnostics = diagnostics + (
            f"rank-deficient consequent design (rank {rank} of "
            f"{consequents.size}); minimum-norm solution used",
        )
    return replace(model, consequents=consequents, diagnostics=diagnostics)


def _ridge_fit(
    premises: np.ndarray, levels: Levels, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ridge consequents at fixed premises for the rows x with the given
    ``_input_levels``, over any leading candidate axes.

    Solves on the smaller side of the n x p rule design A, p = rules *
    (inputs + 1): the primal (A^T A + RIDGE n I) theta = A^T y when p < n,
    else the dual alpha = solve(K + RIDGE n I, y), whose kernel A A^T is
    (wbar^T wbar) * [x 1][x 1]^T for the (rules, n) strengths wbar, with
    theta = A^T alpha and training residual RIDGE n alpha.  Returns the
    (..., rules, inputs + 1) consequents, the (...) training RMSE and the
    (..., n) mask of rows whose activations all underflow.
    """
    augmented = _augment(x)
    n, rules = len(y), premises.shape[-3]
    wbar, dead = _strengths(premises, levels)
    if rules * augmented.shape[1] >= n:
        kernel = np.swapaxes(wbar, -1, -2) @ wbar
        kernel *= augmented @ augmented.T
        kernel += RIDGE * n * np.eye(n)
        alpha = np.linalg.solve(kernel, y)
        consequents = (wbar * alpha[..., None, :]) @ augmented
        return consequents, RIDGE * math.sqrt(n) * np.linalg.norm(alpha, axis=-1), dead
    design_t = _design_t(wbar, augmented)
    lhs = design_t @ np.swapaxes(design_t, -1, -2)
    lhs += RIDGE * n * np.eye(lhs.shape[-1])
    theta = np.linalg.solve(lhs, (design_t @ y)[..., None])[..., 0]
    residual = y - (theta[..., None, :] @ design_t)[..., 0, :]
    train_rmse = np.linalg.norm(residual, axis=-1) / math.sqrt(n)
    return theta.reshape(wbar.shape[:-2] + (rules, -1)), train_rmse, dead


def fit_consequents_ridge(
    model: AnfisModel, train: list[tuple[np.ndarray, float]]
) -> AnfisModel:
    """Refit all rule consequents by ridge regression at fixed premises.

    Minimizes the squared training error plus ``RIDGE * n`` times the
    squared consequent norm, by one solve on the smaller side of the
    design (see ``_ridge_fit``).  The penalty keeps the solve well posed
    when rules outnumber what the rows can pin down, where the
    minimum-norm least-squares fit interpolates.
    """
    x, y = _stack_samples(train)
    consequents, _, dead = _ridge_fit(model.premises, _input_levels(x, model.input_dim), x, y)
    _require_alive(dead)
    return replace(model, consequents=consequents)


def scaling_objective(
    model0: AnfisModel, train: list[tuple[np.ndarray, float]]
) -> Callable[[np.ndarray], np.ndarray]:
    """Batch search objective over premise-scaling coefficients.

    Takes a (candidates, n_parameters) array and returns per row the
    training RMSE of ``apply_parameter_scaling`` followed by
    ``fit_consequents_ridge``, without building models: one batched solve,
    on the same side as the fit's, covers all rows.  Rows are
    independent: a row scores the same bits alone or in any batch.
    An infeasible candidate, under which every activation of some
    training row underflows, scores +inf.
    """
    x, y = _stack_samples(train)
    levels = _input_levels(x, model0.input_dim)

    def objective(coefficients: np.ndarray) -> np.ndarray:
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.ndim != 2 or coefficients.shape[1] != model0.n_parameters:
            raise DataError(
                f"expected (candidates, {model0.n_parameters}) coefficients, "
                f"got {coefficients.shape}"
            )
        premises, _ = _scaled_premises(model0.premises, coefficients)
        _, train_rmse, dead = _ridge_fit(premises, levels, x, y)
        return np.where(dead.any(axis=-1), np.inf, train_rmse)

    return objective


def rmse(model: AnfisModel, dataset: list[tuple[np.ndarray, float]]) -> float:
    """Root mean squared prediction error over a dataset."""
    x, y = _stack_samples(dataset)
    return float(np.sqrt(np.mean((forward_batch(model, x) - y) ** 2)))


def mape(model: AnfisModel, dataset: list[tuple[np.ndarray, float]]) -> float:
    """Mean absolute percentage error; every target must be nonzero."""
    x, y = _stack_samples(dataset)
    if np.any(y == 0.0):
        raise DataError("mape undefined for zero targets")
    errors = forward_batch(model, x) - y
    return float(np.mean(np.abs(errors / y)) * 100.0)


def _scaled_premises(premises0: np.ndarray, coefficients: np.ndarray) -> tuple[np.ndarray, int]:
    """Premises times each coefficient row (over any leading axes), with
    widths and shape exponents below ``MIN_SHAPE_PARAM`` clamped to it;
    plus the number clamped."""
    premises = premises0 * coefficients.reshape(coefficients.shape[:-1] + premises0.shape)
    shape_params = premises[..., 1:]  # a view: the clamp writes into premises
    clamped = np.count_nonzero(shape_params < MIN_SHAPE_PARAM)
    np.maximum(shape_params, MIN_SHAPE_PARAM, out=shape_params)
    return premises, clamped


def apply_parameter_scaling(model0: AnfisModel, coefficients: np.ndarray) -> AnfisModel:
    """Scale every premise parameter of a base model multiplicatively.

    Coefficient i scales ``premises.ravel()[i]``: per rule, per input,
    (m, l, k).  The consequents are kept.  Width and shape parameters
    that would become nonpositive are clamped to 1e-6 and a diagnostic
    is recorded.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (model0.n_parameters,):
        raise DataError(
            f"expected {model0.n_parameters} coefficients, got {coefficients.shape}"
        )

    premises, clamped = _scaled_premises(model0.premises, coefficients)
    diagnostics = model0.diagnostics
    if clamped:
        diagnostics = diagnostics + (
            f"clamped {clamped} width/shape parameter(s) to {MIN_SHAPE_PARAM}",
        )
    return replace(model0, premises=premises, diagnostics=diagnostics)


def model_to_dict(model: AnfisModel) -> dict:
    """JSON-serializable description of a model."""
    return {
        "input_dim": model.input_dim,
        "rules": [
            {"premises": premises.tolist(), "consequent": consequent.tolist()}
            for premises, consequent in zip(model.premises, model.consequents)
        ],
        "input_normalization": model.input_normalization.tolist(),
        "diagnostics": list(model.diagnostics),
    }

import numpy as np
import pytest

from riskfuse.dematel import (
    aggregate_responses,
    evaluate,
    normalize_direct_matrix,
    priority_weights,
    prominence_relation,
    total_relation_matrix,
)
from riskfuse.errors import DataError, NumericalError
from riskfuse.fuzzy import DEFAULT_DEMATEL_SCALE, tfn_from_linguistic


def scalar_cfcs(judgments):
    """Reference CFCS of one cell: the five steps, one judgment at a time."""
    lo = min(t[0] for t in judgments)
    hi = max(t[2] for t in judgments)
    span = hi - lo
    if span == 0.0:
        return judgments[0][1]
    crisp_sum = 0.0
    for l, m, u in judgments:
        xl, xm, xu = (l - lo) / span, (m - lo) / span, (u - lo) / span
        left = xm / (1.0 + xm - xl)
        right = xu / (1.0 + xu - xm)
        total = (left * (1.0 - left) + right * right) / (1.0 - left + right)
        crisp_sum += lo + total * span
    return crisp_sum / len(judgments)


def random_cell(rng):
    """A label, an int, a float, an (l, m, u) tuple or an [l, m, u] list."""
    kind = rng.integers(0, 5)
    if kind == 0:
        return str(rng.choice(DEFAULT_DEMATEL_SCALE.labels))
    if kind == 1:
        return int(rng.integers(0, 5))
    if kind == 2:
        return float(rng.random() * 4)
    l, a, b = (float(v) for v in rng.random(3))
    return (l, l + a, l + a + b) if kind == 3 else [l, l + a, l + a + b]


def random_direct_matrix(rng, n):
    entries = rng.random((n, n)) * 4.0
    np.fill_diagonal(entries, 0.0)
    return entries


def neumann_series(q, tol=1e-9, max_terms=10_000):
    """Brute-force oracle: T = sum of Q^k until the term vanishes."""
    total = np.zeros_like(q)
    term = q.copy()
    for _ in range(max_terms):
        total += term
        term = term @ q
        if np.abs(term).sum(axis=1).max() < tol:
            break
    return total


@pytest.mark.parametrize(
    "entries, message",
    [([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], "must be square"),
     (np.zeros((0, 0)), "must be square"),
     ([[1.0, 1.0], [1.0, 0.0]], "zero diagonal"),
     ([[0.0, -1.0], [1.0, 0.0]], "nonnegative")],
    ids=["not-square", "empty", "diagonal", "negative"],
)
@pytest.mark.parametrize("chain", [evaluate, normalize_direct_matrix], ids=lambda f: f.__name__)
def test_rejects_malformed_direct_matrix(chain, entries, message):
    with pytest.raises(DataError, match=message):
        chain(entries)


class TestAggregateResponses:
    def test_crisp_passthrough(self):
        matrix = [[(0.0, 0.0, 0.0), (0.7, 0.7, 0.7)], [(0.3, 0.3, 0.3), (0.0, 0.0, 0.0)]]
        result = aggregate_responses([matrix], DEFAULT_DEMATEL_SCALE)
        assert result == pytest.approx(np.array([[0.0, 0.7], [0.3, 0.0]]))

    def test_identical_respondents_average_to_one(self):
        matrix = [["No influence", "High"], ["Low", "No influence"]]
        once = aggregate_responses([matrix], DEFAULT_DEMATEL_SCALE)
        twice = aggregate_responses([matrix, matrix], DEFAULT_DEMATEL_SCALE)
        assert twice == pytest.approx(once)

    def test_two_respondent_cfcs_cell(self):
        # Hand CFCS over span [0, 1]: totals 0.04/1.2 and 1.16/1.2, mean 0.5.
        low = [[(0.0, 0.0, 0.0), (0.0, 0.0, 0.25)], [(0.2, 0.2, 0.2), (0.0, 0.0, 0.0)]]
        high = [[(0.0, 0.0, 0.0), (0.75, 1.0, 1.0)], [(0.2, 0.2, 0.2), (0.0, 0.0, 0.0)]]
        result = aggregate_responses([low, high], DEFAULT_DEMATEL_SCALE)
        assert 0.0 < result[0, 1] < 1.0
        assert result[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_numbers_and_labels_mix(self):
        matrix = [[0, "Very high"], [2, 0]]
        result = aggregate_responses([matrix], DEFAULT_DEMATEL_SCALE)
        assert result[1, 0] == pytest.approx(2.0)

    def test_matches_scalar_cfcs_on_mixed_grids(self, rng):
        def triple(cell):
            if isinstance(cell, str):
                return tfn_from_linguistic(cell, DEFAULT_DEMATEL_SCALE)
            return cell if isinstance(cell, (tuple, list)) else (cell, cell, cell)

        for _ in range(200):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 13))
            grids = [[[random_cell(rng) for _ in range(n)] for _ in range(n)] for _ in range(k)]
            entries = aggregate_responses(grids, DEFAULT_DEMATEL_SCALE)
            expected = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        expected[i, j] = scalar_cfcs([triple(g[i][j]) for g in grids])
            assert entries.tobytes() == expected.tobytes()

    def test_shape_mismatch_and_empty(self):
        with pytest.raises(DataError):
            aggregate_responses([], DEFAULT_DEMATEL_SCALE)
        with pytest.raises(DataError):
            aggregate_responses(
                [[[0, 1], [1, 0]], [[0, 1, 2], [1, 0, 2], [2, 1, 0]]],
                DEFAULT_DEMATEL_SCALE,
            )


class TestNormalize:
    def test_two_by_two_trace(self):
        q = normalize_direct_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert q == pytest.approx(np.array([[0.0, 1.0], [0.5, 0.0]]), abs=1e-15)

    def test_unit_max_row_sum_is_identity_scaling(self):
        s = np.array([[0.0, 1.0], [0.3, 0.0]])
        assert normalize_direct_matrix(s) == pytest.approx(s)

    def test_zero_matrix_rejected(self):
        with pytest.raises(NumericalError):
            normalize_direct_matrix(np.zeros((2, 2)))

    def test_entries_within_unit_interval(self, rng):
        for n in (2, 4, 7):
            q = normalize_direct_matrix(random_direct_matrix(rng, n))
            assert np.all(q >= 0.0) and np.all(q <= 1.0 + 1e-12)


class TestTotalRelation:
    def test_hand_inverse(self):
        t = total_relation_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
        assert t == pytest.approx(np.array([[1.0, 2.0], [1.0, 1.0]]), abs=1e-12)

    def test_zero_matrix_maps_to_zero(self):
        assert total_relation_matrix(np.zeros((3, 3))) == pytest.approx(np.zeros((3, 3)))

    def test_spectral_radius_guard(self):
        with pytest.raises(NumericalError):
            total_relation_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_fixed_point_identity(self, rng):
        q = normalize_direct_matrix(random_direct_matrix(rng, 5))
        t = total_relation_matrix(q)
        assert t == pytest.approx(q + q @ t, abs=1e-8)

    def test_matches_neumann_oracle(self, rng):
        for n in (2, 3, 6):
            q = normalize_direct_matrix(random_direct_matrix(rng, n))
            t = total_relation_matrix(q)
            assert t == pytest.approx(neumann_series(q), abs=1e-6)


class TestProminenceAndWeights:
    def test_row_and_column_sums(self):
        r, c = prominence_relation(np.array([[1.0, 2.0], [1.0, 1.0]]))
        assert r == pytest.approx([3.0, 2.0])
        assert c == pytest.approx([2.0, 3.0])

    def test_diagonal_matrix(self):
        r, c = prominence_relation(np.diag([2.0, 5.0]))
        assert r == pytest.approx([2.0, 5.0])
        assert c == pytest.approx([2.0, 5.0])

    def test_zero_matrix(self):
        r, c = prominence_relation(np.zeros((3, 3)))
        assert r == pytest.approx(np.zeros(3))
        assert c == pytest.approx(np.zeros(3))

    def test_totals_agree(self, rng):
        t = rng.random((6, 6))
        r, c = prominence_relation(t)
        assert r.sum() == pytest.approx(c.sum())

    def test_weights_from_trace(self):
        w = priority_weights(np.array([3.0, 2.0]), np.array([2.0, 3.0]))
        assert w == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_weights_degenerate_cases(self):
        assert priority_weights(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx([1.0, 0.0])
        assert priority_weights(np.array([1.5]), np.array([0.5])) == pytest.approx([1.0])
        with pytest.raises(NumericalError):
            priority_weights(np.zeros(2), np.zeros(2))
        with pytest.raises(DataError):
            priority_weights(np.zeros(2), np.zeros(3))


class TestEndToEnd:
    def test_weights_normalized_and_nonnegative(self, rng):
        for n in (2, 3, 5, 8):
            result = evaluate(random_direct_matrix(rng, n))
            assert np.all(result.weights >= 0.0)
            assert result.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_permutation_equivariance(self, rng):
        s = random_direct_matrix(rng, 5)
        perm = rng.permutation(5)
        permuted = s[np.ix_(perm, perm)]
        assert evaluate(permuted).weights == pytest.approx(
            evaluate(s).weights[perm], abs=1e-12
        )

    def test_scale_invariance(self, rng):
        s = random_direct_matrix(rng, 4)
        scaled = 3.0 * s
        base = evaluate(s)
        rescaled = evaluate(scaled)
        assert rescaled.q == pytest.approx(base.q, abs=1e-12)
        assert rescaled.t == pytest.approx(base.t, abs=1e-10)
        assert rescaled.weights == pytest.approx(base.weights, abs=1e-12)

    def test_near_uniform_weights_are_near_uniform(self):
        entries = np.full((4, 4), 0.5)
        np.fill_diagonal(entries, 0.0)
        entries[0, 1] += 1e-6  # break the exact symmetry
        result = evaluate(entries)
        assert result.weights == pytest.approx(np.full(4, 0.25), abs=1e-5)

    def test_lone_criterion(self):
        result = evaluate([[0.0]])
        assert result.weights.tolist() == [1.0]
        assert result.q.tolist() == result.t.tolist() == [[0.0]]
        assert result.prominence.tolist() == result.relation.tolist() == [0.0]

    def test_exact_uniform_is_singular(self):
        # A perfectly uniform matrix normalizes to spectral radius 1; the
        # total-relation series diverges and the chain reports it.
        entries = np.full((4, 4), 0.5)
        np.fill_diagonal(entries, 0.0)
        with pytest.raises(NumericalError):
            evaluate(entries)

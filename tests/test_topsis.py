import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from riskfuse.errors import DataError
from riskfuse.fuzzy import IntuitionisticFuzzyValue, ifv_multiply
from riskfuse.topsis import (
    CriterionKind,
    IfDecisionMatrix,
    closeness,
    evaluate,
    ideal_solutions,
    lift_crisp_weights,
    rank_alternatives,
    rank_weighted,
    separation_measures,
    tied_groups,
    weighted_if_matrix,
)

IFV = IntuitionisticFuzzyValue
B = CriterionKind.BENEFIT
C = CriterionKind.COST


def matrix_of(cells, kinds):
    rows = tuple(tuple(IFV(*cell) for cell in row) for row in cells)
    return IfDecisionMatrix(rows=rows, criteria_kinds=tuple(kinds))


def random_ifv(rng):
    mu = rng.uniform(0.0, 1.0)
    nu = rng.uniform(0.0, 1.0 - mu)
    return IFV(mu, nu)


def random_matrix(rng, n_alt, n_crit):
    rows = tuple(tuple(random_ifv(rng) for _ in range(n_crit)) for _ in range(n_alt))
    kinds = tuple(rng.choice([B, C]) for _ in range(n_crit))
    return IfDecisionMatrix(rows=rows, criteria_kinds=kinds)


def oracle_rank(matrix, weights):
    """Straight-line reimplementation of the whole chain with plain loops."""
    n_alt, n_crit = len(matrix.rows), len(matrix.rows[0])
    weighted = []
    for i in range(n_alt):
        row = []
        for j in range(n_crit):
            (a_mu, a_nu, _), (w_mu, w_nu, _) = matrix.rows[i][j], weights[j]
            mu = a_mu * w_mu
            nu = a_nu + w_nu - a_nu * w_nu
            row.append((mu, nu, 1.0 - mu - nu))
        weighted.append(row)
    positive, negative = [], []
    for j in range(n_crit):
        mus = [weighted[i][j][0] for i in range(n_alt)]
        nus = [weighted[i][j][1] for i in range(n_alt)]
        best = (max(mus), min(nus))
        worst = (min(mus), max(nus))
        if matrix.criteria_kinds[j] is B:
            positive.append(best)
            negative.append(worst)
        else:
            positive.append(worst)
            negative.append(best)
    xi = []
    for i in range(n_alt):
        vp = vn = 0.0
        for j in range(n_crit):
            mu, nu, pi = weighted[i][j]
            pmu, pnu = positive[j]
            nmu, nnu = negative[j]
            ppi = 1.0 - pmu - pnu
            npi = 1.0 - nmu - nnu
            vp += (mu - pmu) ** 2 + (nu - pnu) ** 2 + (pi - ppi) ** 2
            vn += (mu - nmu) ** 2 + (nu - nnu) ** 2 + (pi - npi) ** 2
        vp = math.sqrt(vp / (2.0 * n_crit))
        vn = math.sqrt(vn / (2.0 * n_crit))
        xi.append(vn / (vn + vp))
    return sorted(range(n_alt), key=lambda i: (-xi[i], i)), xi


# Components on and just past the [0, 1] edges, and pi slips on both sides
# of the 1e-9 tolerance, so both accepted and rejected grids come up.
COMPONENT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-2e-9, -5e-10, 1 + 5e-10, 1 + 2e-9]))
SLIP = st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9])


def if_cells():
    near_valid = st.builds(
        lambda mu, share, slip: (mu, share * (1.0 - mu), (1.0 - mu) * (1.0 - share) + slip),
        COMPONENT, st.floats(0.0, 1.0), SLIP,
    )
    free = st.builds(
        lambda mu, nu, slip: (mu, nu, 1.0 - mu - nu + slip), COMPONENT, COMPONENT, SLIP
    )
    return st.one_of(near_valid, free)


def if_grids():
    return st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda nm: st.lists(
            st.lists(if_cells(), min_size=nm[1], max_size=nm[1]), min_size=nm[0], max_size=nm[0]
        )
    )


def accepts(build) -> bool:
    try:
        build()
    except DataError:
        return False
    return True


class TestDecisionMatrix:
    @given(if_grids())
    def test_accepts_grid_exactly_when_every_cell_is_valid(self, grid):
        cells_valid = all(accepts(lambda: IFV(*cell)) for row in grid for cell in row)
        kinds = (B,) * len(grid[0])
        grid_valid = accepts(lambda: IfDecisionMatrix(rows=np.array(grid), criteria_kinds=kinds))
        assert grid_valid == cells_valid

    @pytest.mark.parametrize(
        "rows",
        [(), [[]], [[(0.5, 0.5, 0.0)], []], [[(0.5, 0.5)]], [["x", "y", "z"]],
         np.zeros((0, 1, 3)), np.zeros((1, 0, 3))],
        ids=["no-alternatives", "no-criteria", "ragged", "two-components", "non-numeric",
             "empty-alternatives-axis", "empty-criteria-axis"],
    )
    def test_shape_checked(self, rows):
        with pytest.raises(DataError):
            IfDecisionMatrix(rows=rows, criteria_kinds=(B,))

    def test_rows_are_one_read_only_array(self):
        m = matrix_of([[(0.6, 0.3, 0.1), (0.2, 0.7, 0.1)]], [B, C])
        assert m.rows.shape == (1, 2, 3)
        with pytest.raises(ValueError):
            m.rows[0, 0, 0] = 0.5


class TestWeightedMatrix:
    def test_identity_weights_keep_matrix(self):
        raw = matrix_of([[(0.6, 0.3, 0.1), (0.2, 0.7, 0.1)]], [B, B])
        weighted = weighted_if_matrix(raw, lift_crisp_weights([1.0, 1.0]))
        assert weighted[..., :2] == pytest.approx(raw.rows[..., :2])

    def test_derived_cell_product(self):
        raw = matrix_of([[(0.6, 0.3, 0.1)]], [B])
        weighted = weighted_if_matrix(raw, (IFV(0.5, 0.4, 0.1),))
        mu, nu, pi = weighted[0, 0]
        assert mu == pytest.approx(0.30, abs=1e-12)
        assert nu == pytest.approx(0.58, abs=1e-12)
        assert pi == pytest.approx(0.12, abs=1e-12)

    def test_zero_weight_collapses_column(self):
        raw = matrix_of([[(0.6, 0.3, 0.1)], [(0.9, 0.05, 0.05)]], [B])
        weighted = weighted_if_matrix(raw, (IFV(0.0, 1.0, 0.0),))
        assert np.all(weighted[:, 0, 0] == 0.0)

    def test_weight_count_checked(self):
        raw = matrix_of([[(0.6, 0.3, 0.1)]], [B])
        with pytest.raises(DataError):
            weighted_if_matrix(raw, lift_crisp_weights([0.5, 0.5]))


class TestIdealSolutions:
    def test_single_alternative_degenerate(self):
        m = matrix_of([[(0.6, 0.3, 0.1), (0.2, 0.7, 0.1)]], [B, C])
        ideals = ideal_solutions(m.rows, m.benefit)
        assert ideals.shape == (2, 2, 3)
        for ideal in ideals:
            assert ideal == pytest.approx(m.rows[0])

    def test_benefit_column(self):
        m = matrix_of([[(0.2, 0.7, 0.1)], [(0.8, 0.1, 0.1)]], [B])
        positive, negative = ideal_solutions(m.rows, m.benefit)
        assert positive[0, :2].tolist() == [0.8, 0.1]
        assert negative[0, :2].tolist() == [0.2, 0.7]

    def test_cost_column_swaps(self):
        m = matrix_of([[(0.2, 0.7, 0.1)], [(0.8, 0.1, 0.1)]], [C])
        positive, negative = ideal_solutions(m.rows, m.benefit)
        assert positive[0, :2].tolist() == [0.2, 0.7]
        assert negative[0, :2].tolist() == [0.8, 0.1]

    @pytest.mark.parametrize("benefit", [[True], [True, False, True], [[True, False]]])
    def test_benefit_mask_shape_checked(self, benefit):
        m = matrix_of([[(0.5, 0.5, 0.0), (0.2, 0.7, 0.1)]], [B, C])
        assert m.benefit.tolist() == [True, False]
        with pytest.raises(DataError):
            ideal_solutions(m.rows, benefit)


class TestSeparation:
    def test_row_matching_ideal_has_zero_distance(self, rng):
        m = random_matrix(rng, 3, 2)
        ideals = ideal_solutions(m.rows, m.benefit)
        rows = list(m.rows) + [ideals[0]]
        extended = IfDecisionMatrix(rows=tuple(rows), criteria_kinds=m.criteria_kinds)
        # re-derive over the extended matrix so the appended row is an ideal
        new_ideals = ideal_solutions(extended.rows, extended.benefit)
        v_pos, _ = separation_measures(extended.rows, new_ideals)
        if np.array_equal(extended.rows[-1], new_ideals[0]):
            assert v_pos[-1] == pytest.approx(0.0, abs=1e-12)

    def test_one_criterion_hand_value(self):
        m = matrix_of([[(0.5, 0.5, 0.0)]], [B])
        ideals_override = ((IFV(1.0, 0.0, 0.0),), (IFV(0.5, 0.5, 0.0),))
        v_pos, v_neg = separation_measures(m.rows, ideals_override)
        assert v_pos[0] == pytest.approx(0.5)
        assert v_neg[0] == pytest.approx(0.0)

    def test_ideal_shapes_checked(self):
        m = matrix_of([[(0.5, 0.5, 0.0), (0.2, 0.7, 0.1)]], [B, B])
        ideals = ideal_solutions(m.rows, m.benefit)
        for broken in (ideals[:1], ideals[:, :1], ideals[..., :2]):
            with pytest.raises(DataError):
                separation_measures(m.rows, broken)


class TestCloseness:
    def test_endpoints(self):
        assert closeness(np.array([0.0]), np.array([0.7]))[0] == pytest.approx(1.0)
        assert closeness(np.array([0.7]), np.array([0.0]))[0] == pytest.approx(0.0)
        assert closeness(np.array([0.3]), np.array([0.3]))[0] == pytest.approx(0.5)

    def test_degenerate_alternative_named(self):
        # On both ideals at once (vp = vn = 0), as on the positive ideal alone.
        assert closeness(np.array([0.5, 0.0]), np.array([0.5, 0.0])).tolist() == [0.5, 1.0]

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            closeness(np.zeros(2), np.zeros(3))


class TestRanking:
    def test_descending_order(self):
        assert rank_alternatives(np.array([0.2, 0.9, 0.5])) == [1, 2, 0]

    def test_ties_break_by_index(self):
        assert rank_alternatives(np.array([0.4, 0.4, 0.4])) == [0, 1, 2]
        assert tied_groups(np.array([0.4, 0.4, 0.4])) == [[0, 1, 2]]

    def test_single_alternative(self):
        assert rank_alternatives(np.array([0.3])) == [0]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            rank_alternatives(np.array([]))


class TestProperties:
    def test_criteria_permutation_invariance(self, rng):
        for _ in range(20):
            m = random_matrix(rng, 3, 3)
            weights = tuple(random_ifv(rng) for _ in range(3))
            _, xi, ranking = evaluate(m, weights)
            perm = rng.permutation(3)
            permuted = IfDecisionMatrix(
                rows=tuple(tuple(row[j] for j in perm) for row in m.rows),
                criteria_kinds=tuple(m.criteria_kinds[j] for j in perm),
            )
            _, xi_p, ranking_p = evaluate(permuted, tuple(weights[j] for j in perm))
            assert xi_p == pytest.approx(xi, abs=1e-12)
            assert ranking_p == ranking

    def test_closeness_pinned(self):
        # A fixed 6x6 matrix and weights; the values were recorded from the
        # per-cell implementation, so the summation order stays the same.
        rng = np.random.default_rng(2009)
        mu = rng.uniform(0, 1, (6, 6))
        nu = rng.uniform(0, 1, (6, 6)) * (1 - mu)
        w_mu = rng.uniform(0, 1, 6)
        w_nu = rng.uniform(0, 1, 6) * (1 - w_mu)
        raw = IfDecisionMatrix(
            rows=[[IFV(float(a), float(b)) for a, b in zip(*row)] for row in zip(mu, nu)],
            criteria_kinds=(B, C, B, B, C, B),
        )
        _, xi, ranking = evaluate(raw, [IFV(float(a), float(b)) for a, b in zip(w_mu, w_nu)])
        assert xi.tolist() == [
            0.542048962549601, 0.4845505679908548, 0.5918904817622137,
            0.5319309841547881, 0.4745415167263796, 0.6061783626849762,
        ]
        assert ranking == [5, 2, 0, 3, 1, 4]

    def test_evaluate_is_weighting_then_rank_weighted(self, rng):
        m = random_matrix(rng, 4, 3)
        weights = tuple(random_ifv(rng) for _ in range(3))
        weighted, xi, ranking = evaluate(m, weights)
        xi_w, ranking_w = rank_weighted(weighted, m.benefit)
        assert np.array_equal(xi, xi_w)
        assert ranking == ranking_w

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(50):
            n_alt = int(rng.integers(2, 4))
            n_crit = int(rng.integers(1, 4))
            m = random_matrix(rng, n_alt, n_crit)
            weights = tuple(random_ifv(rng) for _ in range(n_crit))
            weighted, xi, ranking = evaluate(m, weights)
            expected_ranking, expected_xi = oracle_rank(m, weights)
            assert ranking == expected_ranking
            assert xi == pytest.approx(expected_xi, abs=1e-12)
            assert np.all((xi >= 0.0) & (xi <= 1.0))
            assert np.all(weighted[..., 0] + weighted[..., 1] <= 1.0 + 1e-9)

    def test_evaluate_returns_weighted_cells_as_plain_array(self, rng):
        m = random_matrix(rng, 4, 3)
        weights = tuple(random_ifv(rng) for _ in range(3))
        weighted, _, _ = evaluate(m, weights)
        assert type(weighted) is np.ndarray and weighted.dtype == np.float64
        assert weighted.tobytes() == ifv_multiply(m.rows, weights).tobytes()

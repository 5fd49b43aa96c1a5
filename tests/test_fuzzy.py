import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from riskfuse.errors import DataError
from riskfuse.fuzzy import (
    DEFAULT_DEMATEL_SCALE,
    IntuitionisticFuzzyValue,
    LinguisticScale,
    cfcs_defuzzify,
    check_tfn,
    ifv_multiply,
    tfn_from_linguistic,
)

IFV = IntuitionisticFuzzyValue


def valid_tfns():
    return st.tuples(
        st.floats(-5, 5), st.floats(0, 5), st.floats(0, 5)
    ).map(lambda t: (t[0], t[0] + t[1], t[0] + t[1] + t[2]))


def valid_ifvs():
    return st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
        lambda t: IFV(t[0], t[1] * (1.0 - t[0]))
    )


class TestTriangularFuzzyNumber:
    def test_ordering_enforced(self):
        assert check_tfn((0.0, 0.5, 1.0)).tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(DataError):
            check_tfn((0.5, 0.2, 1.0))
        with pytest.raises(DataError):
            check_tfn((0.0, 0.8, 0.5))

    def test_components_must_be_finite(self):
        with pytest.raises(DataError):
            check_tfn((0.0, 0.5, math.inf))
        with pytest.raises(DataError):
            check_tfn((math.nan, 0.5, 1.0))

    def test_check_tfn_names_first_bad_cell(self):
        cells = [[[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], [[0.0, 0.5, 1.0], [0.6, 0.5, 1.0]]]
        with pytest.raises(DataError, match=r"\(1, 1\) has not l <= m <= u"):
            check_tfn(cells)
        with pytest.raises(DataError, match="last axis"):
            check_tfn([[0.0, 0.5]])


class TestLinguisticScale:
    def test_default_scale_levels(self):
        assert tfn_from_linguistic("No influence", DEFAULT_DEMATEL_SCALE) == (0.0, 0.0, 0.25)
        assert tfn_from_linguistic("Very high", DEFAULT_DEMATEL_SCALE) == (0.75, 1.0, 1.0)

    def test_unknown_label_names_label_and_scale(self):
        with pytest.raises(DataError, match="Purple"):
            tfn_from_linguistic("Purple", DEFAULT_DEMATEL_SCALE)
        with pytest.raises(DataError, match=DEFAULT_DEMATEL_SCALE.name):
            tfn_from_linguistic("Purple", DEFAULT_DEMATEL_SCALE)

    def test_table_kept_as_float_triples(self):
        scale = LinguisticScale("tiny", ["lo", "hi"], [[0, 0, 0.5], [0.5, 1, 1]])
        assert scale.labels == ("lo", "hi")
        assert scale.tfns == ((0.0, 0.0, 0.5), (0.5, 1.0, 1.0))
        assert all(type(v) is float for triple in scale.tfns for v in triple)
        assert scale == LinguisticScale("tiny", ("lo", "hi"), np.array(scale.tfns))

    @pytest.mark.parametrize(
        "tfns",
        [[[0, 0, 0.5], [0.6, 0.5, 1]], [[0, 0, 0.5], [0.5, 1]], [[0, 0, 0.5], "abc"], [0, 1]],
    )
    def test_whole_table_checked(self, tfns):
        with pytest.raises(DataError):
            LinguisticScale("bad", ("lo", "hi"), tfns)

    def test_modes_must_increase(self):
        with pytest.raises(DataError):
            LinguisticScale(
                name="bad",
                labels=("a", "b"),
                tfns=((0, 0.5, 1), (0, 0.5, 1)),
            )

    def test_label_tfn_length_mismatch(self):
        with pytest.raises(DataError):
            LinguisticScale(name="bad", labels=("a",), tfns=((0, 0, 1), (0, 1, 1)))


class TestCfcsDefuzzify:
    def test_degenerate_tfn_is_already_crisp(self):
        for c in (0.0, 0.3, -2.0, 7.5):
            assert cfcs_defuzzify([(c, c, c)]) == c

    def test_symmetric_single_tfn_gives_its_mode(self):
        assert cfcs_defuzzify([(0.0, 0.25, 0.5)]) == pytest.approx(0.25)

    def test_two_judgment_hand_trace(self):
        # Hand execution of the five CFCS steps over span [0, 1]:
        # first TFN:  xls = 0.2, xrs = 0.4, total = 0.32 / 1.2
        # second TFN: xls = 0.6, xrs = 0.8, total = 0.88 / 1.2
        first = 0.32 / 1.2
        second = 0.88 / 1.2
        result = cfcs_defuzzify([(0.0, 0.25, 0.5), (0.5, 0.75, 1.0)])
        assert result == pytest.approx((first + second) / 2, abs=1e-12)
        assert 0.25 < result < 0.75

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            cfcs_defuzzify([])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "judgments",
        [[(-1e308, -1e308, -1e308), (1e308, 1e308, 1e308)], [(1e308,) * 3, (1.5e308,) * 3]],
        ids=["span", "sum"],
    )
    def test_overflow_rejected(self, judgments):
        with pytest.raises(DataError, match="overflow"):
            cfcs_defuzzify(judgments)

    @given(st.lists(valid_tfns(), min_size=1, max_size=6))
    def test_result_within_support(self, judgments):
        crisp = cfcs_defuzzify(judgments)
        lo = min(l for l, _, _ in judgments)
        hi = max(u for _, _, u in judgments)
        assert lo - 1e-9 <= crisp <= hi + 1e-9

    @given(valid_tfns(), st.integers(min_value=1, max_value=5))
    def test_identical_judgments_collapse(self, tfn, n):
        assert cfcs_defuzzify([tfn] * n) == pytest.approx(cfcs_defuzzify([tfn]))


class TestIntuitionisticFuzzyValue:
    def test_hesitation_derived_when_omitted(self):
        v = IFV(0.6, 0.3)
        assert v.pi == pytest.approx(0.1)

    def test_invariants_enforced(self):
        with pytest.raises(DataError):
            IFV(0.7, 0.4)
        with pytest.raises(DataError):
            IFV(1.2, 0.0)
        with pytest.raises(DataError):
            IFV(0.5, 0.2, 0.5)  # pi inconsistent
        with pytest.raises(DataError):
            IFV(0.6, 0.3)._replace(mu=0.9)  # namedtuple helpers validate too

    def test_from_crisp(self):
        assert IFV.from_crisp(0.3) == IFV(0.3, 0.7, 0.0)
        with pytest.raises(DataError):
            IFV.from_crisp(1.5)


class TestIfvMultiply:
    def test_multiplicative_identity(self):
        a = IFV(0.6, 0.3)
        assert tuple(ifv_multiply(a, IFV(1.0, 0.0, 0.0))) == a

    def test_derived_product(self):
        mu, nu, pi = ifv_multiply(IFV(0.6, 0.3, 0.1), IFV(0.5, 0.4, 0.1))
        assert mu == pytest.approx(0.30, abs=1e-12)
        assert nu == pytest.approx(0.58, abs=1e-12)
        assert pi == pytest.approx(0.12, abs=1e-12)

    def test_zero_membership_annihilates(self):
        mu, _, _ = ifv_multiply(IFV(0.0, 1.0, 0.0), IFV(0.7, 0.2, 0.1))
        assert mu == 0.0

    @given(valid_ifvs(), valid_ifvs())
    def test_commutative_and_invariant_preserving(self, a, w):
        mu, nu, pi = ifv_multiply(a, w)
        right_mu, right_nu, _ = ifv_multiply(w, a)
        assert mu == pytest.approx(right_mu, abs=1e-12)
        assert nu == pytest.approx(right_nu, abs=1e-12)
        assert 0.0 <= mu <= 1.0
        assert 0.0 <= nu <= 1.0
        assert mu + nu <= 1.0 + 1e-9
        assert pi == pytest.approx(1.0 - mu - nu, abs=1e-9)

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoseries.construction import LayeredParams
from geoseries.series import layer_term, partial_sum_closed, partial_sum_naive

MABRY = LayeredParams(3, 1, Fraction(1, 2))
EDGAR = LayeredParams(5, 4, Fraction(1, 3))


@pytest.mark.parametrize(
    "x, n, expected",
    [
        (Fraction(1, 4), 1, Fraction(5, 4)),
        (Fraction(0), 9, Fraction(1)),
        (Fraction(1, 2), 3, Fraction(15, 8)),
    ],
)
def test_partial_sum_closed_examples(x, n, expected):
    assert partial_sum_closed(x, n) == expected


def test_partial_sum_closed_rejects_x_equal_one():
    with pytest.raises(ValueError):
        partial_sum_closed(Fraction(1), 4)


@pytest.mark.parametrize("partial_sum", [partial_sum_closed, partial_sum_naive])
def test_partial_sums_reject_a_negative_term_count(partial_sum):
    with pytest.raises(ValueError, match=r"^term count must be >= 0, got -1$"):
        partial_sum(Fraction(1, 2), -1)


@pytest.mark.parametrize(
    "x, n, expected",
    [
        (Fraction(1, 4), 1, Fraction(5, 4)),
        (Fraction(1), 4, Fraction(5)),
        (Fraction(2, 3), 2, Fraction(19, 9)),
    ],
)
def test_partial_sum_naive_examples(x, n, expected):
    assert partial_sum_naive(x, n) == expected


@given(
    st.fractions(max_denominator=1000).filter(lambda x: x != 1),
    st.integers(0, 64),
)
def test_closed_form_matches_naive_oracle(x, n):
    assert partial_sum_closed(x, n) == partial_sum_naive(x, n)


@pytest.mark.parametrize(
    "params, k, expected",
    [
        (MABRY, 1, Fraction(1, 4)),
        (EDGAR, 2, Fraction(16, 81)),
        (MABRY, 3, Fraction(1, 64)),
    ],
)
def test_layer_term_examples(params, k, expected):
    assert layer_term(params, k) == expected


@pytest.mark.parametrize("params", [MABRY, EDGAR, LayeredParams(7, 3, Fraction(1, 5))])
def test_layer_term_ratio_is_shrink_squared(params):
    shrink_sq = (1 - params.r) ** 2
    for k in range(1, 20):
        assert layer_term(params, k + 1) == layer_term(params, k) * shrink_sq


@pytest.mark.parametrize("params", [MABRY, EDGAR, LayeredParams(7, 3, Fraction(1, 5))])
@pytest.mark.parametrize("layers", [0, 1, 5, 64])
def test_layer_terms_telescope_to_partial_colored_area(params, layers):
    total = sum(layer_term(params, k) for k in range(1, layers + 1))
    shrink = 1 - params.r
    expected = Fraction(params.a, params.n) * (1 - shrink ** (2 * layers))
    assert total == expected

from fractions import Fraction

import pytest

from geoseries.construction import (
    LayeredParams,
    StaircaseParams,
    colored_area_partial,
    colored_limit,
    layer_area,
    staircase_layer_area,
    staircase_piece_area,
    staircase_total_area,
    triangle_area,
)
from geoseries.feasibility import check_square_constraint
from geoseries.series import layer_term

MABRY = LayeredParams(3, 1, Fraction(1, 2))
EDGAR = LayeredParams(5, 4, Fraction(1, 3))
NON_GEOMETRIC = LayeredParams(7, 3, Fraction(1, 5))


class TestLayeredParams:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            LayeredParams(0, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            LayeredParams(3, 0, Fraction(1, 2))

    def test_rejects_ratio_outside_open_interval(self):
        for r in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ValueError):
                LayeredParams(3, 1, r)

    def test_drawable_flag(self):
        assert MABRY.drawable
        assert not LayeredParams(7, 9, Fraction(1, 4)).drawable


@pytest.mark.parametrize(
    "params, k, expected",
    [
        (MABRY, 1, Fraction(3, 4)),
        (EDGAR, 1, Fraction(5, 9)),
        (MABRY, 2, Fraction(3, 16)),
    ],
)
def test_layer_area_examples(params, k, expected):
    assert layer_area(params, k) == expected


@pytest.mark.parametrize(
    "params, k, expected",
    [
        (MABRY, 1, Fraction(1, 4)),
        (EDGAR, 1, Fraction(1, 9)),
        (MABRY, 2, Fraction(1, 16)),
    ],
)
def test_triangle_area_examples(params, k, expected):
    assert triangle_area(params, k) == expected


@pytest.mark.parametrize(
    "params, layers, expected",
    [
        (MABRY, 0, Fraction(0)),
        (MABRY, 2, Fraction(5, 16)),
        (EDGAR, 1, Fraction(4, 9)),
    ],
)
def test_colored_area_partial_examples(params, layers, expected):
    assert colored_area_partial(params, layers) == expected


@pytest.mark.parametrize(
    "params, expected",
    [
        (MABRY, Fraction(1, 3)),
        (EDGAR, Fraction(4, 5)),
        (NON_GEOMETRIC, Fraction(3, 7)),
    ],
)
def test_colored_limit_is_a_over_n(params, expected):
    assert colored_limit(params) == expected


@pytest.mark.parametrize("params", [MABRY, EDGAR, NON_GEOMETRIC])
@pytest.mark.parametrize("layers", [0, 1, 7, 64])
def test_telescoping_at_any_truncation(params, layers):
    total = sum(params.a * triangle_area(params, k) for k in range(1, layers + 1))
    assert total == colored_area_partial(params, layers)


@pytest.mark.parametrize("params", [MABRY, EDGAR, NON_GEOMETRIC])
@pytest.mark.parametrize("layers", [0, 1, 13, 50])
def test_exact_remainder(params, layers):
    remainder = colored_limit(params) - colored_area_partial(params, layers)
    shrink = 1 - params.r
    assert remainder == colored_limit(params) * shrink ** (2 * layers)


@pytest.mark.parametrize(
    "params, is_geometric",
    [(MABRY, True), (EDGAR, True), (NON_GEOMETRIC, False)],
)
def test_geometric_form_criterion_both_directions(params, is_geometric):
    # the layer-contribution series is v + v^2 + ... exactly when the
    # square condition holds: second term equals square of the first
    assert check_square_constraint(params) is is_geometric
    assert (layer_term(params, 2) == layer_term(params, 1) ** 2) is is_geometric


@pytest.mark.parametrize(
    "formula, arg, message",
    [
        (lambda k: layer_area(MABRY, k), 0, "layer index must be >= 1, got 0"),
        (lambda n: colored_area_partial(MABRY, n), -1, "layer count must be >= 0, got -1"),
        (
            lambda k: staircase_piece_area(StaircaseParams(Fraction(1, 2)), k), 0,
            "piece index must be >= 1, got 0",
        ),
    ],
    ids=["layer_area", "colored_area_partial", "staircase_piece_area"],
)
def test_formulas_reject_an_index_out_of_range(formula, arg, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        formula(arg)


class TestStaircase:
    def test_rejects_degenerate_s(self):
        for s in (Fraction(0), Fraction(1), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                StaircaseParams(s)

    @pytest.mark.parametrize(
        "s, k, expected",
        [
            (Fraction(3, 5), 1, Fraction(1, 2)),
            (Fraction(3, 5), 2, Fraction(9, 50)),
            (Fraction(1, 2), 3, Fraction(1, 32)),
        ],
    )
    def test_piece_area_examples(self, s, k, expected):
        assert staircase_piece_area(StaircaseParams(s), k) == expected

    @pytest.mark.parametrize(
        "s, k, expected",
        [
            (Fraction(3, 5), 1, Fraction(4, 5)),
            (Fraction(1, 2), 1, Fraction(3, 4)),
            (Fraction(1, 2), 2, Fraction(3, 16)),
        ],
    )
    def test_layer_area_examples(self, s, k, expected):
        assert staircase_layer_area(StaircaseParams(s), k) == expected

    @pytest.mark.parametrize(
        "s, expected",
        [(Fraction(3, 5), Fraction(5, 4)), (Fraction(1, 2), Fraction(1))],
    )
    def test_total_area_examples(self, s, expected):
        assert staircase_total_area(StaircaseParams(s)) == expected

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5), Fraction(2, 3)])
    def test_layer_sum_accounting(self, s):
        q = StaircaseParams(s)
        for layers in (0, 1, 8, 64):
            total = sum(staircase_layer_area(q, k) for k in range(1, layers + 1))
            assert total == (1 - s ** (2 * layers)) / (2 * (1 - s))
            # the untiled apex is the full triangle shrunk by s^(2L)
            assert total + s ** (2 * layers) * staircase_total_area(q) == (
                staircase_total_area(q)
            )

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5), Fraction(7, 9)])
    def test_colored_fraction_of_every_layer(self, s):
        q = StaircaseParams(s)
        for k in range(1, 65):
            assert staircase_piece_area(q, k) / staircase_layer_area(q, k) == 1 / (1 + s)

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5), Fraction(2, 3)])
    @pytest.mark.parametrize("layers", [1, 4, 16])
    def test_recovered_identity_at_truncation(self, s, layers):
        q = StaircaseParams(s)
        r = s * s
        doubled = 2 * sum(staircase_piece_area(q, k) for k in range(1, layers + 1))
        assert doubled == (1 - r**layers) / (1 - r)
        assert doubled == sum(r**k for k in range(layers))

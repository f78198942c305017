from fractions import Fraction

import pytest

from geoseries.construction import LayeredParams
from geoseries.feasibility import (
    brute_force_scan,
    check_bound,
    check_square_constraint,
    derive_config,
    enumerate_feasible,
)

# correct rational sandwich of 1 - 1/sqrt(2) = 0.29289321...
LOWER = Fraction(29289, 100000)
UPPER = Fraction(2929, 10000)


@pytest.mark.parametrize(
    "params, expected",
    [
        (LayeredParams(3, 1, Fraction(1, 2)), True),
        (LayeredParams(5, 4, Fraction(1, 3)), True),
        (LayeredParams(4, 1, Fraction(1, 2)), False),
    ],
)
def test_square_constraint_examples(params, expected):
    assert check_square_constraint(params) is expected


@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(1, 2), True),
        (Fraction(1, 3), True),
        (Fraction(1, 4), False),
    ],
)
def test_bound_examples(r, expected):
    assert check_bound(r) is expected


def test_bound_rejects_r_outside_interval():
    with pytest.raises(ValueError):
        check_bound(Fraction(3, 2))


def test_sandwich_brackets_the_irrational_cutoff():
    # verified by squaring: l < 1 - 1/sqrt(2) < u  <=>  2(1-l)^2 > 1 > 2(1-u)^2
    assert 2 * (1 - LOWER) ** 2 > 1
    assert 2 * (1 - UPPER) ** 2 < 1


def test_bound_matches_sandwich_on_all_unit_fractions():
    for m in range(2, 10_001):
        r = Fraction(1, m)
        assert not LOWER < r < UPPER  # no 1/m falls inside the sandwich gap
        assert check_bound(r) == (r > UPPER)


@pytest.mark.parametrize(
    "m, n, a",
    [(2, 3, 1), (3, 5, 4), (4, 7, 9)],
)
def test_derive_config_examples(m, n, a):
    p = derive_config(m)
    assert (p.n, p.a, p.r) == (n, a, Fraction(1, m))


def test_derive_config_m4_is_not_drawable():
    assert not derive_config(4).drawable


def test_derive_config_rejects_degenerate_m():
    with pytest.raises(ValueError):
        derive_config(1)


def test_enumerate_feasible_max_m_10():
    reports = enumerate_feasible(10)
    assert len(reports) == 9
    feasible = {r.candidate_m: r for r in reports if r.feasible}
    assert set(feasible) == {2, 3}
    assert (feasible[2].derived_n, feasible[2].derived_a) == (3, 1)
    assert (feasible[3].derived_n, feasible[3].derived_a) == (5, 4)


def test_enumerate_feasible_minimum_range():
    reports = enumerate_feasible(2)
    assert [r.candidate_m for r in reports if r.feasible] == [2]


def test_enumerate_feasible_rejects_small_max_m():
    with pytest.raises(ValueError):
        enumerate_feasible(1)


def test_square_constraint_holds_identically_on_derived_family():
    for m in range(2, 10_001):
        p = derive_config(m)
        assert check_square_constraint(p)
        # with the square condition identically true, feasibility reduces
        # to a < n, and that cutoff coincides with the bound on r
        assert (p.a < p.n) == check_bound(p.r)
    # both cutoffs are the one inequality m^2 - 4m + 2 < 0
    for rep in enumerate_feasible(10_000):
        m = rep.candidate_m
        assert rep.feasible == rep.passes_bound == (rep.derived_a < rep.derived_n) == (
            m * m - 4 * m + 2 < 0
        )


def test_brute_force_scan_finds_exactly_the_two_pictures():
    assert brute_force_scan() == [
        (3, 1, Fraction(1, 2)),
        (5, 4, Fraction(1, 3)),
    ]


def test_brute_force_scan_agrees_with_closed_form_enumeration():
    from_scan = {(n, a, r) for n, a, r in brute_force_scan()}
    from_formula = {
        (rep.derived_n, rep.derived_a, rep.r)
        for rep in enumerate_feasible(100)
        if rep.feasible
    }
    assert from_scan == from_formula

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geoseries.construction import LayeredParams
from geoseries.feasibility import (
    FeasibilityReport,
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


def reference_reports(max_m):
    """The list enumerate_feasible returned before it became a lazy sequence."""
    return [
        FeasibilityReport(m, Fraction(1, m), True, 2 * m - 1, (m - 1) ** 2, True, ok, ok)
        for m in range(2, max_m + 1)
        for ok in (m * m - 4 * m + 2 < 0,)
    ]


@pytest.mark.parametrize("max_m", [2, 3, 4, 10, 1001])
def test_enumerate_feasible_keeps_the_list_semantics(max_m):
    scan, want = enumerate_feasible(max_m), reference_reports(max_m)
    assert len(scan) == len(want)
    assert scan[0] == want[0]
    assert scan[-1] == want[-1]
    assert scan[-len(want)] == want[0]
    for index in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            scan[index]
    for cut in (
        slice(None), slice(1, None), slice(None, -1), slice(-3, None), slice(None, None, 2),
        slice(None, None, -1), slice(-1, 0, -3), slice(5, 2), slice(-500, 500, 7),
    ):
        assert scan[cut] == want[cut], cut
        assert type(scan[cut]) is list
    assert list(scan) == want
    assert list(scan) == want  # a second pass reads the same reports
    assert list(scan.rows()) == [
        (r.candidate_m, r.derived_n, r.derived_a, r.feasible) for r in want
    ]
    assert list(scan.rows(-1)) == [(max_m, 2 * max_m - 1, (max_m - 1) ** 2, max_m <= 3)]


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


def test_brute_force_scan_finds_only_the_two_pictures_on_100x_the_default_range():
    # n <= 10^4, r = 1/m for m <= 10^4 and r = 2/j for odd j < 2 x 10^4:
    # about 2 x 10^4 ratios, each solved in one or two divisions
    assert brute_force_scan(10**4, 10**4, 2 * 10**4 - 1) == [
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


def literal_brute_force_scan(max_n=200, max_m=100, max_odd_j=199):
    """brute_force_scan as it was written first: every n in [1, max_n] and
    every a in [1, n) tried in turn, the reference it must agree with."""
    candidates = [Fraction(1, m) for m in range(2, max_m + 1)]
    candidates += [Fraction(2, j) for j in range(3, max_odd_j + 1, 2)]
    found = []
    for r in candidates:
        num, den = r.numerator, r.denominator
        shrink_sq = (den - num) ** 2
        layer1 = den * den - shrink_sq
        for n in range(1, max_n + 1):
            if n * num * num != layer1:
                continue
            for a in range(1, n):
                if n * shrink_sq == a * layer1:
                    found.append((n, a, r))
    return found


@pytest.mark.parametrize(
    "ranges",
    [(), (2000, 1000, 1999)],  # the defaults, and the benchmark's oracle call
    ids=["default", "benchmark"],
)
def test_brute_force_scan_equals_the_literal_scan(ranges):
    assert brute_force_scan(*ranges) == literal_brute_force_scan(*ranges)


@given(
    max_n=st.integers(-2, 60),
    max_m=st.integers(-2, 40),
    max_odd_j=st.integers(-2, 81),
)
@example(max_n=3, max_m=2, max_odd_j=1)  # max_n at Mabry's n, no r = 2/j
@example(max_n=5, max_m=3, max_odd_j=3)  # max_n at Edgar's n
@example(max_n=2, max_m=100, max_odd_j=199)  # max_n below every picture's n
@example(max_n=200, max_m=1, max_odd_j=199)  # no r = 1/m
@example(max_n=4, max_m=3, max_odd_j=2)  # Mabry only
def test_brute_force_scan_equals_the_literal_scan_on_small_ranges(max_n, max_m, max_odd_j):
    assert brute_force_scan(max_n, max_m, max_odd_j) == literal_brute_force_scan(
        max_n, max_m, max_odd_j
    )

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoseries.rational import (
    MAX_DENOMINATOR_BITS,
    check_depth,
    fmt,
    fmt_parts,
    parse,
    parse_parts,
)

rationals = st.fractions(max_denominator=10**6)


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1/2", Fraction(1, 2)),
        ("-3/6", Fraction(-1, 2)),
        ("7/1", Fraction(7)),
        ("  4 ", Fraction(4)),
        ("-5", Fraction(-5)),
    ],
)
def test_parse_accepts_canonical_and_unreduced(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize(
    "text", ["1/0", "1/-2", "3/", "a/b", "1.5", "\u0663/\u0665", "3_0/5", "3 / 5", "+3/5"]
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse(text)


def test_fmt_drops_unit_denominator():
    assert fmt(Fraction(7)) == "7"
    assert fmt(Fraction(-4, 6)) == "-2/3"


@given(rationals)
def test_parse_fmt_round_trip(q):
    assert parse(fmt(q)) == q


@given(rationals, st.integers(1, 10**9))
def test_parts_read_unreduced_and_write_canonical(q, k):
    num, den = q.numerator * k, q.denominator * k
    assert parse_parts(f"{num}/{den}") == (num, den)
    assert fmt_parts(num, den) == fmt(q)


@pytest.mark.parametrize("text", ["1/0", "1/-2", "3/", "a/b", "1.5"])
def test_parse_parts_rejects_what_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_parts(text)


@pytest.mark.parametrize("ratio", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 5), Fraction(254, 255)])
def test_depth_cap_is_layers_times_denominator_bits(ratio):
    deepest = MAX_DENOMINATOR_BITS // ratio.denominator.bit_length()
    check_depth(deepest, ratio, "--layers")
    with pytest.raises(ValueError, match=rf"^--layers {deepest + 1} is too deep"):
        check_depth(deepest + 1, ratio, "--layers")
    with pytest.raises(ValueError, match=r"^--layers must be >= 1, got 0$"):
        check_depth(0, ratio, "--layers")


def test_fmt_writes_past_the_int_to_str_digit_limit():
    # 10^9000 + 7 has 9001 digits, past Python's default limit of 4300
    big = 10**9000 + 7
    text = "1" + "0" * 8999 + "7"
    assert fmt(Fraction(-big, 3)) == f"-{text}/3"
    assert fmt(Fraction(3, big)) == f"3/{text}"
    assert fmt_parts(2 * big, 6) == f"{text}/3"
    assert fmt(Fraction(10**12000)) == "1" + "0" * 12000

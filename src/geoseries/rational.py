"""Exact rationals and the "p/q" text form used everywhere else.

Values are plain ``fractions.Fraction`` objects: arbitrary-precision,
gcd-reduced at construction, denominator always positive, immutable.
Arithmetic is Fraction's own operators; this module adds only the
shared constants, strict parsing/formatting of the canonical "p/q"
string form, and the cap on how deep a picture or table may go.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def parse(text: str) -> Rational:
    """Parse "p/q" (q > 0) or a bare integer, e.g. "4/9", "-3", "7/1"."""
    s = text.strip()
    if "/" in s:
        num_text, den_text = s.split("/", 1)
        num = int(num_text)
        den = int(den_text)
        if den <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def fmt(q: Rational) -> str:
    """Canonical text form: "p/q", or a bare integer when q == 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# Largest predicted denominator, in bits, of a picture or a table: its layer
# (or term) count times the bit length of the ratio's denominator, for the
# ratio r = 1/m or s of a picture and --ratio of a table.  The largest number
# printed is about the square of that denominator, so at the cap it has about
# 2466 digits, below Python's 4300-digit limit on int-to-str conversion.  At
# the cap the slowest commands measured, render --emit-scene and verify of
# layered m = 3 with 2048 layers, take 3.2 s and 2.4 s (the render peaks at
# 234 MiB) with Python 3.11 on a 2-core x86 host; the benchmark's deep
# scenes predict 400 and 1500 bits.
MAX_DENOMINATOR_BITS = 4096


def check_depth(count: int, ratio: Rational, name: str) -> None:
    """ValueError naming `name` if count powers of ratio pass MAX_DENOMINATOR_BITS."""
    q_bits = ratio.denominator.bit_length()
    if count * q_bits > MAX_DENOMINATOR_BITS:
        raise ValueError(
            f"{name} {count} is too deep for a ratio with a {q_bits}-bit denominator: "
            f"{count} x {q_bits} = {count * q_bits} bits, over the cap of "
            f"{MAX_DENOMINATOR_BITS} bits (at most {MAX_DENOMINATOR_BITS // q_bits} here)"
        )

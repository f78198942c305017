"""Exact rationals and the "p/q" text form used everywhere else.

Values are plain ``fractions.Fraction`` objects: arbitrary-precision,
gcd-reduced at construction, denominator always positive, immutable.
Arithmetic is Fraction's own operators; this module adds only the
shared constants and strict parsing/formatting of the canonical "p/q"
string form.
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

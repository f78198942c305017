"""Exact rationals and the "p/q" text form used everywhere else.

Values are plain ``fractions.Fraction`` objects: arbitrary-precision,
gcd-reduced at construction, denominator always positive, immutable.
Arithmetic is Fraction's own operators; this module adds only the
shared constants, strict parsing/formatting of the canonical "p/q"
string form, and the cap on how deep a picture or table may go.
Scene geometry holds its coordinates as plain integers instead; parse_parts,
fmt_parts and fmt_reduced read and write "p/q" without a Fraction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# "p/q" or a bare integer: an optional "-" and ASCII digits, then "/" and ASCII digits
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_parts(text: str) -> tuple[int, int]:
    """(p, q) of "p/q" (q > 0) or of a bare integer (q = 1), not reduced: "2/4" is (2, 4).

    Outer whitespace is stripped.  Unlike int(), it refuses a "+", a "_",
    inner whitespace and non-ASCII digits.
    """
    match = _RATIONAL_TEXT.fullmatch(text.strip())
    if match is None:
        raise ValueError(f'invalid literal for a "p/q" rational: {text!r:.40}')
    num_text, den_text = match.groups()
    den = 1 if den_text is None else int(den_text)
    if den == 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return int(num_text), den


def parse(text: str) -> Rational:
    """Parse "p/q" (q > 0) or a bare integer, e.g. "4/9", "-3", "7/1"."""
    return Fraction(*parse_parts(text))


# decimal digits per block when an int is written past Python's limit on
# int-to-str conversion (4300 digits by default)
_BLOCK_DIGITS = 4000
_BLOCK = 10**_BLOCK_DIGITS


def _int_text(n: int) -> str:
    """str(n), exactly, also past Python's limit on int-to-str conversion.

    An audit mismatch of a tampered scene file can pass that limit: its
    areas have up to about twice geometry.MAX_SCENE_DENOMINATOR_BITS bits.
    Parsing keeps the limit.
    """
    try:
        return str(n)
    except ValueError:  # too many digits
        high, low = divmod(abs(n), _BLOCK)
        text = _int_text(high) + str(low).zfill(_BLOCK_DIGITS)
        return "-" + text if n < 0 else text


def fmt(q: Rational) -> str:
    """Canonical text form: "p/q", or a bare integer when q == 1."""
    return fmt_reduced(q.numerator, q.denominator)


def fmt_reduced(num: int, den: int) -> str:
    """fmt of num/den, den > 0 and the two already in lowest terms: no gcd is taken."""
    if den == 1:
        return _int_text(num)
    return f"{_int_text(num)}/{_int_text(den)}"


def fmt_parts(num: int, den: int) -> str:
    """fmt of num/den (den > 0), reduced here by one gcd."""
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return fmt_reduced(num, den)


# Largest predicted denominator, in bits, of a picture or a table: its layer
# (or term) count times the bit length of the ratio's denominator, for the
# ratio r = 1/m or s of a picture and --ratio of a table.  The largest number
# printed is about the square of that denominator, so at the cap it has about
# 2466 digits, below Python's 4300-digit limit on int-to-str conversion.  At
# the cap, render --emit-scene and verify of layered m = 3 with 2048 layers
# take 0.29 s and 0.33 s (peaking at 20.1 and 37.7 MiB), and verify
# --from-scene of that scene file 0.74 s (130.5 MiB), medians of 9 fresh
# processes with Python 3.11 on a shared 2-core Xeon host, in one batch;
# the benchmark's deep scenes predict 400 and 1500 bits.
MAX_DENOMINATOR_BITS = 4096


def check_depth(count: int, ratio: Rational, name: str) -> None:
    """ValueError naming `name` if count is below 1 or count powers of ratio pass
    MAX_DENOMINATOR_BITS."""
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    q_bits = ratio.denominator.bit_length()
    if count * q_bits > MAX_DENOMINATOR_BITS:
        raise ValueError(
            f"{name} {count} is too deep for a ratio with a {q_bits}-bit denominator: "
            f"{count} x {q_bits} = {count * q_bits} bits, over the cap of "
            f"{MAX_DENOMINATOR_BITS} bits (at most {MAX_DENOMINATOR_BITS // q_bits} here)"
        )

"""Geometric series engine: partial sums (closed form and naive), per-layer terms.

partial_sum_naive is a deliberate duplicate of partial_sum_closed: it
accumulates term by term and is the oracle the closed form is checked
against.  The CLI table keeps its own running sum for its naive column,
so a table of N rows costs N additions rather than N naive sums.
"""

from __future__ import annotations

from .construction import LayeredParams, triangle_area
from .rational import ONE, ZERO, Rational


def partial_sum_closed(x: Rational, n: int) -> Rational:
    """1 + x + ... + x^n via (1 - x^(n+1)) / (1 - x); requires x != 1."""
    if n < 0:
        raise ValueError(f"term count must be >= 0, got {n}")
    if x == 1:
        raise ValueError("closed form is singular at x = 1 (the sum is n+1)")
    return (ONE - x ** (n + 1)) / (ONE - x)


def partial_sum_naive(x: Rational, n: int) -> Rational:
    """1 + x + ... + x^n by plain accumulation; works for any rational x."""
    if n < 0:
        raise ValueError(f"term count must be >= 0, got {n}")
    total = ZERO
    power = ONE
    for _ in range(n + 1):
        total += power
        power *= x
    return total


def layer_term(params: LayeredParams, k: int) -> Rational:
    """Colored area contributed by layer k: a small-triangle areas."""
    return params.a * triangle_area(params, k)

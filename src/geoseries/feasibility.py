"""Search for layered-triangle pictures beyond the two known ones.

A candidate ratio r admits a picture only if (i) the per-layer series is
geometric in its own first term (the square condition), (ii) layer 1
tessellates into an integral number of small triangles, and (iii) the
colored count fits, 1 <= a < n.  Scanning r = 1/m shows the feasible set
is exactly {m=2, m=3}; a brute-force scan over (n, a, r) pairs confirms
it independently, including the r = 2/j (odd j) candidates that the
integrality condition 2/r in N also allows.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from typing import NamedTuple

from .construction import LayeredParams
from .rational import ONE, Rational, fmt


class FeasibilityReport(NamedTuple):
    """Constraint diagnostics for one candidate m (r = 1/m).

    A NamedTuple rather than a dataclass: enumerate_feasible builds one
    per candidate and the million-m scan is timed.
    """

    candidate_m: int
    r: Rational
    passes_integrality: bool
    derived_n: int
    derived_a: int
    passes_square_constraint: bool
    passes_bound: bool
    feasible: bool

    def as_dict(self) -> dict:
        d = self._asdict()
        d["r"] = fmt(self.r)
        return d


def check_square_constraint(p: LayeredParams) -> bool:
    """True iff (1-r)^2 / (1-(1-r)^2) == a/n exactly."""
    shrink = ONE - p.r
    return p.n * shrink * shrink == p.a * (ONE - shrink * shrink)


def check_bound(r: Rational) -> bool:
    """True iff r > 1 - 1/sqrt(2), decided as 2(1-r)^2 < 1 in plain integers."""
    if not 0 < r < 1:
        raise ValueError(f"r must lie strictly in (0,1), got {fmt(r)}")
    num, den = r.numerator, r.denominator
    return 2 * (den - num) ** 2 < den * den


def derive_config(m: int) -> LayeredParams:
    """The unique candidate for r = 1/m: n = 2m-1, a = (m-1)^2.

    The result need not be drawable (a < n fails for m >= 4); that is
    exactly what enumerate_feasible reports on.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2 (m = 1 means r = 1, degenerate), got {m}")
    return LayeredParams(n=2 * m - 1, a=(m - 1) ** 2, r=Fraction(1, m))


def enumerate_feasible(max_m: int) -> list[FeasibilityReport]:
    """One report per m in [2, max_m]; feasible exactly when every constraint holds.

    For r = 1/m the integrality condition 2/r = 2m holds trivially, and
    the square condition holds identically for (n, a) = (2m-1, (m-1)^2).
    The two constraints left are one inequality: the bound 2(1-1/m)^2 < 1,
    i.e. 2(m-1)^2 < m^2, and a < n, i.e. (m-1)^2 < 2m-1, both reduce to
    m^2 - 4m + 2 < 0, whose roots are 2 +- sqrt(2), so it holds for m = 2
    and m = 3 only.  The loop decides it once per m in machine integers;
    the test suite re-checks every step against the generic predicates.
    """
    if max_m < 2:
        raise ValueError(f"max_m must be >= 2, got {max_m}")
    # reports are tuples of ints/Fractions and can't form reference
    # cycles; pausing the cyclic collector stops it from repeatedly
    # walking the millions of survivors of a large scan (at 10^6
    # candidates the scan takes twice as long without the pause)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return [
            FeasibilityReport(m, Fraction(1, m), True, 2 * m - 1, (m - 1) ** 2, True, ok, ok)
            for m in range(2, max_m + 1)
            for ok in (m * m - 4 * m + 2 < 0,)
        ]
    finally:
        if gc_was_enabled:
            gc.enable()


def brute_force_scan(
    max_n: int = 200, max_m: int = 100, max_odd_j: int = 199
) -> list[tuple[int, int, Rational]]:
    """Exhaustive oracle: test every (n, a, r) pair directly, no derivation.

    Candidate ratios are r = 1/m (m <= max_m) plus r = 2/j for odd
    j <= max_odd_j, the other family permitted by 2/r in N.  For each
    ratio and each n <= max_n, n small triangles of area r^2 must fill
    layer 1 exactly, and some a in [1, n) must satisfy the square
    condition.  Returns the surviving triples in scan order.
    """
    candidates = [Fraction(1, m) for m in range(2, max_m + 1)]
    candidates += [Fraction(2, j) for j in range(3, max_odd_j + 1, 2)]
    found: list[tuple[int, int, Rational]] = []
    for r in candidates:
        num, den = r.numerator, r.denominator
        shrink_sq = (den - num) ** 2  # den^2 * (1-r)^2
        layer1 = den * den - shrink_sq  # den^2 * (1-(1-r)^2)
        for n in range(1, max_n + 1):
            if n * num * num != layer1:  # layer-1 tessellation count must equal n
                continue
            for a in range(1, n):
                if n * shrink_sq == a * layer1:  # square condition
                    found.append((n, a, r))
    return found

"""Search for layered-triangle pictures beyond the two known ones.

A candidate ratio r admits a picture only if (i) the per-layer series is
geometric in its own first term (the square condition), (ii) layer 1
tessellates into an integral number of small triangles, and (iii) the
colored count fits, 1 <= a < n.  Scanning r = 1/m shows the feasible set
is exactly {m=2, m=3}; a brute-force scan over (n, a, r) triples confirms
it independently, including the r = 2/j (odd j) candidates that the
integrality condition 2/r in N also allows.  The scan solves each of its
two linear conditions exactly per ratio, over the same ranges of n and a,
so it finds what trying every n and a would find.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import groupby
from math import isqrt
from operator import lt, mul
from typing import NamedTuple

from .construction import LayeredParams
from .rational import ONE, Rational, fmt


class FeasibilityReport(NamedTuple):
    """Constraint diagnostics for one candidate m (r = 1/m).

    A NamedTuple rather than a dataclass: reading a scan of enumerate_feasible
    makes one per candidate it reads, and the acceptance test reads a
    million of them against a time budget.
    """

    candidate_m: int
    r: Rational
    passes_integrality: bool
    derived_n: int
    derived_a: int
    passes_square_constraint: bool
    passes_bound: bool
    feasible: bool


class RowBlock(NamedTuple):
    """Consecutive rows of a scan that share one shape: the verdict, whether
    a < n, and the decimal digit count of m, of n and of a.

    m and n are ranges and a a list, one entry per row; row i is
    (m[i], n[i], a[i]), with a_lt_n and feasible for every row.
    """

    m: range
    n: range
    a: list[int]
    a_lt_n: bool
    feasible: bool


# most rows in one RowBlock: few enough that a block's columns and its text
# stay a few hundred KiB, enough that the per-block work costs little
_CHUNK_ROWS = 4096


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


def _report(m: int) -> FeasibilityReport:
    """The report for r = 1/m, decided in plain integers.

    For r = 1/m the integrality condition 2/r = 2m holds trivially, and
    the square condition holds identically for (n, a) = (2m-1, (m-1)^2).
    The two constraints left are one inequality: the bound 2(1-1/m)^2 < 1,
    i.e. 2(m-1)^2 < m^2, and a < n, i.e. (m-1)^2 < 2m-1, both reduce to
    m^2 - 4m + 2 < 0, whose roots are 2 +- sqrt(2), so it holds for m = 2
    and m = 3 only.  The test suite re-checks every step against the
    generic predicates.
    """
    n, a, feasible = 2 * m - 1, (m - 1) ** 2, m * m - 4 * m + 2 < 0
    return FeasibilityReport(m, Fraction(1, m), True, n, a, True, feasible, feasible)


class FeasibilityScan(Sequence):
    """The reports for m = 2..max_m, read-only; each is made when it is read.

    len, indexing (negative too), iteration and slicing (which returns a
    list) behave as on the list of every report, which is never held.
    blocks() gives the same scan as column blocks of one shape each, with
    no report, no Fraction and no Python-level work per row; both
    `feasible` writers read it.
    """

    __slots__ = ("_ms",)

    def __init__(self, max_m: int) -> None:
        self._ms = range(2, max_m + 1)

    def __len__(self) -> int:
        return len(self._ms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(_report, self._ms[index]))
        return _report(self._ms[index])

    def __iter__(self) -> Iterator[FeasibilityReport]:
        return map(_report, self._ms)

    def blocks(self) -> Iterator[RowBlock]:
        """The rows in order as RowBlocks of at most _CHUNK_ROWS rows each.

        A block ends every _CHUNK_ROWS rows, where m, n = 2m-1 or
        a = (m-1)^2 gains a digit, and where the verdict or a < n changes.
        The digit cuts follow from those forms; the verdict is decided for
        every row by a C-level map and grouped per chunk, never over the scan.
        """
        first, stop = self._ms.start, self._ms.stop
        cuts = {stop}
        for digits in range(1, 2 * len(str(stop))):  # a < stop^2
            power = 10**digits
            # m, n and a reach power at these m
            cuts.update((power, power // 2 + 1, isqrt(power - 1) + 2))
        cuts.update(range(first + _CHUNK_ROWS, stop, _CHUNK_ROWS))
        start = first
        for end in sorted(cut for cut in cuts if first < cut <= stop):
            ms = range(start, end)
            ns = range(2 * start - 1, 2 * end - 1, 2)
            m_1 = range(start - 1, end - 1)
            as_ = list(map(mul, m_1, m_1))
            row = 0
            # _report's verdict m^2 - 4m + 2 < 0 is (m-1)^2 < 2m-1, i.e. a < n:
            # one comparison per row decides both cells
            for ok, run in groupby(map(lt, as_, ns)):
                size = len(list(run))
                yield RowBlock(
                    ms[row:row + size], ns[row:row + size], as_[row:row + size], ok, ok
                )
                row += size
            start = end


def enumerate_feasible(max_m: int) -> FeasibilityScan:
    """One report per m in [2, max_m]; feasible exactly when every constraint holds.

    The reports form a lazy sequence: each is decided by the closed form
    in _report when it is read, so a scan of any size runs in constant memory.
    """
    if max_m < 2:
        raise ValueError(f"max_m must be >= 2, got {max_m}")
    return FeasibilityScan(max_m)


def brute_force_scan(
    max_n: int = 200, max_m: int = 100, max_odd_j: int = 199
) -> list[tuple[int, int, Rational]]:
    """Exhaustive oracle: decide every (n, a, r) triple directly, no derivation.

    Candidate ratios are r = 1/m (m <= max_m) plus r = 2/j for odd
    j <= max_odd_j, the other family permitted by 2/r in N.  For each
    ratio, some n in [1, max_n] small triangles of area r^2 must fill
    layer 1 exactly, and some a in [1, n) must satisfy the square
    condition.  Each condition is linear in its unknown, so it is solved
    exactly, one division per ratio, over these same ranges of n and a:
    the same triples are found as by trying every n and a.  Returns the
    surviving triples in scan order.
    """
    candidates = [Fraction(1, m) for m in range(2, max_m + 1)]
    candidates += [Fraction(2, j) for j in range(3, max_odd_j + 1, 2)]
    found: list[tuple[int, int, Rational]] = []
    for r in candidates:
        num, den = r.numerator, r.denominator
        shrink_sq = (den - num) ** 2  # den^2 * (1-r)^2
        layer1 = den * den - shrink_sq  # den^2 * (1-(1-r)^2), > 0 as 0 < r < 1
        # layer-1 tessellation count: n * num^2 == layer1 holds for one n only
        n, rest = divmod(layer1, num * num)
        if rest or not 1 <= n <= max_n:
            continue
        # square condition: n * shrink_sq == a * layer1 holds for one a only
        a, rest = divmod(n * shrink_sq, layer1)
        if not rest and 1 <= a < n:
            found.append((n, a, r))
    return found

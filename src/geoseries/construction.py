"""Analytic area formulas for the two picture families.

Layered family: a unit-area triangle is cut into horizontal layers by
similar sub-triangles shrinking by a factor (1-r) per layer; each layer
holds n congruent small triangles, a of them colored.  Staircase family:
right triangle tiled by colored right triangles with legs s^(k-1)
descending toward the apex, one per layer, parametrized by s with the
series ratio r = s^2.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import ONE, Rational, fmt
from .record import Record


class LayeredParams(Record):
    """Triple (n, a, r): triangles per layer, colored per layer, height ratio.

    a < n is required for a drawable picture but is deliberately not
    enforced here: the two-way area accounting is an identity for any
    a >= 1, and the feasibility search needs to carry a >= n candidates
    around to report why they fail.
    """

    n: int
    a: int
    r: Rational

    def __init__(self, n: int, a: int, r: Rational) -> None:
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        if a < 1:
            raise ValueError(f"a must be a positive integer, got {a}")
        if not 0 < r < 1:
            raise ValueError(f"r must lie strictly in (0,1), got {fmt(r)}")
        self.__dict__.update(n=n, a=a, r=r)

    @property
    def drawable(self) -> bool:
        """True when a < n, i.e. the coloring fits inside each layer."""
        return self.a < self.n


class StaircaseParams(Record):
    """Staircase parameter s in (0,1); the recovered series ratio is r = s**2."""

    s: Rational

    def __init__(self, s: Rational) -> None:
        if not 0 < s < 1:
            raise ValueError(f"s must lie strictly in (0,1), got {fmt(s)}")
        self.__dict__["s"] = s

    @property
    def ratio(self) -> Rational:
        return self.s * self.s


def layer_area(p: LayeredParams, k: int) -> Rational:
    """Exact area of layer k in the unit-area triangle: (1-(1-r)^2)(1-r)^(2(k-1))."""
    if k < 1:
        raise ValueError(f"layer index must be >= 1, got {k}")
    shrink = ONE - p.r
    return (ONE - shrink * shrink) * shrink ** (2 * (k - 1))


def triangle_area(p: LayeredParams, k: int) -> Rational:
    """Area of one small triangle in layer k: layer_area / n."""
    return layer_area(p, k) / p.n


def colored_area_partial(p: LayeredParams, layers: int) -> Rational:
    """Total colored area of layers 1..L, telescoped: (a/n)(1 - (1-r)^(2L))."""
    if layers < 0:
        raise ValueError(f"layer count must be >= 0, got {layers}")
    shrink = ONE - p.r
    return Fraction(p.a, p.n) * (ONE - shrink ** (2 * layers))


def colored_limit(p: LayeredParams) -> Rational:
    """Colored fraction of the whole picture, a/n: the value the series sums to."""
    return Fraction(p.a, p.n)


def staircase_piece_area(q: StaircaseParams, k: int) -> Rational:
    """Colored staircase triangle k: legs s^(k-1), area s^(2(k-1))/2."""
    if k < 1:
        raise ValueError(f"piece index must be >= 1, got {k}")
    return q.s ** (2 * (k - 1)) / 2


def staircase_layer_area(q: StaircaseParams, k: int) -> Rational:
    """Layer k of the staircase triangle: the colored piece is 1/(1+s) of it."""
    return (ONE + q.s) * staircase_piece_area(q, k)


def staircase_total_area(q: StaircaseParams) -> Rational:
    """Area of the full staircase triangle, 1/(2(1-s)). Not unit-normalized."""
    return ONE / (2 * (ONE - q.s))

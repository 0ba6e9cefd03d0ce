"""Exact download-cost bounds for cache-aided PIR with unknown uncoded prefetching.

Everything here is computed with arbitrary-precision rationals
(`fractions.Fraction`); floats never enter the arithmetic.  The module covers

* the achievable corner points (caching ratio, message length, download
  total, normalized cost) and the piece-wise linear outer bound obtained by
  memory-sharing between them,
* the piece-wise linear converse (inner) bound and its slope-change corners,
* the memory-sharing baseline where databases know the cache content,
* the exact three-message tradeoff used as an independent oracle,
* the matching-region endpoints where inner and outer bounds coincide,
* the cross-K collinearity identity behind the monotonicity of the outer
  bound in the number of messages, and
* the large-K asymptote of the outer bound with the worst-case gap search.

All operations are pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

__all__ = [
    "Rational",
    "Params",
    "CornerPoint",
    "CurvePoint",
    "binom",
    "corner_ratio",
    "corner_message_length",
    "corner_download_total",
    "corner_cost",
    "corner_point",
    "corner_points",
    "outer_bound",
    "inner_corner",
    "inner_bound",
    "known_prefetch_cost",
    "gap",
    "curve_point",
    "exact_tradeoff_k3",
    "matching_region",
    "collinearity_check",
    "asymptotic_outer",
    "asymptotic_gain",
    "worst_case_gap",
]


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 for k < 0 or k > n.

    The out-of-range convention matters: the s = 0 corner evaluates C(K-2, -1)
    and must come out 0 so that the empty-cache ratio is exactly 0.
    """
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class Params:
    """Problem size: k independent equal-length messages replicated at n databases."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"need at least 2 messages, got k={self.k}")
        if self.n < 2:
            raise ValueError(f"need at least 2 databases, got n={self.n}")


@dataclass(frozen=True)
class CornerPoint:
    """One achievable corner: mix size s, its caching ratio, and its exact cost."""

    s: int
    ratio: Fraction
    msg_len: int
    total_download: int
    cost: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.ratio <= 1:
            raise ValueError(f"corner ratio {self.ratio} outside [0, 1]")
        if self.cost * self.msg_len != self.total_download:
            raise ValueError("corner cost is not total_download / msg_len")


@dataclass(frozen=True)
class CurvePoint:
    """Outer/inner/baseline evaluation at one caching ratio."""

    r: Fraction
    outer: Fraction
    inner: Fraction
    baseline: Fraction
    gap: Fraction

    def __post_init__(self) -> None:
        if self.inner > self.outer or self.outer > self.baseline:
            raise ValueError(f"bound ordering violated at r={self.r}")
        if self.gap != self.outer - self.inner:
            raise ValueError("gap is not outer - inner")


def _as_ratio(r) -> Fraction:
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError(f"caching ratio {r} outside [0, 1]")
    return r


def _check_s(p: Params, s: int) -> None:
    if not 0 <= s <= p.k - 1:
        raise ValueError(f"corner index s={s} outside [0, {p.k - 1}]")


def _check_theta(k: int, theta: int) -> None:
    if not 0 <= theta < k:
        raise ValueError(f"theta={theta} outside [0, {k - 1}]")


def corner_message_length(p: Params, s: int) -> int:
    """Message length L(s) that makes the corner-s scheme exact."""
    _check_s(p, s)
    spread = sum(
        binom(p.k - 1, s + i) * (p.n - 1) ** i * p.n for i in range(p.k - s)
    )
    return binom(p.k - 2, s - 1) + spread


def corner_download_total(p: Params, s: int) -> int:
    """Total downloaded bits D(r_s) of the corner-s scheme, over all databases."""
    _check_s(p, s)
    return sum(
        binom(p.k, s + 1 + i) * (p.n - 1) ** i * p.n for i in range(p.k - s)
    )


def corner_ratio(p: Params, s: int) -> Fraction:
    """Caching ratio r_s at which mixtures of s cached bits are exact; r_0 = 0."""
    _check_s(p, s)
    return Fraction(binom(p.k - 2, s - 1), corner_message_length(p, s))


def corner_cost(p: Params, s: int) -> Fraction:
    """Normalized download cost D(r_s) / L(s) of the corner-s scheme."""
    _check_s(p, s)
    return Fraction(corner_download_total(p, s), corner_message_length(p, s))


def corner_point(p: Params, s: int) -> CornerPoint:
    return CornerPoint(
        s=s,
        ratio=corner_ratio(p, s),
        msg_len=corner_message_length(p, s),
        total_download=corner_download_total(p, s),
        cost=corner_cost(p, s),
    )


def corner_points(p: Params) -> list[CornerPoint]:
    """All corners s = 0..k-1 in increasing ratio order (excludes the r=1 endpoint)."""
    return [corner_point(p, s) for s in range(p.k)]


@lru_cache(maxsize=None)
def _outer_nodes(p: Params) -> tuple[tuple[Fraction, Fraction], ...]:
    # Corner sequence extended with the synthetic full-cache endpoint (1, 0)
    # so interpolation is uniform over [0, 1].
    nodes = [(corner_ratio(p, s), corner_cost(p, s)) for s in range(p.k)]
    nodes.append((Fraction(1), Fraction(0)))
    return tuple(nodes)


def outer_bound(p: Params, r) -> Fraction:
    """Achievable cost at ratio r: linear interpolation between enclosing corners."""
    r = _as_ratio(r)
    nodes = _outer_nodes(p)
    for (r_lo, c_lo), (r_hi, c_hi) in zip(nodes, nodes[1:]):
        if r_lo <= r <= r_hi:
            return c_lo + (c_hi - c_lo) * (r - r_lo) / (r_hi - r_lo)
    raise AssertionError("unreachable: corner nodes cover [0, 1]")


def inner_corner(p: Params, i: int) -> Fraction:
    """Ratio where the converse bound changes slope: 1 / (1 + n + ... + n^(k-i))."""
    if not 1 <= i <= p.k - 1:
        raise ValueError(f"inner corner index i={i} outside [1, {p.k - 1}]")
    return Fraction(1, sum(p.n**j for j in range(p.k - i + 1)))


@lru_cache(maxsize=None)
def _inner_segments(p: Params) -> tuple[tuple[Fraction, Fraction], ...]:
    # Segment with K+1-i = t leading messages contributes
    #   (1-r) * sum_{j<=t} n^-j  -  r * sum_{j<t} (t-j) n^-j  =  a - r * (a + b),
    # accumulated incrementally: a_t = a_{t-1} + n^-t, b_t = b_{t-1} + a_{t-1}.
    segs = []
    a = Fraction(1)
    b = Fraction(0)
    for t in range(p.k):
        segs.append((a, a + b))
        b += a
        a += Fraction(1, p.n ** (t + 1))
    return tuple(segs)


def inner_bound(p: Params, r) -> Fraction:
    """Converse lower bound on the cost at ratio r, floored at 0."""
    r = _as_ratio(r)
    best = max(a - r * c for a, c in _inner_segments(p))
    return max(best, Fraction(0))


def known_prefetch_cost(p: Params, r) -> Fraction:
    """Memory-sharing cost when all databases know the cache content."""
    r = _as_ratio(r)
    return (1 - r) * Fraction(sum(p.n**j for j in range(p.k)), p.n ** (p.k - 1))


def gap(p: Params, r) -> Fraction:
    """outer_bound - inner_bound at ratio r; zero exactly where the bounds match."""
    r = _as_ratio(r)
    return outer_bound(p, r) - inner_bound(p, r)


def curve_point(p: Params, r) -> CurvePoint:
    r = _as_ratio(r)
    outer = outer_bound(p, r)
    inner = inner_bound(p, r)
    return CurvePoint(
        r=r,
        outer=outer,
        inner=inner,
        baseline=known_prefetch_cost(p, r),
        gap=outer - inner,
    )


def exact_tradeoff_k3(n: int, r) -> Fraction:
    """Closed-form optimal cost for three messages; oracle for the k=3 bounds.

    Three segments: below 1/(1+n+n^2) the no-cache curve minus the cached
    slope, between there and 1/(1+n) the two-database-sum segment, and 1-r
    beyond.
    """
    if n < 2:
        raise ValueError(f"need at least 2 databases, got n={n}")
    r = _as_ratio(r)
    if r <= Fraction(1, 1 + n + n * n):
        return (1 - r) * (1 + Fraction(1, n) + Fraction(1, n * n)) - r * (
            2 + Fraction(1, n)
        )
    if r <= Fraction(1, 1 + n):
        return (1 - r) * (1 + Fraction(1, n)) - r
    return 1 - r


def matching_region(p: Params) -> tuple[Fraction, Fraction]:
    """Endpoints (r_1, r_{k-2}): bounds match for r <= r_1 and for r >= r_{k-2}."""
    if p.k < 3:
        raise ValueError(
            "matching_region needs k >= 3; for k=2 the whole curve is determined "
            "by its corners"
        )
    low = Fraction(1, sum(p.n**j for j in range(p.k)))
    high = Fraction(p.k - 2, (p.n + 1) * p.k + p.n * p.n - 2 * p.n - 2)
    return low, high


def collinearity_check(p: Params, s: int) -> bool:
    """Check that the corner-s point at k+1 messages lies on the k-message chord.

    Computes the mixing weight from the ratios and verifies, in exact
    arithmetic, that it lies in [0, 1] and reproduces the corner cost at k+1
    messages as the same convex combination of the two k-message corner costs.
    """
    if not 1 <= s <= p.k - 1:
        raise ValueError(f"corner index s={s} outside [1, {p.k - 1}]")
    up = Params(p.k + 1, p.n)
    r_lo = corner_ratio(p, s - 1)
    r_hi = corner_ratio(p, s)
    r_new = corner_ratio(up, s)
    alpha = (r_hi - r_new) / (r_hi - r_lo)
    if not 0 <= alpha <= 1:
        return False
    blended = alpha * corner_cost(p, s - 1) + (1 - alpha) * corner_cost(p, s)
    return corner_cost(up, s) == blended


def asymptotic_outer(n: int, r) -> Fraction:
    """Large-K limit of the outer bound: n(1-r)^2 / ((n-1) + r)."""
    if n < 2:
        raise ValueError(f"need at least 2 databases, got n={n}")
    r = _as_ratio(r)
    return n * (1 - r) ** 2 / (n - 1 + r)


def asymptotic_gain(n: int, r) -> Fraction:
    """Large-K multiplicative gain of unawareness over memory-sharing; always <= 1."""
    if n < 2:
        raise ValueError(f"need at least 2 databases, got n={n}")
    r = _as_ratio(r)
    return (1 - r) / (1 + Fraction(r, n - 1))


def worst_case_gap(n: int, k_proxy: int = 100) -> tuple[Fraction, Fraction]:
    """Maximize asymptotic_outer - inner_bound over the inner corners.

    The gap between the smooth asymptote and the piece-wise linear converse is
    piece-wise convex, so its maximum sits on an inner corner; scanning the
    corners is exact.  A finite k_proxy stands in for the infinite-message
    converse because corners below 1/(1 + ... + n^(k_proxy-1)) are already
    indistinguishable from 0 at the gap's resolution.

    Returns (maximizing ratio, maximal gap).
    """
    if n < 2:
        raise ValueError(f"need at least 2 databases, got n={n}")
    if k_proxy < 10:
        raise ValueError(f"k_proxy must be at least 10, got {k_proxy}")
    p = Params(k_proxy, n)
    best_r = best_d = None
    for i in range(1, k_proxy):
        r = inner_corner(p, i)
        d = asymptotic_outer(n, r) - inner_bound(p, r)
        if best_d is None or d > best_d:
            best_r, best_d = r, d
    return best_r, best_d

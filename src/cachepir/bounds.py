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

All operations are pure functions of their arguments.  `corner_point` caches
each corner once; a point query of the outer bound bisects for the two corners
enclosing r (`_enclosing_corner`, shared with `scheme.split_for_ratio`); one
of the converse bisects the inner corners 1/S_t, S_t = 1 + n + ... + n^t
(`_powers_sum`), for the one segment it evaluates.

Each int argument's rule is written once and called from every entry point,
refusing with a ValueError that names the argument: `_check_int` (an int, not
a bool), `_check_range` (an int in a range, built on it), `Params` (k >= 2),
`_check_n` (n >= 2, also for the functions of n alone), `_check_s`
(0 <= s <= k - 1, or 1 <= s <= k - 1 for `collinearity_check` and the inner
corner index i) and `_check_theta` (0 <= theta < k).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

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
    _check_range("n", n, 0)
    _check_int("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class Params:
    """Problem size: k independent equal-length messages replicated at n databases."""

    k: int
    n: int

    def __post_init__(self) -> None:
        _check_range("k", self.k, 2)
        _check_n(self.n)


@dataclass(frozen=True)
class CornerPoint:
    """One achievable corner: mix size s, its caching ratio, and its exact cost.

    A message of `msg_len` bits caches `cached` of them.  The full cache, past
    the last corner, has s = None: one cached bit of a 1-bit message.
    """

    s: int | None
    ratio: Fraction
    msg_len: int
    cached: int
    total_download: int
    cost: Fraction


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


def _check_int(name: str, value) -> None:
    """Refuse, with ValueError naming `name`, a value that is not an int (nor a bool)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")


def _check_range(name: str, value, low: int, high: int | None = None) -> None:
    """Refuse, with ValueError naming `name`, a value that is not an int in
    [low, high]; with no high, an int below low."""
    _check_int(name, value)
    if high is None:
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    elif not low <= value <= high:
        raise ValueError(f"{name}={value} outside [{low}, {high}]")


def _check_n(n) -> None:
    """At least 2 databases: the rule of `Params` and of every function of n alone."""
    _check_range("n", n, 2)


def _as_ratio(r) -> Fraction:
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError(f"caching ratio {r} outside [0, 1]")
    return r


def _check_s(p: Params, s: int, low: int = 0, name: str = "corner index s") -> None:
    """A corner index in [low, k - 1]; low = 1 where a corner below is read."""
    _check_range(name, s, low, p.k - 1)


def _check_theta(k: int, theta: int) -> None:
    _check_range("theta", theta, 0, k - 1)


@lru_cache(maxsize=None, typed=True)
def corner_point(p: Params, s: int) -> CornerPoint:
    """Corner s, computed once per (p, s): the module's one cache of corner values.

    The cache is typed, so s = True or 1.0 is checked, and refused, even
    after corner 1 is cached.

    L(s) = C(k-2, s-1) + n·Σ_i C(k-1, s+i)·(n-1)^i and D(r_s) = n·Σ_i
    C(k, s+1+i)·(n-1)^i over i < k-s.  Each sum runs on products: the next
    binomial is the last times one exact factor, so a corner at k = 3000
    costs milliseconds where one `math.comb` per term cost tenths of a second.
    """
    _check_s(p, s)
    cached = binom(p.k - 2, s - 1)
    low, high, weight = binom(p.k - 1, s), binom(p.k, s + 1), 1  # terms at i = 0
    uncached = downloads = 0
    for i in range(p.k - s):
        uncached += low * weight
        downloads += high * weight
        low = low * (p.k - 1 - s - i) // (s + i + 1)  # C(k-1, s+i+1)
        high = high * (p.k - 1 - s - i) // (s + i + 2)  # C(k, s+i+2)
        weight *= p.n - 1
    length = cached + p.n * uncached
    total = p.n * downloads
    return CornerPoint(
        s=s,
        ratio=Fraction(cached, length),
        msg_len=length,
        cached=cached,
        total_download=total,
        cost=Fraction(total, length),
    )


def corner_message_length(p: Params, s: int) -> int:
    """Message length L(s) that makes the corner-s scheme exact."""
    return corner_point(p, s).msg_len


def corner_download_total(p: Params, s: int) -> int:
    """Total downloaded bits D(r_s) of the corner-s scheme, over all databases."""
    return corner_point(p, s).total_download


def corner_ratio(p: Params, s: int) -> Fraction:
    """Caching ratio r_s at which mixtures of s cached bits are exact; r_0 = 0."""
    return corner_point(p, s).ratio


def corner_cost(p: Params, s: int) -> Fraction:
    """Normalized download cost D(r_s) / L(s) of the corner-s scheme."""
    return corner_point(p, s).cost


def corner_points(p: Params) -> list[CornerPoint]:
    """All corners s = 0..k-1 in increasing ratio order (excludes the r=1 endpoint)."""
    return [corner_point(p, s) for s in range(p.k)]


def _enclosing_corner(
    p: Params, r: Fraction
) -> tuple[CornerPoint, CornerPoint, Fraction]:
    """Corners low and high enclosing r, and alpha: r = alpha·r_low + (1 - alpha)·r_high.

    Past the last corner, high is the full cache: the one place it is built.
    The corner ratios strictly increase, so a bisection reads about log2(k) of
    them; from r_{k-1} = 1/(1 + n) on, low is corner k - 1 and none is read.
    """
    if r >= Fraction(1, 1 + p.n):
        s = p.k - 1
    else:
        s = bisect_right(range(p.k - 1), r, key=partial(corner_ratio, p)) - 1
    low = corner_point(p, s)
    if s + 1 < p.k:
        high = corner_point(p, s + 1)
    else:
        high = CornerPoint(
            s=None, ratio=Fraction(1), msg_len=1, cached=1, total_download=0,
            cost=Fraction(0),
        )
    return low, high, (high.ratio - r) / (high.ratio - low.ratio)


def outer_bound(p: Params, r) -> Fraction:
    """Achievable cost at r: memory-sharing between the enclosing corners; 0 at r = 1."""
    low, high, alpha = _enclosing_corner(p, _as_ratio(r))
    return alpha * low.cost + (1 - alpha) * high.cost


def _powers_sum(n: int, t: int) -> int:
    """S_t = 1 + n + ... + n^t, in closed form."""
    return (n ** (t + 1) - 1) // (n - 1)


def inner_corner(p: Params, i: int) -> Fraction:
    """Ratio where the converse bound changes slope: 1 / (1 + n + ... + n^(k-i))."""
    _check_s(p, i, 1, "inner corner index i")
    return Fraction(1, _powers_sum(p.n, p.k - i))


def inner_bound(p: Params, r) -> Fraction:
    """Converse lower bound on the cost at ratio r: its one active segment.

    Segment t (t = 0..k-1) is (S_t - r·W_t) / n^t with S_t = 1 + n + ... + n^t
    and W_t = Σ_{m<=t} (m+1)·n^m = (t+1)·S_t - (S_t - 1 - t)/(n-1).  The
    maximizing segment changes from t to t - 1 at the inner corner 1/S_t, so
    the active t counts the u in 1..k-1 with r·S_u <= 1, found by bisection.
    """
    r = _as_ratio(r)
    t = bisect_right(range(1, p.k), 1, key=lambda u: r * _powers_sum(p.n, u))
    total = _powers_sum(p.n, t)
    weighted = (t + 1) * total - (total - 1 - t) // (p.n - 1)
    return (total - r * weighted) / p.n**t


def known_prefetch_cost(p: Params, r) -> Fraction:
    """Memory-sharing cost when all databases know the cache content."""
    r = _as_ratio(r)
    return (1 - r) * Fraction(_powers_sum(p.n, p.k - 1), p.n ** (p.k - 1))


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
    _check_n(n)
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
    low = Fraction(1, _powers_sum(p.n, p.k - 1))
    high = Fraction(p.k - 2, (p.n + 1) * p.k + p.n * p.n - 2 * p.n - 2)
    return low, high


def collinearity_check(p: Params, s: int) -> bool:
    """Check that the corner-s point at k+1 messages lies on the k-message chord.

    Verifies, in exact arithmetic, that its ratio lies between the k-message
    corners s-1 and s, and that its cost is the k-message outer bound there:
    memory-sharing between exactly those two corners.
    """
    _check_s(p, s, 1)
    up = Params(p.k + 1, p.n)
    r_new = corner_ratio(up, s)
    if not corner_ratio(p, s - 1) <= r_new <= corner_ratio(p, s):
        return False
    return corner_cost(up, s) == outer_bound(p, r_new)


def asymptotic_outer(n: int, r) -> Fraction:
    """Large-K limit of the outer bound: n(1-r)^2 / ((n-1) + r)."""
    _check_n(n)
    r = _as_ratio(r)
    return n * (1 - r) ** 2 / (n - 1 + r)


def asymptotic_gain(n: int, r) -> Fraction:
    """Large-K multiplicative gain of unawareness over memory-sharing; always <= 1."""
    _check_n(n)
    r = _as_ratio(r)
    return (1 - r) / (1 + Fraction(r, n - 1))


def worst_case_gap(n: int) -> tuple[Fraction, Fraction]:
    """Maximize asymptotic_outer - inner_bound over the inner corners.

    The gap between the smooth asymptote and the piece-wise linear converse is
    piece-wise convex, so its maximum sits on an inner corner; scanning the
    corners is exact.  The converse of k = 10 messages stands in for the
    infinite-message one: every k from 10 to 200 gives the same maximum at
    n = 2..40, 64, 100, 1000 and 10⁶; it sits at 1/15 for n = 2 and at
    1/(1 + n + n²) for n = 3..40.

    Returns (maximizing ratio, maximal gap).
    """
    p = Params(10, n)

    def excess(r):
        return asymptotic_outer(n, r) - inner_bound(p, r)

    best = max(map(partial(inner_corner, p), range(1, p.k)), key=excess)
    return best, excess(best)

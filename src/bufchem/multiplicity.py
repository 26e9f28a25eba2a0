"""How many positive rest points, and the volume splits that keep it at one.

For inhibited kinetics the growth deficit can develop extra zeros as the
volume split r grows.  The analysis runs through the equilibrium-split
map gamma: a level s is a rest level at split r exactly when
gamma(s) = r, so multiple rest points appear precisely when a horizontal
line cuts the graph of gamma more than once.  Tangencies of that line
with the graph mark the transitions; the supremum split r_bar below
which uniqueness is guaranteed comes from the extreme values of gamma
over case-dependent intervals.

The case split keys on where the pivot level sits relative to the upper
break-even concentration of the full dilution rate D:

  upper_break_even_absent      no upper break-even below the feed at D
  pivot_below_upper_break_even pivot left of the upper break-even
  pivot_at_upper_break_even    coincidence (within 1e-9 S_in)
  pivot_above_upper_break_even pivot right of the upper break-even

An independent cross-check recovers the same boundary by minimizing the
squared mismatch between growth curve and required-growth curve in value
and slope simultaneously; zero mismatch is a tangency.
"""
from __future__ import annotations

import math
from typing import Optional

from ._numerics import (Record, bisect_root, critical_levels,
                        critical_levels_above, golden_min)
from .buffered import (BufferedConfig, ConsistencyError, SingularSplitPoint,
                       _check_feed, _pivot_split_map, buffer_substrate,
                       pivot_level, split_map)
from .kinetics import GrowthModel, closed_form, declared_peak

__all__ = [
    "CASE_NO_UPPER",
    "CASE_PIVOT_BELOW",
    "CASE_PIVOT_AT",
    "CASE_PIVOT_ABOVE",
    "NoTangency",
    "MultiplicityReport",
    "DomainCurve",
    "classify_case",
    "tangency_abscissas",
    "split_threshold",
    "split_threshold_crosscheck",
    "stable_domain_curve",
]

CASE_NO_UPPER = "upper_break_even_absent"
CASE_PIVOT_BELOW = "pivot_below_upper_break_even"
CASE_PIVOT_AT = "pivot_at_upper_break_even"
CASE_PIVOT_ABOVE = "pivot_above_upper_break_even"

_CASE_TOL = 1e-9
_TANGENCY_MATCH = 1e-9
_FIT_RESIDUAL = 1e-12
_FIT_STARTS = 64


class NoTangency(RuntimeError):
    """The tangency-fit cross-check found no value-and-slope match.

    Expected for uninhibited kinetics, where the required-growth curve
    can never be tangent to the growth curve from above.
    """


class MultiplicityReport(Record):
    """Uniqueness boundary in the volume split r at fixed alpha.

    r_plus_min is the smallest split at which the line r cuts the
    equilibrium-split map over the interval beyond the upper break-even
    (None when that break-even is absent).  r_minus_interval, when
    present, is a band of splits BELOW the boundary where extra rest
    points already occur; the uniqueness set is (0, cap) minus that
    closed band, with cap = r_plus_min (or 1 without an upper
    break-even), and r_bar is its supremum.
    """
    r_plus_min: Optional[float]
    r_minus_interval: Optional[tuple[float, float]]
    r_bar: float
    case: str

    def __post_init__(self) -> None:
        if not (0.0 < self.r_bar <= 1.0):
            raise ValueError(f"r_bar must lie in (0, 1], got {self.r_bar}")
        if self.case != CASE_NO_UPPER and self.r_plus_min is None:
            raise ValueError("r_plus_min is required when the upper "
                             "break-even sits below the feed")
        if self.r_minus_interval is not None:
            lo, hi = self.r_minus_interval
            if not lo <= hi:
                raise ValueError("r_minus_interval must be ordered")

    def guarantees_unique(self, r: float) -> bool:
        """Whether split r lies in the certified-uniqueness set."""
        cap = 1.0 if self.r_plus_min is None else self.r_plus_min
        if not (0.0 < r < cap):
            return False
        if self.r_minus_interval is not None:
            lo, hi = self.r_minus_interval
            if lo <= r <= hi:
                return False
        return True


class DomainCurve(Record):
    """The uniqueness boundary r_bar sampled over a grid of alphas.

    crossing_alpha, when present, is the alpha at which the pivot level
    meets the upper break-even concentration; the boundary is
    discontinuous there and jump records its one-sided limits
    (left, right) sampled at +-1e-4.
    """
    points: tuple[tuple[float, float], ...]
    crossing_alpha: Optional[float]
    jump: Optional[tuple[float, float]]

    def __post_init__(self) -> None:
        _check_alpha_grid([alpha for alpha, _ in self.points])
        for _, r_bar in self.points:
            if not (0.0 < r_bar <= 1.0):
                raise ValueError(f"r_bar out of (0, 1]: {r_bar}")


def _check_alpha_grid(alphas) -> None:
    """ValueError unless the alphas are finite and strictly increasing
    from above 0; the test is written so that NaN fails it."""
    prev = 0.0
    for a in alphas:
        if not prev < a < math.inf:
            raise ValueError("alpha grid must be finite and strictly "
                             f"increasing from above 0, got {a} after {prev}")
        prev = a


def _operating_point(model: GrowthModel, S_in: float, D: float,
                     alpha: float):
    """(pivot level, case, plus interval, extrema interval) from one
    break-even solve at alpha * D and one at D; buffer feasibility errors
    first.

    The plus interval is where r_plus_min is read and where a tangency
    can certify the boundary: the sign condition (s - up)(up - pivot) >= 0
    against the upper break-even up, within (lower break-even, feed).  It
    is None without an upper break-even below the feed.  The extrema
    interval holds the band of extra rest points below the boundary; None
    or reversed when there is none.
    """
    pv = pivot_level(model, S_in, D, alpha)
    window = model.break_even(D)
    if window is None or window.lower >= S_in:
        return pv, CASE_NO_UPPER, None, (max(pv, 0.0), S_in)
    lam_minus, lam_plus = window.lower, window.upper
    if lam_plus >= S_in:
        return pv, CASE_NO_UPPER, None, (lam_minus, pv)
    gap = pv - lam_plus
    if abs(gap) <= _CASE_TOL * S_in:
        return pv, CASE_PIVOT_AT, (lam_minus, S_in), None
    if gap < 0.0:
        return pv, CASE_PIVOT_BELOW, (lam_plus, S_in), (lam_minus, pv)
    return pv, CASE_PIVOT_ABOVE, (lam_minus, lam_plus), (pv, S_in)


def classify_case(model: GrowthModel, S_in: float, D: float,
                  alpha: float) -> str:
    """Position of the pivot level against the upper break-even at D."""
    return _operating_point(model, S_in, D, alpha)[1]


def tangency_abscissas(config: BufferedConfig) -> list[float]:
    """Levels where the split map is critical AND takes the value r.

    These are exactly the levels at which the rest-point count changes
    as r moves: the growth curve is tangent there to the required-growth
    curve.  Empty both for monotone kinetics and for splits strictly
    inside the uniqueness set.
    """
    gamma = split_map(config.model, config.S_in, config.D, config.alpha)
    # the critical points are the zeros of the derivative's numerator,
    # which is continuous across the map's own poles
    out: list[float] = []
    for s in critical_levels(gamma.prime_numerator, 0.0, config.S_in):
        try:
            value = gamma(s)
        except SingularSplitPoint:
            continue
        if abs(value - config.r) <= _TANGENCY_MATCH:
            out.append(s)
    return out


def split_threshold(model: GrowthModel, S_in: float, D: float,
                    alpha: float) -> MultiplicityReport:
    """Uniqueness boundary r_bar and the sets behind it.

    The split map equals 1 at the break-even levels of D and at the
    feed, and 0 at the pivot, so its extreme values over the case's
    intervals are interior: they are its values at the critical levels
    inside them, from the 2048-point scan of the derivative's numerator
    sampled on those intervals alone, ends included, each refined by
    bisection.  r_plus_min is the smallest of those values inside the
    plus interval and the value 1 at its ends, and the band spans the
    values inside the extrema interval.

    For a law with a declared peak the scan reads only what lies above
    it, from the last grid point at or below it (critical_levels_above),
    with the same levels.  The numerator times -D is

        (S_in - pv)(mu(s) - D) + (pv - s)(S_in - s) mu'(s),

    S_in - pv = alpha (S_in - s2) > 0, and mu' >= 0 below the peak.  On
    (lambda-, min(pv, peak)) the first term is > 0 and the second >= 0;
    without a growth window below the feed, and for s > pv, both are
    <= 0.  Below the peak every interval _operating_point gives lies in
    one of these, so no critical level lies there; only the pivot_at
    case's plus interval may reach past a pivot a hair below the peak,
    and there the scan starts below the pivot instead.
    """
    pv, case, plus, extrema = _operating_point(model, S_in, D, alpha)
    gamma = _pivot_split_map(model, S_in, D, pv)
    pieces = [iv for iv in (plus, extrema) if iv is not None and iv[0] < iv[1]]
    rising = declared_peak(model)
    if rising is not None and case == CASE_PIVOT_AT:
        rising = min(rising, pv)
    levels = critical_levels_above(gamma.prime_numerator, 0.0, S_in, rising,
                                   pieces)

    def values_inside(iv):
        return [gamma(s) for s in levels if iv and iv[0] < s < iv[1]]

    r_plus_min = None if plus is None else min([1.0, *values_inside(plus)])
    cap = 1.0 if r_plus_min is None else r_plus_min

    band_values = values_inside(extrema)
    band = (min(band_values), max(band_values)) if band_values else None
    if (closed_form(model) == "haldane" and band is not None
            and r_plus_min is not None and not band[1] < r_plus_min):
        raise ConsistencyError(
            f"extra-root band {band} is expected to sit strictly below the "
            f"boundary {r_plus_min} for this kinetics")

    r_bar = band[0] if band and band[0] < cap <= band[1] else cap
    return MultiplicityReport(r_plus_min, band, min(r_bar, 1.0), case)


def split_threshold_crosscheck(model: GrowthModel, S_in: float, D: float,
                               alpha: float) -> float:
    """Boundary split via tangency fitting; independent of split_threshold.

    Minimizes the squared mismatch between growth and required growth in
    both value and slope over (split, level).  The split enters the
    mismatch quadratically, so for each level the best split is closed
    form and the search reduces to one dimension: 64 coarse starts, each
    golden-refined to 1e-10, over the levels where split_threshold reads
    r_plus_min.  A residual above 1e-12, or no upper break-even below the
    feed, means no tangency exists and the fit diagnoses that instead of
    returning a split.
    """
    plus = _operating_point(model, S_in, D, alpha)[2]
    if plus is None:
        raise NoTangency("no upper break-even below the feed at dilution D: "
                         "no tangency from above to fit")
    lo, hi = plus
    s2 = buffer_substrate(model, S_in, D, alpha)
    gap = alpha * (S_in - s2)  # = S_in - pivot

    def reduced(s: float) -> tuple[float, float]:
        """(residual, u) at level s, u = (1-r)/r optimal; slopes per S_in."""
        a = model._rate_raw(s) / D - 1.0
        b = model._rate_prime_raw(s) / D * S_in
        c = 1.0 - gap / (S_in - s)
        e = gap * S_in / (S_in - s) ** 2
        u = (c * a - e * b) / (c * c + e * e)
        if u <= 0.0:
            return (a * a + b * b, 0.0)
        return ((a - u * c) ** 2 + (b + u * e) ** 2, u)

    def residual(s: float) -> float:
        return reduced(s)[0]

    # both end starts, and every start no larger than its two neighbours;
    # xs pads the midpoint starts with lo and hi, so start i is xs[i + 1]
    step = (hi - lo) / _FIT_STARTS
    xs = [lo, *(lo + step * (i + 0.5) for i in range(_FIT_STARTS)), hi]
    vs = [residual(x) for x in xs[1:-1]]
    last = _FIT_STARTS - 1
    candidates: list[tuple[float, float]] = []
    for i in range(_FIT_STARTS):
        if i in (0, last) or vs[i] <= vs[i - 1] and vs[i] <= vs[i + 1]:
            s_best, f_best = golden_min(residual, xs[i], xs[i + 2])
            candidates.append((f_best, s_best))
    best_r: Optional[float] = None
    for value, s_best in candidates:
        if value <= _FIT_RESIDUAL:
            u = reduced(s_best)[1]
            r = 1.0 / (1.0 + u)
            if best_r is None or r < best_r:
                best_r = r
    if best_r is None:
        raise NoTangency(
            f"best value-and-slope mismatch {min(v for v, _ in candidates)} "
            f"exceeds {_FIT_RESIDUAL}: no tangency in ({lo}, {hi})")
    return best_r


def stable_domain_curve(model: GrowthModel, S_in: float, D: float,
                        alpha_grid: list[float]) -> DomainCurve:
    """Sample the uniqueness boundary over increasing alphas.

    When the upper break-even of D sits below the feed, the pivot level
    crosses it at some alpha inside the grid's span; the boundary jumps
    there and the one-sided limits are recorded at +-1e-4.
    """
    if not alpha_grid:
        raise ValueError("alpha_grid must not be empty")
    _check_alpha_grid(alpha_grid)
    _check_feed(S_in, D, alpha_grid[0])  # before the bound divides by D
    bound = model.rate(S_in) / D
    if alpha_grid[-1] > bound + 1e-12:
        raise ValueError(
            f"alpha = {alpha_grid[-1]} exceeds the feasibility bound "
            f"mu(S_in)/D = {bound}")

    points = tuple((a, split_threshold(model, S_in, D, a).r_bar)
                   for a in alpha_grid)

    crossing: Optional[float] = None
    jump: Optional[tuple[float, float]] = None
    window = model.break_even(D)
    if window is not None and window.upper < S_in:
        lam_plus = window.upper

        def g(a: float) -> float:
            return pivot_level(model, S_in, D, a) - lam_plus

        g_lo, g_hi = g(alpha_grid[0]), g(alpha_grid[-1])
        if g_lo == 0.0 or g_hi == 0.0 or (g_lo > 0.0) != (g_hi > 0.0):
            crossing = bisect_root(g, alpha_grid[0], alpha_grid[-1], 0.0)
            left, right = crossing - 1e-4, crossing + 1e-4
            if left > 0.0 and right <= bound:
                jump = (split_threshold(model, S_in, D, left).r_bar,
                        split_threshold(model, S_in, D, right).r_bar)
    return DomainCurve(points, crossing, jump)

"""Volume sizing: enlarge the single tank, or add a small buffer.

Two ways to rescue a bistable chemostat whose washout state is
attracting.  Scenario 1 enlarges the whole vessel until dilution drops
below the growth rate at the feed level; the required relative increase
is D / mu(S_in) - 1.  Scenario 2 keeps the vessel and adds a buffer
sized from two auxiliary curves:

    washout_surplus(s)  = (S_in - s) (D - mu(s))   largest shortfall the
                                                   buffer must cover
    uptake_capacity(s)  = mu(s) (S_in - s)         best conversion a
                                                   buffer vessel can run

The minimal buffer-to-total volume ratio is the max of the first over
the inhibited range divided by the max of the second over the range a
buffer can reach, and it always undercuts the Scenario 1 requirement.

design_sweep is buffer_design at many feeds for one law and dilution
rate, bit for bit.  The surplus's slope at feed F factors as

    -(D - mu(s)) - (F - s) mu'(s)  =  mu'(s) (T(s) - F),
    T(s) = s + (mu(s) - D) / mu'(s).

For Haldane, the one law with closed forms and an upper break-even, T
is strictly increasing on (upper, inf): with h = K/s + 1 + s/K_I and
c = D/mu_bar, T' > 0 reduces to c s^3 - 3 c K K_I s + (1 - c) K K_I^2
> 0, a cubic that increases past the peak sqrt(K K_I) and is positive
there exactly when the window at D exists.  So T crosses each feed
once, with T(upper) = upper below it, and mu' < 0 makes the slope
positive before the crossing and negative after.  On the feed's own
2048-point scan grid over (upper, F) the slope's signs are then one
run of positives and one of negatives, so a binary search of that grid
with the true slope, started from its two end samples, ends at the one
pair of neighbours whose signs differ: the scan's one bracket, which
is bisected as critical_levels bisects it.  Every sign the route acts
on is the true slope's at the feed's own grid points.  Where rounding
may break the single sign change, the feed takes its whole scan: the
end samples do not change sign, as for a feed whose level lies within
half a grid step of an end; the search reads an exact zero; or the
slope changes by no more than its rounding noise over the bracket
found, as for a feed a hair above the upper break-even or D a hair
below the peak rate, where rounding may flip signs the search does not
read.
"""
from __future__ import annotations

from typing import Iterable, Optional

from ._numerics import (_GRID, Record, bisect_root, check_feed,
                        critical_levels, finite_positive, proxy_levels)
from .kinetics import GrowthModel, closed_form

__all__ = [
    "DesignReport",
    "min_enlargement_ratio",
    "washout_surplus",
    "uptake_capacity",
    "buffer_design",
    "design_sweep",
]

# design_sweep: the change of the surplus slope over a bracket, relative
# to D, at or below which rounding may decide its signs (g's rounding
# error is a few ulps of D)
_SLOPE_NOISE = 1e-12


def min_enlargement_ratio(model: GrowthModel, S_in: float, D: float) -> float:
    """Scenario 1: minimal relative volume increase, max(0, D/mu(S_in) - 1).

    Zero when growth at the feed level already beats dilution (nothing
    to fix).
    """
    check_feed(S_in, D)
    mu_feed = model.rate(S_in)
    if mu_feed <= 0.0:
        raise ValueError("growth rate vanishes at the feed level")
    return max(0.0, D / mu_feed - 1.0)


def washout_surplus(model: GrowthModel, S_in: float, D: float,
                    s: float) -> float:
    """(S_in - s)(D - mu(s)): dilution's edge over growth, feed-weighted.

    Negative exactly where growth beats dilution, zero at the break-even
    levels and at the feed.
    """
    check_feed(S_in, D)
    if not (0.0 <= s <= S_in):
        raise ValueError(f"level s must lie in [0, S_in], got {s}")
    return (S_in - s) * (D - model.rate(s))


def uptake_capacity(model: GrowthModel, S_in: float, s: float) -> float:
    """mu(s)(S_in - s): substrate conversion rate a vessel held at s runs."""
    check_feed(S_in)
    if not (0.0 <= s <= S_in):
        raise ValueError(f"level s must lie in [0, S_in], got {s}")
    return model.rate(s) * (S_in - s)


class DesignReport(Record):
    """Scenario comparison at one operating point.

    v2_inf is the infimal buffer volume fraction V2/V1; delta_v_inf the
    infimal Scenario 1 enlargement; d2_star the buffer dilution rate
    that runs the buffer at peak conversion; s_bar the highest level a
    viable buffer can hold.  d2_interval_for(v2) returns the admissible
    buffer dilution range for an actual buffer size v2: the rates whose
    load beats surplus_max and whose flow v2 D2 fits in the feed's D,
    or None when there are none.
    """
    delta_v_inf: float
    v2_inf: float
    d2_star: float
    s_bar: float
    surplus_max: float
    _model: GrowthModel
    _S_in: float
    _D: float

    def d2_interval_for(self, v2: float) -> Optional[tuple[float, float]]:
        """Buffer dilution rates D2 making size v2 sufficient.

        A buffer run at D2 < mu(S_in) holds the level s in (0, s_bar)
        with mu(s) = D2, s rising with D2, so the load D2 v2 (S_in - s)
        is v2 uptake_capacity(s).  D2 is admissible when the load exceeds
        surplus_max and the buffer's flow fits in the feed, the feed
        split v2 D2 <= D: the set is mu of the levels where
        surplus_max < v2 mu(s) (S_in - s), cut at D / v2, and None for
        v2 below v2_inf or a set that starts at or above D / v2.  The
        capacity is monotone between its critical levels, so the load,
        zero at s = 0, crosses surplus_max at most once per piece, and
        is bisected there.  A set with one end reaches s_bar and so ends
        at mu(S_in), or at D / v2 if that is lower.
        """
        if not finite_positive(v2):
            raise ValueError("buffer volume fraction v2 must be positive")
        model, S_in, mu = self._model, self._S_in, self._model._rate_raw
        cuts = [0.0, *_capacity_levels(model, S_in, self.s_bar), self.s_bar]

        def excess(s: float) -> float:
            return v2 * mu(s) * (S_in - s) - self.surplus_max

        above = [excess(s) > 0.0 for s in cuts]
        d2 = [mu(bisect_root(excess, cuts[i - 1], cuts[i], 0.0))
              for i in range(1, len(cuts)) if above[i] != above[i - 1]]
        d2.append(model.rate(S_in))
        flow_limit = self._D / v2
        pieces = [(lo, min(hi, flow_limit))
                  for lo, hi in zip(d2[::2], d2[1::2]) if lo < flow_limit]
        if len(pieces) > 1:
            raise RuntimeError("admissible D2 set is not an interval")
        return pieces[0] if pieces else None


def _capacity_levels(model: GrowthModel, S_in: float,
                     s_bar: float) -> list[float]:
    """The critical levels of uptake_capacity on (0, s_bar): Haldane's one
    level is its closed form s_c; every other law reads them from a
    Chebyshev proxy of the slope (proxy_levels)."""
    if closed_form(model) == "haldane":
        s_c = model._capacity_peak(S_in)
        return [s_c] if 0.0 < s_c < s_bar else []
    mu, mu_p = model._rate_raw, model._rate_prime_raw
    return proxy_levels(lambda s: mu_p(s) * (S_in - s) - mu(s), 0.0, s_bar)


def _checked(model: GrowthModel, S_in: float,
             D: float) -> tuple[float, float, float, float]:
    """(delta_v_inf, upper break-even, mu(S_in), s_bar) in the genuinely
    bistable setting: a growth window at D whose upper break-even sits
    below the feed.  Errors name the failing clause otherwise."""
    delta_v_inf = min_enlargement_ratio(model, S_in, D)  # validates S_in, D
    window = model.break_even(D)
    if window is None:
        raise ValueError("precondition failed: growth never reaches the "
                         "dilution rate D (no break-even window)")
    if not window.has_finite_upper:
        raise ValueError("precondition failed: no upper break-even at D "
                         "(kinetics not inhibited)")
    if window.upper >= S_in:
        raise ValueError("precondition failed: upper break-even at or above "
                         "the feed level (the single vessel is not bistable)")

    mu_feed = model.rate(S_in)
    feed_window = model.break_even(mu_feed)
    if feed_window is None:
        raise ValueError("precondition failed: growth rate at the feed "
                         "level is unreachable elsewhere")
    return delta_v_inf, window.upper, mu_feed, feed_window.lower


def _surplus_slope(model: GrowthModel, S_in: float, D: float):
    """The slope of washout_surplus in s, mu'(s) (T(s) - S_in)."""
    mu, mu_p = model._rate_raw, model._rate_prime_raw
    return lambda s: -(D - mu(s)) - (S_in - s) * mu_p(s)


def _report(model: GrowthModel, S_in: float, D: float,
            checked: tuple[float, float, float, float],
            levels: list[float]) -> DesignReport:
    """The design at S_in from _checked's values and the critical levels
    of the surplus on (upper, S_in)."""
    delta_v_inf, _, mu_feed, s_bar = checked
    if not levels:
        raise ValueError("surplus slope shows no sign change on the scan "
                         "grid over (upper break-even, S_in): its level lies "
                         "within half a grid step of an end, or the slope "
                         "there is rounding noise")
    # each maximum is the largest value at the critical levels of its
    # curve's closed-form slope.  The surplus vanishes at both ends of
    # (upper, S_in); the capacity at the end s_bar is mu(S_in) (S_in - s_bar).
    surplus_max = max(washout_surplus(model, S_in, D, s) for s in levels)
    mu = model._rate_raw
    # (capacity, the buffer dilution rate that holds a buffer at that level)
    candidates = [(uptake_capacity(model, S_in, s), mu(s))
                  for s in _capacity_levels(model, S_in, s_bar)]
    capacity_max, d2_star = max(candidates
                                + [(mu_feed * (S_in - s_bar), mu_feed)])
    return DesignReport(
        delta_v_inf=delta_v_inf,
        v2_inf=surplus_max / capacity_max,
        d2_star=d2_star,
        s_bar=s_bar,
        surplus_max=surplus_max,
        _model=model, _S_in=S_in, _D=D)


def buffer_design(model: GrowthModel, S_in: float, D: float) -> DesignReport:
    """Scenario 2: minimal buffer volume fraction and how to run it.

    Requires the genuinely bistable setting: a growth window at D whose
    upper break-even sits below the feed.  Errors name the failing
    clause otherwise.
    """
    checked = _checked(model, S_in, D)
    # Haldane keeps the surplus scan: design_sweep's search here makes the
    # benchmark's sweep 2.04x faster, but it then records more items per
    # run and its peak memory rises by 16%, past the 5% bound
    levels = (critical_levels if closed_form(model) else proxy_levels)(
        _surplus_slope(model, S_in, D), checked[1], S_in)
    return _report(model, S_in, D, checked, levels)


def design_sweep(model: GrowthModel, D: float,
                 feeds: Iterable[float]) -> list[DesignReport]:
    """[buffer_design(model, F, D) for F in feeds], bit for bit.

    A law with closed forms reads each feed's surplus level by binary
    search of the feed's own scan grid with the true slope, and bisects
    the bracket found, the scan's own, as the scan bisects it.  A feed
    the search cannot vouch for takes its whole scan (see the module
    docstring).  Every other law calls buffer_design once per feed.
    """
    if not closed_form(model):
        return [buffer_design(model, F, D) for F in feeds]
    reports = []
    for F in feeds:
        checked = _checked(model, F, D)
        g = _surplus_slope(model, F, D)
        levels = _searched_levels(g, checked[1], F, D)
        if levels is None:
            levels = critical_levels(g, checked[1], F)
        reports.append(_report(model, F, D, checked, levels))
    return reports


def _searched_levels(g, upper: float, S_in: float,
                     D: float) -> Optional[list[float]]:
    """critical_levels(g, upper, S_in) for the surplus slope g at feed
    S_in, by binary search of the scan's grid from its two end samples.
    None where the search cannot vouch for it: the ends do not change
    sign, the search reads an exact zero, or the slope changes by at most
    _SLOPE_NOISE D over the bracket found, where its rounding may flip
    signs the search does not read."""
    step = (S_in - upper) / _GRID
    at = lambda i: upper + step * (i + 0.5)
    lo, hi = 0, _GRID - 1
    v_lo, v_hi = g(at(lo)), g(at(hi))
    if v_lo == 0.0 or v_hi == 0.0 or (v_lo > 0.0) == (v_hi > 0.0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = g(at(mid))
        if v == 0.0:
            return None
        if (v > 0.0) == (v_lo > 0.0):
            lo, v_lo = mid, v
        else:
            hi, v_hi = mid, v
    if abs(v_lo) + abs(v_hi) <= _SLOPE_NOISE * D:
        return None
    return [bisect_root(g, at(lo), at(hi), 0.0)]

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
"""
from __future__ import annotations

from typing import Optional

from ._numerics import (Record, bisect_root, critical_levels, finite_positive,
                        proxy_levels)
from .kinetics import GrowthModel, closed_form

__all__ = [
    "DesignReport",
    "min_enlargement_ratio",
    "washout_surplus",
    "uptake_capacity",
    "buffer_design",
]

def min_enlargement_ratio(model: GrowthModel, S_in: float, D: float) -> float:
    """Scenario 1: minimal relative volume increase, max(0, D/mu(S_in) - 1).

    Zero when growth at the feed level already beats dilution (nothing
    to fix).
    """
    _check_inputs(S_in, D)
    mu_feed = model.rate(S_in)
    if mu_feed <= 0.0:
        raise ValueError("growth rate vanishes at the feed level")
    return max(0.0, D / mu_feed - 1.0)


def _check_inputs(S_in: float, D: Optional[float] = None) -> None:
    """Refuse a feed level, and a dilution rate if given, not finite > 0."""
    if not finite_positive(S_in):
        raise ValueError("feed concentration S_in must be positive")
    if D is not None and not finite_positive(D):
        raise ValueError("dilution rate D must be positive")


def washout_surplus(model: GrowthModel, S_in: float, D: float,
                    s: float) -> float:
    """(S_in - s)(D - mu(s)): dilution's edge over growth, feed-weighted.

    Negative exactly where growth beats dilution, zero at the break-even
    levels and at the feed.
    """
    _check_inputs(S_in, D)
    if not (0.0 <= s <= S_in):
        raise ValueError(f"level s must lie in [0, S_in], got {s}")
    return (S_in - s) * (D - model.rate(s))


def uptake_capacity(model: GrowthModel, S_in: float, s: float) -> float:
    """mu(s)(S_in - s): substrate conversion rate a vessel held at s runs."""
    _check_inputs(S_in)
    if not (0.0 <= s <= S_in):
        raise ValueError(f"level s must lie in [0, S_in], got {s}")
    return model.rate(s) * (S_in - s)


class DesignReport(Record):
    """Scenario comparison at one operating point.

    v2_inf is the infimal buffer volume fraction V2/V1; delta_v_inf the
    infimal Scenario 1 enlargement; d2_star the buffer dilution rate
    that runs the buffer at peak conversion; s_bar the highest level a
    viable buffer can hold.  d2_interval_for(v2) returns the admissible
    buffer dilution range for an actual buffer size v2, or None when v2
    is too small.
    """
    delta_v_inf: float
    v2_inf: float
    d2_star: float
    s_bar: float
    surplus_max: float
    _model: GrowthModel
    _S_in: float

    def d2_interval_for(self, v2: float) -> Optional[tuple[float, float]]:
        """Buffer dilution rates D2 making size v2 sufficient.

        A buffer run at D2 < mu(S_in) holds the level s in (0, s_bar)
        with mu(s) = D2, s rising with D2, so the load D2 v2 (S_in - s)
        is v2 uptake_capacity(s): the admissible set is mu of the levels
        where surplus_max < v2 mu(s) (S_in - s) < S_in, None for v2 below
        v2_inf or surplus_max at or above S_in.  The capacity is monotone
        between its critical levels, so the load, zero at s = 0, crosses
        each bound at most once per piece, and is bisected there.  A set
        with one end reaches s_bar and so ends at mu(S_in).
        """
        if not finite_positive(v2):
            raise ValueError("buffer volume fraction v2 must be positive")
        if self.surplus_max >= self._S_in:
            return None  # the bounds cross: no load lies between them
        model, S_in, mu = self._model, self._S_in, self._model._rate_raw
        cuts = [0.0, *_capacity_levels(model, S_in, self.s_bar), self.s_bar]
        ends = []
        for bound in (self.surplus_max, S_in):
            def excess(s: float, bound: float = bound) -> float:
                return v2 * mu(s) * (S_in - s) - bound
            above = [excess(s) > 0.0 for s in cuts]
            ends += [bisect_root(excess, cuts[i - 1], cuts[i], 0.0)
                     for i in range(1, len(cuts)) if above[i] != above[i - 1]]
        if len(ends) > 2:
            raise RuntimeError("admissible D2 set is not an interval")
        d2 = [mu(s) for s in sorted(ends)] + [model.rate(S_in)]
        return (d2[0], d2[1]) if ends else None


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


def buffer_design(model: GrowthModel, S_in: float, D: float) -> DesignReport:
    """Scenario 2: minimal buffer volume fraction and how to run it.

    Requires the genuinely bistable setting: a growth window at D whose
    upper break-even sits below the feed.  Errors name the failing
    clause otherwise.
    """
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
    s_bar = feed_window.lower

    # each maximum is the largest value at the critical levels of its
    # curve's closed-form slope.  The surplus vanishes at both ends of
    # (upper, S_in); the capacity at the end s_bar is mu(S_in) (S_in - s_bar).
    # Haldane keeps the surplus scan: on the proxy, the benchmark's faster
    # sweep records more items per run and its peak memory rises past 5%
    mu, mu_p = model._rate_raw, model._rate_prime_raw
    levels = (critical_levels if closed_form(model) else proxy_levels)(
        lambda s: -(D - mu(s)) - (S_in - s) * mu_p(s), window.upper, S_in)
    surplus_max = max(washout_surplus(model, S_in, D, s) for s in levels)
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
        _model=model, _S_in=S_in)

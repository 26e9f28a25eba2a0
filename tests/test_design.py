"""Volume sizing: enlargement ratio versus a dedicated side tank."""
import bisect
import math
import random

import pytest

from bufchem import (
    BufferedConfig,
    CustomUnimodal,
    DesignReport,
    Haldane,
    Monod,
    buffer_design,
    design_sweep,
    min_enlargement_ratio,
    uptake_capacity,
    washout_surplus,
)
from bufchem import _numerics, design
from bufchem._numerics import _GRID, critical_levels
from bufchem.kinetics import closed_form
from _interval import count_rest_levels


def test_enlargement_ratio_canonical_value(reference_model):
    # exact rational value: D / mu(1.4) - 1 = 269/168 - 1 = 101/168
    value = min_enlargement_ratio(reference_model, 1.4, 1.0)
    assert value == pytest.approx(101.0 / 168.0, abs=1e-12)


def test_enlargement_ratio_zero_when_feed_viable():
    assert min_enlargement_ratio(Monod(2.0, 1.0), 3.0, 1.0) == 0.0


def test_washout_surplus_sign_pattern(reference_model):
    window = reference_model.break_even(1.0)
    inside = 0.5 * (window.lower + window.upper)
    assert washout_surplus(reference_model, 1.4, 1.0, inside) < 0.0
    assert washout_surplus(reference_model, 1.4, 1.0,
                           window.upper) == pytest.approx(0.0, abs=1e-9)
    assert washout_surplus(reference_model, 1.4, 1.0, 1.2) > 0.0
    assert washout_surplus(reference_model, 1.4, 1.0, 1.4) == 0.0
    assert washout_surplus(reference_model, 1.4, 1.0, 0.01) > 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_surplus_and_capacity_refuse_a_bad_feed_or_dilution(
        reference_model, bad):
    # the same named errors as min_enlargement_ratio, not nan, inf or a
    # number from a negative dilution rate
    with pytest.raises(ValueError, match="dilution rate D must be positive"):
        washout_surplus(reference_model, 1.4, bad, 0.5)
    for call in (lambda: washout_surplus(reference_model, bad, 1.0, 0.5),
                 lambda: uptake_capacity(reference_model, bad, 0.5),
                 lambda: min_enlargement_ratio(reference_model, bad, 1.0)):
        with pytest.raises(ValueError,
                           match="feed concentration S_in must be positive"):
            call()


def test_uptake_capacity_endpoints(reference_model):
    assert uptake_capacity(reference_model, 1.4, 0.0) == 0.0
    assert uptake_capacity(reference_model, 1.4, 1.4) == 0.0
    assert uptake_capacity(reference_model, 1.4, 0.3) > 0.0
    with pytest.raises(ValueError):
        uptake_capacity(reference_model, 1.4, -0.1)
    with pytest.raises(ValueError):
        uptake_capacity(reference_model, 1.4, 1.5)


def test_design_report_canonical(reference_model):
    report = buffer_design(reference_model, 1.4, 1.0)
    assert report.delta_v_inf == pytest.approx(101.0 / 168.0, abs=1e-12)
    assert 0.0 < report.v2_inf < report.delta_v_inf
    # the buffer break-even at the feed's own growth rate
    assert reference_model.rate(report.s_bar) == pytest.approx(
        reference_model.rate(1.4), rel=1e-9)
    assert report.s_bar < 0.2
    assert report.surplus_max > 0.0
    assert 0.0 < report.d2_star <= reference_model.peak().height


def test_callable_law_sizes_the_buffer_from_few_rate_calls(reference_model):
    # the README law as callables: both slope scans read a Chebyshev proxy
    # of a few dozen samples, where the 2048-point scans made 8452 calls
    calls = []

    def mu(s):
        calls.append(s)
        return reference_model.rate(s)

    def mu_prime(s):
        calls.append(s)
        return reference_model.rate_prime(s)

    law = CustomUnimodal(mu, mu_prime, reference_model.peak().abscissa)
    calls.clear()  # the constructor's shape check
    report = buffer_design(law, 1.4, 1.0)
    assert len(calls) <= 600
    assert report.v2_inf == pytest.approx(
        buffer_design(reference_model, 1.4, 1.0).v2_inf, rel=1e-12)


def test_d2_star_runs_buffer_at_peak_conversion(reference_model):
    # recompute the conversion optimum with a brute scan over the
    # feasible buffer levels: the rising branch, no faster-growing than
    # the feed itself (the buffer has to stay subcritical)
    report = buffer_design(reference_model, 1.4, 1.0)
    peak = (reference_model.K * reference_model.K_I) ** 0.5
    rate_cap = reference_model.rate(1.4)
    n = 20000
    feasible = [s for s in (i * 1.4 / n for i in range(1, n))
                if s < peak and reference_model.rate(s) <= rate_cap]
    values = [uptake_capacity(reference_model, 1.4, s) for s in feasible]
    # uptake still rises at the cap, so the optimum sits exactly there
    assert values == sorted(values)
    assert report.d2_star == pytest.approx(rate_cap, abs=1e-6)
    assert report.s_bar < peak


def test_side_tank_beats_enlargement_on_random_draws():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        model = Haldane(rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5),
                        rng.uniform(0.05, 4.0))
        D = rng.uniform(0.1, 2.0)
        S_in = rng.uniform(0.3, 4.0)
        window = model.break_even(D)
        if (window is None or not window.has_finite_upper
                or window.upper >= 0.95 * S_in):
            continue
        report = buffer_design(model, S_in, D)
        assert report.v2_inf < report.delta_v_inf
        checked += 1


def test_d2_interval_for_sufficient_volume(reference_model):
    report = buffer_design(reference_model, 1.4, 1.0)
    volume = 2.0 * report.v2_inf
    interval = report.d2_interval_for(volume)
    assert interval is not None
    lo, hi = interval
    # the set reaches the feed: it ends at the feed's growth rate exactly
    assert 0.0 < lo < hi == reference_model.rate(1.4)
    mid = 0.5 * (lo + hi)
    lam = reference_model.break_even(mid).lower
    load = mid * volume * (1.4 - lam)
    assert report.surplus_max < load
    assert mid * volume <= 1.0  # the buffer's flow fits in the feed's


def test_d2_interval_empty_below_infimum(reference_model):
    report = buffer_design(reference_model, 1.4, 1.0)
    assert report.d2_interval_for(0.5 * report.v2_inf) is None
    with pytest.raises(ValueError):
        report.d2_interval_for(0.0)


def test_d2_interval_boundaries_are_sharp(reference_model):
    report = buffer_design(reference_model, 1.4, 1.0)
    volume = 2.0 * report.v2_inf
    lo, hi = report.d2_interval_for(volume)

    def load(d2: float) -> float:
        lam = reference_model.break_even(d2).lower
        return d2 * volume * (1.4 - lam)

    assert load(lo * 1.01) > report.surplus_max
    assert load(lo * 0.99) < report.surplus_max
    assert load(hi * 0.99) > report.surplus_max
    assert hi * volume <= 1.0
    assert hi <= reference_model.rate(1.4) + 1e-9


def test_d2_interval_refuses_disconnected_set():
    # a growth step makes the buffer's uptake mu(s)(1 - s) rise past
    # surplus_max, dip below it and rise past it again, so the admissible
    # D2 rates fall apart
    model = CustomUnimodal(
        lambda s: 0.5 * s / (0.01 + s) + 1.5 * s ** 12 / (0.35 ** 12 + s ** 12),
        lambda s: (0.005 / (0.01 + s) ** 2
                   + 18.0 * 0.35 ** 12 * s ** 11 / (0.35 ** 12 + s ** 12) ** 2),
        math.inf)
    report = DesignReport(delta_v_inf=0.0, v2_inf=1.0, d2_star=1.0,
                          s_bar=1.0, surplus_max=0.395, _model=model,
                          _S_in=1.0, _D=1.0)
    with pytest.raises(RuntimeError, match="not an interval"):
        report.d2_interval_for(1.0)


# d2_interval_for on the README law at multiples of v2_inf, bit for bit:
# too small, a set that reaches the feed and so ends at mu(S_in), sets
# that end at the feed split D / v2, a lower end below mu(S_in) / 4096,
# and an admissible set that lies wholly below it, where a 2048-point
# midpoint scan of D2 sees nothing
RECORDED_D2_INTERVALS = {
    0.5: None,
    1.001: (0.6238794999174125, 0.6245353159851301),
    10.0: (0.06012070855415689, 0.6245353159851301),
    100.0: (0.005992579420651441, 0.11734362908646076),
    1e4: (5.990462146584513e-05, 0.0011734362908646077),
    1e5: (5.990442922016982e-06, 0.00011734362908646078),
}

# (model, S_in, D, v2 / v2_inf) whose admissible D2 range, about
# (6.717e-5, 1.5340e-4), from the surplus bound to the feed split, is
# narrower than a step of a 2048-point scan of (0, mu(S_in)): the scan's
# midpoints 5.75e-5 and 1.73e-4 straddle it
NARROW_D2_CASE = (Haldane(14.285122092238995, 0.44335045347423163,
                          0.0591193664213434),
                  3.517923555078635, 1.9618919835503679, 3.5e3)


def _bistable_haldane_draws(seed: int, count: int) -> list[tuple]:
    """(model, S_in, D, v2 / v2_inf) at random bistable Haldane points."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        model = Haldane(rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5),
                        rng.uniform(0.05, 4.0))
        D, S_in = rng.uniform(0.1, 2.0), rng.uniform(0.3, 4.0)
        window = model.break_even(D)
        if (window is not None and window.has_finite_upper
                and window.upper < 0.95 * S_in):
            draws.append((model, S_in, D, rng.choice((2.0, 1e2, 1e4))))
    return draws


def _break_even_slack(model, S_in: float, D: float, surplus_max: float,
                      v2: float):
    """At buffer dilution rate d2, the smaller of the load's margin over
    surplus_max and the feed split's margin D - v2 d2, each relative,
    with the buffer's level read from break_even: a route of its own.
    test_d2_interval_matches_the_certified_count_on_random_designs holds
    both bounds to the certified count."""
    def slack(d2: float) -> float:
        load = d2 * v2 * (S_in - model.break_even(d2).lower)
        return min(load / surplus_max - 1.0, 1.0 - v2 * d2 / D)
    return slack


def _certified_one_level(model, S_in: float, D: float, v2: float):
    """Whether the design (v2, d2) gives one buffer-active rest level,
    counted by tests/_interval.py: the buffer of volume v2 / D beside the
    single vessel of volume 1 / D, fed d2 v2 / D of a unit feed flow
    (BufferedConfig.from_physical).  A d2 past the feed split, v2 d2 > D,
    is no design and gives False.  Raises on an undecided count."""
    def one_level(d2: float) -> bool:
        share = d2 * v2 / D
        if share > 1.0:
            return False
        config = BufferedConfig.from_physical(1.0 - share, share, 1.0 / D,
                                              v2 / D, S_in, model)
        count, undecided = count_rest_levels(model, S_in, config.D,
                                             config.alpha, config.r)
        assert undecided == 0, (model, S_in, D, v2, d2)
        return count == 1
    return one_level


def test_d2_interval_matches_recorded_values(reference_model):
    report = buffer_design(reference_model, 1.4, 1.0)
    feed_rate = reference_model.rate(1.4)
    assert RECORDED_D2_INTERVALS[1.001][1] == feed_rate
    assert RECORDED_D2_INTERVALS[10.0][1] == feed_rate
    assert RECORDED_D2_INTERVALS[1e4][0] < feed_rate / 4096
    assert RECORDED_D2_INTERVALS[1e5][1] < feed_rate / 4096
    for factor, interval in RECORDED_D2_INTERVALS.items():
        assert report.d2_interval_for(factor * report.v2_inf) == interval
    # from 100 v2_inf on, the buffer's flow reaches the feed's first
    for factor in (100.0, 1e4, 1e5):
        assert RECORDED_D2_INTERVALS[factor][1] == 1.0 / (
            factor * report.v2_inf)


def test_d2_interval_finds_a_range_narrower_than_a_scan_step():
    model, S_in, D, factor = NARROW_D2_CASE
    report = buffer_design(model, S_in, D)
    v2 = factor * report.v2_inf
    interval = report.d2_interval_for(v2)
    assert interval is not None
    lo, hi = interval
    assert 0.0 < hi - lo < model.rate(S_in) / 2048
    slack = _break_even_slack(model, S_in, D, report.surplus_max, v2)
    assert slack(0.5 * (lo + hi)) > 0.0
    for end in (lo, hi):
        assert slack(end * (1.0 - 1e-9)) * slack(end * (1.0 + 1e-9)) < 0.0


@pytest.mark.parametrize("case", [
    *(pytest.param((Haldane(12.0, 1.0, 0.08), 1.4, 1.0, factor),
                   id=str(factor)) for factor in (1e4, 1e5)),
    pytest.param(NARROW_D2_CASE, id="narrow"),
    *(pytest.param(draw, id=f"draw{i}")
      for i, draw in enumerate(_bistable_haldane_draws(24, 4))),
])
def test_d2_interval_below_the_grid_matches_a_dense_reference(case):
    # the slack is positive on a dense grid exactly inside the ends, and
    # changes sign across each end short of the feed's growth rate
    model, S_in, D, factor = case
    report = buffer_design(model, S_in, D)
    v2 = factor * report.v2_inf
    lo, hi = report.d2_interval_for(v2)
    slack = _break_even_slack(model, S_in, D, report.surplus_max, v2)
    top = min(2.0 * hi, model.rate(S_in))
    grid = [top * (i + 0.5) / 4000 for i in range(4000)]
    assert ([d for d in grid if slack(d) > 0.0]
            == [d for d in grid if lo < d < hi])
    for end in (lo, hi) if hi < model.rate(S_in) else (lo,):
        assert slack(end * (1.0 - 1e-9)) * slack(end * (1.0 + 1e-9)) < 0.0


@pytest.mark.parametrize("factor", [0.97, 2.0, 1e3])
def test_d2_interval_when_the_surplus_exceeds_the_feed(factor):
    # D > 1 lifts the surplus peak (about 10.44) above S_in = 10.  The feed
    # split, not the feed level, bounds the load: from v2_inf on there is
    # a range, and the certified count finds one rest level exactly inside
    # it, on a grid over (0, min(2 hi, mu(S_in))) save the points within
    # one step of an end
    model, S_in, D = Haldane(20.0, 1.0, 0.08), 10.0, 2.0
    report = buffer_design(model, S_in, D)
    assert report.surplus_max > S_in
    v2 = factor * report.v2_inf
    interval = report.d2_interval_for(v2)
    assert (interval is None) == (factor < 1.0)
    lo, hi = interval or (math.inf, math.inf)
    top = min(2.0 * hi, model.rate(S_in))
    step = top / 24
    one_level = _certified_one_level(model, S_in, D, v2)
    for d2 in (step * (i + 0.5) for i in range(24)):
        if min(abs(d2 - lo), abs(d2 - hi)) > step:
            assert one_level(d2) == (lo < d2 < hi), d2
    if interval is not None:
        assert one_level(0.5 * (lo + hi))
        assert hi == D / v2 and not one_level(hi * (1.0 + 1e-9))


def _designs_over_decades_of_time(seed: int, count: int) -> list[tuple]:
    """(model, S_in, D) at bistable Haldane points of moderate shape, with
    every rate times tau, log-uniform over six decades."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        tau = 10.0 ** rng.uniform(-3.0, 3.0)
        model = Haldane(rng.uniform(2.0, 20.0) * tau, rng.uniform(0.1, 1.5),
                        rng.uniform(0.05, 4.0))
        D, S_in = rng.uniform(0.1, 2.0) * tau, rng.uniform(0.3, 4.0)
        window = model.break_even(D)
        if (window is not None and window.has_finite_upper
                and window.upper < 0.95 * S_in):
            draws.append((model, S_in, D))
    return draws


def test_d2_interval_matches_the_certified_count_on_random_designs():
    # 50 designs at 0.95, 1.05, 1.5 and 4 v2_inf: below v2_inf no D2
    # certifies one rest level; above it the range's middle and a point
    # 1% inside its upper end do, and from_physical accepts them, a point
    # 25% below its lower end does not, and the range ends at mu(S_in) or
    # at the feed split D / v2, past which no flow split exists
    draws = _designs_over_decades_of_time(34, 50)
    reports = [buffer_design(*draw) for draw in draws]
    assert sum(D > 1.0 for _, _, D in draws) >= 10
    assert sum(report.surplus_max >= S_in
               for (_, S_in, _), report in zip(draws, reports)) >= 5
    for (model, S_in, D), report in zip(draws, reports):
        feed_rate = model.rate(S_in)
        for factor in (0.95, 1.05, 1.5, 4.0):
            v2 = factor * report.v2_inf
            one_level = _certified_one_level(model, S_in, D, v2)
            interval = report.d2_interval_for(v2)
            if factor < 1.0:
                assert interval is None
                assert not one_level(0.5 * min(feed_rate, D / v2))
                continue
            lo, hi = interval
            assert hi == min(feed_rate, D / v2)
            assert one_level(0.5 * (lo + hi)) and one_level(hi * 0.99)
            assert not one_level(lo * 0.75)


@pytest.mark.parametrize("c, tau", [(1e-6, 1.0), (1e2, 1.0), (1.0, 1e-5),
                                    (1.0, 1e3), (1e-3, 1e4)])
def test_d2_interval_scales_with_the_units(c, tau):
    # the README design with concentrations times c and rates times tau:
    # the same volume ratios, and each admissible range tau times the
    # README unit's, within 1e-12 relative
    law = Haldane(12.0 * tau, 1.0 * c, 0.08 * c)
    report = buffer_design(law, 1.4 * c, 1.0 * tau)
    base = buffer_design(Haldane(12.0, 1.0, 0.08), 1.4, 1.0)
    assert report.v2_inf == pytest.approx(base.v2_inf, rel=1e-12)
    for factor, interval in RECORDED_D2_INTERVALS.items():
        scaled = report.d2_interval_for(factor * report.v2_inf)
        assert (scaled is None) == (interval is None)
        if interval is not None:
            assert scaled == pytest.approx(
                (tau * interval[0], tau * interval[1]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("factor", sorted(RECORDED_D2_INTERVALS))
def test_d2_interval_on_a_callable_law_takes_few_rate_calls(
        reference_model, factor):
    # the README law as callables: the admissible range costs the
    # capacity's critical levels from a Chebyshev proxy and one bisection
    # per end, not a scan of D2
    calls = []

    def mu(s):
        calls.append(s)
        return reference_model.rate(s)

    def mu_prime(s):
        calls.append(s)
        return reference_model.rate_prime(s)

    report = buffer_design(CustomUnimodal(mu, mu_prime, math.sqrt(0.08)),
                           1.4, 1.0)
    calls.clear()
    interval = report.d2_interval_for(factor * report.v2_inf)
    assert len(calls) <= 250
    recorded = RECORDED_D2_INTERVALS[factor]
    assert (interval is None) == (recorded is None)
    if recorded is not None:
        assert interval == pytest.approx(recorded, rel=1e-10)


def test_preconditions_named(reference_model):
    with pytest.raises(ValueError, match="window"):
        buffer_design(reference_model, 1.4, 1.6)
    with pytest.raises(ValueError, match="upper"):
        buffer_design(Monod(2.0, 1.0), 3.0, 1.0)
    with pytest.raises(ValueError, match="upper"):
        buffer_design(Haldane(12.0, 1.0, 0.1), 2.0, 0.5)
    with pytest.raises(ValueError):
        min_enlargement_ratio(reference_model, -1.0, 1.0)
    with pytest.raises(ValueError):
        washout_surplus(reference_model, 1.4, 1.0, 2.0)


def _scanned_capacity_levels(model, S_in: float, s_bar: float) -> list[float]:
    """The oracle: the 2048-point scan of the capacity's slope on (0, s_bar),
    the route every law took before Haldane's closed form."""
    mu, mu_p = model._rate_raw, model._rate_prime_raw
    return critical_levels(lambda s: mu_p(s) * (S_in - s) - mu(s), 0.0, s_bar)


def _haldane_draws_over_decades(seed: int, count: int) -> list[tuple]:
    """(model, S_in, D) at bistable Haldane points, K, K_I and mu_bar
    log-uniform over six decades, the feed within a decade above the
    peak, and D between mu(S_in) and the peak rate, log-uniform: about
    a third hold the capacity's peak inside (0, s_bar)."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        model = Haldane(*(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)))
        peak = model.peak()
        S_in = peak.abscissa * 10.0 ** rng.uniform(0.001, 1.0)
        feed = model.rate(S_in)
        D = feed * (peak.height / feed) ** rng.uniform(0.01, 0.99)
        draws.append((model, S_in, D))
    return draws


def _d2_ranges(report: DesignReport) -> list:
    """d2_interval_for at 1.001, 2, 10 and 1e3 v2_inf, a set that is not
    an interval read as its error's text."""
    ranges = []
    for factor in (1.001, 2.0, 10.0, 1e3):
        try:
            ranges.append(report.d2_interval_for(factor * report.v2_inf))
        except RuntimeError as error:
            ranges.append(str(error))
    return ranges


def test_haldane_capacity_levels_match_the_scan_within_two_ulps(monkeypatch):
    # the closed form s_c and the scan's bisected level differ in the last
    # bits only, and so do the designs and admissible ranges built on them
    inside = 0
    for model, S_in, D in _haldane_draws_over_decades(25, 1000):
        report = buffer_design(model, S_in, D)
        levels = _scanned_capacity_levels(model, S_in, report.s_bar)
        closed = design._capacity_levels(model, S_in, report.s_bar)
        assert len(closed) == len(levels)
        assert all(abs(s - o) <= 2.0 * math.ulp(o)
                   for s, o in zip(closed, levels))
        inside += bool(levels)
        with monkeypatch.context() as m:
            m.setattr(design, "_capacity_levels",
                      lambda *args, levels=levels: levels)
            scanned = buffer_design(model, S_in, D)
            oracle = _d2_ranges(scanned)
        for field in ("v2_inf", "d2_star"):
            assert getattr(report, field) == pytest.approx(
                getattr(scanned, field), rel=1e-15, abs=0.0)
        assert (report.s_bar, report.surplus_max) == (
            scanned.s_bar, scanned.surplus_max)
        # each range of the oracle's kind: None, a range, or not an interval
        for got, want in zip(_d2_ranges(report), oracle):
            assert type(got) is type(want)
            if isinstance(want, tuple):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            else:
                assert got == want
    assert 250 < inside < 750


def _design_at_feed(model, S_in: float):
    """(report, grid step, s_c) at S_in, D the geometric mean of mu(S_in)
    and the peak rate."""
    D = math.sqrt(model.rate(S_in) * model.peak().height)
    report = buffer_design(model, S_in, D)
    return report, report.s_bar / _GRID, model._capacity_peak(S_in)


@pytest.mark.parametrize("model, S_in, cells", [
    # K / K_I = 1e-16 puts s_c 0.38 steps above 0, below the first point
    pytest.param(Haldane(1.0, 1e-8, 1e8), 1.5, (0.0, 0.5), id="near 0"),
    # S_in / sqrt(K K_I) near the root of t^3 = 3 t + 1, where s_c meets
    # s_bar: s_c 0.25 steps below s_bar, above the last point
    pytest.param(Haldane(1.0, 1.0, 1.0), 1.8792322949264086,
                 (_GRID - 0.5, _GRID), id="near s_bar"),
])
def test_capacity_peak_off_the_grid_is_its_closed_form(model, S_in, cells):
    # the scan sees no level there, so the closed form s_c stands in for
    # it, and the buffer size is the surplus over the capacity's peak
    report, step, s_c = _design_at_feed(model, S_in)
    assert cells[0] < s_c / step < cells[1]
    assert _scanned_capacity_levels(model, S_in, report.s_bar) == []
    assert design._capacity_levels(model, S_in, report.s_bar) == [s_c]
    assert report.v2_inf == (
        report.surplus_max / uptake_capacity(model, S_in, s_c))
    assert report.d2_star == model.rate(s_c)


@pytest.mark.parametrize("S_in, ulps", [
    (1.4994666390391451, -1.0),
    (1.4994666390391456, 0.0),
])
def test_capacity_peak_on_a_grid_point_keeps_the_scan_cell(S_in, ulps):
    # s_c one ulp below, and on, the grid point 1448.5 steps up, where the
    # slope's sign there is rounding noise (about 5.6e-17): the design
    # reads s_c itself, and the scan's level lies within an ulp of it
    model = Haldane(1.0, 1.0, 1.0)
    report, step, s_c = _design_at_feed(model, S_in)
    point = step * 1448.5
    assert s_c - point == ulps * math.ulp(point)
    assert design._capacity_levels(model, S_in, report.s_bar) == [s_c]
    [scanned] = _scanned_capacity_levels(model, S_in, report.s_bar)
    assert abs(scanned - s_c) <= math.ulp(s_c)


def test_haldane_capacity_level_costs_no_scan(reference_model, monkeypatch):
    # mu' counted on the class, so the law stays an exact Haldane: the
    # design keeps one scan, the surplus slope's, and the admissible
    # range reads the capacity's peak at its closed form, with no mu'
    # call (the scan of the capacity's slope made 2048 calls each)
    calls = []
    rate_prime = Haldane._rate_prime_raw

    def counted(self, s):
        calls.append(s)
        return rate_prime(self, s)

    monkeypatch.setattr(Haldane, "_rate_prime_raw", counted)
    assert closed_form(reference_model) == "haldane"
    report = buffer_design(reference_model, 1.4, 1.0)
    assert len(calls) <= _GRID + 100
    calls.clear()
    report.d2_interval_for(10.0 * report.v2_inf)
    assert len(calls) == 0


def _readme_feeds(model, S_in: float = 1.4, D: float = 1.0) -> list[float]:
    """The 30 feeds of bufchem design: (upper break-even, 15/7 S_in]."""
    upper = model.break_even(D).upper
    top = S_in * 15.0 / 7.0
    return [upper + k * (top - upper) / 30 for k in range(1, 31)]


def _loop(model, D: float, feeds: list[float]) -> list[DesignReport]:
    return [buffer_design(model, feed, D) for feed in feeds]


def test_design_sweep_equals_the_loop_on_the_readme_sweep(reference_model):
    feeds = [1.4, *_readme_feeds(reference_model)]
    assert feeds[-1] == 3.0
    assert design_sweep(reference_model, 1.0, feeds) == _loop(
        reference_model, 1.0, feeds)
    assert design_sweep(reference_model, 1.0, iter(feeds[::-1])) == _loop(
        reference_model, 1.0, feeds[::-1])


def _sweep_draws(seed: int, count: int) -> list[tuple]:
    """(model, D, feeds): Haldane laws with K, K_I and mu_bar over six
    decades, D over four below the peak rate, and 30 feeds past the
    upper break-even: three a hair above it (1e-13 to 1e-6 relative),
    the rest up to 100 times it."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        model = Haldane(*(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)))
        D = model.peak().height * 10.0 ** rng.uniform(-4.0, -1e-3)
        upper = model.break_even(D).upper
        top = upper * 10.0 ** rng.uniform(1e-3, 2.0)
        feeds = [upper * (1.0 + 10.0 ** rng.uniform(-13.0, -6.0))
                 for _ in range(3)]
        feeds += [upper + (top - upper) * rng.random() for _ in range(27)]
        draws.append((model, D, feeds))
    return draws


def test_design_sweep_equals_the_loop_on_seeded_haldane_draws():
    for model, D, feeds in _sweep_draws(33, 500):
        assert design_sweep(model, D, feeds) == _loop(model, D, feeds), (
            model, D)


def test_design_sweep_equals_the_loop_on_a_callable_law(reference_model):
    law = CustomUnimodal(reference_model.rate, reference_model.rate_prime,
                         math.sqrt(0.08))
    feeds = _readme_feeds(law)
    assert design_sweep(law, 1.0, feeds) == _loop(law, 1.0, feeds)


def test_design_sweep_scans_a_feed_whose_slope_is_rounding_noise():
    # a feed 1e-12 above the upper break-even: over its grid the slope is
    # a few ulps of D, and the scan reads five sign changes where the
    # search would find one.  The slope's change over the bracket is
    # below 1e-12 D, so the feed takes its whole scan
    model, D = Haldane(694.4806421425245, 0.4510220130393962,
                       12.786955417202005), 504.5793767860811
    upper = model.break_even(D).upper
    feeds = [upper * (1.0 + 1e-12), 2.0 * upper]
    slope = design._surplus_slope(model, feeds[0], D)
    assert len(critical_levels(slope, upper, feeds[0])) == 5
    assert design_sweep(model, D, feeds) == _loop(model, D, feeds)


def _outcome(call):
    """call()'s value, or its ValueError's text."""
    try:
        return call()
    except ValueError as error:
        return str(error)


def test_design_sweep_scans_every_feed_when_the_table_is_not_increasing():
    # D a hair below the peak rate: T is strictly increasing, but rounding
    # puts its table's first sample below T(upper) = upper, so the table
    # vouches for nothing and every feed takes its whole scan.  A feed
    # within one table step of upper finds no level there, and both routes
    # raise alike
    model, D = Haldane(1.0, 0.0009630061764936394,
                       7571.714491977344), 0.9992872491162669
    upper = model.break_even(D).upper
    top = 2.7005304583989256
    assert design._slope_table(model, D, upper, top) is None
    feeds = [upper + (top - upper) * k / 8 for k in range(1, 9)]
    assert design_sweep(model, D, feeds) == _loop(model, D, feeds)
    near = upper + (top - upper) / 4096
    assert _outcome(lambda: design_sweep(model, D, [near, top])) == (
        _outcome(lambda: _loop(model, D, [near, top])))


def test_table_levels_hand_back_a_bracket_without_a_clean_sign_change(
        reference_model):
    # the search gives a feed back to its scan when the slope shows no
    # sign change across the table's bracket, when it reads an exact zero
    # there, and when T never reaches the feed on the table
    feeds = _readme_feeds(reference_model)
    upper = reference_model.break_even(1.0).upper
    table = design._slope_table(reference_model, 1.0, upper, feeds[-1])
    levels, values = table
    feed = feeds[10]
    j = bisect.bisect_right(values, feed)
    a, b = levels[j - 1], levels[j]
    for g in (lambda s: 1.0, lambda s: -1.0, lambda s: 0.0,
              lambda s: 1.0 if s <= a else -1.0 if s >= b else 0.0):
        assert design._table_levels(g, table, feed, 1.0) is None
    true_slope = design._surplus_slope(reference_model, feed, 1.0)
    assert design._table_levels(true_slope, table, feed, 1.0) is not None
    assert design._table_levels(true_slope, table, 2.0 * values[-1],
                                1.0) is None


def test_design_sweep_bisects_the_scans_own_brackets(reference_model,
                                                     monkeypatch):
    # the bracket each feed's level is bisected on is the scan's: the two
    # grid points of the feed's own grid where the slope changes sign
    brackets = []

    def recorded(bisect):
        def bisect_root(g, lo, hi, f_tol):
            brackets.append((lo, hi))
            return bisect(g, lo, hi, f_tol)
        return bisect_root

    monkeypatch.setattr(_numerics, "bisect_root",
                        recorded(_numerics.bisect_root))
    monkeypatch.setattr(design, "bisect_root", recorded(design.bisect_root))
    # the README sweep, two feeds whose level lies in their grid's first
    # cell, and a seeded draw's 27 feeds past the three a hair above upper
    model, D, feeds = _sweep_draws(35, 1)[0]
    for model, D, feeds in [(reference_model, 1.0,
                             _readme_feeds(reference_model)),
                            (reference_model, 1.0, [2e6, 3e6]),
                            (model, D, feeds[3:])]:
        levels = [design._surplus_slope(model, feed, D) for feed in feeds]
        upper = model.break_even(D).upper
        brackets.clear()
        for feed, g in zip(feeds, levels):
            critical_levels(g, upper, feed)
        scanned = brackets[:]
        brackets.clear()
        table = design._slope_table(model, D, upper, max(feeds))
        for feed, g in zip(feeds, levels):
            assert design._table_levels(g, table, feed, D) is not None
        assert brackets == scanned


def test_design_sweep_raises_the_named_errors(reference_model):
    upper = reference_model.break_even(1.0).upper
    for feeds in ([1.4, upper], [0.5 * upper, 1.4]):
        with pytest.raises(ValueError, match="upper break-even at or above"):
            design_sweep(reference_model, 1.0, feeds)
    with pytest.raises(ValueError, match="not inhibited"):
        design_sweep(Monod(2.0, 1.0), 1.0, [3.0])
    for law in (reference_model, CustomUnimodal(
            reference_model.rate, reference_model.rate_prime,
            math.sqrt(0.08))):
        with pytest.raises(ValueError, match="no break-even window"):
            design_sweep(law, 1.6, [1.4])
    with pytest.raises(ValueError, match="dilution rate D must be positive"):
        design_sweep(reference_model, math.nan, [1.4])
    assert design_sweep(reference_model, 1.0, []) == []


def test_design_sweep_takes_a_fifth_of_the_loops_rate_calls(
        reference_model, monkeypatch):
    # mu and mu' counted on the class, so the law stays an exact Haldane
    calls = []
    for name in ("_rate_raw", "_rate_prime_raw"):
        method = getattr(Haldane, name)

        def counted(self, s, method=method):
            calls.append(s)
            return method(self, s)

        monkeypatch.setattr(Haldane, name, counted)
    feeds = _readme_feeds(reference_model)
    _loop(reference_model, 1.0, feeds)
    loop_calls = len(calls)
    calls.clear()
    design_sweep(reference_model, 1.0, feeds)
    assert len(calls) <= loop_calls / 5

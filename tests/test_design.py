"""Volume sizing: enlargement ratio versus a dedicated side tank."""
import math
import random

import pytest

from bufchem import (
    CustomUnimodal,
    DesignReport,
    Haldane,
    Monod,
    buffer_design,
    min_enlargement_ratio,
    uptake_capacity,
    washout_surplus,
)


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
    assert 0.0 < lo < hi < reference_model.rate(1.4)
    mid = 0.5 * (lo + hi)
    lam = reference_model.break_even(mid).lower
    load = mid * volume * (1.4 - lam)
    assert report.surplus_max < load < 1.4


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
    inside = load(hi * 0.99)
    assert report.surplus_max < inside < 1.4
    assert hi <= reference_model.rate(1.4) + 1e-9


def test_d2_interval_refuses_disconnected_set():
    # a growth step makes the buffer's uptake mu(s)(1 - s) rise, dip and
    # rise past the feed, so the admissible D2 rates fall apart
    model = CustomUnimodal(
        lambda s: 0.5 * s / (0.01 + s) + 1.5 * s ** 12 / (0.35 ** 12 + s ** 12),
        lambda s: 0.0, math.inf)
    report = DesignReport(delta_v_inf=0.0, v2_inf=1.0, d2_star=1.0,
                          s_bar=1.0, surplus_max=0.395, _model=model,
                          _S_in=1.0)
    with pytest.raises(RuntimeError, match="not an interval"):
        report.d2_interval_for(1.0)


# d2_interval_for on the README law at multiples of v2_inf, bit for bit:
# too small, the last grid midpoint as the upper end, interior ends, a
# lower end below the first grid midpoint, and an admissible set that
# lies wholly below the first grid midpoint
RECORDED_D2_INTERVALS = {
    0.5: None,
    1.001: (0.6238794999174126, 0.6243828415427509),
    10.0: (0.06012070855415689, 0.6243828415427509),
    100.0: (0.005992579420651442, 0.11818434084114415),
    1e4: (5.990462146584512e-05, 0.0011735182718162476),
    1e5: (5.990442922016982e-06, 0.00011734444872064608),
}


def test_d2_interval_matches_recorded_values(reference_model):
    report = buffer_design(reference_model, 1.4, 1.0)
    step = reference_model.rate(1.4) / 2048
    assert RECORDED_D2_INTERVALS[10.0][1] == step * 2047.5
    assert RECORDED_D2_INTERVALS[1e4][0] < step * 0.5
    assert RECORDED_D2_INTERVALS[1e5][1] < step * 0.5
    for factor, interval in RECORDED_D2_INTERVALS.items():
        assert report.d2_interval_for(factor * report.v2_inf) == interval


@pytest.mark.parametrize("factor", [1e4, 1e5])
def test_d2_interval_below_the_grid_matches_a_dense_reference(
        reference_model, factor):
    # the slack is positive on a dense grid exactly inside the recorded
    # ends, and changes sign across each end
    report = buffer_design(reference_model, 1.4, 1.0)
    v2 = factor * report.v2_inf
    lo, hi = RECORDED_D2_INTERVALS[factor]

    def slack(d2: float) -> float:
        load = d2 * v2 * (1.4 - reference_model.break_even(d2).lower)
        return min(load - report.surplus_max, 1.4 - load)

    grid = [2.0 * hi * (i + 0.5) / 4000 for i in range(4000)]
    assert ([d for d in grid if slack(d) > 0.0]
            == [d for d in grid if lo < d < hi])
    for end in (lo, hi):
        assert slack(end * (1.0 - 1e-9)) * slack(end * (1.0 + 1e-9)) < 0.0


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

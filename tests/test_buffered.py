"""Two-tank model: configuration algebra, equilibria, surplus region."""
import math
import random

import pytest

from bufchem import (
    InfeasibleBufferError,
    BRANCH_POSITIVE,
    BRANCH_WASHOUT,
    BufferedConfig,
    CustomUnimodal,
    Haldane,
    IntervalSet,
    Monod,
    buffer_substrate,
    equilibrium_split,
    find_equilibria,
    growth_deficit,
    pivot_level,
    required_growth_ratio,
    split_threshold,
    surplus_region,
)
from bufchem import simulate
from bufchem.buffered import (SingularSplitPoint, _buffer_level, _deficit_fn,
                              _scan_levels, split_map)
from bufchem.kinetics import GrowthModel
from bufchem.simulate import _rhs_and_step
from conftest import draw_buffered_config


def three_root_model() -> Haldane:
    # at S_in=2, D=0.5, alpha=0.2 this kinetics admits three positive rest
    # levels for bypass ratios in roughly (0.2508, 0.4090)
    return Haldane(12.0, 1.0, 0.1)


def test_from_physical_balanced():
    cfg = BufferedConfig.from_physical(0.5, 0.5, 0.5, 0.5, 2.0,
                                       Monod(2.0, 1.0))
    assert cfg.D == pytest.approx(1.0)
    assert cfg.r == pytest.approx(0.5)
    assert cfg.alpha == pytest.approx(1.0)


def test_from_physical_small_buffer():
    cfg = BufferedConfig.from_physical(0.8, 0.2, 0.9, 0.1, 2.0,
                                       Monod(2.0, 1.0))
    assert cfg.D == pytest.approx(1.0)
    assert cfg.r == pytest.approx(0.9)
    assert cfg.alpha == pytest.approx(2.0)
    assert cfg.alpha * (1.0 - cfg.r) <= 1.0 + 1e-12


def test_from_physical_all_flow_through_buffer():
    cfg = BufferedConfig.from_physical(0.0, 1.0, 0.5, 0.5, 2.0,
                                       Monod(2.0, 1.0))
    assert cfg.alpha == pytest.approx(2.0)
    assert cfg.alpha * (1.0 - cfg.r) == pytest.approx(1.0)


def test_from_physical_rejects_degenerate_tanks():
    model = Monod(2.0, 1.0)
    with pytest.raises(ValueError):
        BufferedConfig.from_physical(0.5, 0.5, 0.0, 0.5, 2.0, model)
    with pytest.raises(ValueError):
        BufferedConfig.from_physical(0.5, 0.5, 0.5, 0.0, 2.0, model)
    with pytest.raises(ValueError):
        BufferedConfig.from_physical(0.5, 0.0, 0.5, 0.5, 2.0, model)
    with pytest.raises(ValueError):
        BufferedConfig.from_physical(-0.1, 0.5, 0.5, 0.5, 2.0, model)


def test_config_rejects_oversized_bypass():
    with pytest.raises(ValueError):
        BufferedConfig(Monod(2.0, 1.0), 2.0, 1.0, 2.0, 0.4)


def test_infeasible_buffer_no_window(reference_model):
    # alpha*D above the peak growth rate: the buffer cannot persist
    with pytest.raises(InfeasibleBufferError) as info:
        buffer_substrate(reference_model, 1.4, 2.0, 0.8)
    assert info.value.clause == "no_growth_window"


def test_infeasible_buffer_feed_too_low(reference_model):
    with pytest.raises(InfeasibleBufferError) as info:
        buffer_substrate(reference_model, 0.05, 1.0, 0.9)
    assert info.value.clause == "buffer_level_above_feed"


def test_buffer_substrate_is_lower_break_even(reference_model):
    s2 = buffer_substrate(reference_model, 1.4, 1.0, 0.35)
    assert s2 == pytest.approx(reference_model.break_even(0.35).lower,
                               abs=1e-12)


def test_pivot_mixes_buffer_and_feed(reference_model):
    alpha = 0.35
    s2 = buffer_substrate(reference_model, 1.4, 1.0, alpha)
    pv = pivot_level(reference_model, 1.4, 1.0, alpha)
    assert pv == pytest.approx(alpha * s2 + (1 - alpha) * 1.4, abs=1e-12)


def test_required_ratio_is_one_at_pivot():
    rng = random.Random(21)
    for _ in range(100):
        cfg = draw_buffered_config(rng)
        pv = pivot_level(cfg.model, cfg.S_in, cfg.D, cfg.alpha)
        if not (0.0 <= pv < cfg.S_in):
            continue
        assert required_growth_ratio(cfg, pv) == pytest.approx(1.0,
                                                               abs=1e-12)


def test_split_values_at_landmarks(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    window = reference_model.break_even(1.0)
    assert equilibrium_split(cfg, window.lower) == pytest.approx(1.0,
                                                                 abs=1e-9)
    assert equilibrium_split(cfg, window.upper) == pytest.approx(1.0,
                                                                 abs=1e-9)
    pv = pivot_level(reference_model, 1.4, 1.0, 0.35)
    assert equilibrium_split(cfg, pv) == pytest.approx(0.0, abs=1e-12)
    near_feed = 1.4 - 1e-9
    assert equilibrium_split(cfg, near_feed) == pytest.approx(1.0, abs=1e-6)


def test_split_root_equivalence(reference_model):
    # gamma(s) = r exactly where the growth deficit vanishes
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    roots = [e.s1 for e in find_equilibria(cfg)
             if e.branch == BRANCH_POSITIVE]
    for s in roots:
        assert equilibrium_split(cfg, s) == pytest.approx(cfg.r, abs=1e-8)


def test_public_maps_equal_their_closures():
    # the public forms add domain checks only: same numbers, bit for bit
    rng = random.Random(23)
    for _ in range(40):
        cfg = draw_buffered_config(rng, monod_share=0.3)
        gamma = split_map(cfg.model, cfg.S_in, cfg.D, cfg.alpha)
        deficit = _deficit_fn(cfg, _buffer_level(cfg))[2]
        for k in range(1, 200):
            s = cfg.S_in * k / 200
            assert growth_deficit(cfg, s) == deficit(s)
            try:
                want = gamma(s)
            except SingularSplitPoint:
                with pytest.raises(SingularSplitPoint):
                    equilibrium_split(cfg, s)
                continue
            assert equilibrium_split(cfg, s) == want


def test_three_root_window():
    cfg = BufferedConfig(three_root_model(), 2.0, 0.5, 0.2, 0.33)
    positives = [e for e in find_equilibria(cfg)
                 if e.branch == BRANCH_POSITIVE]
    assert len(positives) == 3
    tags = [e.tag for e in sorted(positives, key=lambda e: e.s1)]
    assert tags == ["stable", "saddle", "stable"]


def test_single_root_below_window():
    cfg = BufferedConfig(three_root_model(), 2.0, 0.5, 0.2, 0.2258)
    positives = [e for e in find_equilibria(cfg)
                 if e.branch == BRANCH_POSITIVE]
    assert len(positives) == 1
    assert positives[0].tag == "stable"


def test_single_root_above_window():
    cfg = BufferedConfig(three_root_model(), 2.0, 0.5, 0.2, 0.5)
    positives = [e for e in find_equilibria(cfg)
                 if e.branch == BRANCH_POSITIVE]
    assert len(positives) == 1


class _ScanCalled(Exception):
    pass


def test_haldane_rest_levels_take_the_cubic_route_alone(reference_model,
                                                        monkeypatch):
    def no_scan(*args, **kwargs):
        raise _ScanCalled

    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    want = (find_equilibria(cfg), surplus_region(cfg))
    monkeypatch.setattr("bufchem.buffered.critical_levels_above", no_scan)
    assert (find_equilibria(cfg), surplus_region(cfg)) == want
    # the same law behind callables has no closed form and is scanned
    wrapped = CustomUnimodal(reference_model.rate, reference_model.rate_prime,
                             reference_model.peak().abscissa)
    generic = BufferedConfig(wrapped, 1.4, 1.0, 0.35, 0.48)
    for analysis in (find_equilibria, surplus_region):
        with pytest.raises(_ScanCalled):
            analysis(generic)


def test_find_equilibria_solves_the_buffer_break_even_once(reference_model,
                                                          monkeypatch):
    # three buffer-active rest points, by the cubic and by the scan: the
    # buffer's level alpha D is solved once, not again per route or level
    solved = []
    break_even = GrowthModel.break_even
    monkeypatch.setattr(GrowthModel, "break_even", lambda self, dilution:
                        solved.append(dilution) or break_even(self, dilution))
    wrapped = CustomUnimodal(reference_model.rate, reference_model.rate_prime,
                             math.sqrt(0.08))
    for model in (reference_model, wrapped):
        solved.clear()
        equilibria = find_equilibria(BufferedConfig(model, 1.4, 1.0, 0.35, 0.6))
        assert sum(e.branch == BRANCH_POSITIVE for e in equilibria) == 3
        assert solved.count(0.35) == 1


@pytest.mark.parametrize("r", [0.5378392632703208, 0.5378388867832131])
def test_scan_finds_root_pair_a_hair_past_tangency(reference_model, r):
    # just above r_bar at alpha 0.35 two rest levels sit < 1e-3 apart next
    # to a critical point of the deficit; the callable-wrapped law must
    # find them, as the Haldane cubic does
    wrapped = CustomUnimodal(reference_model.rate, reference_model.rate_prime,
                             math.sqrt(0.08))
    levels = [[e.s1 for e in find_equilibria(
                   BufferedConfig(model, 1.4, 1.0, 0.35, r))
               if e.branch == BRANCH_POSITIVE]
              for model in (reference_model, wrapped)]
    assert len(levels[0]) == 3
    assert levels[1] == pytest.approx(levels[0], rel=0.0, abs=1e-10)


def test_scan_keeps_a_double_root_whole_on_every_tangency(reference_model):
    # at r on a tangency (r_plus_min, or an end of the extra-root band) the
    # deficit touches zero at a critical point; the scan must count that
    # double root once, as the Haldane cubic does, even where the deficit
    # there changes sign within the tolerance
    wrapped = CustomUnimodal(reference_model.rate, reference_model.rate_prime,
                             math.sqrt(0.08))
    tangencies = 0
    for k in range(60):
        alpha = 0.05 + k * 0.55 / 60
        report = split_threshold(reference_model, 1.4, 1.0, alpha)
        for r in (report.r_plus_min, *(report.r_minus_interval or ())):
            if r is None or not 0.0 < r < 1.0:
                continue
            tangencies += 1
            levels = [[e.s1 for e in find_equilibria(
                           BufferedConfig(model, 1.4, 1.0, alpha, r))
                       if e.branch == BRANCH_POSITIVE]
                      for model in (reference_model, wrapped)]
            assert len(levels[1]) == len(levels[0]), (alpha, r)
    assert tangencies == 76


class _ScaledHaldane(Haldane):
    """0.8 times Haldane's law, on the generic break-even route: a subclass
    keeps Haldane's fields but not its rate."""

    def _rate_raw(self, s):
        return 0.8 * Haldane._rate_raw(self, s)

    def _rate_prime_raw(self, s):
        return 0.8 * Haldane._rate_prime_raw(self, s)

    def _break_even(self, dilution):
        return GrowthModel._break_even(self, dilution)


def test_subclass_of_a_closed_form_law_takes_the_general_route(monkeypatch):
    # Haldane's cubic for the base parameters finds three levels here, two
    # of them far from rest; the scaled law has one, near 1.09826
    config = BufferedConfig(_ScaledHaldane(12.0, 1.0, 0.08), 1.4, 1.0, 0.35,
                            0.6)
    s2 = _buffer_level(config)
    deficit = _deficit_fn(config, s2)[2]
    levels = [e.s1 for e in find_equilibria(config)
              if e.branch == BRANCH_POSITIVE]
    assert levels == _scan_levels(config, s2)
    assert levels == pytest.approx([1.09826], abs=1e-5)
    assert all(abs(deficit(s)) <= 1e-10 for s in levels)
    laws = []
    step = simulate._dp5_step
    monkeypatch.setattr(simulate, "_dp5_step",
                        lambda n, law: laws.append(law) or step(n, law))
    simulate.integrate(config, (0.6, 0.4, 0.9, 0.3),
                       simulate.IntegratorSettings(t_end=1.0))
    assert laws == ["callable"]


def test_monod_always_single_positive_root():
    rng = random.Random(33)
    for _ in range(40):
        cfg = draw_buffered_config(rng, monod_share=1.0)
        positives = [e for e in find_equilibria(cfg)
                     if e.branch == BRANCH_POSITIVE]
        assert len(positives) == 1


def test_equilibrium_residuals_small():
    rng = random.Random(5)
    for _ in range(30):
        cfg = draw_buffered_config(rng, monod_share=0.3)
        rhs, _ = _rhs_and_step(cfg, 4)
        for e in find_equilibria(cfg):
            residual = max(abs(v) for v in rhs(0.0, e.state))
            assert residual <= 1e-10


def test_positive_equilibria_close_mass_balance():
    rng = random.Random(6)
    for _ in range(30):
        cfg = draw_buffered_config(rng, monod_share=0.3)
        for e in find_equilibria(cfg):
            if e.branch == BRANCH_POSITIVE:
                assert e.s1 + e.x1 == pytest.approx(cfg.S_in, abs=1e-12)
                assert e.s2 + e.x2 == pytest.approx(cfg.S_in, abs=1e-12)
                assert e.s2 == pytest.approx(
                    buffer_substrate(cfg.model, cfg.S_in, cfg.D, cfg.alpha),
                    abs=1e-12)


def test_washout_branch_members():
    # D/r inside the viable band: two residual-biomass washout points
    cfg = BufferedConfig(three_root_model(), 2.0, 0.5, 0.2, 0.33)
    washouts = [e for e in find_equilibria(cfg)
                if e.branch == BRANCH_WASHOUT]
    assert len(washouts) == 3
    total = [e for e in washouts if e.x1 == 0.0]
    assert len(total) == 1
    assert total[0].state == (2.0, 0.0, 2.0, 0.0)
    window = three_root_model().break_even(0.5 / 0.33)
    partial = sorted(e.s1 for e in washouts if e.x1 > 0.0)
    assert partial[0] == pytest.approx(window.lower, abs=1e-9)
    assert partial[1] == pytest.approx(window.upper, abs=1e-9)
    for e in washouts:
        assert e.unstable >= 1


def test_main_tank_recovers_bistability_as_buffer_vanishes(reference_model):
    # r -> 1 shrinks the buffer to nothing: the main tank approaches a
    # plain chemostat at D, so its rest levels approach the break-even
    # pair plus a near-feed remnant of the washout state (kept interior
    # by the vanishing biomass trickle, and still attracting)
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.3, 1.0 - 1e-6)
    positive = sorted((e for e in find_equilibria(cfg)
                       if e.branch == BRANCH_POSITIVE),
                      key=lambda e: e.s1)
    assert len(positive) == 3
    assert positive[0].s1 == pytest.approx(0.10295400907294566, abs=1e-4)
    assert positive[1].s1 == pytest.approx(0.7770459909270544, abs=1e-4)
    assert positive[2].s1 == pytest.approx(1.4, abs=1e-5)
    assert positive[2].unstable == 0


def test_surplus_region_nonempty_and_negative_inside():
    rng = random.Random(7)
    for _ in range(50):
        cfg = draw_buffered_config(rng, monod_share=0.3)
        region = surplus_region(cfg)
        assert len(region) >= 1
        for lo, hi in region.components:
            mid = 0.5 * (lo + hi)
            assert growth_deficit(cfg, mid) < 0.0


def test_surplus_region_contains_equilibria_boundary(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    region = surplus_region(cfg)
    roots = sorted(e.s1 for e in find_equilibria(cfg)
                   if e.branch == BRANCH_POSITIVE)
    for lo, hi in region.components:
        for endpoint in (lo, hi):
            if 0.0 < endpoint < cfg.S_in:
                assert any(abs(endpoint - s) < 1e-7 for s in roots)


def test_interval_set_contains():
    s = IntervalSet(((0.1, 0.2), (0.5, 0.9)))
    assert s.contains(0.15)
    assert s.contains(0.7)
    assert not s.contains(0.3)
    assert len(s) == 2
    with pytest.raises(ValueError):
        IntervalSet(((0.5, 0.9), (0.1, 0.2)))


def test_split_domain_checked(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    for bad in (-0.1, 0.0, 1.4, 2.0):
        with pytest.raises(ValueError):
            equilibrium_split(cfg, bad)


def test_split_finite_on_upper_proof_interval(reference_model):
    # on (upper break-even, feed) the map is pole-free and in (0, 1]
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.55, 0.5)
    lam_plus = reference_model.break_even(1.0).upper
    for k in range(1, 400):
        s = lam_plus + k * (1.4 - lam_plus) / 400
        try:
            value = equilibrium_split(cfg, s)
        except SingularSplitPoint:
            pytest.fail(f"unexpected pole at s = {s}")
        assert math.isfinite(value)
        assert value > 0.0

"""Adaptive integrator and convergence detection."""
import functools
import hashlib
import itertools
import math
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bufchem import (
    BRANCH_POSITIVE,
    BufferedConfig,
    CustomUnimodal,
    Haldane,
    IntegratorSettings,
    Monod,
    SingleParams,
    Trajectory,
    basin_probe,
    classify_portrait,
    detect_convergence,
    find_equilibria,
    integrate,
    simulate,
    split_threshold,
)
from bufchem.simulate import StiffnessError
from conftest import draw_buffered_config, run_python


def test_linear_washout_decay_matches_closed_form():
    # with no biomass the substrate relaxes exponentially to the feed
    params = SingleParams(Monod(2.0, 1.0), 3.0, 0.7)
    traj = integrate(params, (0.5, 0.0),
                     IntegratorSettings(t_end=6.0))
    for t, (s, x) in zip(traj.times, traj.states):
        exact = 3.0 + (0.5 - 3.0) * math.exp(-0.7 * t)
        assert s == pytest.approx(exact, abs=1e-7)
        assert x == 0.0


def test_default_horizon_scales_with_dilution():
    params = SingleParams(Monod(2.0, 1.0), 3.0, 0.5)
    traj = integrate(params, (3.0, 0.1))
    assert traj.times[-1] == pytest.approx(200.0 / 0.5, abs=1e-9)


def test_equilibrium_is_a_fixed_point(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    eq = next(e for e in find_equilibria(cfg) if e.x1 > 0.0)
    traj = integrate(cfg, eq.state, IntegratorSettings(t_end=25.0))
    final = traj.final
    for a, b in zip(final, eq.state):
        assert a == pytest.approx(b, abs=1e-7)


def test_mass_balance_decay_envelope(reference_model):
    # S2 + X2 - S_in decays like exp(-alpha D t) along the flow
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    rate = cfg.alpha * cfg.D
    settings = IntegratorSettings(t_end=40.0, max_step=0.05 / rate)
    traj = integrate(cfg, (1.4, 0.2, 0.1, 0.05), settings)
    initial_gap = abs(0.1 + 0.05 - 1.4)
    for t, state in zip(traj.times, traj.states):
        gap = abs(state[2] + state[3] - 1.4)
        bound = initial_gap * math.exp(-rate * t) * (1 + 1e-6) + 1e-11
        assert gap <= bound


def test_single_chemostat_mass_balance_envelope():
    rng = random.Random(17)
    for _ in range(10):
        mu_max = rng.uniform(0.5, 4.0)
        K_s = rng.uniform(0.1, 2.0)
        D = rng.uniform(0.2, 1.5)
        S_in = rng.uniform(0.5, 3.0)
        params = SingleParams(Monod(mu_max, K_s), S_in, D)
        s0, x0 = rng.uniform(0.0, 2 * S_in), rng.uniform(0.01, 2 * S_in)
        traj = integrate(params, (s0, x0),
                         IntegratorSettings(t_end=30.0 / D))
        t = traj.times[-1]
        gap = abs(sum(traj.final) - S_in)
        bound = abs(s0 + x0 - S_in) * math.exp(-D * t) * (1 + 1e-5) + 1e-9
        assert gap <= bound


def test_states_stay_nonnegative(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    traj = integrate(cfg, (0.0, 1e-6, 0.0, 1e-6),
                     IntegratorSettings(t_end=50.0))
    for state in traj.states:
        assert all(c >= -1e-12 for c in state)


def test_rejects_negative_initial_state(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    with pytest.raises(ValueError):
        integrate(cfg, (1.0, -0.1, 1.0, 0.1))


def test_rejects_non_finite_initial_state(reference_model):
    single = SingleParams(reference_model, 1.4, 1.0)
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            integrate(single, (bad, 0.5), IntegratorSettings(t_end=5.0))
        with pytest.raises(ValueError, match="finite"):
            integrate(cfg, (1.0, 0.1, 1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            basin_probe(single, [(1.0, 0.5), (0.5, bad)],
                        candidates=[(1.4, 0.0)])


def test_non_finite_error_norm_raises():
    # the rate law is NaN on [1.3, 1.39), so every stage from the start
    # is; sample_scale 0.1 puts no sample of the constructor's shape
    # check (16ths of 1, then 2, 4, 8, ...) in that band
    law = CustomUnimodal(lambda s: math.nan if 1.3 <= s < 1.39
                         else 2.0 * s / (1.0 + s),
                         lambda s: 2.0 / (1.0 + s) ** 2, math.inf,
                         sample_scale=0.1)
    params = SingleParams(law, 1.4, 0.5)
    settings = IntegratorSettings(t_end=20.0)
    with pytest.raises(ValueError, match=r"error norm is nan at t = 0\.0"):
        integrate(params, (1.35, 0.0), settings)
    with pytest.raises(ValueError, match="error norm"):
        basin_probe(params, [(1.35, 0.0)], settings, candidates=[(1.4, 0.0)])


def test_loose_tolerances_keep_states_above_the_floor():
    # a step dipping below -1e-12 is rejected even where -10 * abs_tol is
    # lower, so a run Trajectory would refuse is never assembled
    params = SingleParams(Haldane(14.7, 0.18, 3.9), 0.385, 1.5)
    settings = IntegratorSettings(rel_tol=2.4e-3, abs_tol=2.4e-3, t_end=20.0)
    traj = integrate(params, (1.2e-4, 9.3), settings)
    assert traj.times[-1] == 20.0
    assert min(min(st) for st in traj.states) >= -1e-12


def test_last_step_ends_exactly_at_t_end():
    # t + (t_end - t) rounds to one ulp below t_end here; a next pass would
    # take a one-ulp step, below 1e-14 t_end, and report stiffness
    params = SingleParams(Haldane(12.0, 1.0, 0.08), 1.4, 1.0)
    settings = IntegratorSettings(t_end=1.740336795484369, rel_tol=1e-4,
                                  abs_tol=1e-6)
    traj = integrate(params, (1.232466567892595, 0.13980169793811922),
                     settings)
    assert traj.times[-1] == settings.t_end


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(abs_tol=1.0)
    with pytest.raises(ValueError):
        IntegratorSettings(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_step=0.0)


def test_max_step_respected():
    params = SingleParams(Monod(2.0, 1.0), 3.0, 0.5)
    traj = integrate(params, (3.0, 0.5),
                     IntegratorSettings(t_end=5.0, max_step=0.25))
    diffs = [b - a for a, b in zip(traj.times[:-1], traj.times[1:])]
    assert max(diffs) <= 0.25 + 1e-12


def test_stop_condition_truncates():
    params = SingleParams(Monod(2.0, 1.0), 3.0, 0.5)
    traj = integrate(params, (3.0, 0.5),
                     IntegratorSettings(t_end=100.0),
                     stop_condition=lambda t, y: t >= 2.0)
    assert traj.times[-1] < 100.0
    assert traj.times[-1] >= 2.0


def test_tolerances_control_accuracy():
    params = SingleParams(Monod(2.0, 1.0), 3.0, 0.5)
    loose = integrate(params, (2.0, 0.3),
                      IntegratorSettings(rel_tol=1e-5, abs_tol=1e-8,
                                         t_end=10.0))
    tight = integrate(params, (2.0, 0.3),
                      IntegratorSettings(rel_tol=1e-11, abs_tol=1e-12,
                                         t_end=10.0))
    assert loose.accepted_steps < tight.accepted_steps
    for a, b in zip(loose.final, tight.final):
        assert a == pytest.approx(b, abs=1e-4)


def test_buffer_invasion_from_trace_inoculum(reference_model):
    # tiny buffer biomass grows back and drags the pair to coexistence
    rng = random.Random(19)
    for _ in range(3):
        cfg = draw_buffered_config(rng, subcritical_buffer=True)
        eq = [e for e in find_equilibria(cfg) if e.x1 > 0.0 and e.x2 > 0.0]
        if len(eq) != 1:
            continue
        horizon = 400.0 / (cfg.alpha * cfg.D)
        traj = integrate(cfg, (cfg.S_in, 0.0, cfg.S_in, 1e-8),
                         IntegratorSettings(t_end=horizon))
        assert detect_convergence(traj, [eq[0]], eps=1e-5) == 0


def test_detect_convergence_picks_right_candidate():
    params = SingleParams(Monod(2.0, 1.0), 3.0, 1.0)
    portrait = classify_portrait(params)
    candidates = [e for e in portrait.equilibria]
    traj = integrate(params, (3.0, 0.5), IntegratorSettings(t_end=60.0))
    label = detect_convergence(traj, candidates, eps=1e-6)
    assert label is not None
    assert candidates[label].X > 0.0


def test_detect_convergence_none_when_far():
    params = SingleParams(Monod(2.0, 1.0), 3.0, 1.0)
    traj = integrate(params, (3.0, 0.5), IntegratorSettings(t_end=0.01))
    assert detect_convergence(traj, [(3.0, 0.0)], eps=1e-6) is None


def test_detect_convergence_refuses_candidates_of_another_size(
        reference_model):
    params = SingleParams(reference_model, 1.4, 1.0)
    traj = integrate(params, (1.0, 0.1), IntegratorSettings(t_end=5.0))
    with pytest.raises(ValueError, match="candidate 1 has 4 .* have 2"):
        detect_convergence(traj, [(1.4, 0.0), (1.0, 0.2, 1.0, 0.2)])


def test_basin_probe_refuses_candidates_of_another_size(
        reference_model, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before the candidates were checked")

    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    single = SingleParams(reference_model, 1.4, 1.0)
    monkeypatch.setattr(simulate, "integrate", never)
    with pytest.raises(ValueError, match="candidate 0 has 2 .* have 4"):
        basin_probe(cfg, [(1.0, 0.2, 1.0, 0.2)], None, [(1.0, 0.2)])
    with pytest.raises(ValueError, match="candidate 0 has 4 .* have 2"):
        basin_probe(single, [(1.0, 0.2)], None, [(1.0, 0.2, 1.0, 0.2)])


def test_basin_probe_refuses_a_start_of_another_size_in_integrate(
        reference_model):
    # the candidates fit the system's states, so the start of the wrong
    # size is the fault, and integrate names it
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    single = SingleParams(reference_model, 1.4, 1.0)
    sinks = _single_sinks(single)
    with pytest.raises(ValueError, match="single-vessel states have 2"):
        basin_probe(single, [(1.0, 0.1, 1.0, 0.1)], None, sinks)
    with pytest.raises(ValueError, match="buffered states have 4"):
        basin_probe(cfg, [(1.0, 0.2)], None, [(1.0, 0.2, 1.0, 0.2)])


def test_trajectory_refuses_non_finite_times_and_states():
    # NaN passes every ordering comparison, so it gets its own check;
    # -inf stays a floor violation, as it was before the finite check
    states = ((1.0, 0.0), (1.0, 0.0))
    for times, states_ in (((0.0, math.nan), states),
                           ((math.nan, 1.0), states),
                           ((0.0, math.inf), states),
                           ((0.0, 1.0), ((1.0, 0.0), (math.nan, 0.0))),
                           ((0.0, 1.0), ((1.0, math.inf), (1.0, 0.0)))):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times, states_, 1, 0)
    with pytest.raises(ValueError, match="above"):
        Trajectory((0.0, 1.0), ((1.0, -math.inf), (1.0, 0.0)), 1, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory((1.0, 1.0, math.nan), states + states[:1], 2, 0)


def test_trajectory_refuses_malformed_runs():
    # detect_convergence reads times and states in step and needs a last
    # state, so a run of mismatched lengths, sizes or none is refused
    one, two = (1.0, 0.0), (1.0, 0.0, 1.0, 0.0)
    for args, message in (
            (((0.0, 1.0), (one,), 1, 0), "2 times but 1 states"),
            (((0.0,), (one, one), 1, 0), "1 times but 2 states"),
            (((), (), 0, 0), "at least one state"),
            (((0.0, 1.0), (one, two), 1, 0), "same size"),
            (((0.0, 1.0), (one, one), -1, 0), "step counts"),
            (((0.0, 1.0), (one, one), 1, -2), "step counts")):
        with pytest.raises(ValueError, match=message):
            Trajectory(*args)
    # the step counts stay free of the number of recorded states
    assert Trajectory((0.0, 1.0), (one, one), 3, 1).accepted_steps == 3


def test_non_finite_candidates_are_refused_before_any_start(
        reference_model, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before the candidates were checked")

    single = SingleParams(reference_model, 1.4, 1.0)
    traj = integrate(single, (1.0, 0.1), IntegratorSettings(t_end=5.0))
    monkeypatch.setattr(simulate, "integrate", never)
    for bad in (math.nan, math.inf, -math.inf):
        candidates = [(1.4, 0.0), (bad, 0.2)]
        with pytest.raises(ValueError, match="candidate 1 .*finite"):
            detect_convergence(traj, candidates)
        with pytest.raises(ValueError, match="candidate 1 .*finite"):
            basin_probe(single, [(1.0, 0.2), (0.5, 0.5)], None, candidates)


# mu grows so fast that, once the tiny inoculum has grown, no step above
# the h_min floor passes the error test; the run accepts a few steps first
STIFF = SingleParams(CustomUnimodal(lambda s: 1e16 * s / (1.0 + s),
                                    lambda s: 1e16 / (1.0 + s) ** 2,
                                    math.inf), 1.4, 1.0)
STIFF_START = (1.0, 1e-300)


def test_step_size_underflow_raises_with_the_last_accepted_step():
    accepted = [(0.0, STIFF_START)]

    def record(t, y):
        accepted.append((t, y))
        return False

    with pytest.raises(StiffnessError, match="step size underflow") as err:
        integrate(STIFF, STIFF_START, None, record)
    assert len(accepted) > 1
    assert (err.value.time, err.value.last_state) == accepted[-1]


def test_basin_probe_labels_a_stiff_start_none_and_goes_on():
    # without biomass the stiff law never acts: that start washes out
    grid = [STIFF_START, (1.0, 0.0), STIFF_START, (0.2, 0.0)]
    assert basin_probe(STIFF, grid, None, [(1.4, 0.0)]) == [None, 0, None, 0]


def _reference_settling(times, states, candidates, eps, t0):
    """The settling rule as a plain loop: the label after each state."""
    far = [-math.inf] * len(candidates)
    labels = []
    for t, y in zip(times, states):
        t_cut = t - 0.1 * (t - t0)
        label = None
        for i, ref in enumerate(candidates):
            d = max(abs(a - b) for a, b in zip(y, ref))
            if d > 2.0 * eps:
                far[i] = t
            elif label is None and d <= eps and far[i] < t_cut:
                label = i
        labels.append(label)
    return labels


# dyadic eps, coordinates and times, so that a state drawn at an offset of
# eps or 2 eps from a candidate is exactly that far from it
EPS = 2.0 ** -20
OFFSETS = [k * EPS / 2.0 for k in range(-6, 7)]


@st.composite
def settling_runs(draw):
    """(candidates, t0, times, states): states near the candidates."""
    n = draw(st.sampled_from([1, 2, 4]))
    # few coordinates, so that candidates coincide or lie within eps
    coordinate = st.sampled_from([0.5, 0.5 + EPS, 0.75])
    candidates = draw(st.lists(
        st.tuples(*[coordinate] * n), min_size=1, max_size=3))
    t0 = draw(st.sampled_from([0.0, 3.0, -2.0, 1024.0]))
    steps = draw(st.lists(st.sampled_from([0.125, 0.5, 1.0, 4.0]),
                          min_size=1, max_size=40))
    times = list(itertools.accumulate(steps, initial=t0))
    states = [tuple(c + draw(st.sampled_from(OFFSETS))
                    for c in draw(st.sampled_from(candidates)))
              for _ in times]
    return candidates, t0, times, states


def _dwell(candidate, far_at, times):
    """On candidate, except 3 eps off at the times far_at."""
    return [tuple(c + (3.0 * EPS if t in far_at else 0.0) for c in candidate)
            for t in times]


TEN = [float(t) for t in range(11)]
LATE = TEN[:10] + [9.5, 10.0]


@settings(max_examples=300, deadline=None)
@given(settling_runs())
# the last state exactly eps, the one before exactly 2 eps away
@example(([(0.5, 0.5)], 0.0, TEN,
          [(0.5, 0.5)] * 9 + [(0.5 + 2.0 * EPS, 0.5), (0.5, 0.5 + EPS)]))
# a tie: the state is within eps of both candidates, and the first wins
@example(([(0.5, 0.5), (0.5 + EPS, 0.5)], 0.0, TEN,
          [(0.5 + EPS / 2.0, 0.5)] * 11))
# an excursion inside the last 10% of the run, and one just before it
@example(([(0.75,)], 0.0, LATE, _dwell((0.75,), {9.5}, LATE)))
@example(([(0.75,)], 0.0, TEN, _dwell((0.75,), {8.0}, TEN)))
# t0 != 0: the last 10% starts at 1033, after the excursion at 1030
@example(([(0.5, 0.75)], 1024.0, [1024.0 + t for t in TEN],
          _dwell((0.5, 0.75), {1030.0}, [1024.0 + t for t in TEN])))
def test_settling_rule_matches_the_plain_loop(run):
    candidates, t0, times, states = run
    expected = _reference_settling(times, states, candidates, EPS, t0)
    settled, label, reset = simulate._settling(candidates, EPS, t0,
                                               len(states[0]))
    for t, y, want in zip(times, states, expected):
        assert settled(t, y) is (want is not None)
        assert label() == want
    # a reset rule serves the next run as a fresh one
    reset()
    assert label() is None
    for t, y, want in zip(times, states, expected):
        assert settled(t, y) is (want is not None)
    traj = Trajectory(tuple(times), tuple(states), len(times) - 1, 0)
    assert detect_convergence(traj, candidates, EPS) == expected[-1]


BISTABLE_GRID = [(s, x) for s in (0.1, 0.4, 0.7, 1.0, 1.3)
                 for x in (0.001, 0.01, 0.1, 0.5, 1.0)]


def test_basin_probe_bistable_grid(reference_model):
    params = SingleParams(reference_model, 1.4, 1.0)
    portrait = classify_portrait(params)
    washout = next(e for e in portrait.equilibria if e.X == 0.0)
    positive = next(e for e in portrait.equilibria
                    if e.X > 0.0 and e.tag == "positive_attracting")
    labels = basin_probe(params, BISTABLE_GRID,
                         candidates=[washout, positive])
    assert set(labels) >= {0, 1}


def test_basin_probe_labels_are_detect_convergence_verdicts(reference_model):
    # the single vessel's bistable grid, and random starts of the CLI
    # reference run's buffered chemostat above its threshold
    params = SingleParams(reference_model, 1.4, 1.0)
    single = [e for e in classify_portrait(params).equilibria
              if e.tag in ("positive_attracting", "washout_attracting")]
    r_bar = split_threshold(reference_model, 1.4, 1.0, 0.35).r_bar
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 1.2 * r_bar)
    stable = [e for e in find_equilibria(cfg) if e.tag == "stable"]
    rng = random.Random(4)
    starts = [tuple(rng.uniform(0.05, 2.8) for _ in range(4))
              for _ in range(10)]
    settings = IntegratorSettings(t_end=200.0)
    for system, grid, candidates in ((params, BISTABLE_GRID, single),
                                     (cfg, starts, stable)):
        labels = basin_probe(system, grid, settings, candidates)
        assert None not in labels
        assert labels == [
            detect_convergence(integrate(system, x0, settings), candidates)
            for x0 in grid]


def test_basin_probe_includes_eps_validation(reference_model, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before eps was checked")

    monkeypatch.setattr(simulate, "integrate", never)
    params = SingleParams(reference_model, 1.4, 1.0)
    traj = Trajectory((0.0, 1.0), ((1.4, 0.0), (1.4, 0.0)), 1, 0)
    for eps in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            basin_probe(params, [(1.0, 1.0)], candidates=[(1.4, 0.0)],
                        eps=eps)
        with pytest.raises(ValueError, match="eps"):
            detect_convergence(traj, [(1.4, 0.0)], eps=eps)


def test_basin_probe_integrates_through_the_module_attribute(
        reference_model, monkeypatch):
    # the benchmark's traced run wraps simulate.integrate to count steps
    # and divides by its calls: one per start, each of at least one
    # accepted step, even where the feed invades and every start is
    # certified from the outset
    invaded = SingleParams(reference_model, 1.4, 0.5)
    for params in (SingleParams(reference_model, 1.4, 1.0), invaded):
        candidates = [e for e in classify_portrait(params).equilibria
                      if e.tag in ("positive_attracting",
                                   "washout_attracting")]
        expected = basin_probe(params, BISTABLE_GRID, candidates=candidates)
        calls = []
        original = simulate.integrate

        def counting(*args, **kwargs):
            traj = original(*args, **kwargs)
            calls.append((args[1], traj.accepted_steps))
            return traj

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "integrate", counting)
            assert basin_probe(params, BISTABLE_GRID,
                               candidates=candidates) == expected
        assert [start for start, _ in calls] == BISTABLE_GRID
        assert all(steps >= 1 for _, steps in calls)
    assert expected == [0] * len(BISTABLE_GRID)
    assert all(steps == 1 for _, steps in calls)


RECORDED_INTEGRATE_DIGESTS = {
    "buffered_reference_start":
        "bf4d5c43378e925db1b8eefb3b48e77b63b26f0b5766aaa4f1c9571ab9f1026c",
    "buffered_low_start":
        "a09264a01b61c289a10c3d8ccbaacc2447a554bf4daa05c80ab7314f895b7a60",
    "single_haldane":
        "9d8e41120fe302394863c00ac27be0b50e30b13dbfa557ec0c54efa3c8f70765",
    "monod_max_step":
        "e386bb5aef05cd84c32dd8428424b4072891628c6ac2e35318b17b358896da62",
    "monod_stopped":
        "41513954a836f9e9b81c3494e24d2ac0ed930a35fff5b0fc6b2699cf608ef7c2",
    "andrews_custom":
        "a83eeb47550141747ff524c02754329e34d190e353555229ac87eaafedc710cd",
    "haldane_loose_tolerances":
        "fdea72352289a9cd82a46ee4f241898b4b5ce53f2df0076f9c965cb43f56d6da",
    "buffered_monod":
        "c288f2fefb9d12b5805e939a1da6992ee84a6bfa43a8a38f51adf6fa63f1f494",
    "buffered_haldane_callables":
        "a2888bd52c14eb67a6f427be051bc553cac96538b1c890ba5d3770eda02abd9e",
}


def _andrews(mu_bar, K, K_I):
    def mu(s):
        return mu_bar * s / (K + s) * math.exp(-s / K_I)

    def mu_prime(s):
        return mu_bar * math.exp(-s / K_I) * (
            K / (K + s) ** 2 - s / ((K + s) * K_I))

    return CustomUnimodal(mu, mu_prime,
                          0.5 * (-K + math.sqrt(K * K + 4.0 * K * K_I)))


def _haldane_callables(mu_bar, K, K_I):
    """Haldane's law with Haldane._rate_raw's operand order, as callables."""
    def mu(s):
        return mu_bar * s / (K + s + s * s / K_I)

    def mu_prime(s):
        den = K + s + s * s / K_I
        return mu_bar * (K - s * s / K_I) / (den * den)

    return CustomUnimodal(mu, mu_prime, math.sqrt(K * K_I))


def _monod_callables(mu_max, K_s):
    """Monod's law with Monod._rate_raw's operand order, as callables."""
    return CustomUnimodal(lambda s: mu_max * s / (K_s + s),
                          lambda s: mu_max * K_s / (K_s + s) ** 2, math.inf)


def test_integrate_matches_recorded_digests(reference_model):
    """Every run keeps its recorded times, states and step counts.

    Each digest is the sha256 of repr((times, states, accepted, rejected)).
    The runs cover both state sizes, the default horizon, max_step, a
    stop_condition, every pairing of state size with a Haldane, Monod or
    callable rate law, rejected steps in every run and rejections by the
    negative-state floor (the loose-tolerance run).
    The digests assume IEEE doubles and the libm of the host they were
    recorded on (x86-64 Linux, glibc 2.36); exp, log and pow may round
    differently elsewhere.  A deliberate change of output updates them,
    with a CHANGES.md line naming the change.
    """
    buffered = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.48)
    monod = SingleParams(Monod(2.0, 1.0), 3.0, 0.5)
    loose = IntegratorSettings(rel_tol=7.1e-3, abs_tol=7.1e-3, t_end=20.0)
    runs = {
        "buffered_reference_start": (
            buffered, (1.4, 0.1, 1.4, 0.01), IntegratorSettings(t_end=200.0),
            None),
        "buffered_low_start": (
            buffered, (0.05, 2.0, 0.3, 1e-6), IntegratorSettings(t_end=60.0),
            None),
        "single_haldane": (
            SingleParams(reference_model, 1.4, 1.0), (1.0, 0.1), None, None),
        "monod_max_step": (
            monod, (3.0, 0.5), IntegratorSettings(t_end=5.0, max_step=0.25),
            None),
        "monod_stopped": (
            monod, (3.0, 0.5), IntegratorSettings(t_end=100.0),
            lambda t, y: t >= 2.0),
        "andrews_custom": (
            SingleParams(_andrews(6.0, 0.5, 2.0), 3.0, 0.8), (0.2, 0.05),
            IntegratorSettings(t_end=40.0), None),
        "haldane_loose_tolerances": (
            SingleParams(Haldane(9.92, 0.176, 1.51), 1.6, 0.375),
            (0.0738, 1.397), loose, None),
        "buffered_monod": (
            BufferedConfig(Monod(2.0, 1.0), 3.0, 0.8, 0.6, 0.4),
            (0.2, 1.5, 2.5, 0.01), IntegratorSettings(t_end=80.0), None),
        "buffered_haldane_callables": (
            BufferedConfig(_haldane_callables(12.0, 1.0, 0.08), 1.4, 1.0,
                           0.35, 0.6),
            (0.6, 0.4, 0.9, 0.3), IntegratorSettings(t_end=120.0), None),
    }
    digests = {}
    for name, (system, x0, settings, stop) in runs.items():
        traj = integrate(system, x0, settings, stop)
        key = (traj.times, traj.states, traj.accepted_steps,
               traj.rejected_steps)
        digests[name] = hashlib.sha256(repr(key).encode()).hexdigest()
    assert digests == RECORDED_INTEGRATE_DIGESTS


class _DoubledHaldane(Haldane):
    """Haldane's parameters with twice its rate: _rate_raw is overridden."""

    def _rate_raw(self, s):
        return 2.0 * (self.mu_bar * s / (self.K + s + s * s / self.K_I))


ROUTE_RUNS = [
    (lambda law: SingleParams(law, 1.4, 1.0), (1.0, 0.1),
     IntegratorSettings(t_end=60.0)),
    (lambda law: BufferedConfig(law, 1.4, 1.0, 0.35, 0.6),
     (0.6, 0.4, 0.9, 0.3), IntegratorSettings(t_end=60.0)),
]


@pytest.mark.parametrize("system, x0, settings", ROUTE_RUNS,
                         ids=["single", "buffered"])
def test_written_out_laws_match_their_callables(system, x0, settings):
    """The closed-form routes give the callable route's trajectory, bit
    for bit; a subclass that overrides _rate_raw runs its own law."""
    pairs = [
        (Haldane(12.0, 1.0, 0.08), _haldane_callables(12.0, 1.0, 0.08)),
        (Monod(2.0, 0.3), _monod_callables(2.0, 0.3)),
        (_DoubledHaldane(6.0, 1.0, 0.08),
         CustomUnimodal(lambda s: 2.0 * (6.0 * s / (1.0 + s + s * s / 0.08)),
                        lambda s: 12.0 * (1.0 - s * s / 0.08)
                        / (1.0 + s + s * s / 0.08) ** 2, math.sqrt(0.08))),
    ]
    for law, callables in pairs:
        written = integrate(system(law), x0, settings)
        called = integrate(system(callables), x0, settings)
        assert repr(written) == repr(called)
    doubled = integrate(system(pairs[2][0]), x0, settings)
    plain = integrate(system(Haldane(6.0, 1.0, 0.08)), x0, settings)
    assert doubled.final != plain.final


@pytest.mark.parametrize("system, x0, settings", ROUTE_RUNS,
                         ids=["single", "buffered"])
def test_written_out_laws_bypass_rate_raw(system, x0, settings,
                                          monkeypatch):
    """Haldane and Monod run on the law written into the step; every
    other law calls its rate once per substrate at every stage."""
    haldane, monod = Haldane(12.0, 1.0, 0.08), Monod(2.0, 0.3)
    wrapped = _haldane_callables(12.0, 1.0, 0.08)
    calls = []

    def counting(s):
        calls.append(s)
        return wrapped.rate_fn(s)

    custom = CustomUnimodal(counting, wrapped.rate_prime_fn,
                            wrapped.peak_abscissa)
    calls.clear()  # the constructor's shape check

    def refuse(self, s):
        raise AssertionError("the written-out law called _rate_raw")

    monkeypatch.setattr(Haldane, "_rate_raw", refuse)
    monkeypatch.setattr(Monod, "_rate_raw", refuse)
    for law in (haldane, monod):
        assert integrate(system(law), x0, settings).accepted_steps > 0
    traj = integrate(system(custom), x0, settings)
    # two right-hand sides size the first step; each attempt has six more
    rates = len(x0) // 2
    steps = traj.accepted_steps + traj.rejected_steps
    assert len(calls) == rates * (2 + 6 * steps)


# ---------------------------------------------------------------------------
# certified capture

@functools.cache
def _capture_cases(unit: float = 1.0) -> tuple:
    """(system, candidates, captures) of the basin maps, with substrate
    in units 1 / unit of the README's: the single vessel's two
    attractors, the reference law's buffered chemostat at alpha 0.25,
    0.35 and 0.45 below and above r_bar, and a buffered Monod
    chemostat."""
    model = Haldane(12.0, 1.0 * unit, 0.08 * unit)
    S_in = 1.4 * unit
    params = SingleParams(model, S_in, 1.0)
    systems = [(params, [e for e in classify_portrait(params).equilibria
                         if e.tag in ("positive_attracting",
                                      "washout_attracting")])]
    for alpha in (0.25, 0.35, 0.45):
        r_bar = split_threshold(model, S_in, 1.0, alpha).r_bar
        for r in (0.9 * r_bar, 1.2 * r_bar):
            systems.append(BufferedConfig(model, S_in, 1.0, alpha, r))
    systems.append(BufferedConfig(Monod(2.0, 0.3 * unit), S_in, 1.0, 0.35,
                                  0.6))
    cases = []
    for system in systems:
        if isinstance(system, tuple):
            system, candidates = system
        else:
            candidates = [e for e in find_equilibria(system)
                          if e.branch == BRANCH_POSITIVE and e.tag == "stable"]
        cases.append((system, candidates,
                      simulate._captures(system, candidates, 1e-6 * unit)))
    return tuple(cases)


def _certified(unit: float = 1.0):
    """(system, candidates, index, capture) of every certified candidate."""
    for system, candidates, captures in _capture_cases(unit):
        for j, capture in enumerate(captures):
            if capture is not None:
                yield system, candidates, j, capture


# the README's substrate unit, and one a thousand times smaller, where a
# floor absolute in the unit would misplace the contraction's peak
UNITS = (1.0, 1e-3)


def _single_sinks(params) -> list:
    return [e for e in classify_portrait(params).equilibria
            if e.tag in ("positive_attracting", "washout_attracting")]


@functools.cache
def _callable_cases(unit: float = 1.0) -> tuple:
    """(system, candidates, captures) of bistable single vessels of
    CustomUnimodal laws, with substrate in units 1 / unit of the
    README's: the README law as callables, and an Andrews law."""
    cases = []
    for model, D in ((_haldane_callables(12.0, 1.0 * unit, 0.08 * unit), 1.0),
                     (_andrews(12.0, 1.0 * unit, 0.3 * unit), 0.8)):
        params = SingleParams(model, 1.4 * unit, D)
        candidates = _single_sinks(params)
        cases.append((params, candidates,
                      simulate._captures(params, candidates, 1e-6 * unit)))
    return tuple(cases)


def _callable_certified(unit: float = 1.0):
    """(system, candidates, index, capture) of each sink of
    _callable_cases, every one of which is certified."""
    for system, candidates, captures in _callable_cases(unit):
        assert len(candidates) == 2 and None not in captures, system
        for j, capture in enumerate(captures):
            yield system, candidates, j, capture


def _sharp(M: float, p: float, n: int):
    """A CustomUnimodal law with a peak of height M at p: M (s / p)^n below
    it and M (p / s)^n above."""
    def mu(s):
        return M * (s / p) ** n if s <= p else M * (p / s) ** n

    def mu_prime(s):
        return n / s * mu(s) * (1.0 if s <= p else -1.0)

    return CustomUnimodal(mu, mu_prime, p)


@functools.cache
def _callable_buffered_cases(unit: float = 1.0) -> tuple:
    """(system, candidates, captures) of buffered chemostats at alpha
    0.35, r 0.65 with two stable rest points, substrate in units 1 / unit
    of the README's: the README's law as callables, and a law whose sharp
    peak at 0.5 hides the lower stable level and the saddle (at 0.467 and
    0.535) from the values of mu at the ends of any stretch across it."""
    cases = []
    for law in (_haldane_callables(12.0, 1.0 * unit, 0.08 * unit),
                _sharp(20.0, 0.5 * unit, 40)):
        cfg = BufferedConfig(law, 1.4 * unit, 1.0, 0.35, 0.65)
        candidates = [e for e in find_equilibria(cfg)
                      if e.branch == BRANCH_POSITIVE and e.tag == "stable"]
        cases.append((cfg, candidates,
                      simulate._captures(cfg, candidates, 1e-6 * unit)))
    return tuple(cases)


def _callable_buffered_certified(unit: float = 1.0):
    """(system, candidates, index, capture) of each sink of
    _callable_buffered_cases, every one of which is certified."""
    for system, candidates, captures in _callable_buffered_cases(unit):
        assert len(candidates) == 2 and None not in captures, system
        for j, capture in enumerate(captures):
            yield system, candidates, j, capture


def _all_certified(unit: float = 1.0):
    return itertools.chain(_certified(unit), _callable_certified(unit),
                           _callable_buffered_certified(unit))


@functools.cache
def _invaded_cases(unit: float = 1.0) -> tuple:
    """(system, candidates, captures) of single vessels the feed invades,
    mu(S_in) >= 1.5 D, with substrate in units 1 / unit: seeded draws of
    a Haldane, a Monod, an Andrews and a callable Haldane law, each with
    its positive rest point and its washout, a saddle."""
    rng = random.Random(38)
    laws = (Haldane, lambda a, K, K_I: Monod(a, K), _andrews,
            _haldane_callables)
    cases = []
    for make in laws:
        while True:
            law = make(rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5) * unit,
                       rng.uniform(0.05, 4.0) * unit)
            S_in, D = rng.uniform(0.3, 4.0) * unit, rng.uniform(0.1, 2.0)
            if law.rate(S_in) >= 1.5 * D:
                break
        params = SingleParams(law, S_in, D)
        candidates = list(classify_portrait(params).equilibria)
        assert [e.tag for e in candidates] == ["positive_attracting",
                                               "washout_saddle"]
        cases.append((params, candidates,
                      simulate._captures(params, candidates, 1e-6 * unit)))
    return tuple(cases)


def _invaded_certified(unit: float = 1.0):
    """(system, candidates, 0, capture) of each case of _invaded_cases,
    whose positive rest point captures the quadrant and whose washout
    gets no region."""
    for system, candidates, captures in _invaded_cases(unit):
        assert captures == [(simulate._QUADRANT,), None], system
        yield system, candidates, 0, captures[0]


def _vessels(system) -> tuple:
    """(substrate index, biomass index) of each vessel, main one first."""
    return ((0, 1),) if isinstance(system, SingleParams) else ((0, 1), (2, 3))


def _substrate_rate(system, y, s: int) -> float:
    """s' of the vessel whose substrate is y[s], from the model equations."""
    mu, S_in = system.model.rate, system.S_in
    if isinstance(system, SingleParams):
        return -mu(y[0]) * y[1] + system.D * (S_in - y[0])
    if s == 2:
        return -mu(y[2]) * y[3] + system.alpha * system.D * (S_in - y[2])
    cross = system.alpha * (1.0 - system.r)
    return -mu(y[0]) * y[1] + system.D / system.r * (
        cross * (y[2] - y[0]) + (1.0 - cross) * (S_in - y[0]))


def _mass_rate(system, y, v: int) -> float:
    """z' of vessel v, z = s + x - S_in, from the model equations."""
    S_in = system.S_in
    if isinstance(system, SingleParams):
        return system.D * (S_in - y[0] - y[1])
    if v == 1:
        return system.alpha * system.D * (S_in - y[2] - y[3])
    cross = system.alpha * (1.0 - system.r)
    return system.D / system.r * (cross * (y[2] + y[3])
                                  + (1.0 - cross) * S_in - y[0] - y[1])


def _region_state(system, capture, pick) -> list:
    """A state of the capture region: vessel v's substrate pick(a, b') and
    mass excess pick(max(z_lo, s - S_in + least), z_hi'), where an open z
    end is cut at z_hi' = 2 S_in, b' keeps x = S_in + z - s >= least
    reachable, and the least z is the one with x = least: 0 under a box,
    whose floor is -inf, and 1e-8 S_in above a finite floor, which the
    region leaves open."""
    y = [0.0] * 2 * len(capture)
    for (s, x), (a, b, z_lo, z_hi, floor) in zip(_vessels(system), capture):
        least = 0.0 if math.isinf(floor) else floor + 1e-8 * system.S_in
        z_hi = min(z_hi, 2.0 * system.S_in)
        y[s] = pick(a, min(b, system.S_in + z_hi - least))
        y[x] = max(system.S_in + pick(max(z_lo, y[s] - system.S_in + least),
                                      z_hi) - y[s], least)
    return y


def _anywhere(rng: random.Random):
    """A pick of an end or of a uniform point of a range, so that samples
    cover the region's corners, faces and interior."""
    return lambda lo, hi: rng.choice((lo, hi, rng.uniform(lo, hi)))


def test_capture_rejects_a_saddle_after_two_rate_evaluations(monkeypatch):
    params = SingleParams(Haldane(12.0, 1.0, 0.08), 1.4, 1.0)
    saddle = next(e for e in classify_portrait(params).equilibria
                  if e.tag == "positive_saddle")
    calls = []
    for name in ("_rate_raw", "_rate_prime_raw"):
        def counting(self, s, original=getattr(Haldane, name), name=name):
            calls.append(name)
            return original(self, s)
        monkeypatch.setattr(Haldane, name, counting)
    assert simulate._captures(params, [saddle], 1e-6) == [None]
    # mu at the ends of the bracket about the saddle: k - mu does not
    # fall through 0 across it
    assert calls == ["_rate_raw", "_rate_raw"]


def test_every_basin_sink_is_certified():
    for unit in UNITS:
        for system, candidates, captures in _capture_cases(unit):
            assert all(c is not None for c in captures), system
        assert len(list(_certified(unit))) == 12


def _refuses_off_rest_level(certified) -> None:
    # 3e-7 along s + x = S_in: the mass balance holds, but the zero of s'
    # lies farther than eps/4 from the candidate
    for system, candidates, j, capture in certified:
        y = list(candidates[j].state)
        y[0] -= 3e-7
        y[1] += 3e-7
        assert simulate._captures(system, [y], 1e-6) == [None], system
        # a looser eps certifies it
        assert simulate._captures(system, [y], 1e-4) != [None], system


def test_capture_refuses_a_candidate_off_its_rest_level():
    _refuses_off_rest_level(itertools.chain(_certified(),
                                            _invaded_certified()))


def test_capture_refuses_a_callable_candidate_off_its_rest_level():
    _refuses_off_rest_level(itertools.chain(_callable_certified(),
                                            _callable_buffered_certified()))


def test_capture_box_faces_point_inward():
    # every finite face: s = a > 0 and s = b, where s' points inward, each
    # finite z end, where z' does (up to the rounding allowance the
    # stored ends take off), and a finite biomass floor, which x' = (mu -
    # k) x leaves; open sides are sampled up to 2 S_in
    rng = random.Random(12)
    pick = _anywhere(rng)
    for system, candidates, j, capture in itertools.chain.from_iterable(
            itertools.chain(_all_certified(unit), _invaded_certified(unit))
            for unit in UNITS):
        S_in = system.S_in
        for v, (s, x) in enumerate(_vessels(system)):
            a, b, z_lo, z_hi, floor = capture[v]
            assert a <= candidates[j].state[s] <= b and z_lo < 0.0 < z_hi
            assert candidates[j].state[x] > floor
            faces = [(s, a, 1.0)] if a > 0.0 else []
            faces += [(s, b, -1.0)] if math.isfinite(b) else []
            faces += [(x, z, sign) for z, sign in ((z_lo, 1.0), (z_hi, -1.0))
                      if math.isfinite(z)]
            faces += [(None, floor, 1.0)] if math.isfinite(floor) else []
            for at, end, sign in faces:
                for _ in range(300):
                    y = _region_state(system, capture, pick)
                    if at is None:
                        # the biomass on its floor stays there
                        y[x] = end
                        assert _mass_rate(system, y, v) == _substrate_rate(
                            system, y, s), (system, j, v, y)
                    elif at == s:
                        # the same mass excess, on the face
                        y[x] += y[s] - end
                        y[s] = end
                        if y[x] < 0.0:
                            continue  # no state of the orthant there
                        assert sign * _substrate_rate(system, y, s) > 0.0, (
                            system, j, v, y)
                    else:
                        y[x] = S_in + end - y[s]
                        if y[x] < 0.0:
                            continue
                        assert sign * _mass_rate(system, y, v) >= (
                            -1e-12 * S_in * system.D), (system, j, v, y)


def test_capture_limit_flow_has_the_certified_sign():
    # at z = 0, with the buffer at rest, s' of each certified vessel is > 0
    # on [a, s* - eps/4] and < 0 on [s* + eps/4, b]: ends, a dense grid
    # and points closing in on each end of the bracket; an open b is cut
    # at the last float below S_in, where z = 0 still leaves x > 0
    for unit in UNITS:
        quarter = 0.25e-6 * unit
        for system, candidates, j, capture in itertools.chain(
                _all_certified(unit), _invaded_certified(unit)):
            ref = candidates[j].state
            S_in = system.S_in
            for v, (s, x) in enumerate(_vessels(system)):
                a, b = capture[v][:2]
                if math.isinf(b):
                    b = math.nextafter(S_in, 0.0)
                for lo, hi, sign in ((a, ref[s] - quarter, 1.0),
                                     (ref[s] + quarter, b, -1.0)):
                    if not lo < hi:
                        continue
                    near = hi if sign > 0.0 else lo
                    points = [lo + (hi - lo) * i / 2000 for i in range(2001)]
                    points += [near - sign * (hi - lo) * 2.0 ** -k
                               for k in range(1, 50)]
                    for p in points:
                        y = list(ref)
                        for si, xi in _vessels(system):
                            y[xi] = S_in - y[si]
                        y[s], y[x] = p, S_in - p
                        assert sign * _substrate_rate(system, y, s) > 0.0, (
                            system, j, v, p)


def test_states_on_the_capture_boundary_settle_on_their_candidate():
    rng = random.Random(14)
    for system, candidates, j, capture in itertools.chain(
            _certified(), _callable_buffered_certified(),
            *map(_callable_certified, UNITS),
            *map(_invaded_certified, UNITS)):
        ref = candidates[j].state
        settings = IntegratorSettings(t_end=200.0 / system.D)
        # the region has one range per state component, open ones cut at
        # 2 S_in and 1e-8 S_in above a floor: every corner, then random
        # points of its faces
        starts = []
        for corner in itertools.product((0, 1), repeat=len(ref)):
            ends = iter(corner)
            starts.append(_region_state(system, capture,
                                        lambda lo, hi: (lo, hi)[next(ends)]))
        for _ in range(4):
            face, ranges = rng.randrange(len(ref)), itertools.count()
            starts.append(_region_state(system, capture, lambda lo, hi: (
                rng.choice((lo, hi)) if next(ranges) == face
                else rng.uniform(lo, hi))))
        for y in starts:
            traj = integrate(system, y, settings)
            # eps of 1e-6 in the README's unit
            eps = 1e-6 * system.S_in / 1.4
            assert detect_convergence(traj, candidates, eps) == j, (
                system, j, y)


def test_capture_stops_runs_earlier_with_the_same_labels(monkeypatch):
    model = Haldane(12.0, 1.0, 0.08)
    cfg = BufferedConfig(model, 1.4, 1.0, 0.35, 0.65)
    candidates = [e for e in find_equilibria(cfg) if e.tag == "stable"]
    rng = random.Random(14)
    starts = [tuple(rng.uniform(0.05, 2.8) for _ in range(4))
              for _ in range(20)]
    settings = IntegratorSettings(t_end=200.0)
    steps = []
    original = simulate.integrate

    def counting(*args, **kwargs):
        traj = original(*args, **kwargs)
        steps.append(traj.accepted_steps)
        return traj

    monkeypatch.setattr(simulate, "integrate", counting)
    certified = basin_probe(cfg, starts, settings, candidates)
    captured = sum(steps)
    del steps[:]
    assert certified == _dwell_only(monkeypatch, cfg, starts, settings,
                                    candidates)
    # the regions stop these runs at 0.28 of the dwell rule's steps
    assert captured < 0.3 * sum(steps)


def _dwell_only(monkeypatch, *args) -> list:
    """basin_probe's labels with no capture set: the dwell rule alone."""
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_captures",
                      lambda system, candidates, eps: [None] * len(candidates))
        return basin_probe(*args)


def _without_captures(monkeypatch, system, grid, candidates, uncertified):
    """basin_probe's labels at eps 1e-6, after checking that the
    candidates at the indices uncertified got no capture set, so the rule
    never tests one."""
    seen = []
    original = simulate._captures

    def spy(*args):
        seen.append(original(*args))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_captures", spy)
        labels = basin_probe(system, grid, None, candidates, 1e-6)
    assert len(seen) == 1
    assert all(seen[0][j] is None for j in uncertified)
    assert labels == _dwell_only(monkeypatch, system, grid, None, candidates,
                                 1e-6)
    return labels


class _HaldaneKin(Haldane):
    """A subclass, which may override the law: never certified."""


def test_callable_single_vessel_laws_are_certified(monkeypatch):
    # the README law as callables and an Andrews law: the single vessel is
    # driven by the feed alone, so values of mu certify both sinks
    for system, candidates, captures in _callable_cases():
        labels = basin_probe(system, BISTABLE_GRID, None, candidates)
        assert None not in captures
        assert set(labels) == {0, 1}
        assert labels == _dwell_only(monkeypatch, system, BISTABLE_GRID,
                                     None, candidates)


def test_subclasses_are_never_certified(monkeypatch):
    def refuse(*args):
        raise AssertionError("a capture region was built")

    params = SingleParams(_HaldaneKin(12.0, 1.0, 0.08), 1.4, 1.0)
    # a vessel the feed invades: its one sink gets no quadrant either
    invaded = SingleParams(_HaldaneKin(12.0, 1.0, 0.08), 1.4, 0.5)
    cfg = BufferedConfig(_HaldaneKin(12.0, 1.0, 0.08), 1.4, 1.0, 0.35, 0.65)
    buffered = [e for e in find_equilibria(cfg) if e.tag == "stable"]
    for system, grid, candidates, sinks in (
            (params, BISTABLE_GRID, _single_sinks(params), {0, 1}),
            (invaded, BISTABLE_GRID, _single_sinks(invaded), {0}),
            (cfg, [(1.0, 0.2, 1.0, 0.2), (0.2, 1.2, 0.03, 1.37)],
             buffered, {0, 1})):
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_capture", refuse)
            labels = _without_captures(monkeypatch, system, grid,
                                       candidates, range(len(candidates)))
        assert set(labels) == sinks


# the accepted steps of the benchmark's six buffered basin maps of seed 1
# (below) when the main vessel's box took Haldane's contraction bound and
# a law as callables got none
CONTRACTION_BOX_STEPS = 95053
# and since the main vessel's region came from values of mu, for the exact
# law and for the law as callables alike
BENCHMARK_MAP_STEPS = 38632


@functools.cache
def _benchmark_maps(callable_law: bool) -> tuple:
    """(maps, labels, accepted steps) of the six buffered maps of the
    basin benchmark on seed 1, each map a (system, starts, candidates):
    the reference law (as callables, or not) at alpha 0.25, 0.35 and 0.45
    and r 0.9 and 1.2 r_bar, 100 starts each, drawn as
    perfbench/worker.py draws them."""
    rng = random.Random("basin:1")
    starts = [[tuple(rng.uniform(0.05, 2.8) for _ in range(4))
               for _ in range(100)] for _ in range(6)]
    law = (_haldane_callables if callable_law else Haldane)(12.0, 1.0, 0.08)
    maps = []
    for alpha in (0.25, 0.35, 0.45):
        r_bar = split_threshold(Haldane(12.0, 1.0, 0.08), 1.4, 1.0,
                                alpha).r_bar
        for r in (0.9 * r_bar, 1.2 * r_bar):
            cfg = BufferedConfig(law, 1.4, 1.0, alpha, r)
            maps.append((cfg, starts[len(maps)], [
                e for e in find_equilibria(cfg)
                if e.branch == BRANCH_POSITIVE and e.tag == "stable"]))
    steps = []
    original = simulate.integrate

    def counting(*args, **kwargs):
        traj = original(*args, **kwargs)
        steps.append(traj.accepted_steps)
        return traj

    settings = IntegratorSettings(t_end=200.0)
    simulate.integrate = counting
    try:
        labels = [basin_probe(cfg, grid, settings, candidates, 1e-6)
                  for cfg, grid, candidates in maps]
    finally:
        simulate.integrate = original
    return maps, labels, sum(steps)


def test_capture_regions_halve_the_steps_of_the_benchmark_maps():
    maps, labels, steps = _benchmark_maps(False)
    assert all(None not in simulate._captures(cfg, candidates, 1e-6)
               for cfg, _, candidates in maps)
    assert all(None not in row for row in labels)
    assert steps <= 0.5 * CONTRACTION_BOX_STEPS
    assert steps == BENCHMARK_MAP_STEPS


def test_callable_buffered_maps_are_certified(monkeypatch):
    # the README law as callables: the same labels as the exact law and as
    # the dwell rule alone, and the same steps
    maps, labels, steps = _benchmark_maps(True)
    exact_labels, exact_steps = _benchmark_maps(False)[1:]
    assert all(None not in simulate._captures(cfg, candidates, 1e-6)
               for cfg, _, candidates in maps)
    assert labels == exact_labels
    assert steps <= 1.2 * exact_steps
    assert steps == BENCHMARK_MAP_STEPS
    settings = IntegratorSettings(t_end=200.0)
    assert labels == [_dwell_only(monkeypatch, cfg, grid, settings,
                                  candidates, 1e-6)
                      for cfg, grid, candidates in maps]


def test_capture_box_of_a_sink_near_the_peak_stays_on_its_side():
    # the sink of the README law as callables at D = 0.99 mu(peak) lies
    # 0.085 below the declared peak 0.283, within the ladder's step of
    # 0.175: the region stops short of the peak, where mu turns
    law = _haldane_callables(12.0, 1.0, 0.08)
    peak = law.peak().abscissa
    params = SingleParams(law, 1.4, 0.99 * law.rate(peak))
    sink = next(e for e in classify_portrait(params).equilibria
                if e.tag == "positive_attracting")
    assert peak - 0.175 < sink.S < peak
    capture, = simulate._captures(params, [sink], 1e-6)
    assert capture is not None
    assert capture[0][1] <= peak
    # with the peak moved out of the way, the ladder takes a region across
    # it
    wide, = simulate._capture(2, (1.4, params.D), law, math.inf, 1e-6)(
        sink.state),
    assert wide is not None and wide[0][1] > peak


def test_a_law_that_rounds_to_zero_past_its_peak_gets_no_box(monkeypatch):
    # mu(10) = 12 * 10 / 11 * exp(-1000) rounds to 0: the washout's faces
    # cannot be sized, and the dwell rule labels the runs
    law = _andrews(12.0, 1.0, 0.01)
    params = SingleParams(law, 10.0, 1.0)
    assert law.rate(10.0) == 0.0
    washout = classify_portrait(params).equilibria
    labels = _without_captures(monkeypatch, params, [(1.0, 0.5), (9.0, 0.01)],
                               washout, (0,))
    assert labels == [0, 0]


def _invasion_probes(seed: int, count: int) -> list:
    """(system, start, targets, settings) of count invasion probes drawn
    as the benchmark's generic workload draws them: a buffer alone at
    dilution alpha D <= 0.6 mu(S_in), of an Andrews law or the Haldane
    law as callables, from (U(0, S_in), 10^U(-8, -2)) towards its positive
    rest point or its washout."""
    rng = random.Random(seed)
    probes = []
    while len(probes) < count:
        params = (rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5),
                  rng.uniform(0.05, 4.0))
        S_in, D, alpha = (rng.uniform(0.3, 4.0), rng.uniform(0.1, 2.0),
                          rng.uniform(0.05, 1.0))
        law = (_andrews, _haldane_callables)[len(probes) % 2](*params)
        a_d = alpha * D
        if not (law.peak().abscissa < 0.95 * S_in
                and 0.5 <= a_d <= 0.6 * law.rate(S_in)):
            continue
        s_buf = law.break_even(a_d).lower
        probes.append((SingleParams(law, S_in, a_d),
                       (rng.uniform(0.0, S_in), 10.0 ** rng.uniform(-8, -2)),
                       [(s_buf, S_in - s_buf), (S_in, 0.0)],
                       IntegratorSettings(t_end=200.0 / a_d)))
    return probes


def test_invasion_probes_of_callable_laws_stop_in_their_boxes(monkeypatch):
    steps = []
    original = simulate.integrate

    def counting(*args, **kwargs):
        traj = original(*args, **kwargs)
        steps.append(traj.accepted_steps)
        return traj

    monkeypatch.setattr(simulate, "integrate", counting)
    probes = _invasion_probes(101, 512)
    certified = [basin_probe(system, [start], settings, targets, 1e-6)[0]
                 for system, start, targets, settings in probes]
    captured = sum(steps)
    del steps[:]
    dwell = [_dwell_only(monkeypatch, system, [start], settings, targets,
                         1e-6)[0]
             for system, start, targets, settings in probes]
    assert certified == dwell and None not in certified
    # the feed invades each buffer, so the quadrant stops every run after
    # one step (boxes stopped them at about 0.38 of the dwell rule's)
    assert captured == len(probes) and sum(steps) > 50 * len(probes)


def test_invaded_vessels_capture_every_start_with_biomass():
    # starts with x down to 1e-8 S_in and s up to 2 S_in, past the feed:
    # each is labelled the positive rest point, as the dwell rule labels
    # its full run to t_end
    rng = random.Random(41)
    for unit in UNITS:
        eps = 1e-6 * unit
        for system, candidates, j, _ in _invaded_certified(unit):
            S_in = system.S_in
            starts = [(0.0, 1e-8 * S_in), (2.0 * S_in, 1e-8 * S_in)] + [
                (rng.uniform(0.0, 2.0 * S_in),
                 S_in * 10.0 ** rng.uniform(-8.0, 0.0)) for _ in range(8)]
            settings = IntegratorSettings(t_end=200.0 / system.D)
            labels = basin_probe(system, starts, settings, candidates, eps)
            assert labels == [j] * len(starts), system
            assert labels == [
                detect_convergence(integrate(system, y, settings),
                                   candidates, eps)
                for y in starts], system


def test_the_quadrant_needs_biomass_and_an_invaded_vessel():
    # a start with no biomass stays on the s-axis and washes out
    for system, candidates, _, _ in _invaded_certified():
        starts = [(f * system.S_in, 0.0) for f in (0.0, 0.5, 1.0, 2.0)]
        settings = IntegratorSettings(t_end=200.0 / system.D)
        assert basin_probe(system, starts, settings, candidates) == [1] * 4
    # the README's bistable single vessel keeps a box about each sink
    system, candidates, captures = _capture_cases()[0]
    assert len(captures) == 2
    for capture in captures:
        a, b, z_lo, z_hi, floor = capture[0]
        assert math.isfinite(b) and floor == -math.inf


def _counted(law, calls: list):
    """law, a CustomUnimodal, with each substrate its rate is taken at
    appended to calls."""
    def mu(s):
        calls.append(s)
        return law.rate_fn(s)

    return CustomUnimodal(mu, law.rate_prime_fn, law.peak_abscissa)


def test_capture_certificates_keep_to_their_rate_law_budget():
    # a vessel driven by the feed alone makes as many calls as its box did
    # (sizing it by halving once cost the generic benchmark's one-start
    # invasion probes nearly half their speed), and one more, mu(S_in),
    # for whether the feed invades it; an invaded vessel's sink then
    # takes no box (397 calls for the 64 probes while it did); the
    # buffered README map's two regions are pinned too
    calls = []

    def count(system, candidates, eps) -> int:
        law = _counted(system.model, calls)
        if isinstance(system, SingleParams):
            system = SingleParams(law, system.S_in, system.D)
        else:
            system = BufferedConfig(law, system.S_in, system.D, system.alpha,
                                    system.r)
        calls.clear()
        simulate._captures(system, candidates, eps)
        return len(calls)

    assert sum(count(system, targets, 1e-6) for system, _, targets, _
               in _invasion_probes(101, 64)) == 256
    assert [count(system, candidates, 1e-6) for system, candidates, _
            in _callable_cases()] == [14, 15]
    # 365 calls while the buffer's bracket was bisected to the last ulp
    (cfg, candidates, _), _ = _callable_buffered_cases()
    assert count(cfg, candidates, 1e-6) == 287


def test_saddles_and_inexact_rest_points_are_never_certified(monkeypatch):
    params = SingleParams(Haldane(12.0, 1.0, 0.08), 1.4, 1.0)
    equilibria = classify_portrait(params).equilibria
    saddle = next(e for e in equilibria if e.tag == "positive_saddle")
    positive = next(e for e in equilibria if e.tag == "positive_attracting")
    washout = next(e for e in equilibria if e.tag == "washout_attracting")
    labels = _without_captures(monkeypatch, params, BISTABLE_GRID,
                               [saddle, positive, washout], (0,))
    assert 0 not in labels and set(labels) == {1, 2}
    # 3e-7 off the rest point: the dwell rule settles on it, but its
    # rest-point residual is far too large to certify it
    near = (positive.S, positive.X + 3e-7)
    labels = _without_captures(monkeypatch, params, BISTABLE_GRID,
                               [near, washout], (0,))
    assert set(labels) == {0, 1}


def test_basin_probe_memory_stays_flat_over_a_long_run():
    # a one-start probe of a buffer alone at alpha D = 0.016 with no
    # capture region (a Haldane subclass) takes some 67,000 steps; the
    # runs store no state, so it peaks within 1 MiB of a probe of some
    # 1000 steps (storing every state cost some 13 MiB here).  The peak is
    # the child's own VmHWM: its ru_maxrss would start from the test
    # process's, which exec keeps
    if not os.path.exists("/proc/self/status"):
        pytest.skip("peak resident memory is read from /proc/self/status")
    code = (
        "import re\n"
        "from bufchem import (Haldane, IntegratorSettings, SingleParams,\n"
        "                     basin_probe, simulate)\n"
        "class Kin(Haldane):\n"
        "    pass\n"
        "law = Kin(12.0, 0.2, 2.0)\n"
        "system = SingleParams(law, 4.0, 0.016)\n"
        "s = law.break_even(0.016).lower\n"
        "targets = [(s, 4.0 - s), (4.0, 0.0)]\n"
        "steps = []\n"
        "original = simulate.integrate\n"
        "def counting(*args, **kwargs):\n"
        "    traj = original(*args, **kwargs)\n"
        "    steps.append(traj.accepted_steps)\n"
        "    return traj\n"
        "simulate.integrate = counting\n"
        "def peak(t_end):\n"
        "    basin_probe(system, [(2.0, 1e-8)],\n"
        "                IntegratorSettings(t_end=t_end), targets, 1e-6)\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(re.search(r'VmHWM:\\s*(\\d+)', fh.read())[1])\n"
        "short = peak(25.0)\n"
        "grown = peak(200.0 / 0.016) - short\n"
        "print(*steps, grown)\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    short, long, grown = map(int, proc.stdout.split()[-3:])
    assert 500 <= short <= 2000 and long >= 50000
    assert grown < 1024  # KiB


def test_basin_probe_does_not_import_numpy():
    # with numpy blocked, any import of it fails; the numeric spectrum
    # of a buffered rest point of the README config runs without it
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from bufchem import (BufferedConfig, Haldane, SingleParams,\n"
        "                     basin_probe, classify_portrait,\n"
        "                     find_equilibria, jacobian,\n"
        "                     numeric_eigenvalues, simulate)\n"
        "model = Haldane(12.0, 1.0, 0.08)\n"
        "params = SingleParams(model, 1.4, 1.0)\n"
        "stable = [e for e in classify_portrait(params).equilibria\n"
        "          if e.tag.endswith('_attracting')]\n"
        "labels = basin_probe(params, [(1.0, 0.5), (0.2, 0.01)],\n"
        "                     candidates=stable)\n"
        "captures = simulate._captures(params, stable, 1e-6)\n"
        "cfg = BufferedConfig(model, 1.4, 1.0, 0.35, 0.48)\n"
        "rest = next(e for e in find_equilibria(cfg) if e.x1 > 0.0)\n"
        "jacobian(cfg, rest.state)\n"
        "spectrum = numeric_eigenvalues(cfg, rest.state)\n"
        "print(labels, None not in captures, spectrum.tag == rest.tag,\n"
        "      sys.modules['numpy'] is not None)\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["True", "True", "False"]

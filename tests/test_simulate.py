"""Adaptive integrator and convergence detection."""
import functools
import hashlib
import itertools
import math
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
    params = SingleParams(reference_model, 1.4, 1.0)
    candidates = [e for e in classify_portrait(params).equilibria
                  if e.tag in ("positive_attracting", "washout_attracting")]
    expected = basin_probe(params, BISTABLE_GRID, candidates=candidates)
    calls = []
    original = simulate.integrate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(simulate, "integrate", counting)
    assert basin_probe(params, BISTABLE_GRID,
                       candidates=candidates) == expected
    assert calls == BISTABLE_GRID


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
                        lambda s: 0.0, math.sqrt(0.08))),
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
def _capture_cases() -> tuple:
    """(system, candidates, captures) of the basin maps: the single
    vessel's two attractors, the reference law's buffered chemostat at
    alpha 0.25, 0.35 and 0.45 below and above r_bar, and a buffered
    Monod chemostat."""
    model = Haldane(12.0, 1.0, 0.08)
    params = SingleParams(model, 1.4, 1.0)
    systems = [(params, [e for e in classify_portrait(params).equilibria
                         if e.tag in ("positive_attracting",
                                      "washout_attracting")])]
    for alpha in (0.25, 0.35, 0.45):
        r_bar = split_threshold(model, 1.4, 1.0, alpha).r_bar
        for r in (0.9 * r_bar, 1.2 * r_bar):
            systems.append(BufferedConfig(model, 1.4, 1.0, alpha, r))
    systems.append(BufferedConfig(Monod(2.0, 0.3), 1.4, 1.0, 0.35, 0.6))
    cases = []
    for system in systems:
        if isinstance(system, tuple):
            system, candidates = system
        else:
            candidates = [e for e in find_equilibria(system)
                          if e.branch == BRANCH_POSITIVE and e.tag == "stable"]
        cases.append((system, candidates,
                      simulate._captures(system, candidates, 1e-6)))
    return tuple(cases)


def _certified():
    """(system, candidates, index, capture) of every certified candidate."""
    for system, candidates, captures in _capture_cases():
        for j, capture in enumerate(captures):
            if capture is not None:
                yield system, candidates, j, capture


def _jacobian(system, y):
    """J(y) from the model equations, apart from simulate's own."""
    mu, slope = system.model.rate, system.model.rate_prime
    if isinstance(system, SingleParams):
        s, x = y
        D = system.D
        return [[-slope(s) * x - D, -mu(s)], [slope(s) * x, mu(s) - D]]
    s1, x1, s2, x2 = y
    d_r, a_d = system.D / system.r, system.alpha * system.D
    cross = system.alpha * (1.0 - system.r)
    return [[-slope(s1) * x1 - d_r, -mu(s1), d_r * cross, 0.0],
            [slope(s1) * x1, mu(s1) - d_r, 0.0, d_r * cross],
            [0.0, 0.0, -slope(s2) * x2 - a_d, -mu(s2)],
            [0.0, 0.0, slope(s2) * x2, mu(s2) - a_d]]


def test_capture_rejects_a_saddle_after_one_bisection(monkeypatch):
    params = SingleParams(Haldane(12.0, 1.0, 0.08), 1.4, 1.0)
    saddle = next(e for e in classify_portrait(params).equilibria
                  if e.tag == "positive_saddle")
    calls = []
    original = simulate._least_eigenvalue

    def counting(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(simulate, "_least_eigenvalue", counting)
    n, constants = simulate._constants(params)
    assert simulate._capture(n, constants, params.model, saddle.state,
                             1e-6) is None
    assert len(calls) == 1


def test_every_basin_sink_is_certified():
    for system, candidates, captures in _capture_cases():
        assert all(c is not None for c in captures), system
    assert len(list(_certified())) == 12


def test_capture_solves_the_lyapunov_equation():
    np = pytest.importorskip("numpy")
    for system, candidates, j, capture in _certified():
        A = np.array(capture.jacobian)
        P = np.array(capture.gram)
        assert np.allclose(A, _jacobian(system, candidates[j].state),
                           rtol=1e-12, atol=1e-12)
        assert np.array_equal(P, P.T)
        assert np.linalg.norm(A.T @ P + P @ A + np.eye(len(A))) <= 1e-12
        eigenvalues = np.linalg.eigvalsh(P)
        # the level's set lies in the Euclidean ball of the radius
        assert capture.level <= eigenvalues[0] * capture.radius ** 2


def test_capture_lipschitz_bounds_a_dense_sample():
    np = pytest.importorskip("numpy")
    rng = random.Random(12)
    for system, candidates, j, capture in _certified():
        ref = candidates[j].state
        n, radius = len(ref), capture.radius
        A = np.array(_jacobian(system, ref))
        # the corners of the sup-ball, its axis points and random points,
        # in the orthant the states live in
        offsets = [c for c in itertools.product((-1.0, 1.0), repeat=n)]
        offsets += [tuple(float(i == k) * sign for k in range(n))
                    for i in range(n) for sign in (-1.0, 1.0)]
        offsets += [tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
                    for _ in range(400)]
        worst = 0.0
        for u in offsets:
            for scale in (1.0, 0.5, 0.1):
                y = [max(c + radius * scale * v, 0.0)
                     for c, v in zip(ref, u)]
                e = np.subtract(y, ref)
                if not e.any():
                    continue
                worst = max(worst, np.linalg.norm(
                    np.array(_jacobian(system, y)) - A, 2)
                    / np.linalg.norm(e))
        assert worst <= capture.lipschitz
        # and the bound is not vacuous
        assert worst >= 0.2 * capture.lipschitz


def test_states_on_the_capture_boundary_settle_on_their_candidate():
    rng = random.Random(13)
    settings = IntegratorSettings(t_end=200.0)
    for system, candidates, j, capture in _certified():
        ref, P = candidates[j].state, capture.gram
        n, found = len(ref), 0
        while found < 4:
            v = [rng.gauss(0.0, 1.0) for _ in range(n)]
            form = sum(P[i][k] * v[i] * v[k]
                       for i in range(n) for k in range(n))
            y = [c + w * math.sqrt(capture.level / form)
                 for c, w in zip(ref, v)]
            if min(y) < 0.0:
                continue  # outside the orthant the states live in
            found += 1
            traj = integrate(system, y, settings)
            assert detect_convergence(traj, candidates) == j


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
    assert captured < 0.85 * sum(steps)


def _dwell_only(monkeypatch, *args) -> list:
    """basin_probe's labels with no capture set: the dwell rule alone."""
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_captures",
                      lambda system, candidates, eps: [None] * len(candidates))
        return basin_probe(*args)


def _without_captures(monkeypatch, system, grid, candidates, uncertified):
    """basin_probe's labels, after checking that the candidates at the
    indices uncertified got no capture set, so the rule never tests one."""
    seen = []
    original = simulate._captures

    def spy(*args):
        seen.append(original(*args))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_captures", spy)
        labels = basin_probe(system, grid, None, candidates)
    assert len(seen) == 1
    assert all(seen[0][j] is None for j in uncertified)
    assert labels == _dwell_only(monkeypatch, system, grid, None, candidates)
    return labels


class _HaldaneKin(Haldane):
    """A subclass, which may override the law: never certified."""


def test_callable_laws_and_subclasses_are_never_certified(monkeypatch):
    def refuse(A):
        raise AssertionError("a certificate was built")

    for model in (_haldane_callables(12.0, 1.0, 0.08),
                  _HaldaneKin(12.0, 1.0, 0.08)):
        params = SingleParams(model, 1.4, 1.0)
        candidates = [e for e in classify_portrait(params).equilibria
                      if e.tag in ("positive_attracting",
                                   "washout_attracting")]
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_lyapunov", refuse)
            labels = _without_captures(monkeypatch, params, BISTABLE_GRID,
                                       candidates, (0, 1))
        assert set(labels) == {0, 1}


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

"""Adaptive integrator and convergence detection."""
import hashlib
import math
import random

import pytest

from bufchem import (
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
from conftest import draw_buffered_config


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
    # the rate law is NaN from s = 1.3 on, so every stage from the start is;
    # sample_scale 0.1 keeps the constructor's shape check on (0, 1]
    law = CustomUnimodal(lambda s: 2.0 * s / (1.0 + s) if s < 1.3 else math.nan,
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
}


def _andrews(mu_bar, K, K_I):
    def mu(s):
        return mu_bar * s / (K + s) * math.exp(-s / K_I)

    def mu_prime(s):
        return mu_bar * math.exp(-s / K_I) * (
            K / (K + s) ** 2 - s / ((K + s) * K_I))

    return CustomUnimodal(mu, mu_prime,
                          0.5 * (-K + math.sqrt(K * K + 4.0 * K * K_I)))


def test_integrate_matches_recorded_digests(reference_model):
    """Every run keeps its recorded times, states and step counts.

    Each digest is the sha256 of repr((times, states, accepted, rejected)).
    The runs cover both state sizes, the default horizon, max_step, a
    stop_condition, a callable rate law, rejected steps in every run and
    rejections by the negative-state floor (the loose-tolerance run).
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
    }
    digests = {}
    for name, (system, x0, settings, stop) in runs.items():
        traj = integrate(system, x0, settings, stop)
        key = (traj.times, traj.states, traj.accepted_steps,
               traj.rejected_steps)
        digests[name] = hashlib.sha256(repr(key).encode()).hexdigest()
    assert digests == RECORDED_INTEGRATE_DIGESTS

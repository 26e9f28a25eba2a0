"""Closed-form eigenvalues against the numeric 4x4 oracle."""
import math
import random

import numpy as np
import pytest

from bufchem import (
    BufferedConfig,
    Monod,
    find_equilibria,
    jacobian,
    numeric_eigenvalues,
)
from bufchem.simulate import _rhs_and_step
from bufchem.stability import (
    EigenReport,
    _block_roots,
    TAG_NON_HYPERBOLIC,
    TAG_SADDLE,
    TAG_STABLE,
    classify,
)
from conftest import draw_buffered_config


def test_closed_form_matches_numeric_oracle():
    rng = random.Random(12)
    for _ in range(30):
        cfg = draw_buffered_config(rng, monod_share=0.3)
        for e in find_equilibria(cfg):
            closed = sorted(e.eigenvalues)
            numeric = sorted(numeric_eigenvalues(cfg, e.state).values)
            for a, b in zip(closed, numeric):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
            # a third opinion on the block roots: LAPACK's QR on all of J
            qr = sorted(np.linalg.eigvals(jacobian(cfg, e.state)).real)
            for a, b in zip(numeric, qr):
                assert abs(a - b) <= 1e-12 * abs(b)


def test_jacobian_matches_finite_differences(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    rhs, _ = _rhs_and_step(cfg, 4)
    state = (0.9, 0.5, 0.2, 1.1)
    J = jacobian(cfg, state)
    h = 1e-7
    for j in range(4):
        bumped_up = list(state)
        bumped_dn = list(state)
        bumped_up[j] += h
        bumped_dn[j] -= h
        fu = rhs(0.0, tuple(bumped_up))
        fd = rhs(0.0, tuple(bumped_dn))
        for i in range(4):
            fd_ij = (fu[i] - fd[i]) / (2.0 * h)
            assert J[i][j] == pytest.approx(fd_ij, abs=5e-6)


def test_jacobian_block_structure(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    J = jacobian(cfg, (0.9, 0.5, 0.2, 1.1))
    # buffer evolves autonomously: no feedback from the main tank
    assert J[2][0] == J[2][1] == J[3][0] == J[3][1] == 0.0
    # the cross-coupling routes buffer substrate to tank substrate and
    # buffer biomass to tank biomass, never diagonally
    assert J[0][3] == 0.0
    assert J[1][2] == 0.0
    coupling = (cfg.D / cfg.r) * cfg.alpha * (1.0 - cfg.r)
    assert J[0][2] == pytest.approx(coupling, abs=1e-14)
    assert J[1][3] == pytest.approx(coupling, abs=1e-14)


def test_monod_unique_equilibrium_is_stable():
    rng = random.Random(14)
    for _ in range(20):
        cfg = draw_buffered_config(rng, monod_share=1.0)
        positives = [e for e in find_equilibria(cfg)
                     if e.x1 > 0.0 and e.x2 > 0.0]
        assert len(positives) == 1
        e = positives[0]
        if e.tag == TAG_NON_HYPERBOLIC:
            continue
        assert e.tag == TAG_STABLE
        assert e.unstable == 0
        assert all(v < 0.0 for v in e.eigenvalues)


def test_total_washout_is_saddle_under_viable_buffer(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    washout = next(e for e in find_equilibria(cfg)
                   if e.x1 == 0.0 and e.x2 == 0.0)
    assert washout.tag == TAG_SADDLE
    assert washout.unstable >= 1
    # the destabilizing direction is the buffer biomass
    assert max(washout.eigenvalues) == pytest.approx(
        reference_model.rate(1.4) - 0.35, abs=1e-12)


def test_classify_tags():
    report = classify((-1.0, -2.0, -3.0, -0.5), 1.0)
    assert report.tag == TAG_STABLE and report.unstable == 0
    report = classify((-1.0, 2.0, -3.0, -0.5), 1.0)
    assert report.tag == TAG_SADDLE and report.unstable == 1
    report = classify((-1.0, 1e-12, -3.0, -0.5), 1.0)
    assert report.tag == TAG_NON_HYPERBOLIC
    assert isinstance(report, EigenReport)


def test_classify_flags_clustered_spectra():
    report = classify((-1.0, -1.0 + 1e-13, -3.0, -0.5), 1.0)
    assert report.ill_conditioned


def test_numeric_route_is_real_far_from_rest(reference_model):
    # each diagonal block has the root -D/r or -alpha D, so the spectrum
    # is real at every state, not only at rest points
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    s1, x1, s2, x2 = state = (0.05, 1.35, 0.05, 1.35)
    mu, slope = reference_model.rate, reference_model.rate_prime
    d_r, a_d = cfg.D / cfg.r, cfg.alpha * cfg.D
    expected = sorted((-d_r, mu(s1) - slope(s1) * x1 - d_r,
                       -a_d, mu(s2) - slope(s2) * x2 - a_d))
    got = numeric_eigenvalues(cfg, state).values
    for a, b in zip(got, expected):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_numeric_route_refuses_states_off_the_domain(reference_model):
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 0.5)
    for s in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="substrate concentration"):
            jacobian(cfg, (0.9, 0.5, s, 1.1))
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError):
            numeric_eigenvalues(cfg, (0.9, x, 0.2, 1.1))


def test_block_roots_reject_a_rotation():
    with pytest.raises(ValueError):
        _block_roots(0.0, -1.0, 1.0, 0.0)


def test_monod_buffered_equilibrium_matches_chemostat_limit():
    # alpha = 1, r -> 1: the pair degenerates toward one well-mixed tank
    cfg = BufferedConfig(Monod(2.0, 1.0), 3.0, 1.0, 1.0, 0.999999)
    e = next(x for x in find_equilibria(cfg) if x.x1 > 0.0)
    assert e.s1 == pytest.approx(1.0, abs=1e-3)

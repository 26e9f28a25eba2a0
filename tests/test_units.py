"""Rest points that do not depend on the units.

The model has a two-parameter symmetry.  Scaling substrate by c (K, K_I,
S_in and every level) and time by tau (mu_bar, D and every rate) maps
each rest point to c times itself and leaves every count and stability
tag unchanged, so find_equilibria must see the same chemostat in any
unit.  The interval oracle of tests/_interval.py is exact in any unit
and checks each scaled count.  The case, the uniqueness boundary and
the buffer size are free of units too, and so is the tangency fit's
split.  The same symmetry maps each capture box of basin_probe's
certificate to c times itself, its contraction rate to tau times
itself.
"""
import itertools
import math
import random

import pytest

from _interval import count_rest_levels
from conftest import draw_buffered_config

from bufchem import (BRANCH_POSITIVE, BufferedConfig, CustomUnimodal,
                     Haldane, Monod, SingleParams, buffer_design,
                     classify_portrait, find_equilibria, simulate,
                     split_threshold, split_threshold_crosscheck)
from bufchem.multiplicity import (CASE_PIVOT_ABOVE, CASE_PIVOT_BELOW,
                                  NoTangency)

DRAWS = 500
README_LAW = (12.0, 1.0, 0.08)
# the alpha where the README law's pivot level meets its upper break-even
CROSSING_ALPHA = 0.45822841362922084


def _law(params: tuple, wrapped: bool):
    """Haldane(*params), or the same law as plain callables."""
    if not wrapped:
        return Haldane(*params)
    mu_bar, K, K_I = params

    def mu(s):
        return mu_bar * s / (K + s + s * s / K_I)

    def mu_prime(s):
        den = K + s + s * s / K_I
        return mu_bar * (K - s * s / K_I) / (den * den)

    return CustomUnimodal(mu, mu_prime, math.sqrt(K * K_I))


def _draw(rng: random.Random, i: int) -> tuple:
    """(law parameters, S_in, D, alpha, r): random viable Haldane points,
    and every third draw the README law at a split from 0.5 to 1.1 r_bar,
    where the count changes."""
    if i % 3 == 2:
        alpha = rng.uniform(0.25, 0.5)
        r_bar = split_threshold(Haldane(*README_LAW), 1.4, 1.0, alpha).r_bar
        return (README_LAW, 1.4, 1.0, alpha,
                min(rng.uniform(0.5, 1.1) * r_bar, 0.99))
    while True:
        config = draw_buffered_config(rng)
        model = config.model
        if isinstance(model, Haldane):
            return ((model.mu_bar, model.K, model.K_I), config.S_in,
                    config.D, config.alpha, config.r)


def test_rest_points_scale_with_the_units():
    rng = random.Random(18)
    counts = set()
    for i in range(DRAWS):
        (mu_bar, K, K_I), S_in, D, alpha, r = _draw(rng, i)
        c, tau = 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-6.0, 6.0)
        wrapped = i % 2 == 1
        scaled = (mu_bar * tau, K * c, K_I * c)
        base = find_equilibria(BufferedConfig(
            _law((mu_bar, K, K_I), wrapped), S_in, D, alpha, r))
        other = find_equilibria(BufferedConfig(
            _law(scaled, wrapped), S_in * c, D * tau, alpha, r))
        where = (i, (mu_bar, K, K_I), S_in, D, alpha, r, c, tau, wrapped)
        assert ([(e.branch, e.tag) for e in other]
                == [(e.branch, e.tag) for e in base]), where
        for e, f in zip(base, other):
            for u, v in zip(e.state, f.state):
                assert abs(v - c * u) <= 1e-10 * c * S_in, where
        positive = sum(e.branch == BRANCH_POSITIVE for e in other)
        count, undecided = count_rest_levels(Haldane(*scaled), S_in * c,
                                             D * tau, alpha, r)
        if not undecided:
            assert count == positive, where
        counts.add(positive)
        case, values, fit = _unit_free(_law((mu_bar, K, K_I), wrapped),
                                       S_in, D, alpha)
        other_case, others, other_fit = _unit_free(
            _law(scaled, wrapped), S_in * c, D * tau, alpha)
        assert other_case == case, where
        assert [v is None for v in others] == [v is None for v in values]
        for u, v in zip(values, others):
            if u is not None:
                assert abs(v - u) <= 1e-12 * abs(u), where
        assert (other_fit is None) == (fit is None), where
        if fit is not None:
            assert abs(other_fit - fit) <= 1e-9 * fit, where
    assert counts == {1, 3}


def _unit_free(law, S_in: float, D: float, alpha: float) -> tuple:
    """(case, [r_plus_min, band low, band high, r_bar, v2_inf], the
    tangency fit's split) with None for an absent value: v2_inf where no
    buffer design applies, the fit where it finds no tangency."""
    report = split_threshold(law, S_in, D, alpha)
    band = report.r_minus_interval or (None, None)
    try:
        v2_inf = buffer_design(law, S_in, D).v2_inf
    except ValueError:
        v2_inf = None
    try:
        fit = split_threshold_crosscheck(law, S_in, D, alpha)
    except NoTangency:
        fit = None
    return (report.case, [report.r_plus_min, *band, report.r_bar, v2_inf],
            fit)


def test_case_split_is_free_of_the_substrate_unit():
    # 3e-7 either side of the crossing alpha the pivot level clears the
    # upper break-even by about 2.8e-7 S_in: the same case in every unit
    law = Haldane(*README_LAW)
    for offset in (-3e-7, 3e-7):
        alpha = CROSSING_ALPHA + offset
        base = split_threshold(law, 1.4, 1.0, alpha)
        assert base.case == (CASE_PIVOT_BELOW if offset > 0.0
                             else CASE_PIVOT_ABOVE)
        for c in (1e-3, 1e-4):
            scaled = Haldane(law.mu_bar, law.K * c, law.K_I * c)
            other = split_threshold(scaled, 1.4 * c, 1.0, alpha)
            assert other.case == base.case, (offset, c)
            assert other.r_bar == pytest.approx(base.r_bar, rel=1e-12)


def _sinks(system) -> list:
    """The states of the rest points that are sinks."""
    if isinstance(system, SingleParams):
        return [e.state for e in classify_portrait(system).equilibria
                if e.tag in ("positive_attracting", "washout_attracting")]
    return [e.state for e in find_equilibria(system)
            if e.branch == BRANCH_POSITIVE and e.tag == "stable"]


def test_capture_boxes_scale_with_the_units():
    # powers of two scale every float exactly, so a certificate with no
    # floor fixed in some unit gives each box exactly scaled
    systems = [SingleParams(Haldane(*README_LAW), 1.4, 1.0),
               BufferedConfig(Haldane(*README_LAW), 1.4, 1.0, 0.35, 0.65),
               BufferedConfig(Haldane(*README_LAW), 1.4, 1.0, 0.25, 0.3),
               BufferedConfig(Monod(2.0, 0.3), 1.4, 1.0, 0.35, 0.6)]
    scales = [2.0 ** k for k in (-30, -10, 10, 30)]
    for system in systems:
        sinks = _sinks(system)
        base = simulate._captures(system, sinks, 1e-6)
        assert all(box is not None for box in base), system
        for c, tau in itertools.product(scales, repeat=2):
            law = system.model
            law = (Monod(law.mu_max * tau, law.K_s * c)
                   if isinstance(law, Monod) else
                   Haldane(law.mu_bar * tau, law.K * c, law.K_I * c))
            if isinstance(system, SingleParams):
                other = SingleParams(law, system.S_in * c, system.D * tau)
            else:
                other = BufferedConfig(law, system.S_in * c, system.D * tau,
                                       system.alpha, system.r)
            got = simulate._captures(
                other, [[c * v for v in y] for y in sinks], 1e-6 * c)
            for box, scaled in zip(base, got):
                assert scaled == simulate._Capture(
                    box.feed * c, tuple(c * w for w in box.widths),
                    tuple(c * m for m in box.masses),
                    tuple(tau * k for k in box.rates)), (system, c, tau)

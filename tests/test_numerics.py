"""Root finding and 1-D optimization helpers."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bufchem import (BufferedConfig, CustomUnimodal, Haldane,
                     IntegratorSettings, Monod, Parallel, Serial,
                     buffer_substrate, classify_case, pivot_level,
                     split_threshold, split_threshold_crosscheck)
from bufchem._numerics import (
    COARSE_GRID,
    GridScan,
    bisect_root,
    golden_max,
    golden_min,
    grid_min,
    newton_polish,
    real_cubic_roots,
)
from bufchem.single import SingleParams

NAN, INF = math.nan, math.inf


def test_bisect_root_simple():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, 0.0)
    assert abs(root - math.sqrt(2.0)) < 1e-13


def test_bisect_root_requires_sign_change():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 0.0)


def test_golden_min_quadratic():
    # value comparisons go numerically flat within sqrt(eps) of a
    # quadratic minimum, so that is the honest abscissa accuracy
    x, v = golden_min(lambda x: (x - 0.3) ** 2 + 1.0, -1.0, 2.0)
    assert abs(x - 0.3) < 1e-7
    assert abs(v - 1.0) < 1e-14


def test_golden_max_matches_min_of_negation():
    f = lambda x: math.sin(x)
    x, v = golden_max(f, 0.0, math.pi)
    assert abs(x - math.pi / 2.0) < 1e-7
    assert abs(v - 1.0) < 1e-12


def test_grid_scan_sign_change_at_grid_zero():
    # grid 0.5, 1.5, ..., 7.5: f vanishes exactly on the grid point 3.5
    for f, bracket in ((lambda x: x - 3.5, (3.5, 4.5)),
                       (lambda x: 3.5 - x, (2.5, 3.5))):
        scan = GridScan(f, 0.0, 8.0, 8)
        assert scan.vs[3] == 0.0
        assert scan.brackets() == [bracket]
        assert bisect_root(f, *bracket, 0.0) == 3.5


def test_grid_scan_extrema_finds_sine_extrema():
    scan = GridScan(math.sin, 0.0, 4.0 * math.pi, COARSE_GRID)
    min_idx, max_idx = scan.extrema()
    min_xs = [golden_min(math.sin, *scan.around(i))[0] for i in min_idx]
    max_xs = [golden_max(math.sin, *scan.around(i))[0] for i in max_idx]
    # the grid is symmetric about each extremum, so every extremum shows
    # as a flat run of two equal grid values and is refined twice
    for xs, want in ((min_xs, (1.5, 3.5)), (max_xs, (0.5, 2.5))):
        assert xs == pytest.approx([w * math.pi for w in want for _ in (0, 1)],
                                   abs=1e-7)

    # unit steps on the grid i + 0.5: the two grid values next to the
    # minimum at 1000 are both exactly 0.25, a flat run of two, and both
    # refine to the one minimum
    f = lambda x: (x - 1000.0) ** 2
    scan = GridScan(f, 0.0, 2048.0, COARSE_GRID)
    assert scan.extrema() == ([999, 1000], [])
    for i in (999, 1000):
        assert abs(golden_min(f, *scan.around(i))[0] - 1000.0) < 1e-6


def test_grid_min_global():
    f = lambda x: math.cos(3.0 * x) + 0.1 * x
    x, v = grid_min(f, 0.0, 5.0)
    xs = [i * 5.0 / 100000 for i in range(100001)]
    brute = min(f(t) for t in xs)
    assert v <= brute + 1e-9

    # equal minima at 1 and 3, tied exactly on the dyadic grid: the
    # first smallest grid value picks the bracket, so the left one wins
    g = lambda x: abs(abs(x - 2.0) - 1.0)
    scan = GridScan(g, 0.0, 4.0, COARSE_GRID)
    i = scan.argmin()
    assert scan.vs[i] == scan.vs[-1 - i] and scan.xs[i] < 2.0
    x, v = grid_min(g, 0.0, 4.0)
    assert abs(x - 1.0) < 1e-8 and v < 1e-8


def test_cubic_roots_against_numpy():
    rng = random.Random(4)
    for _ in range(200):
        roots = sorted(rng.uniform(-3.0, 3.0) for _ in range(3))
        if roots[1] - roots[0] < 0.1 or roots[2] - roots[1] < 0.1:
            continue
        a3 = rng.choice([-2.0, -1.0, 1.0, 2.0])
        p = a3 * np.poly(roots)
        got = sorted(real_cubic_roots(p[0], p[1], p[2], p[3]))
        assert len(got) == 3
        for g, want in zip(got, roots):
            assert abs(g - want) < 1e-7


def test_cubic_single_real_root():
    # x^3 + x + 1 has exactly one real root
    roots = real_cubic_roots(1.0, 0.0, 1.0, 1.0)
    assert len(roots) == 1
    x = roots[0]
    assert abs(x ** 3 + x + 1.0) < 1e-10


def test_newton_polish_improves_root():
    f = lambda x: x * x - 2.0
    fp = lambda x: 2.0 * x
    x = newton_polish(f, fp, 1.4, 1.0, 2.0)
    assert abs(x - math.sqrt(2.0)) < 1e-14


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.05, 3.0))
def test_golden_min_random_quadratics(center, scale):
    x, _ = golden_min(lambda t: scale * (t - center) ** 2, -3.0, 3.0)
    assert abs(x - center) < 1e-8


REF = Haldane(12.0, 1.0, 0.08)


@pytest.mark.parametrize("build, inf_allowed", [
    (lambda v: BufferedConfig(REF, v, 1.0, 0.35, 0.48), False),
    (lambda v: BufferedConfig(REF, 1.4, v, 0.35, 0.48), False),
    (lambda v: BufferedConfig(REF, 1.4, 1.0, v, 0.48), False),
    (lambda v: BufferedConfig.from_physical(v, 0.5, 0.5, 0.5, 1.4, REF), False),
    (lambda v: BufferedConfig.from_physical(0.5, v, 0.5, 0.5, 1.4, REF), False),
    (lambda v: BufferedConfig.from_physical(0.5, 0.5, v, 0.5, 1.4, REF), False),
    (lambda v: BufferedConfig.from_physical(0.5, 0.5, 0.5, v, 1.4, REF), False),
    (lambda v: SingleParams(REF, v, 1.0), False),
    (lambda v: SingleParams(REF, 1.4, v), False),
    (lambda v: Haldane(v, 1.0, 0.08), False),
    (lambda v: Haldane(12.0, v, 0.08), False),
    (lambda v: Haldane(12.0, 1.0, v), False),
    (lambda v: Monod(v, 1.0), False),
    (lambda v: Monod(2.0, v), False),
    (lambda v: CustomUnimodal(REF.rate, REF.rate_prime, 0.28,
                              sample_scale=v), False),
    (lambda v: IntegratorSettings(t_end=v), False),
    # a law that is v everywhere but at 0 must be finite and positive
    (lambda v: CustomUnimodal(lambda s: v if s else 0.0, REF.rate_prime,
                              0.28), False),
    # inf means "no interior peak" and "no step cap"
    (lambda v: CustomUnimodal(REF.rate, REF.rate_prime, v), True),
    (lambda v: IntegratorSettings(max_step=v), True),
])
def test_constructors_reject_non_finite(build, inf_allowed):
    for bad in (NAN, -INF) if inf_allowed else (NAN, INF, -INF):
        with pytest.raises(ValueError):
            build(bad)
    if inf_allowed:
        build(INF)


GENERIC = CustomUnimodal(REF.rate, REF.rate_prime, math.sqrt(0.08))


@pytest.mark.parametrize("call", [
    lambda: classify_case(REF, NAN, 1.0, 0.35),
    lambda: buffer_substrate(REF, NAN, 1.0, 0.35),
    lambda: buffer_substrate(REF, 1.4, NAN, 0.35),
    lambda: buffer_substrate(REF, 1.4, 1.0, NAN),
    lambda: pivot_level(REF, NAN, 1.0, 0.35),
    lambda: split_threshold_crosscheck(REF, NAN, 1.0, 0.35),
    lambda: split_threshold(REF, 1.4, 1.0, NAN),
    lambda: REF.break_even(NAN),
    lambda: Monod(2.0, 1.0).break_even(NAN),
    lambda: GENERIC.break_even(NAN),
    lambda: Serial((0.5, NAN, 0.5)),
    lambda: Parallel((0.5, 0.5), (NAN, 1.0)),
])
def test_raw_float_entry_points_reject_nan(call):
    with pytest.raises(ValueError, match="positive"):
        call()


def test_break_even_of_infinite_dilution_is_empty():
    for model in (REF, Monod(2.0, 1.0), GENERIC):
        assert model.break_even(INF) is None

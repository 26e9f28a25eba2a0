"""Root finding and 1-D optimization helpers."""
import ast
import math
import pathlib
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bufchem import (BreakEvenInterval, BufferedConfig, CustomUnimodal,
                     DesignReport, DomainCurve, Equilibrium, Haldane,
                     IntegratorSettings, IntervalSet, Monod,
                     MultiplicityReport, Parallel, Peak, RunConfig, Serial,
                     Trajectory, buffer_substrate, classify_case,
                     pivot_level, split_threshold,
                     split_threshold_crosscheck)
import bufchem._numerics
from bufchem._numerics import (
    _GRID,
    bisect_root,
    critical_levels,
    golden_min,
    newton_polish,
    proxy_levels,
    real_cubic_roots,
)
from bufchem.single import Portrait, PortraitEquilibrium, SingleParams
from bufchem.stability import EigenReport

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


@pytest.mark.parametrize("c", [10.0 ** k for k in range(-8, 9, 2)])
def test_golden_min_is_free_of_the_unit_of_x(c):
    # the same minimum at 0.3 c on [-c, 2 c], found to the same relative
    # accuracy in every unit; a minimum at 0 ends in as few evaluations
    x, _ = golden_min(lambda t: (t - 0.3 * c) ** 2, -c, 2.0 * c)
    assert abs(x / c - 0.3) < 1e-7
    calls = []

    def square(t):
        calls.append(t)
        return t * t

    x, _ = golden_min(square, -c, c)
    assert abs(x) < 1e-7 * c
    assert len(calls) < 60


def test_critical_levels_are_the_zeros_of_cos():
    # the extrema of sin on (0, 4 pi), each bisected to machine resolution
    levels = critical_levels(math.cos, 0.0, 4.0 * math.pi)
    assert levels == pytest.approx([k * math.pi / 2.0 for k in (1, 3, 5, 7)],
                                   rel=0.0, abs=1e-14)


def test_critical_level_on_a_grid_point_is_found_once_and_exactly():
    # grid 0.5, 1.5, ..., _GRID - 0.5: both slopes vanish on the grid
    # point 1000.5, one crossing upwards and one downwards
    for g in (lambda x: x - 1000.5, lambda x: 1000.5 - x):
        assert critical_levels(g, 0.0, float(_GRID)) == [1000.5]


def test_critical_level_touching_zero_on_a_grid_point_is_no_sign_change():
    # on the grid point 1000.5 (x - 1000.5)^2 touches zero from above and
    # its negation from below: neither is a sign change, while the slope
    # crossing there is still found once; the same holds for a run of
    # grid zeros, 998.5 to 1002.5
    def flat(x):
        return max(abs(x - 1000.5) - 2.0, 0.0)

    for g in (lambda x: (x - 1000.5) ** 2, lambda x: -(x - 1000.5) ** 2,
              flat):
        assert critical_levels(g, 0.0, float(_GRID)) == []
    assert critical_levels(lambda x: x - 1000.5, 0.0, float(_GRID)) == [1000.5]
    assert critical_levels(lambda x: math.copysign(flat(x), x - 1000.5),
                           0.0, float(_GRID)) == [1002.5]


def test_critical_levels_without_a_sign_change_are_empty():
    assert critical_levels(lambda x: x * x + 1.0, -1.0, 1.0) == []
    assert critical_levels(math.exp, 0.0, 5.0) == []


def test_scan_above_a_level_of_fixed_sign_keeps_the_whole_scans_levels():
    # cos > 0 below pi/2: a scan started at the last grid point at or
    # below the floor x, for x below the grid, on it or between its
    # points, reads the whole scan's levels from fewer samples; a piece
    # ending at or below x is not read at all
    lo, hi = 0.0, 4.0 * math.pi
    step = (hi - lo) / _GRID
    grid = [lo + step * (i + 0.5) for i in range(_GRID)]
    pieces = [(0.5, 1.2), (1.3, 5.0), (6.0, 11.0)]
    for x in (-1.0, 0.0, 0.4 * step, 0.5 * step, 1.0, 1.3, 1.5):
        calls = []
        g = lambda s: calls.append(s) or math.cos(s)
        assert critical_levels(g, lo, hi, floor=x) == critical_levels(
            math.cos, lo, hi)
        assert min(calls) == max([p for p in grid if p <= x],
                                 default=grid[0])
        assert critical_levels(math.cos, lo, hi, pieces, x) == (
            critical_levels(math.cos, lo, hi, pieces))
    # with no grid point at or below the floor it is the whole scan,
    # samples and all, on the whole grid and on pieces
    for read in (None, pieces):
        cut, whole = [], []
        assert critical_levels(lambda s: cut.append(s) or math.cos(s),
                               lo, hi, read, lo) == critical_levels(
            lambda s: whole.append(s) or math.cos(s), lo, hi, read)
        assert cut == whole
    # with no grid point past x nothing is sampled
    calls = []
    assert critical_levels(lambda s: calls.append(s) or s, 0.0, 1.0,
                           floor=1.0 - 0.5 / _GRID) == []
    assert critical_levels(lambda s: calls.append(s) or s, 0.0, 1.0,
                           [(0.2, 0.9)], 2.0) == []
    assert calls == []


def test_pieces_narrower_than_a_grid_step_keep_their_sign_changes():
    # both zeros lie between the grid points 0.5 and 1.5; the ends of a
    # piece are sampled, so a piece around each zero shows it
    def g(x):
        return (x - 0.7) * (x - 0.9)

    assert critical_levels(g, 0.0, float(_GRID)) == []
    assert critical_levels(g, 0.0, float(_GRID),
                           [(0.6, 0.8), (0.8, 1.0)]) == pytest.approx(
        [0.7, 0.9], rel=0.0, abs=1e-15)
    # a piece reads the levels strictly inside it only, piece by piece
    assert critical_levels(g, 0.0, float(_GRID), [(0.8, 1.0), (0.0, 0.75)]
                           ) == pytest.approx([0.9, 0.7], rel=0.0, abs=1e-15)
    assert critical_levels(g, 0.0, float(_GRID), [(0.75, 0.85)]) == []


def test_proxy_finds_every_root_of_a_sine():
    # nine roots, each many grid steps from the next; the proxy needs 65
    # samples for sin on a span this wide
    levels = proxy_levels(math.sin, 0.5, 30.0)
    assert levels == pytest.approx([k * math.pi for k in range(1, 10)],
                                   rel=0.0, abs=1e-14)
    assert len(levels) == len(critical_levels(math.sin, 0.5, 30.0))


def test_proxy_finds_two_roots_three_grid_steps_apart():
    # the parabola dips below zero by only (1.5 step)^2 between its
    # roots, far from every Chebyshev sample: the slope bound keeps the
    # gaps around them from being excluded until bisection brackets both
    step = 1.0 / _GRID
    first, second = 0.5 + 0.25 * step, 0.5 + 3.25 * step

    def g(x):
        return (x - first) * (x - second)

    assert proxy_levels(g, 0.0, 1.0) == pytest.approx([first, second],
                                                      rel=0.0, abs=1e-16)
    assert len(critical_levels(g, 0.0, 1.0)) == 2


def test_proxy_tolerates_a_pole_at_the_upper_end():
    # sampled no nearer than half a grid step to the pole at 1
    def g(x):
        return 1.0 / (1.0 - x) - 4.0

    assert proxy_levels(g, 0.0, 1.0) == critical_levels(g, 0.0, 1.0)
    assert proxy_levels(g, 0.0, 1.0) == pytest.approx([0.75], rel=1e-15)


def test_proxy_finds_a_zero_on_a_sample_point_once():
    # the abscissae the proxy samples depend only on (lo, hi): record
    # them, then put a crossing and a touch exactly on one of them
    calls = []

    def recorder(x):
        calls.append(x)
        return x + 2.0

    proxy_levels(recorder, 0.0, 1.0)
    x0 = calls[5]
    for g in (lambda x: x - x0, lambda x: x0 - x):
        assert proxy_levels(g, 0.0, 1.0) == [x0]
    assert proxy_levels(lambda x: (x - x0) ** 2, 0.0, 1.0) == []


def test_proxy_of_a_kinked_function_falls_back_on_the_scan():
    # the kink at 0.3 keeps the Chebyshev tail far above 1e-13 up to 129
    # points, so the _GRID-point scan runs and its result is returned
    calls = []

    def g(x):
        calls.append(x)
        return abs(x - 0.3) - 0.1

    levels = proxy_levels(g, 0.0, 1.0)
    assert len(calls) > _GRID + 129
    assert levels == critical_levels(g, 0.0, 1.0)
    assert levels == pytest.approx([0.2, 0.4], rel=1e-15)


def test_every_public_numerics_name_has_a_caller():
    # a helper whose last caller went is dead code, however well tested
    numerics = pathlib.Path(bufchem._numerics.__file__)
    tree = ast.parse(numerics.read_text())
    names = [node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    names += [target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)]
    public = [name for name in names if not name.startswith("_")]
    # names the code of the other modules reads; comments, docstrings
    # and bare imports do not count
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for path in sorted(numerics.parent.glob("*.py"))
            if path != numerics
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [name for name in public if name not in used]
    assert public and not unused


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
RISING = Monod(2.0, 1.0)


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
    # inf means "no interior peak" (of an increasing law) and "no step cap"
    (lambda v: CustomUnimodal(RISING.rate, RISING.rate_prime, v), True),
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


_HAL = Haldane(2.0, 1.0, 0.08)
_MON = Monod(1.0, 0.5)
_WASHOUT = PortraitEquilibrium(1.4, 0.0, "washout_attracting")
_STATES = ((1.0, 0.0, 1.0, 0.0), (0.5, 0.5, 0.5, 0.5))


# (type, every field by position, the same with one field changed, repr
# of the first as the earlier dataclass records printed it)
@pytest.mark.parametrize("cls, args, changed, expected_repr", [
    (Peak, (1.0, 2.0), (1.0, 2.5), "Peak(abscissa=1.0, height=2.0)"),
    (BreakEvenInterval, (0.25, INF), (0.5, INF),
     "BreakEvenInterval(lower=0.25, upper=inf)"),
    (Monod, (1.0, 0.5), (1.0, 0.25), "Monod(mu_max=1.0, K_s=0.5)"),
    (Haldane, (2.0, 1.0, 0.08), (2.0, 1.0, 0.1),
     "Haldane(mu_bar=2.0, K=1.0, K_I=0.08)"),
    (CustomUnimodal, (math.sin, math.cos, math.pi / 2, 1.0),
     (math.sin, math.cos, math.pi / 2, 2.0),
     "CustomUnimodal(rate_fn=<built-in function sin>, rate_prime_fn="
     "<built-in function cos>, peak_abscissa=1.5707963267948966, "
     "sample_scale=1.0)"),
    (BufferedConfig, (_HAL, 1.4, 0.3, 2.0, 0.6), (_HAL, 1.4, 0.3, 2.0, 0.7),
     "BufferedConfig(model=Haldane(mu_bar=2.0, K=1.0, K_I=0.08), S_in=1.4, "
     "D=0.3, alpha=2.0, r=0.6)"),
    (Equilibrium, (0.2, 1.2, 0.3, 1.1, "buffer_positive",
                   (-0.5, -0.3, -0.3, -0.1), "stable", 0),
     (0.2, 1.2, 0.3, 1.1, "buffer_positive", (-0.5, -0.3, -0.3, 0.1),
      "stable", 0),
     "Equilibrium(s1=0.2, x1=1.2, s2=0.3, x2=1.1, branch='buffer_positive', "
     "eigenvalues=(-0.5, -0.3, -0.3, -0.1), tag='stable', unstable=0)"),
    (IntervalSet, (((0.1, 0.2), (0.3, 0.5)),), (((0.1, 0.2),),),
     "IntervalSet(components=((0.1, 0.2), (0.3, 0.5)))"),
    (RunConfig, (_MON, 1.4, 0.3, None, IntegratorSettings(), None, None,
                 None),
     (_MON, 1.4, 0.3, None, IntegratorSettings(t_end=50.0), None, None,
      None),
     "RunConfig(model=Monod(mu_max=1.0, K_s=0.5), S_in=1.4, D=0.3, "
     "buffered=None, integrator=IntegratorSettings(rel_tol=1e-08, "
     "abs_tol=1e-10, max_step=inf, t_end=None), initial=None, sweep=None, "
     "audit_topology=None)"),
    (DesignReport, (0.5, 0.125, 0.75, 0.9, 0.0625, _HAL, 1.4, 1.0),
     (0.5, 0.125, 0.75, 0.9, 0.0625, _HAL, 1.5, 1.0),
     "DesignReport(delta_v_inf=0.5, v2_inf=0.125, d2_star=0.75, s_bar=0.9, "
     "surplus_max=0.0625, _model=Haldane(mu_bar=2.0, K=1.0, K_I=0.08), "
     "_S_in=1.4, _D=1.0)"),
    (MultiplicityReport,
     (0.75, (0.25, 0.5), 0.75, "pivot_below_upper_break_even"),
     (0.75, None, 0.75, "pivot_below_upper_break_even"),
     "MultiplicityReport(r_plus_min=0.75, r_minus_interval=(0.25, 0.5), "
     "r_bar=0.75, case='pivot_below_upper_break_even')"),
    (DomainCurve, (((0.5, 0.75), (1.0, 0.5)), 0.75, (0.6, 0.4)),
     (((0.5, 0.75), (1.0, 0.5)), None, (0.6, 0.4)),
     "DomainCurve(points=((0.5, 0.75), (1.0, 0.5)), crossing_alpha=0.75, "
     "jump=(0.6, 0.4))"),
    (IntegratorSettings, (1e-8, 1e-10, INF, None), (1e-6, 1e-10, INF, None),
     "IntegratorSettings(rel_tol=1e-08, abs_tol=1e-10, max_step=inf, "
     "t_end=None)"),
    (Trajectory, ((0.0, 1.0), _STATES, 3, 1), ((0.0, 1.0), _STATES, 3, 2),
     "Trajectory(times=(0.0, 1.0), states=((1.0, 0.0, 1.0, 0.0), "
     "(0.5, 0.5, 0.5, 0.5)), accepted_steps=3, rejected_steps=1)"),
    (SingleParams, (_HAL, 1.4, 0.3), (_HAL, 1.4, 0.35),
     "SingleParams(model=Haldane(mu_bar=2.0, K=1.0, K_I=0.08), S_in=1.4, "
     "D=0.3)"),
    (PortraitEquilibrium, (1.4, 0.0, "washout_attracting"),
     (1.4, 0.0, "washout_saddle"),
     "PortraitEquilibrium(S=1.4, X=0.0, tag='washout_attracting')"),
    (Portrait, ("washout_only", (_WASHOUT,)), ("washout_only", ()),
     "Portrait(case='washout_only', equilibria=(PortraitEquilibrium(S=1.4, "
     "X=0.0, tag='washout_attracting'),))"),
    (Serial, ((0.25, 0.75),), ((0.5, 0.5),),
     "Serial(volume_fractions=(0.25, 0.75))"),
    (Parallel, ((0.5, 0.5), (0.25, 0.75)), ((0.5, 0.5), (0.75, 0.25)),
     "Parallel(volume_fractions=(0.5, 0.5), flow_fractions=(0.25, 0.75))"),
    (EigenReport, ((-1.0, -0.5, -0.25, 0.5), "saddle", 1, False),
     ((-1.0, -0.5, -0.25, 0.5), "saddle", 1, True),
     "EigenReport(values=(-1.0, -0.5, -0.25, 0.5), tag='saddle', "
     "unstable=1, ill_conditioned=False)"),
])
def test_value_records_keep_frozen_dataclass_semantics(cls, args, changed,
                                                       expected_repr):
    obj = cls(*args)
    assert repr(obj) == expected_repr
    names = cls.__match_args__
    assert len(names) == len(args)
    by_keyword = cls(**dict(zip(names, args)))
    assert by_keyword == obj and hash(by_keyword) == hash(obj)
    assert cls(*changed) != obj
    assert obj.__eq__(object()) is NotImplemented
    assert pickle.loads(pickle.dumps(obj)) == obj
    with pytest.raises(AttributeError):
        setattr(obj, names[0], args[0])
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    for bad in (lambda: cls(*args, None),                        # extra
                lambda: cls(*args, unknown=None),                # unknown
                lambda: cls(*args, **{names[0]: args[0]})):      # duplicated
        with pytest.raises(TypeError):
            bad()
    if cls is not IntegratorSettings:   # the one record with no required field
        with pytest.raises(TypeError):
            cls()                                                # missing
    # the shared checks, stated once against the first record type
    if cls is Peak:
        assert Peak(1.0, 2.0) != BreakEvenInterval(1.0, 2.0)
        with pytest.raises(ValueError):                # __post_init__ runs
            Haldane(-1, 1, 1)

"""Volume-split threshold: case analysis, tangency, crosscheck, sweep."""
import hashlib
import math
import random

import pytest

from bufchem import (
    BRANCH_POSITIVE,
    BufferedConfig,
    CustomUnimodal,
    Haldane,
    Monod,
    NoTangency,
    classify_case,
    find_equilibria,
    split_threshold,
    split_threshold_crosscheck,
    stable_domain_curve,
)
from bufchem.buffered import growth_deficit, growth_deficit_prime
from bufchem.multiplicity import (
    CASE_NO_UPPER,
    CASE_PIVOT_ABOVE,
    CASE_PIVOT_AT,
    CASE_PIVOT_BELOW,
    DomainCurve,
    tangency_abscissas,
)
from conftest import draw_buffered_config, draw_threshold_inputs

# threshold values on the canonical scenario, computed independently
# with high-precision arithmetic and frozen here
REFERENCE_THRESHOLDS = {
    0.15: 0.6255414564,
    0.25: 0.5862423688,
    0.35: 0.5378387302,
    0.45: 0.4758069246,
    0.55: 0.8238268389,
}
CROSSING_ALPHA = 0.45822841362922084
JUMP_LEFT = 0.46990796376071403
JUMP_RIGHT = 0.6478038079401967
# operating points without an upper break-even below the feed at D
NO_UPPER_INPUTS = {
    "window_empty_at_D": (Haldane(12.0, 1.0, 0.1), 1.0, 1.65, 0.3),
    "upper_beyond_feed": (Haldane(12.0, 1.0, 0.1), 2.0, 0.5, 0.2),
    "monod": (Monod(2.0, 1.0), 3.0, 1.0, 0.5),
}
RECORDED_THRESHOLD_DIGEST = (
    "272844b30d3441cdf0f16b4f0e66779aa0b424a177664d39911fd90b681b7432")


def test_case_classification(reference_model):
    assert classify_case(reference_model, 1.4, 1.0, 0.15) == CASE_PIVOT_ABOVE
    assert classify_case(reference_model, 1.4, 1.0, 0.55) == CASE_PIVOT_BELOW
    for inputs in NO_UPPER_INPUTS.values():
        assert classify_case(*inputs) == CASE_NO_UPPER


def test_pivot_at_upper_break_even(reference_model):
    # at the crossing alpha the pivot meets the upper break-even of D; the
    # whole interval past the lower break-even is searched and no extra-root
    # band is left below the boundary
    args = (reference_model, 1.4, 1.0)
    assert classify_case(*args, CROSSING_ALPHA) == CASE_PIVOT_AT
    assert classify_case(*args, CROSSING_ALPHA - 1e-8) == CASE_PIVOT_ABOVE
    assert classify_case(*args, CROSSING_ALPHA + 1e-8) == CASE_PIVOT_BELOW
    report = split_threshold(*args, CROSSING_ALPHA)
    assert report.case == CASE_PIVOT_AT
    assert report.r_minus_interval is None
    assert report.r_bar == report.r_plus_min
    assert report.r_bar == pytest.approx(0.46983437, abs=1e-8)
    other = split_threshold_crosscheck(*args, CROSSING_ALPHA)
    assert other == pytest.approx(report.r_bar, abs=1e-9)


def test_threshold_frozen_table(reference_model):
    for alpha, expected in REFERENCE_THRESHOLDS.items():
        report = split_threshold(reference_model, 1.4, 1.0, alpha)
        assert report.r_bar == pytest.approx(expected, abs=1e-6)
        assert report.r_minus_interval is None


def test_threshold_certifies_uniqueness(reference_model):
    for alpha, r_bar in REFERENCE_THRESHOLDS.items():
        report = split_threshold(reference_model, 1.4, 1.0, alpha)
        below, above = 0.9 * r_bar, min(1.01 * r_bar, 0.999999)
        assert report.guarantees_unique(below)
        cfg = BufferedConfig(reference_model, 1.4, 1.0, alpha, below)
        count = sum(e.branch == BRANCH_POSITIVE for e in find_equilibria(cfg))
        assert count == 1


def test_threshold_is_sharp_for_mid_alpha(reference_model):
    # just above the threshold the positive equilibrium splits in three
    r_bar = split_threshold(reference_model, 1.4, 1.0, 0.35).r_bar
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, 1.01 * r_bar)
    count = sum(e.branch == BRANCH_POSITIVE for e in find_equilibria(cfg))
    assert count == 3


def test_tangency_at_threshold(reference_model):
    report = split_threshold(reference_model, 1.4, 1.0, 0.35)
    cfg = BufferedConfig(reference_model, 1.4, 1.0, 0.35, report.r_bar)
    spots = tangency_abscissas(cfg)
    assert spots
    scale = max(1.0, cfg.D)
    hit = False
    for s in spots:
        if (abs(growth_deficit(cfg, s)) <= 1e-7 * scale
                and abs(growth_deficit_prime(cfg, s)) <= 1e-6):
            hit = True
    assert hit


@pytest.mark.parametrize("inputs", NO_UPPER_INPUTS.values(),
                         ids=NO_UPPER_INPUTS.keys())
def test_monod_threshold_is_one(inputs):
    report = split_threshold(*inputs)
    assert report.r_bar == 1.0
    assert report.case == CASE_NO_UPPER
    assert report.r_plus_min is None
    assert report.guarantees_unique(0.5)
    with pytest.raises(NoTangency):
        split_threshold_crosscheck(*inputs)


def test_case_one_with_interior_multiplicity_window():
    # feed below the upper break-even, yet a three-root band exists;
    # the threshold saturates at one and the band is reported
    model = Haldane(12.0, 1.0, 0.1)
    report = split_threshold(model, 2.0, 0.5, 0.2)
    assert report.case == CASE_NO_UPPER
    assert report.r_bar == 1.0
    assert report.r_minus_interval is not None
    lo, hi = report.r_minus_interval
    assert lo == pytest.approx(0.250848, abs=1e-4)
    assert hi == pytest.approx(0.408977, abs=1e-4)
    assert report.guarantees_unique(0.2258)
    assert not report.guarantees_unique(0.33)
    assert report.guarantees_unique(0.5)


def test_crosscheck_matches_primary_route():
    rng = random.Random(11)
    for _ in range(10):
        model, S_in, D, alpha = draw_threshold_inputs(rng)
        primary = split_threshold(model, S_in, D, alpha).r_bar
        other = split_threshold_crosscheck(model, S_in, D, alpha)
        assert other == pytest.approx(primary, abs=1e-6)


def test_crosscheck_on_canonical_scenario(reference_model):
    for alpha, expected in REFERENCE_THRESHOLDS.items():
        got = split_threshold_crosscheck(reference_model, 1.4, 1.0, alpha)
        assert got == pytest.approx(expected, abs=1e-6)


def test_domain_curve_crossing_and_jump(reference_model):
    grid = [0.15, 0.25, 0.35, 0.45, 0.55]
    curve = stable_domain_curve(reference_model, 1.4, 1.0, grid)
    assert len(curve.points) == 5
    for (alpha, r_bar), want in zip(curve.points,
                                    REFERENCE_THRESHOLDS.values()):
        assert r_bar == pytest.approx(want, abs=1e-6)
    assert curve.crossing_alpha == pytest.approx(CROSSING_ALPHA, abs=1e-9)
    left, right = curve.jump
    assert left == pytest.approx(JUMP_LEFT, abs=1e-6)
    assert right == pytest.approx(JUMP_RIGHT, abs=1e-6)
    assert abs(right - left) > 0.01


def test_domain_curve_validation():
    with pytest.raises(ValueError):
        DomainCurve(((0.3, 0.5), (0.2, 0.5)), None, None)
    with pytest.raises(ValueError):
        DomainCurve(((0.3, 1.5),), None, None)


@pytest.mark.parametrize("alphas", [(math.nan, 0.2), (0.1, math.nan),
                                    (0.1, math.inf)])
def test_domain_curve_refuses_non_finite_alpha(reference_model, alphas):
    # NaN fails every comparison, so it passed the increasing-order guard
    with pytest.raises(ValueError, match="alpha grid must be finite"):
        DomainCurve(tuple((a, 0.5) for a in alphas), None, None)
    with pytest.raises(ValueError, match="alpha grid must be finite"):
        stable_domain_curve(reference_model, 1.4, 1.0, list(alphas))


def test_domain_curve_rejects_infeasible_alpha(reference_model):
    bound = reference_model.rate(1.4) / 1.0
    with pytest.raises(ValueError):
        stable_domain_curve(reference_model, 1.4, 1.0, [0.1, bound * 1.5])


def test_domain_curve_checks_the_feed_before_the_bound(reference_model):
    # S_in and D are refused with split_threshold's messages before the
    # feasibility bound mu(S_in) / D is formed
    for S_in, D, message in ((1.4, 0.0, "dilution rate D"),
                             (1.4, -1.0, "dilution rate D"),
                             (math.nan, 1.0, "feed concentration S_in")):
        for fn, alphas in ((split_threshold, 0.35),
                           (stable_domain_curve, [0.1, 0.35])):
            with pytest.raises(ValueError, match=f"^{message} must be positive$"):
                fn(reference_model, S_in, D, alphas)


def test_report_validation(reference_model):
    report = split_threshold(reference_model, 1.4, 1.0, 0.35)
    assert 0.0 < report.r_bar <= 1.0
    assert report.r_plus_min is not None
    assert not report.guarantees_unique(0.0)
    assert not report.guarantees_unique(1.0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__


def test_threshold_layer_matches_recorded_digest(reference_model):
    """split_threshold, classify_case and the crosscheck keep their results.

    The digest is the sha256 of the repr of every result in order; an
    exception is recorded by its type name only.  The points are seeded
    threshold draws (both pivot cases), seeded buffered draws (mostly
    without an upper break-even below the feed), the three no-upper
    inputs and the crossing alpha of the reference law.  Each point runs
    as its closed-form law and as the same law behind callables (no
    closed forms); the crosscheck runs on the closed-form law.  The
    digest assumes IEEE doubles and the libm of the host it was recorded
    on (x86-64 Linux, glibc 2.36).  A deliberate change of output updates
    it, with a CHANGES.md line naming the change.
    """
    rng = random.Random(13)
    points = [draw_threshold_inputs(rng) for _ in range(60)]
    points += [(c.model, c.S_in, c.D, c.alpha)
               for c in (draw_buffered_config(rng) for _ in range(60))]
    points += NO_UPPER_INPUTS.values()
    points.append((reference_model, 1.4, 1.0, CROSSING_ALPHA))
    records = []
    for model, S_in, D, alpha in points:
        wrapped = CustomUnimodal(model.rate, model.rate_prime,
                                 model.peak().abscissa)
        for law in (model, wrapped):
            for fn in (split_threshold, classify_case):
                records.append(_outcome(fn, law, S_in, D, alpha))
        records.append(
            _outcome(split_threshold_crosscheck, model, S_in, D, alpha))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == RECORDED_THRESHOLD_DIGEST

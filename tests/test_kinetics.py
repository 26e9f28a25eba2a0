"""Growth laws, their peaks, and break-even concentrations."""
import math
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from bufchem import CustomUnimodal, GrowthModel, Haldane, Monod


def test_haldane_break_even_frozen_values(reference_model):
    window = reference_model.break_even(1.0)
    assert window is not None
    assert abs(window.lower - 0.10295400907294566) < 1e-12
    assert abs(window.upper - 0.7770459909270544) < 1e-12


def test_haldane_break_even_weaker_inhibition():
    model = Haldane(12.0, 1.0, 0.8)
    window = model.break_even(1.0)
    assert abs(window.lower - 0.09186815429239648) < 1e-12
    assert abs(window.upper - 8.708131845707605) < 1e-11


def test_haldane_break_even_roots_match_a_decimal_reference(reference_model):
    # 6.2e-4 is alpha * D at the smallest default alpha of `bufchem
    # domain`; at 1e-300 the square of K_I (mu_bar / d - 1) overflows
    mu_bar, K, K_I = (Decimal(v) for v in (12.0, 1.0, 0.08))
    for d in (1.0, 0.35, 6.2e-4, 1e-6, 1e-9, 1e-300):
        window = reference_model.break_even(d)
        with localcontext() as ctx:
            ctx.prec = 50
            a = K_I * (mu_bar / Decimal(d) - 1)
            upper = (a + (a * a - 4 * K * K_I).sqrt()) / 2
            for got, want in ((window.lower, K * K_I / upper),
                              (window.upper, upper)):
                assert abs(Decimal(got) / want - 1) <= Decimal("1e-15"), d


def test_haldane_break_even_keeps_roots_finite_past_overflow():
    # K_I (mu_bar / d - 1) overflows at K_I = 1e308, and the sum behind
    # the upper root at 1e307; a root past the largest float is inf
    for K_I in (1e307, 1e308):
        window = Haldane(12.0, 1.0, K_I).break_even(1.0)
        with localcontext() as ctx:
            ctx.prec = 50
            a = Decimal(K_I) * 11
            upper = (a + (a * a - 4 * Decimal(K_I)).sqrt()) / 2
            lower = Decimal(K_I) / upper
            assert abs(Decimal(window.lower) / lower - 1) <= Decimal("1e-15")
            if upper > Decimal(sys.float_info.max):
                assert window.upper == math.inf
            else:
                assert abs(Decimal(window.upper) / upper - 1) \
                    <= Decimal("1e-15")
    assert Haldane(12.0, 1.0, 1e307).break_even(1.0).upper < math.inf


def test_haldane_peak(reference_model):
    peak = reference_model.peak()
    assert abs(peak.abscissa - math.sqrt(0.08)) < 1e-14
    assert abs(peak.height - 1.486792117191545) < 1e-12
    assert peak.is_interior


def test_haldane_no_window_above_peak(reference_model):
    assert reference_model.break_even(1.49) is None
    assert reference_model.break_even(1.486792117191545 * (1 + 1e-9)) is None


def test_monod_break_even_closed_form():
    model = Monod(2.0, 1.0)
    window = model.break_even(1.0)
    assert window.lower == pytest.approx(1.0, abs=1e-14)
    assert not window.has_finite_upper
    assert window.upper == math.inf
    assert model.break_even(2.0) is None
    assert model.break_even(2.5) is None


def test_monod_peak_is_at_infinity():
    peak = Monod(2.0, 1.0).peak()
    assert peak.abscissa == math.inf
    assert peak.height == 2.0
    assert not peak.is_interior


def test_rate_domain_checked(reference_model):
    for s in (-0.1, -1e-9, math.nan, math.inf):
        for law in (reference_model, Monod(2.0, 1.0)):
            for fn in (law.rate, law.rate_prime):
                with pytest.raises(ValueError, match=repr(s)):
                    fn(s)


def test_rate_prime_matches_finite_difference(reference_model):
    h = 1e-7
    for s in (0.05, 0.3, 1.0, 2.5):
        fd = (reference_model.rate(s + h) - reference_model.rate(s - h)) / (2 * h)
        assert reference_model.rate_prime(s) == pytest.approx(fd, abs=1e-6)


def test_generic_bisection_matches_haldane_closed_form(reference_model):
    # base-class route: bracketing bisection around the peak
    generic = GrowthModel.break_even(reference_model, 1.0)
    closed = reference_model.break_even(1.0)
    assert abs(generic.lower - closed.lower) < 1e-9
    assert abs(generic.upper - closed.upper) < 1e-9


def test_generic_bisection_matches_monod_closed_form():
    model = Monod(2.0, 0.7)
    generic = GrowthModel.break_even(model, 1.2)
    closed = model.break_even(1.2)
    assert abs(generic.lower - closed.lower) < 1e-9
    assert generic.upper == math.inf


def test_custom_unimodal_wraps_haldane(reference_model):
    custom = CustomUnimodal(reference_model.rate, reference_model.rate_prime,
                            math.sqrt(0.08))
    window = custom.break_even(1.0)
    assert abs(window.lower - 0.10295400907294566) < 1e-9
    assert abs(window.upper - 0.7770459909270544) < 1e-9


def test_break_even_stops_doubling_before_overflow():
    # the rate falls from its peak but settles at 0.5, above the dilution
    # rate: the decreasing-branch search must give up at a finite level
    levels = []

    def rate(s):
        levels.append(s)
        return 2.0 * s / (1.0 + s * s) if s <= 1.0 else 0.5 + 0.5 / (s * s)

    custom = CustomUnimodal(rate, lambda s: 0.0, 1.0)
    levels.clear()
    window = custom.break_even(0.3)
    assert window.lower == 0.15353599527679762
    assert window.upper == math.inf
    assert all(math.isfinite(s) for s in levels)


def test_custom_unimodal_rejects_a_falling_law_declared_increasing(
        reference_model):
    # the README law falls after s = 0.283; declared without a peak it
    # would read as increasing, with no upper break-even
    with pytest.raises(ValueError, match="increase"):
        CustomUnimodal(reference_model.rate, reference_model.rate_prime,
                       math.inf)


def test_custom_unimodal_rejects_a_law_falling_past_ten_sample_scales():
    # Haldane(12, 1, 500) peaks at s = 22.4, past the 16 samples of
    # (0, 10]; the rising check goes on doubling to 1.4e12
    law = Haldane(12.0, 1.0, 500.0)
    with pytest.raises(ValueError, match="increase"):
        CustomUnimodal(law.rate, law.rate_prime, math.inf)


def test_custom_unimodal_rejects_bad_shape():
    # increasing on both sides of the claimed peak: not unimodal there
    with pytest.raises(ValueError):
        CustomUnimodal(lambda s: s, lambda s: 1.0, 1.0)


def test_invalid_parameters_raise():
    for bad in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0),
                (-1.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            Haldane(*bad)
    with pytest.raises(ValueError):
        Monod(0.0, 1.0)
    with pytest.raises(ValueError):
        Monod(1.0, -1.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(1.0, 20.0), st.floats(0.05, 2.0), st.floats(0.05, 5.0),
       st.floats(0.05, 0.95))
def test_break_even_endpoints_hit_rate(mu_bar, K, K_I, frac):
    model = Haldane(mu_bar, K, K_I)
    D = frac * model.peak().height
    window = model.break_even(D)
    if window is None:
        return
    assert model.rate(window.lower) == pytest.approx(D, rel=1e-9)
    assert model.rate(window.upper) == pytest.approx(D, rel=1e-9)
    assert window.lower <= model.peak().abscissa <= window.upper
    assert window.contains(model.peak().abscissa)


@settings(max_examples=80, deadline=None)
@given(st.floats(1.0, 20.0), st.floats(0.05, 2.0), st.floats(0.05, 5.0))
def test_haldane_unimodal_shape(mu_bar, K, K_I):
    model = Haldane(mu_bar, K, K_I)
    peak = model.peak()
    assert model.rate(0.0) == 0.0
    assert model.rate_prime(0.5 * peak.abscissa) > 0.0
    assert model.rate_prime(2.0 * peak.abscissa) < 0.0
    assert model.rate(peak.abscissa) == pytest.approx(peak.height, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 5.0), st.floats(0.05, 2.0), st.floats(0.05, 0.95))
def test_monod_break_even_formula(mu_max, K_s, frac):
    model = Monod(mu_max, K_s)
    D = frac * mu_max
    window = model.break_even(D)
    assert window.lower == pytest.approx(K_s * D / (mu_max - D), rel=1e-12)
    assert model.rate(window.lower) == pytest.approx(D, rel=1e-12)

"""The analysis layer's extreme values against a dense-sampling reference.

split_threshold and buffer_design read every extreme value at the
critical levels of a closed-form derivative.  The reference here shares
none of that: it samples the curve itself on a grid four times finer,
takes each discrete extremum and refines it by golden section, and
compares the values.  split_threshold samples only the intervals it
reads; its reports are also held to those of the whole grid's scan.
"""
import math
import random

import pytest
from conftest import draw_buffered_config

import bufchem.buffered
import bufchem.design
import bufchem.multiplicity
from bufchem import (BufferedConfig, CustomUnimodal, Haldane, Monod,
                     buffer_design, find_equilibria, split_threshold,
                     surplus_region, uptake_capacity, washout_surplus)
from bufchem._numerics import (_GRID, _bisected_sign_changes, bisect_root,
                               critical_levels, critical_levels_above,
                               proxy_levels)
from bufchem.buffered import _buffer_level, pivot_level, split_map
from bufchem.multiplicity import (CASE_NO_UPPER, CASE_PIVOT_ABOVE,
                                  CASE_PIVOT_AT, CASE_PIVOT_BELOW,
                                  _operating_point)

_SAMPLES = 8192
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_best(f, lo: float, hi: float, sign: float) -> float:
    """The largest sign * f over [lo, hi], times sign, by golden section;
    the best value seen, so a flat stretch never loses digits."""
    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    best = max(fc, fd, sign * f(lo), sign * f(hi))
    for _ in range(120):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = sign * f(d)
        best = max(best, fc, fd)
    return sign * best


def _local_extrema(f, lo: float, hi: float) -> tuple[list, list]:
    """(minimum values, maximum values) of f at the discrete interior
    extrema of a midpoint grid on (lo, hi), each refined."""
    step = (hi - lo) / _SAMPLES
    xs = [lo + step * (i + 0.5) for i in range(_SAMPLES)]
    vs = [f(x) for x in xs]
    mins, maxs = [], []
    for i in range(1, _SAMPLES - 1):
        a, v, b = vs[i - 1], vs[i], vs[i + 1]
        if v <= a and v <= b and (v < a or v < b):
            mins.append(_golden_best(f, xs[i - 1], xs[i + 1], -1.0))
        if v >= a and v >= b and (v > a or v > b):
            maxs.append(_golden_best(f, xs[i - 1], xs[i + 1], 1.0))
    return mins, maxs


def _largest(f, lo: float, hi: float) -> float:
    """max f on the closed [lo, hi]: both ends, and every refined
    discrete interior maximum."""
    return max([f(lo), f(hi), *_local_extrema(f, lo, hi)[1]])


def reference_threshold(model, S_in: float, D: float, alpha: float):
    """(r_plus_min, band) of split_threshold from samples of gamma itself."""
    _, _, plus, extrema = _operating_point(model, S_in, D, alpha)
    gamma = split_map(model, S_in, D, alpha)
    r_plus_min = None
    if plus is not None:
        r_plus_min = min(_local_extrema(gamma, *plus)[0])
    band = None
    if extrema is not None and extrema[0] < extrema[1]:
        mins, maxs = _local_extrema(gamma, *extrema)
        if mins or maxs:
            band = (min(mins + maxs), max(mins + maxs))
    return r_plus_min, band


def reference_v2_inf(model, S_in: float, D: float, s_bar: float) -> float:
    upper = model.break_even(D).upper
    surplus = _largest(lambda s: washout_surplus(model, S_in, D, s),
                       upper, S_in)
    capacity = _largest(lambda s: uptake_capacity(model, S_in, s),
                        0.0, s_bar)
    return surplus / capacity


def _andrews(mu_bar: float, K: float, K_I: float) -> CustomUnimodal:
    def mu(s):
        return mu_bar * s / (K + s) * math.exp(-s / K_I)

    def mu_prime(s):
        return mu_bar * math.exp(-s / K_I) * (
            K / (K + s) ** 2 - s / ((K + s) * K_I))

    return CustomUnimodal(mu, mu_prime,
                          0.5 * (-K + math.sqrt(K * K + 4.0 * K * K_I)))


def _draws(kind: str, n: int, seed: int):
    """n points with an upper break-even of D below the feed and a viable
    buffer, for a Haldane law, an Andrews law, or Haldane as callables."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        params = (rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5),
                  rng.uniform(0.05, 4.0))
        S_in, D = rng.uniform(0.3, 4.0), rng.uniform(0.1, 2.0)
        alpha = rng.uniform(0.05, 1.0)
        if kind == "andrews":
            model = _andrews(*params)
        else:
            model = Haldane(*params)
            if kind == "wrapped":
                model = CustomUnimodal(model.rate, model.rate_prime,
                                       model.peak().abscissa)
        window = model.break_even(D)
        if (window is None or not window.has_finite_upper
                or window.upper >= 0.95 * S_in):
            continue
        buffer_window = model.break_even(alpha * D)
        if buffer_window is None or buffer_window.lower >= 0.9 * S_in:
            continue
        out.append((model, S_in, D, alpha))
    return out


@pytest.mark.parametrize("kind, seed", [("haldane", 61), ("andrews", 62),
                                        ("wrapped", 63)])
def test_threshold_extremes_match_dense_reference(kind, seed):
    bands = 0
    for model, S_in, D, alpha in _draws(kind, 30, seed):
        report = split_threshold(model, S_in, D, alpha)
        r_plus_min, band = reference_threshold(model, S_in, D, alpha)
        assert report.r_plus_min == pytest.approx(r_plus_min, rel=0.0,
                                                  abs=1e-12)
        assert (report.r_minus_interval is None) == (band is None)
        if band is not None:
            bands += 1
            assert report.r_minus_interval == pytest.approx(
                band, rel=0.0, abs=1e-12)
    assert bands, "no draw has a band of extra rest points"


@pytest.mark.parametrize("wrapped", [False, True])
def test_threshold_extremes_on_intervals_narrower_than_a_grid_cell(wrapped):
    # a plus interval (upper, S_in) and a window (lower, upper) each far
    # narrower than S_in / 2048: the scan samples each case interval's ends
    model = Haldane(12.0, 1.0, 0.08)
    if wrapped:
        model = CustomUnimodal(model.rate, model.rate_prime,
                               model.peak().abscissa)
    D = 1.0
    near_feed = (model, model.break_even(D).upper + 1e-4, D, 0.5)
    D = model.peak().height * (1.0 - 1e-6)
    near_peak = (model, 3.0, D, 0.3)
    for point, case in ((near_feed, CASE_PIVOT_BELOW),
                        (near_peak, CASE_PIVOT_ABOVE)):
        report = split_threshold(*point)
        assert report.case == case
        assert report.r_plus_min == pytest.approx(
            reference_threshold(*point)[0], rel=0.0, abs=1e-12)
    # no level fits between the ends of a plus interval one ulp wide;
    # the split map is 1 at both
    upper = model.break_even(1.0).upper
    report = split_threshold(model, math.nextafter(upper, math.inf), 1.0, 0.5)
    assert report.r_plus_min == 1.0


@pytest.mark.parametrize("kind, seed", [("haldane", 71), ("andrews", 72),
                                        ("wrapped", 73)])
def test_buffer_size_matches_dense_reference(kind, seed):
    for model, S_in, D, _ in _draws(kind, 15, seed):
        report = buffer_design(model, S_in, D)
        want = reference_v2_inf(model, S_in, D, report.s_bar)
        assert report.v2_inf == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("kind, seed", [("andrews", 81), ("wrapped", 82)])
def test_proxy_levels_match_the_scan_on_both_design_slopes(kind, seed,
                                                           monkeypatch):
    draws = _draws(kind, 30, seed)
    reports = [buffer_design(model, S_in, D) for model, S_in, D, _ in draws]
    for (model, S_in, D, _), report in zip(draws, reports):
        mu, mu_p = model._rate_raw, model._rate_prime_raw
        slopes = ((lambda s: -(D - mu(s)) - (S_in - s) * mu_p(s),
                   model.break_even(D).upper, S_in),
                  (lambda s: mu_p(s) * (S_in - s) - mu(s), 0.0, report.s_bar))
        for g, lo, hi in slopes:
            want = critical_levels(g, lo, hi)
            assert proxy_levels(g, lo, hi) == pytest.approx(
                want, rel=1e-12, abs=0.0)
    # the same designs with buffer_design's route put back on the scan
    monkeypatch.setattr(bufchem.design, "proxy_levels", critical_levels)
    for (model, S_in, D, _), report in zip(draws, reports):
        scanned = buffer_design(model, S_in, D)
        for name in ("delta_v_inf", "v2_inf", "d2_star", "s_bar",
                     "surplus_max"):
            assert getattr(report, name) == pytest.approx(
                getattr(scanned, name), rel=1e-12, abs=0.0)


def test_capacity_peak_at_s_bar_runs_the_buffer_at_the_feed_rate(
        reference_model):
    # the feeds of design_comparison.csv for the README law: the capacity
    # still rises at s_bar, so the buffer runs at exactly mu(S_in)
    D = 1.0
    lo, hi = reference_model.break_even(D).upper, 3.0
    for feed in [1.4] + [lo + k * (hi - lo) / 30 for k in range(1, 31)]:
        report = buffer_design(reference_model, feed, D)
        capacity = lambda s: uptake_capacity(reference_model, feed, s)
        assert not _local_extrema(capacity, 0.0, report.s_bar)[1]
        assert report.d2_star == reference_model.rate(feed)
        assert report.v2_inf == pytest.approx(
            reference_v2_inf(reference_model, feed, D, report.s_bar),
            rel=1e-8)


def _whole_grid(g, lo: float, hi: float, pieces) -> list[float]:
    """The oracle: critical_levels(g, lo, hi) with every piece's ends
    sampled too, the scan split_threshold made of the whole grid before
    it sampled its pieces alone."""
    step = (hi - lo) / _GRID
    xs = sorted([lo + step * (i + 0.5) for i in range(_GRID)]
                + [end for piece in pieces for end in piece])
    return _bisected_sign_changes(g, xs, [g(x) for x in xs])


def _at_crossing(model, S_in: float, D: float, alpha: float) -> float:
    """The alpha below the given one where the pivot level meets the upper
    break-even of D, or the given alpha where it stays above it."""
    upper = model.break_even(D).upper
    gap = lambda a: pivot_level(model, S_in, D, a) - upper
    return bisect_root(gap, 1e-9, alpha, 0.0) if gap(alpha) < 0.0 else alpha


def _report(*point):
    try:
        return split_threshold(*point)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_threshold_on_its_intervals_equals_the_whole_grid(monkeypatch):
    # split_threshold's reports on the whole grid, below the law's peak
    # too, then critical_levels on its pieces against the whole grid for
    # functions of our own.
    # 1000 Haldane points and 500 CustomUnimodal ones in all four cases,
    # every third one at the alpha where the pivot meets the upper
    # break-even, and 300 buffered draws, mostly without an upper one
    rng = random.Random(27)
    points = []
    for kind, n, seed in (("haldane", 700, 91), ("wrapped", 250, 92),
                          ("andrews", 250, 93)):
        for i, (model, S_in, D, alpha) in enumerate(_draws(kind, n, seed)):
            if i % 3 == 0:
                alpha = _at_crossing(model, S_in, D, alpha)
            points.append((model, S_in, D, alpha))
    for _ in range(300):
        config = draw_buffered_config(rng)
        points.append((config.model, config.S_in, config.D, config.alpha))
    reports = [_report(*point) for point in points]
    assert {r.case for r in reports if not isinstance(r, tuple)} == {
        CASE_NO_UPPER, CASE_PIVOT_BELOW, CASE_PIVOT_AT, CASE_PIVOT_ABOVE}
    with monkeypatch.context() as m:
        m.setattr(bufchem.multiplicity, "critical_levels_above",
                  lambda g, lo, hi, x, pieces: _whole_grid(g, lo, hi, pieces))
        assert [_report(*point) for point in points] == reports

    def inside(g, lo, hi, pieces):
        levels = _whole_grid(g, lo, hi, pieces)
        return [s for a, b in pieces for s in levels if a < s < b]

    # two pieces with ends on grid points or between them, and two sign
    # changes within 1.5 grid steps of each end
    step = 1.0 / _GRID
    for _ in range(200):
        ends = sorted(rng.choice([rng.uniform(0.0, 1.0),
                                  (rng.randrange(_GRID) + 0.5) * step])
                      for _ in range(4))
        roots = [end + rng.uniform(-1.5, 1.5) * step
                 for end in ends for _ in range(2)]
        g = lambda x, roots=roots: math.prod(x - r for r in roots)
        pieces = [tuple(ends[:2]), tuple(ends[2:])]
        assert critical_levels(g, 0.0, 1.0, pieces) == inside(
            g, 0.0, 1.0, pieces)
    # exact zeros at a piece's end and its nearest grid point, the next
    # grid point past the end of the same sign as the last one before
    # the run: a touch, which the whole grid's scan reads across the end
    def flat(x):
        return max(abs(x - 999.75) - 0.4, 0.0)

    for g in (flat, lambda x: -flat(x),
              lambda x: math.copysign(flat(x), x - 999.75)):
        for piece in ((900.0, 1000.0), (999.4, 1100.0)):
            assert g(piece[0]) == 0.0 or g(piece[1]) == 0.0
            assert critical_levels(g, 0.0, float(_GRID), [piece]) == inside(
                g, 0.0, float(_GRID), [piece])



def _recorded(fn, calls: list):
    """fn, appending each argument it is called at to calls."""
    def wrapped(s):
        calls.append(s)
        return fn(s)
    return wrapped


class _CheckedCut:
    """critical_levels_above as the two rate-law scans call it, held to
    the scan it cuts: the same levels as critical_levels on the whole
    grid, or on the whole pieces.  calls is the list the law under test
    records its arguments in; the law must not be called on a grid point
    below the cut, the last one at or below the level x (None: no cut),
    while the cut scan runs.  sampled and skipped count the cut scan's samples and
    those it saved against the whole scan, per case."""

    def __init__(self, calls: list, case: str = ""):
        self.calls, self.case = calls, case
        self.sampled, self.skipped = 0, {}

    def __call__(self, g, lo, hi, x, pieces=None):
        step = (hi - lo) / _GRID
        grid = [lo + step * (i + 0.5) for i in range(_GRID)]
        cut = -math.inf if x is None else max([p for p in grid if p <= x],
                                               default=-math.inf)
        mark = len(self.calls)
        cut_samples, whole_samples = [], []
        levels = critical_levels_above(_recorded(g, cut_samples), lo, hi,
                                       x, pieces)
        assert not {p for p in grid if p < cut} & set(self.calls[mark:])
        args = () if pieces is None else (pieces,)
        assert levels == critical_levels(_recorded(g, whole_samples), lo, hi,
                                         *args)
        self.sampled += len(cut_samples)
        self.skipped[self.case] = (self.skipped.get(self.case, 0)
                                   + len(whole_samples) - len(cut_samples))
        return levels


def _draws_in_every_case(n: int, seed: int, calls: list):
    """n points of each law, Haldane, Andrews and Haldane as callables,
    with a viable buffer and any window of D; every third one with an
    upper break-even below the feed sits at the alpha where the pivot
    meets it.  The callables append each argument they are called at to
    calls; Haldane's calls need _record_raw_calls."""
    rng = random.Random(seed)
    for kind in ("haldane", "andrews", "wrapped"):
        drawn = 0
        while drawn < n:
            params = (rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5),
                      rng.uniform(0.05, 4.0))
            S_in, D = rng.uniform(0.3, 4.0), rng.uniform(0.1, 2.0)
            alpha = rng.uniform(0.05, 1.0)
            model = Haldane(*params)
            if kind != "haldane":
                law = _andrews(*params) if kind == "andrews" else model
                model = CustomUnimodal(_recorded(law.rate, calls),
                                       _recorded(law.rate_prime, calls),
                                       law.peak().abscissa)
            buffer_window = model.break_even(alpha * D)
            if buffer_window is None or buffer_window.lower >= 0.9 * S_in:
                continue
            window = model.break_even(D)
            if (drawn % 3 == 0 and window is not None
                    and window.upper < 0.95 * S_in):
                alpha = _at_crossing(model, S_in, D, alpha)
            drawn += 1
            yield model, S_in, D, alpha


def _record_raw_calls(monkeypatch, law: type, calls: list) -> None:
    """Make every _rate_raw and _rate_prime_raw call of law's instances
    append its argument to calls."""
    for name in ("_rate_raw", "_rate_prime_raw"):
        raw = getattr(law, name)
        monkeypatch.setattr(law, name, lambda self, s, raw=raw:
                            calls.append(s) or raw(self, s))


def test_rate_law_scans_skip_the_grid_below_the_peak(monkeypatch):
    # below a declared peak mu' >= 0 fixes the sign of both the split
    # map's derivative numerator and the deficit's slope: each scan
    # starts at the last grid point at or below the peak, with the whole
    # scan's levels, and never calls the law on a grid point below it
    calls = []
    _record_raw_calls(monkeypatch, Haldane, calls)
    split_scan, deficit_scan = _CheckedCut(calls), _CheckedCut(calls,
                                                               "deficit")
    monkeypatch.setattr(bufchem.multiplicity, "critical_levels_above",
                        split_scan)
    monkeypatch.setattr(bufchem.buffered, "critical_levels_above",
                        deficit_scan)
    points = 0
    for model, S_in, D, alpha in _draws_in_every_case(200, 33, calls):
        split_scan.case = _operating_point(model, S_in, D, alpha)[1]
        report = _report(model, S_in, D, alpha)
        r = 0.5 if isinstance(report, tuple) else 0.9 * report.r_bar
        config = BufferedConfig(model, S_in, D, alpha,
                                r if alpha * (1.0 - r) <= 1.0 else 0.5)
        bufchem.buffered._scan_levels(config, _buffer_level(config))
        points += 1
    assert points == 600
    # every case, and the deficit, had grid points below the peak to skip
    assert set(split_scan.skipped) == {CASE_NO_UPPER, CASE_PIVOT_BELOW,
                                       CASE_PIVOT_AT, CASE_PIVOT_ABOVE}
    assert min(split_scan.skipped.values()) > 0
    assert deficit_scan.skipped["deficit"] > 0


def test_rising_laws_make_no_grid_call(monkeypatch):
    # a law that rises up to the feed has no critical level in either
    # scan: neither samples its grid, and every answer is the one the
    # whole scans give
    calls = []
    _record_raw_calls(monkeypatch, Monod, calls)
    monod = Monod(2.0, 1.0)
    rising = CustomUnimodal(_recorded(monod.rate, calls),
                            _recorded(monod.rate_prime, calls), math.inf)
    # growth windows of D below the feed and above it
    points = [(1.4, 1.0, 0.35, 0.6), (3.0, 0.5, 1.2, 0.5),
              (0.5, 1.9, 0.3, 0.3), (2.0, 1.5, 0.6, 0.8)]

    def answers():
        out = []
        for model in (monod, rising):
            for S_in, D, alpha, r in points:
                config = BufferedConfig(model, S_in, D, alpha, r)
                out.append((split_threshold(model, S_in, D, alpha),
                            find_equilibria(config), surplus_region(config)))
        return out

    with monkeypatch.context() as m:
        for module in (bufchem.multiplicity, bufchem.buffered):
            m.setattr(module, "declared_peak", lambda model: None)
        whole = answers()
    scans = _CheckedCut(calls)
    for module in (bufchem.multiplicity, bufchem.buffered):
        monkeypatch.setattr(module, "critical_levels_above", scans)
    assert answers() == whole
    assert scans.sampled == 0 and scans.skipped[""] > 0

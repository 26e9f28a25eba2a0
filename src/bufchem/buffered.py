"""Two-vessel buffered chemostat: configuration, rest points, growth balance.

A small buffer vessel (volume fraction 1 - r of the total) receives a
share of the feed and drains into the main vessel.  With alpha the
buffer's flow-per-volume share and D the aggregate dilution rate, the
unit-yield model reads

    dS1/dt = -mu(S1) X1 + (D/r) [a(1-r)(S2 - S1) + (1 - a(1-r))(S_in - S1)]
    dX1/dt =  mu(S1) X1 + (D/r) [a(1-r) X2 - X1]
    dS2/dt = -mu(S2) X2 + a D (S_in - S2)
    dX2/dt = (mu(S2) - a D) X2

Rest points split into two families: the buffer-active branch, where the
buffer holds its own positive equilibrium, and the buffer-washout branch
with a sterile buffer.  On the buffer-active branch the main vessel's
substrate level solves

    growth_deficit(s) = D * required_growth_ratio(s) - mu(s) = 0,

and the companion map equilibrium_split(s) returns the volume split r
that would turn a given level s into a rest point, which is what the
multiplicity analysis builds on.
"""
from __future__ import annotations

import math
from typing import Optional

from ._numerics import (Record, bisect_root, critical_levels_above,
                        finite_positive, newton_polish, real_cubic_roots)
from .kinetics import GrowthModel, closed_form, declared_peak

__all__ = [
    "InfeasibleBufferError",
    "SingularSplitPoint",
    "ConsistencyError",
    "BufferedConfig",
    "Equilibrium",
    "IntervalSet",
    "BRANCH_POSITIVE",
    "BRANCH_WASHOUT",
    "buffer_substrate",
    "pivot_level",
    "required_growth_ratio",
    "growth_deficit",
    "growth_deficit_prime",
    "equilibrium_split",
    "split_map",
    "find_equilibria",
    "surplus_region",
]

BRANCH_POSITIVE = "buffer_positive"
BRANCH_WASHOUT = "buffer_washout"

_TANGENCY_TOL = 1e-8           # |deficit| / D of a double root at a critical point
_EDGE_PAD = 1e-12              # both routes' margin inside (0, S_in)
_SINGULAR_TOL = 1e-14


class InfeasibleBufferError(ValueError):
    """The buffer cannot sustain its own positive equilibrium.

    clause is "no_growth_window" when growth never exceeds the buffer
    dilution rate alpha*D, or "buffer_level_above_feed" when the
    break-even level exists but sits at or above the feed concentration.
    """

    def __init__(self, clause: str, detail: str):
        self.clause = clause
        super().__init__(detail)


class SingularSplitPoint(ValueError):
    """equilibrium_split hit a non-removable denominator zero."""


class ConsistencyError(RuntimeError):
    """A closed form breaks a property its kinetics guarantees, as when
    split_threshold finds a Haldane extra-root band not below the boundary."""


class BufferedConfig(Record):
    """Operating point of the buffered chemostat.

    alpha > 0 and 0 < r < 1 with alpha * (1 - r) <= 1; the last bound is
    the feed split constraint (the main vessel's direct feed share is
    1 - alpha (1 - r) and cannot go negative).
    """
    model: GrowthModel
    S_in: float
    D: float
    alpha: float
    r: float

    def __post_init__(self) -> None:
        _check_feed(self.S_in, self.D, self.alpha)
        if not (0.0 < self.r < 1.0):
            raise ValueError("volume split r must lie strictly inside (0, 1)")
        if self.alpha * (1.0 - self.r) > 1.0 + 1e-12:
            raise ValueError(
                "alpha * (1 - r) exceeds 1: the main vessel's feed share "
                "would be negative")

    @classmethod
    def from_physical(cls, Q1: float, Q2: float, V1: float, V2: float,
                      S_in: float, model: GrowthModel) -> "BufferedConfig":
        """Build the dimensionless operating point from flows and volumes.

        Q1 may be zero (the whole feed routed through the buffer); a zero
        buffer volume V2 or main volume V1 has no finite counterpart in
        this parameterization and is rejected.
        """
        if not finite_positive(V1):
            raise ValueError("V1 = 0 (pure by-pass) is unsupported")
        if not finite_positive(V2):
            raise ValueError("V2 = 0 (no buffer vessel) is unsupported")
        if not finite_positive(Q2):
            raise ValueError("buffer feed flow Q2 must be positive")
        if not (Q1 == 0.0 or finite_positive(Q1)):
            raise ValueError("main feed flow Q1 must be >= 0")
        q = Q1 + Q2
        v = V1 + V2
        r = V1 / v
        return cls(model=model, S_in=S_in, D=q / v,
                   alpha=Q2 / ((1.0 - r) * q), r=r)


class Equilibrium(Record):
    """A rest point of the four-state system with its linearization."""
    s1: float
    x1: float
    s2: float
    x2: float
    branch: str
    eigenvalues: tuple[float, float, float, float]
    tag: str
    unstable: int

    @property
    def state(self) -> tuple[float, float, float, float]:
        return (self.s1, self.x1, self.s2, self.x2)


class IntervalSet(Record):
    """Disjoint open intervals, sorted by left endpoint."""
    components: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev = -math.inf
        for lo, hi in self.components:
            if not (hi > lo >= prev):
                raise ValueError("components must be sorted and disjoint")
            prev = hi

    def __len__(self) -> int:
        return len(self.components)

    def contains(self, x: float) -> bool:
        return any(lo < x < hi for lo, hi in self.components)


def _check_feed(S_in: float, D: float, alpha: float) -> None:
    for value, name in ((S_in, "feed concentration S_in"),
                        (D, "dilution rate D"), (alpha, "flow share alpha")):
        if not finite_positive(value):
            raise ValueError(f"{name} must be positive")


# ---------------------------------------------------------------------------
# scalar maps; explicit-argument forms feed the multiplicity module, which
# sweeps alpha without committing to a volume split r

def buffer_substrate(model: GrowthModel, S_in: float, D: float,
                     alpha: float) -> float:
    """The buffer's attracting equilibrium substrate level.

    This is the lower break-even concentration of the buffer dilution
    rate alpha * D.  Raises InfeasibleBufferError when the buffer cannot hold a
    positive equilibrium below the feed level.
    """
    _check_feed(S_in, D, alpha)
    window = model.break_even(alpha * D)
    if window is None:
        raise InfeasibleBufferError(
            "no_growth_window",
            f"growth never exceeds the buffer dilution rate {alpha * D}")
    if window.lower >= S_in:
        raise InfeasibleBufferError(
            "buffer_level_above_feed",
            f"buffer break-even level {window.lower} is not below the feed "
            f"concentration {S_in}")
    return window.lower


def pivot_level(model: GrowthModel, S_in: float, D: float,
                alpha: float) -> float:
    """Alpha-weighted blend of buffer equilibrium and feed substrate levels.

    The required-growth-ratio curve passes through 1 at this level for
    every volume split r, so the whole family of curves pivots here.
    Negative values are legitimate (alpha > 1 with a lean buffer) and
    returned as-is.
    """
    s2 = buffer_substrate(model, S_in, D, alpha)
    return alpha * s2 + (1.0 - alpha) * S_in


def _buffer_level(config: BufferedConfig) -> float:
    """buffer_substrate at config's operating point."""
    return buffer_substrate(config.model, config.S_in, config.D, config.alpha)


def _deficit_fn(config: BufferedConfig, s2: float):
    """(ratio, ratio', deficit, deficit') of the level s, as closures,
    with the buffer at its level s2.

    ratio is the required growth ratio and deficit = D * ratio - mu.
    deficit' keeps the rest-level scan's rounding; _deficit_prime keeps
    D * ratio' - mu' for the eigenvalues (they differ in the last bit).
    """
    model, S_in, D, alpha, r = (config.model, config.S_in, config.D,
                                config.alpha, config.r)
    mu, mu_p = model._rate_raw, model._rate_prime_raw
    k = (1.0 - r) / r
    a_gap = alpha * (S_in - s2)

    def ratio(s: float) -> float:
        return 1.0 + k * (1.0 - a_gap / (S_in - s))

    def ratio_prime(s: float) -> float:
        return -k * alpha * (S_in - s2) / (S_in - s) ** 2

    def f(s: float) -> float:
        return D * (1.0 + k * (1.0 - a_gap / (S_in - s))) - mu(s)

    def fp(s: float) -> float:
        return -D * k * a_gap / (S_in - s) ** 2 - mu_p(s)

    return ratio, ratio_prime, f, fp


def _check_level(config: BufferedConfig, s: float) -> None:
    if not (0.0 <= s < config.S_in):
        raise ValueError(f"level s must lie in [0, S_in), got {s}")


def required_growth_ratio(config: BufferedConfig, s: float) -> float:
    """mu(s)/D needed to hold the main vessel at level s, as a ratio.

    Strictly decreasing in s with a pole at the feed level; equals 1 at
    the pivot level regardless of r.
    """
    _check_level(config, s)
    return _deficit_fn(config, _buffer_level(config))[0](s)


def growth_deficit(config: BufferedConfig, s: float) -> float:
    """D * required_growth_ratio(s) - mu(s).

    Positive where dilution outpaces growth (substrate accumulates on
    the slow manifold), negative where growth wins; its zeros on
    (0, S_in) are exactly the buffer-active rest levels of the main
    vessel.
    """
    _check_level(config, s)
    return _deficit_fn(config, _buffer_level(config))[2](s)


def growth_deficit_prime(config: BufferedConfig, s: float) -> float:
    return _deficit_prime(config, _buffer_level(config), s)


def _deficit_prime(config: BufferedConfig, s2: float, s: float) -> float:
    """growth_deficit_prime with the buffer at its level s2."""
    _check_level(config, s)
    return config.D * _deficit_fn(config, s2)[1](s) - config.model.rate_prime(s)


def equilibrium_split(config: BufferedConfig, s: float) -> float:
    """The volume split r at which level s would be a rest point.

    Defined on (0, S_in) wherever the denominator is non-zero; at the
    pivot level the zero is removable exactly when the growth rate there
    equals D, and the continuous extension

        1 / (1 - (S_in - pivot) mu'(pivot) / D)

    is used inside a narrow window around the pivot in that case.
    """
    if not (0.0 < s < config.S_in):
        raise ValueError(f"level s must lie in (0, S_in), got {s}")
    return split_map(config.model, config.S_in, config.D, config.alpha)(s)


def split_map(model: GrowthModel, S_in: float, D: float, alpha: float):
    """Closure form of equilibrium_split with the pivot precomputed.

    Intended for sweeps that evaluate the map thousands of times at a
    fixed operating point.  The removable singularity at the pivot level
    (present exactly when the growth rate there equals D) is patched by
    its continuous extension inside a 1e-9-wide window; any other
    denominator zero raises SingularSplitPoint.

    The closure's prime_numerator attribute, -(den + (pivot - s) den'),
    is the numerator of its derivative: same zeros, no poles.
    """
    return _pivot_split_map(model, S_in, D, pivot_level(model, S_in, D, alpha))


def _pivot_split_map(model: GrowthModel, S_in: float, D: float, pv: float):
    """split_map at a pivot level pv the caller has already computed."""
    mu, mu_p = model._rate_raw, model._rate_prime_raw
    ext: Optional[float] = None
    if 0.0 < pv < S_in and abs(mu(pv) - D) <= 1e-6 * D:
        ext = 1.0 / (1.0 - (S_in - pv) * mu_p(pv) / D)
    window = 1e-9 * max(1.0, abs(pv))

    def gamma(s: float) -> float:
        if ext is not None and abs(s - pv) <= window:
            return ext
        num = pv - s
        den = pv - S_in + (S_in - s) * mu(s) / D
        if abs(den) <= _SINGULAR_TOL:
            raise SingularSplitPoint(
                f"equilibrium_split has a non-removable singularity at s = {s}")
        return num / den

    def prime_numerator(s: float) -> float:
        m = mu(s)
        num = pv - s
        den = pv - S_in + (S_in - s) * m / D
        den_p = (-m + (S_in - s) * mu_p(s)) / D
        return -(den + num * den_p)

    gamma.prime_numerator = prime_numerator
    return gamma


# ---------------------------------------------------------------------------
# rest-point enumeration

def _positive_levels(config: BufferedConfig, s2: float) -> list[float]:
    """Sorted rest levels of the main vessel on (0, S_in), with the buffer
    at its level s2: the closed-form cubic for Haldane kinetics, the
    critical-point pass for every other law."""
    if closed_form(config.model) == "haldane":
        return _haldane_levels(config, s2)
    return _scan_levels(config, s2)


def _scan_levels(config: BufferedConfig, s2: float) -> list[float]:
    """Rest levels of any rate law, with the buffer at its level s2.  The
    zeros of the deficit's slope cut (0, S_in) into monotone pieces; each
    piece whose ends differ in sign holds one root, and a critical point
    where the deficit vanishes is a double root.  The pieces beside a
    double root are not bisected: a deficit within the tolerance of zero
    may still change sign there, and would split the one root into
    three.  It shares nothing with the Haldane cubic but the final polish.

    The slope -D k a_gap / (S_in - s)^2 - mu'(s), k a_gap > 0, is < 0
    wherever mu' >= 0: below a declared peak.  So its scan reads the grid
    from the last point at or below the peak on (critical_levels_above),
    with the whole grid's levels, and nothing for a peak at or past the
    grid's last point."""
    S_in = config.S_in
    _, _, f, fp = _deficit_fn(config, s2)
    crit = critical_levels_above(fp, 0.0, S_in, declared_peak(config.model))
    cuts = [_EDGE_PAD * S_in, *crit, (1.0 - _EDGE_PAD) * S_in]
    vals = [f(c) for c in cuts]
    tol = _TANGENCY_TOL * config.D
    double = [False, *(abs(v) <= tol for v in vals[1:-1]), False]
    roots = [c for c, d in zip(cuts, double) if d]
    roots += [bisect_root(f, a, b, 0.0)
              for a, b, fa, fb, da, db in zip(cuts, cuts[1:], vals, vals[1:],
                                              double, double[1:])
              if not (da or db) and (fa > 0.0) != (fb > 0.0)]
    return _polished(config, f, fp, roots)


def _haldane_levels(config: BufferedConfig, s2: float) -> list[float]:
    """Rest levels via the equivalent cubic, exact for Haldane kinetics,
    with the buffer at its level s2."""
    model = config.model
    S_in, D, alpha, r = config.S_in, config.D, config.alpha, config.r
    K, K_I, mu_bar = model.K, model.K_I, model.mu_bar
    a_cap = S_in - alpha * (1.0 - r) * (S_in - s2)
    a3 = -D / K_I
    a2 = D * (a_cap / K_I - 1.0) + r * mu_bar
    a1 = D * (a_cap - K) - r * mu_bar * S_in
    a0 = D * a_cap * K
    tol = _EDGE_PAD * S_in
    _, _, f, fp = _deficit_fn(config, s2)
    # in units of S_in, so the cubic's double-root test is unit-free
    return _polished(config, f, fp,
                     [t * S_in for t in real_cubic_roots(
                         a3 * S_in ** 3, a2 * S_in ** 2, a1 * S_in, a0)
                      if tol < t * S_in < S_in - tol])


def _polished(config: BufferedConfig, f, fp, roots: list[float]
              ) -> list[float]:
    """Newton-polish each root with |f'| > 1e-9 D (a smaller slope marks
    a double root), sort, and merge roots within 1e-8 S_in."""
    out: list[float] = []
    for v in sorted(newton_polish(f, fp, s, 0.0, config.S_in)
                    if abs(fp(s)) > 1e-9 * config.D else s for s in roots):
        if not out or v - out[-1] > 1e-8 * config.S_in:
            out.append(v)
    return out


def find_equilibria(config: BufferedConfig) -> list[Equilibrium]:
    """All rest points of the four-state system, stability-tagged.

    Buffer-active branch: one rest point per zero of the growth deficit
    on (0, S_in), with the buffer at its own positive equilibrium.
    Buffer-washout branch: a sterile buffer at the feed level combined
    with each single-vessel rest point of the main vessel at dilution
    D / r, plus total washout.  Every returned state satisfies the
    rest-point equations to within 1e-10; the buffer's break-even level
    is solved once.
    """
    from . import stability

    model, S_in, D, r = config.model, config.S_in, config.D, config.r
    s2 = _buffer_level(config)
    out: list[Equilibrium] = []

    for s1 in _positive_levels(config, s2):
        report = stability.positive_eigenvalues(config, s1, s2)
        out.append(Equilibrium(s1, S_in - s1, s2, S_in - s2, BRANCH_POSITIVE,
                               report.values, report.tag, report.unstable))

    washout_levels = [S_in]
    window = model.break_even(D / r)
    if window is not None:
        if window.lower < S_in:
            washout_levels.append(window.lower)
        if window.has_finite_upper and window.upper < S_in:
            washout_levels.append(window.upper)
    for s1 in sorted(washout_levels):
        report = stability.washout_eigenvalues(config, s1)
        out.append(Equilibrium(s1, S_in - s1, S_in, 0.0, BRANCH_WASHOUT,
                               report.values, report.tag, report.unstable))
    return out


def surplus_region(config: BufferedConfig) -> IntervalSet:
    """Open subset of (0, S_in) where growth exceeds the required rate.

    Non-empty for every valid configuration satisfying the buffer
    condition: the deficit is positive at 0 and falls to -inf at the
    feed level, so the region always reaches up to S_in.  Left endpoints
    of its components are the attracting rest levels.
    """
    s2 = _buffer_level(config)
    f = _deficit_fn(config, s2)[2]
    S_in = config.S_in
    roots = _positive_levels(config, s2)
    cuts = [0.0] + roots + [S_in]
    comps: list[tuple[float, float]] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        if hi - lo > 0.0 and f(mid) < 0.0:
            comps.append((lo, hi))
    return IntervalSet(tuple(comps))

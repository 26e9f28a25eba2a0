"""The benchmark's own model: rate laws, break-even levels, rest-point balance.

Everything here is written from the model equations, not from bufchem,
so the checks in checks.py compare the library against an independent
computation.  Only the standard library is imported: the input builders
run inside the measured process before its metrics are read.

Buffered chemostat, unit yield (main vessel 1, buffer 2):

    dS1/dt = -mu(S1) X1 + (D/r) [a(1-r)(S2 - S1) + (1 - a(1-r))(S_in - S1)]
    dX1/dt =  mu(S1) X1 + (D/r) [a(1-r) X2 - X1]
    dS2/dt = -mu(S2) X2 + a D (S_in - S2)
    dX2/dt = (mu(S2) - a D) X2

At a rest point with a live buffer, S2 is the lower root of mu(s) = aD,
X2 = S_in - S2, X1 = S_in - S1, and S1 is a zero on (0, S_in) of

    balance(s) = r mu(s) (S_in - s) + D [a(1-r)(S_in - S2) - (S_in - s)].
"""
from __future__ import annotations

import math
import random

BALANCE_GRID = 4000
# the invasion probe runs to 200 / (alpha D); below this the horizon, and
# with it the probe's cost, has a long tail from one seed to the next
MIN_BUFFER_DILUTION = 0.5


# ---------------------------------------------------------------------------
# rate laws as plain callables

def haldane_law(mu_bar: float, K: float, K_I: float):
    """(mu, mu', peak abscissa) of mu(s) = mu_bar s / (K + s + s^2/K_I)."""
    def mu(s):
        return mu_bar * s / (K + s + s * s / K_I)

    def mu_prime(s):
        den = K + s + s * s / K_I
        return mu_bar * (K - s * s / K_I) / (den * den)

    return mu, mu_prime, math.sqrt(K * K_I)


def andrews_law(mu_bar: float, K: float, K_I: float):
    """(mu, mu', peak abscissa) of mu(s) = mu_bar s / (K + s) exp(-s/K_I).

    math.exp makes these callables scalar-only, as user code often is.
    """
    def mu(s):
        return mu_bar * s / (K + s) * math.exp(-s / K_I)

    def mu_prime(s):
        return mu_bar * math.exp(-s / K_I) * (
            K / (K + s) ** 2 - s / ((K + s) * K_I))

    return mu, mu_prime, 0.5 * (-K + math.sqrt(K * K + 4.0 * K * K_I))


def counted(fn, counter: list):
    """fn that adds one to counter[0] per call."""
    def wrapped(s):
        counter[0] += 1
        return fn(s)
    return wrapped


# ---------------------------------------------------------------------------
# break-even levels and rest points

def haldane_window(mu_bar: float, K: float, K_I: float, dilution: float):
    """Roots of mu(s) = dilution for Haldane: K_I (mu_bar/d - 1) s = K K_I + s^2."""
    b = K_I * (mu_bar / dilution - 1.0)
    disc = b * b - 4.0 * K * K_I
    if b <= 0.0 or disc <= 0.0:
        return None
    root = math.sqrt(disc)
    return (2.0 * K * K_I / (b + root), 0.5 * (b + root))


def bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] with a sign change, to the last representable bit."""
    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def unimodal_window(mu, peak: float, dilution: float):
    """Roots of mu(s) = dilution for a law rising to peak and falling after."""
    if mu(peak) <= dilution:
        return None
    g = lambda s: mu(s) - dilution
    lower = bisect(g, 0.0, peak)
    hi = 2.0 * peak
    while mu(hi) >= dilution:
        hi *= 2.0
        if hi > 1e12:
            return (lower, math.inf)
    return (lower, bisect(g, peak, hi))


def balance(mu, S_in: float, D: float, alpha: float, r: float, s2: float):
    """The rest-point balance of the main vessel as a function of S1."""
    inflow = alpha * (1.0 - r) * (S_in - s2)

    def b(s):
        return r * mu(s) * (S_in - s) + D * (inflow - (S_in - s))
    return b


def rest_levels(mu, S_in: float, D: float, alpha: float, r: float,
                s2: float, n: int = BALANCE_GRID) -> list[float]:
    """Main-vessel rest levels: sign changes of balance on an n-point grid."""
    b = balance(mu, S_in, D, alpha, r, s2)
    levels = []
    prev_s = S_in * 0.5 / n
    prev_v = b(prev_s)
    for i in range(1, n):
        s = S_in * (i + 0.5) / n
        v = b(s)
        if (v > 0.0) != (prev_v > 0.0):
            levels.append(bisect(b, prev_s, s))
        prev_s, prev_v = s, v
    return levels


def pivot(S_in: float, alpha: float, s2: float) -> float:
    return alpha * s2 + (1.0 - alpha) * S_in


def split_map(mu, S_in: float, D: float, pv: float):
    """r at which level s is a rest level: balance(s) = 0 solved for r."""
    def gamma(s):
        return (pv - s) / (pv - S_in + (S_in - s) * mu(s) / D)
    return gamma


def _scan(f, lo: float, hi: float, n: int) -> list[float]:
    return [f(lo + (hi - lo) * (i + 0.5) / n) for i in range(n)]


def in_band(pt: "Point", factor: float, margin: float = 0.01,
            n: int = 256) -> bool:
    """Whether factor * r_bar may fall in a band of extra rest points.

    Estimated from the benchmark's own split map on n-point grids: r_bar
    as the least split map value beyond the upper break-even, and the band
    as the span of the split map's turning values on the interval below
    it (widened by margin on each side).  Only the pivot-below and
    pivot-above cases can hold a band.
    """
    lower, upper = pt.window(pt.D)
    pv = pivot(pt.S_in, pt.alpha, pt.buffer_level())
    if pt.case == "pivot_below_upper_break_even":
        band_iv, plus_iv = (lower, pv), (upper, pt.S_in)
    elif pt.case == "pivot_above_upper_break_even":
        band_iv, plus_iv = (pv, pt.S_in), (lower, upper)
    else:
        return False
    gamma = split_map(pt.mu, pt.S_in, pt.D, pv)
    vals = _scan(gamma, *band_iv, n)
    turns = [b for a, b, c in zip(vals, vals[1:], vals[2:])
             if (b > a) != (c > b)]
    if not turns:
        return False
    r_bar = min(min(_scan(gamma, *plus_iv, n)), 1.0)
    return (min(turns) * (1.0 - margin) <= factor * r_bar
            <= max(turns) * (1.0 + margin))


def buffered_rhs(mu, S_in: float, D: float, alpha: float, r: float):
    """Right-hand side of the four-state model, for a reference integrator."""
    cross = alpha * (1.0 - r)

    def f(t, y):
        s1, x1, s2, x2 = y
        m1, m2 = mu(s1), mu(s2)
        return [-m1 * x1 + D / r * (cross * (s2 - s1)
                                    + (1.0 - cross) * (S_in - s1)),
                m1 * x1 + D / r * (cross * x2 - x1),
                -m2 * x2 + alpha * D * (S_in - s2),
                (m2 - alpha * D) * x2]
    return f


def single_rhs(mu, S_in: float, D: float):
    def f(t, y):
        s, x = y
        m = mu(s)
        return [-m * x + D * (S_in - s), (m - D) * x]
    return f


# ---------------------------------------------------------------------------
# seeded operating points

class Point:
    """One operating point: a law, its feed, dilution and buffer flow share.

    kind is "haldane" (closed-form law), "andrews" or "wrapped" (Haldane
    given as plain callables); params are (mu_bar, K, K_I) of that law.
    """

    def __init__(self, kind, params, S_in, D, alpha):
        self.kind, self.params = kind, params
        self.S_in, self.D, self.alpha = S_in, D, alpha
        law = andrews_law if kind == "andrews" else haldane_law
        self.mu, self.mu_prime, self.peak = law(*params)
        self._windows = {}

    def window(self, dilution: float):
        """(lower, upper) roots of mu(s) = dilution, or None."""
        if dilution not in self._windows:
            self._windows[dilution] = (
                unimodal_window(self.mu, self.peak, dilution)
                if self.kind == "andrews"
                else haldane_window(*self.params, dilution))
        return self._windows[dilution]

    def buffer_level(self) -> float:
        return self.window(self.alpha * self.D)[0]

    def pivot_gap(self) -> float:
        """Pivot level minus the upper break-even level of D."""
        return (pivot(self.S_in, self.alpha, self.buffer_level())
                - self.window(self.D)[1])

    @property
    def case(self) -> str:
        """The multiplicity case: where the pivot sits against the upper
        break-even of D."""
        gap = self.pivot_gap()
        if abs(gap) <= 1e-9 * max(1.0, self.S_in):
            return "pivot_at_upper_break_even"
        return ("pivot_below_upper_break_even" if gap < 0.0
                else "pivot_above_upper_break_even")


def draw_point(rng: random.Random, kind: str, invasion: bool = False,
               pivot_at: bool = False) -> Point:
    """Rejection-sample a point with an upper break-even of D below the feed.

    invasion additionally keeps MIN_BUFFER_DILUTION <= alpha D <= 0.6
    mu(S_in): the buffer alone is then a persistent chemostat that a small
    inoculum must invade, over a bounded horizon 200 / (alpha D).
    pivot_at solves for the alpha that puts the pivot on the upper
    break-even (the boundary case of the multiplicity analysis).
    """
    while True:
        params = (rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5),
                  rng.uniform(0.05, 4.0))
        S_in = rng.uniform(0.3, 4.0)
        D = rng.uniform(0.1, 2.0)
        alpha = rng.uniform(0.05, 1.0)
        pt = Point(kind, params, S_in, D, alpha)
        mu, peak = pt.mu, pt.peak
        if invasion and not (MIN_BUFFER_DILUTION <= alpha * D
                             <= 0.6 * mu(S_in)):
            continue
        # growth falls back below D before 0.95 S_in (the law is unimodal,
        # so this needs no root)
        if not (peak < 0.95 * S_in and mu(0.95 * S_in) < D < mu(peak)):
            continue
        if pivot_at:
            pt.alpha = _alpha_at_upper(pt, pt.window(D)[1])
            if pt.alpha is None:
                continue
        # the buffer's level lies below 0.9 S_in
        if not mu(min(peak, 0.9 * S_in)) > pt.alpha * D:
            continue
        if not pivot_at and abs(pt.pivot_gap()) < 1e-6 * S_in:
            continue  # keep drawn points clear of the boundary case
        return pt


def _alpha_at_upper(pt: Point, upper: float):
    """alpha in (0, 1) with pivot(alpha) = upper, or None."""
    def gap(a):
        bw = pt.window(a * pt.D)
        if bw is None or bw[0] >= pt.S_in:
            return math.nan
        return pivot(pt.S_in, a, bw[0]) - upper

    lo, hi = 0.05, 1.0
    g_lo, g_hi = gap(lo), gap(hi)
    if not (g_lo > 0.0 > g_hi):
        return None
    return bisect(gap, lo, hi)

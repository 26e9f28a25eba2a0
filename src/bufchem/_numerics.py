"""Small deterministic numerical helpers shared across the package.

Every scan-and-refine goes through GridScan: it samples a function once
on a midpoint grid and reports where the samples change sign or turn;
the scalar bisect_root and golden_min then refine each bracket.  The
refinement stays scalar because it sets the last digits of every
result: it evaluates the caller's own closure, so a result depends only
on that closure's arithmetic and the grid size.
"""
from __future__ import annotations

import math
from typing import Callable

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BISECT_MAX_ITER = 200
_GOLDEN_X_TOL = 1e-10   # relative bracket width golden_min stops at
_NEWTON_STEPS = 8

# rest-level and split-critical-point scans use the fine grid; extrema
# and the D2 feasibility scan the coarse one
FINE_GRID = 4096
COARSE_GRID = 2048


def finite_positive(x: float) -> bool:
    """Whether x is a finite number > 0; NaN and +-inf are not."""
    return 0.0 < x < math.inf


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                f_tol: float) -> float:
    """Bisection on a bracketing interval [lo, hi].

    Stops when |f(mid)| <= f_tol or the interval collapses to machine
    resolution; _BISECT_MAX_ITER caps the work either way.  Requires a sign
    change over the bracket.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("bisect_root: no sign change over bracket")
    mid = 0.5 * (lo + hi)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= f_tol or mid == lo or mid == hi:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return mid


def golden_min(f: Callable[[float], float], lo: float,
               hi: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [lo, hi].

    Returns (abscissa, value).  The bracket is assumed valid; callers
    build it from a grid scan.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_X_TOL * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def golden_max(f: Callable[[float], float], lo: float,
               hi: float) -> tuple[float, float]:
    x, v = golden_min(lambda s: -f(s), lo, hi)
    return x, -v


class GridScan:
    """f sampled on the midpoint grid lo + step * (i + 0.5), i < n.

    The grid stays half a step clear of lo and hi, so f may have a pole
    or be undefined at either end.
    """

    def __init__(self, f: Callable[[float], float], lo: float, hi: float,
                 n: int):
        self.lo, self.hi, self.n = lo, hi, n
        self.step = step = (hi - lo) / n
        self.xs = [lo + step * (i + 0.5) for i in range(n)]
        self.vs = [f(x) for x in self.xs]

    def brackets(self) -> list[tuple[float, float]]:
        """Neighbouring grid points (x[i-1], x[i]) across which f's sign flips.

        The sign is v > 0, so a crossing through an exact grid zero gives
        one bracket, with the zero at an end where bisect_root returns it.
        """
        xs, vs = self.xs, self.vs
        return [(xs[i - 1], xs[i]) for i in range(1, self.n)
                if (vs[i] > 0.0) != (vs[i - 1] > 0.0)]

    def around(self, i: int) -> tuple[float, float]:
        """The grid neighbours of x[i], with lo and hi past either end."""
        return (self.xs[i - 1] if i > 0 else self.lo,
                self.xs[i + 1] if i < self.n - 1 else self.hi)

    def argmin(self) -> int:
        """Index of the smallest value; ties go to the first index."""
        return min(range(self.n), key=self.vs.__getitem__)

    def extrema(self) -> tuple[list[int], list[int]]:
        """Indices of the interior discrete minima and maxima.

        A grid value counts when it is no worse than both neighbours and
        strictly better than one, so both ends of a flat minimum or
        maximum count.
        """
        vs = self.vs
        cells = list(zip(range(1, self.n - 1), vs, vs[1:], vs[2:]))
        return ([i for i, a, v, b in cells
                 if v <= a and v <= b and (v < a or v < b)],
                [i for i, a, v, b in cells
                 if v >= a and v >= b and (v > a or v > b)])


def grid_min(f: Callable[[float], float], lo: float,
             hi: float) -> tuple[float, float]:
    """Global interior minimum of f on (lo, hi): COARSE_GRID scan, then
    golden refinement to 1e-10 around the first smallest grid value."""
    scan = GridScan(f, lo, hi, COARSE_GRID)
    return golden_min(f, *scan.around(scan.argmin()))


def real_cubic_roots(a3: float, a2: float, a1: float, a0: float) -> list[float]:
    """All real roots of a3 x^3 + a2 x^2 + a1 x + a0, a3 != 0.

    Trigonometric branch for three real roots, Cardano otherwise; the
    usual depressed-cubic substitution x = t - a2/(3 a3).
    """
    if a3 == 0.0:
        raise ValueError("real_cubic_roots: leading coefficient is zero")
    b = a2 / a3
    c = a1 / a3
    d = a0 / a3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    eps = 1e-14 * max(1.0, abs(q) ** 2, abs(p) ** 3)
    if disc > eps:
        # one real root; stable Cardano avoiding cancellation
        sq = math.sqrt(disc)
        u = -q / 2.0 + sq if q <= 0.0 else -q / 2.0 - sq
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)
        t = u + (-p / 3.0 / u if u != 0.0 else 0.0)
        return [t + shift]
    if disc < -eps:
        # three distinct real roots
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = max(-1.0, min(1.0, arg))
        theta = math.acos(arg) / 3.0
        return sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift
                      for k in range(3))
    # borderline: repeated roots (triple when p ~ 0)
    if abs(p) < 1e-300:
        return [shift]
    t_simple = 3.0 * q / p
    t_double = -3.0 * q / (2.0 * p)
    return sorted({t_simple + shift, t_double + shift})


def newton_polish(f: Callable[[float], float], fp: Callable[[float], float],
                  x0: float, lo: float, hi: float) -> float:
    """_NEWTON_STEPS guarded Newton steps on f, clamped to [lo, hi]."""
    x = x0
    for _ in range(_NEWTON_STEPS):
        fx = f(x)
        d = fp(x)
        if d == 0.0:
            break
        step = fx / d
        x_new = x - step
        if not (lo <= x_new <= hi):
            break
        if x_new == x:
            break
        x = x_new
    return x

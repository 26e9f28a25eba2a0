"""A validated-numerics count of the main vessel's buffer-active rest levels.

Every route in bufchem counts rest levels in floating point.  This one
encloses every quantity in an interval rounded outward by one ulp per
operation (math.nextafter), so a count it certifies cannot be an
artefact of rounding.  It is written from the model equations, as
perfbench/reference.py writes them, and imports nothing from bufchem
but the two law classes it reads the parameters of.

At a rest point with a live buffer, S2 is the lower root of
mu(s) = alpha D, and S1 is a zero on (0, S_in) of the balance

    b(s) = r mu(s) (S_in - s) + D [alpha (1 - r) (S_in - S2) - (S_in - s)],

with b(0) < 0 < b(S_in).  count_rest_levels splits (0, S_in) by branch
and bound: a piece on which b excludes 0 holds no level; a piece on
which b' excludes 0 and b takes certified opposite signs at the ends
holds exactly one; any other piece is halved, down to depth 60, and
counted as undecided after that.  A double root (a tangency) is
undecided by design: the oracle says so and never guesses.

Only laws with an interval form are covered: Haldane and Monod.
"""
from __future__ import annotations

import math

from bufchem import Haldane, Monod

MAX_DEPTH = 60


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


class Interval:
    """The closed interval [lo, hi]; every operation rounds outward, so
    the result encloses every value of the exact operation."""
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None) -> None:
        self.lo, self.hi = lo, lo if hi is None else hi

    def __add__(self, other: Interval | float) -> Interval:
        other = _interval(other)
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    __radd__ = __add__

    def __sub__(self, other: Interval | float) -> Interval:
        other = _interval(other)
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __rsub__(self, other: float) -> Interval:
        return _interval(other) - self

    def __mul__(self, other: Interval | float) -> Interval:
        other = _interval(other)
        products = [a * b for a in (self.lo, self.hi)
                    for b in (other.lo, other.hi)]
        return Interval(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def __truediv__(self, other: Interval | float) -> Interval:
        other = _interval(other)
        if not (other.lo > 0.0 or other.hi < 0.0):
            raise ZeroDivisionError("divisor interval contains 0")
        quotients = [a / b for a in (self.lo, self.hi)
                     for b in (other.lo, other.hi)]
        return Interval(_down(min(quotients)), _up(max(quotients)))

    def __rtruediv__(self, other: float) -> Interval:
        return _interval(other) / self

    def square(self) -> Interval:
        """x * x over the interval, which the product of two copies
        overestimates when the interval contains 0."""
        if self.lo >= 0.0:
            return Interval(_down(self.lo * self.lo), _up(self.hi * self.hi))
        if self.hi <= 0.0:
            return Interval(_down(self.hi * self.hi), _up(self.lo * self.lo))
        return Interval(0.0, _up(max(self.lo * self.lo, self.hi * self.hi)))

    def excludes_zero(self) -> bool:
        return self.lo > 0.0 or self.hi < 0.0


def _interval(x: Interval | float) -> Interval:
    return x if isinstance(x, Interval) else Interval(x)


def rate_enclosures(model):
    """(mu, mu', rising_end): enclosures of the law and its slope over an
    Interval, and a level below which the law is certified increasing."""
    if type(model) is Haldane:
        mu_bar, K, K_I = model.mu_bar, model.K, model.K_I

        def den(s: Interval) -> Interval:
            return K + s + s.square() / K_I

        def mu(s: Interval) -> Interval:
            return mu_bar * s / den(s)

        def mu_prime(s: Interval) -> Interval:
            return mu_bar * (K - s.square() / K_I) / den(s).square()

        # just below the peak sqrt(K K_I), where mu' > 0 is certified
        rising_end = math.sqrt(K * K_I) * (1.0 - 1e-9)
        if not mu_prime(Interval(rising_end)).lo > 0.0:
            raise ArithmeticError("Haldane peak not bracketed")
        return mu, mu_prime, rising_end
    if type(model) is Monod:
        mu_max, K_s = model.mu_max, model.K_s
        return ((lambda s: mu_max * s / (K_s + s)),
                (lambda s: mu_max * K_s / (K_s + s).square()),
                math.inf)
    raise TypeError(f"no interval form for {type(model).__name__}")


def buffer_level(model, dilution: Interval) -> Interval:
    """An enclosure [a, b] of the lower root of mu(s) = dilution, certified
    by mu(a) < dilution < mu(b) with mu increasing on [0, b].  Raises
    ArithmeticError when no such b is found (no root on the rising
    branch, or too close to its end to tell)."""
    mu, _, rising_end = rate_enclosures(model)
    b = rising_end if math.isfinite(rising_end) else 1.0
    while not mu(Interval(b)).lo > dilution.hi:
        if math.isfinite(rising_end) or b > 1e12:
            raise ArithmeticError("buffer level not certified")
        b *= 2.0
    a = 0.0
    while True:
        m = 0.5 * (a + b)
        if m in (a, b):
            break
        v = mu(Interval(m))
        if v.hi < dilution.lo:
            a = m
        elif v.lo > dilution.hi:
            b = m
        else:
            break
    return Interval(a, b)


def count_rest_levels(model, S_in: float, D: float, alpha: float,
                      r: float) -> tuple[int, int]:
    """(certified count, undecided pieces) of the buffer-active rest
    levels on (0, S_in)."""
    mu, mu_prime, _ = rate_enclosures(model)
    s2 = buffer_level(model, Interval(alpha) * D)
    inflow = alpha * (1.0 - Interval(r)) * (S_in - s2)

    def balance(s: Interval) -> Interval:
        return r * mu(s) * (S_in - s) + D * (inflow - (S_in - s))

    def balance_prime(s: Interval) -> Interval:
        return r * (mu_prime(s) * (S_in - s) - mu(s)) + D

    def sign(x: float) -> int:
        v = balance(Interval(x))
        return 1 if v.lo > 0.0 else -1 if v.hi < 0.0 else 0

    count = undecided = 0
    pieces = [(0.0, S_in, sign(0.0), sign(S_in), 0)]
    while pieces:
        lo, hi, sign_lo, sign_hi, depth = pieces.pop()
        whole = Interval(lo, hi)
        if balance(whole).excludes_zero():
            continue
        if sign_lo * sign_hi < 0 and balance_prime(whole).excludes_zero():
            count += 1
            continue
        mid = 0.5 * (lo + hi)
        if depth == MAX_DEPTH or mid in (lo, hi):
            undecided += 1
            continue
        sign_mid = sign(mid)
        pieces += [(lo, mid, sign_lo, sign_mid, depth + 1),
                   (mid, hi, sign_mid, sign_hi, depth + 1)]
    return count, undecided

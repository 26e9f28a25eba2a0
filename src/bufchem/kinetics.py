"""Growth kinetics: rate laws, their peaks, and break-even intervals.

A growth law maps a substrate concentration s >= 0 to a specific growth
rate mu(s).  The models here satisfy mu(0) = 0, mu > 0 on (0, inf), and
are either strictly increasing or unimodal (one interior peak).  The
break-even interval of a dilution rate D collects the concentrations at
which growth outpaces dilution:

    {s > 0 : mu(s) > D} = (lower, upper),   upper possibly infinite.

Exact Monod and Haldane laws (CLOSED_FORMS, told apart by closed_form)
carry closed forms for everything; every other law, a subclass of theirs
included, falls back on guarded scans and bisection.  declared_peak
names the laws whose peak is known to be their own: the exact closed
forms and an exact CustomUnimodal.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

from ._numerics import Record, bisect_root, finite_positive

__all__ = [
    "CLOSED_FORMS",
    "closed_form",
    "declared_peak",
    "BreakEvenInterval",
    "Peak",
    "GrowthModel",
    "Monod",
    "Haldane",
    "CustomUnimodal",
]

# residual tolerance for bisection solves of mu(s) = D, relative to D
_BREAK_EVEN_RTOL = 1e-12
# a bracket end doubled past this level gives up: the rate is taken
# never to cross the dilution rate beyond it
_EXPAND_CEILING = 1e120
# CustomUnimodal compares its declared slope at this many of its shape
# samples s with the rate's one-sided differences of step 1e-6 s; one
# must match within 1e-3 of the larger of |mu'(s)| and mu(s) / s
_SLOPE_CHECKS = 12
_SLOPE_STEP = 1e-6
_SLOPE_RTOL = 1e-3


class Peak(Record):
    """Location and height of a rate law's maximum.

    abscissa is math.inf for strictly increasing laws, in which case
    height is the supremum that the law approaches but never attains.
    """
    abscissa: float
    height: float

    @property
    def is_interior(self) -> bool:
        return math.isfinite(self.abscissa)


class BreakEvenInterval(Record):
    """Open interval (lower, upper) where growth exceeds a dilution rate.

    upper == math.inf is meaningful (increasing laws never fall back
    below the dilution rate); callers branch on finiteness explicitly
    via has_finite_upper rather than comparing against a magic number.
    """
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower >= 0.0):
            raise ValueError("break-even lower endpoint must be >= 0")
        if not (self.upper > self.lower):
            raise ValueError("break-even interval must have upper > lower")

    @property
    def has_finite_upper(self) -> bool:
        return math.isfinite(self.upper)

    def contains(self, s: float) -> bool:
        return self.lower < s < self.upper


class GrowthModel:
    """Base interface for growth laws."""

    def rate(self, s: float) -> float:
        """Growth rate mu(s) at substrate concentration s >= 0."""
        self._check_domain(s)
        return self._rate_raw(s)

    def rate_prime(self, s: float) -> float:
        """Derivative mu'(s) at s >= 0."""
        self._check_domain(s)
        return self._rate_prime_raw(s)

    def peak(self) -> Peak:
        raise NotImplementedError

    def break_even(self, dilution: float) -> Optional[BreakEvenInterval]:
        """Interval where mu > dilution, or None when growth never wins.

        The generic path brackets mu(s) = dilution on each monotone
        branch and refines by bisection to a residual of 1e-12 * dilution;
        a law with closed forms overrides _break_even.
        """
        if not dilution > 0.0:
            raise ValueError("dilution rate must be positive")
        return self._break_even(dilution)

    # fast unchecked evaluations; simulate builds its inner loops on these
    def _rate_raw(self, s):
        raise NotImplementedError

    def _rate_prime_raw(self, s):
        raise NotImplementedError

    @staticmethod
    def _check_domain(s: float) -> None:
        if not 0.0 <= s < math.inf:
            raise ValueError(
                f"substrate concentration must be finite and >= 0, got {s}")

    def _break_even(self, dilution: float) -> Optional[BreakEvenInterval]:
        f_tol = _BREAK_EVEN_RTOL * dilution
        g = lambda s: self._rate_raw(s) - dilution
        pk = self.peak()
        if pk.is_interior:
            if pk.height <= dilution:
                return None
            lower = bisect_root(g, 0.0, pk.abscissa, f_tol)
            # decreasing branch: expand until the rate drops below dilution
            hi = pk.abscissa * 2.0
            while not self._rate_raw(hi) < dilution:
                hi *= 2.0
                if hi > _EXPAND_CEILING:
                    return BreakEvenInterval(lower, math.inf)
            upper = bisect_root(g, pk.abscissa, hi, f_tol)
            return BreakEvenInterval(lower, upper)
        # strictly increasing: either mu stays below dilution or crosses once
        hi = 1.0
        while not self._rate_raw(hi) > dilution:
            hi *= 2.0
            if hi > _EXPAND_CEILING:
                return None
        lower = bisect_root(g, 0.0, hi, f_tol)
        return BreakEvenInterval(lower, math.inf)


class Monod(GrowthModel, Record):
    """Monotone saturating law mu(s) = mu_max * s / (K_s + s).

    Parameters
    ----------
    mu_max : float
        Supremum growth rate, approached as s -> inf.
    K_s : float
        Half-saturation constant.
    """
    mu_max: float
    K_s: float
    # the rate at substrate {s} as the generated loops write it, over the
    # fields' names: _rate_raw's operand order, so both round alike
    _RATE = "mu_max * {s} / (K_s + {s})"

    def __post_init__(self) -> None:
        if not (finite_positive(self.mu_max) and finite_positive(self.K_s)):
            raise ValueError("Monod parameters must be strictly positive")

    def _rate_raw(self, s):
        return self.mu_max * s / (self.K_s + s)

    def _rate_prime_raw(self, s):
        return self.mu_max * self.K_s / (self.K_s + s) ** 2

    def peak(self) -> Peak:
        return Peak(math.inf, self.mu_max)

    def _break_even(self, dilution: float) -> Optional[BreakEvenInterval]:
        if dilution >= self.mu_max:
            return None
        return BreakEvenInterval(self.K_s * dilution / (self.mu_max - dilution),
                                 math.inf)


class Haldane(GrowthModel, Record):
    """Substrate-inhibited law mu(s) = mu_bar * s / (K + s + s^2/K_I).

    Increasing up to s = sqrt(K * K_I), decreasing beyond; the peak rate
    is mu_bar / (1 + 2 sqrt(K / K_I)).
    """
    mu_bar: float
    K: float
    K_I: float
    _RATE = "mu_bar * {s} / (K + {s} + {s} * {s} / K_I)"

    def __post_init__(self) -> None:
        if not all(map(finite_positive, (self.mu_bar, self.K, self.K_I))):
            raise ValueError("Haldane parameters must be strictly positive")

    def _rate_raw(self, s):
        return self.mu_bar * s / (self.K + s + s * s / self.K_I)

    def _rate_prime_raw(self, s):
        den = self.K + s + s * s / self.K_I
        return self.mu_bar * (self.K - s * s / self.K_I) / (den * den)

    def peak(self) -> Peak:
        s_hat = math.sqrt(self.K * self.K_I)
        return Peak(s_hat, self._rate_raw(s_hat))

    def _break_even(self, dilution: float) -> Optional[BreakEvenInterval]:
        """Closed form: the two roots of the quadratic mu(s) = dilution.

        Non-empty exactly when mu_bar / dilution > 1 + 2 sqrt(K / K_I).
        """
        ratio = self.mu_bar / dilution
        if ratio <= 1.0 + 2.0 * math.sqrt(self.K / self.K_I):
            return None
        a = self.K_I * (ratio - 1.0)
        product = self.K * self.K_I
        if a < math.inf and product < math.inf:
            c = 2.0 * math.sqrt(product)
            upper = 0.5 * (a + math.sqrt(a - c) * math.sqrt(a + c))
            if upper < math.inf:
                return BreakEvenInterval(product / upper, upper)
        # K_I (mu_bar / d - 1), K K_I or the sum behind the upper root
        # overflows: take the roots as K / h and K_I h with h = upper /
        # K_I, so that only a root past the largest float is inf
        b = ratio - 1.0
        c = 2.0 * math.sqrt(self.K / self.K_I)
        h = 0.5 * (b + math.sqrt(b - c) * math.sqrt(b + c))
        return BreakEvenInterval(self.K / h, self.K_I * h)

    def _capacity_peak(self, S_in: float) -> float:
        """The level of peak uptake capacity mu(s)(S_in - s): times den^2 /
        mu_bar its slope is K S_in - 2 K s - (1 + S_in / K_I) s^2, the cubic
        terms cancelling, and this is its one positive root."""
        return S_in / (1.0 + math.sqrt(
            1.0 + S_in / self.K * (1.0 + S_in / self.K_I)))


# [growth] type -> the rate laws with closed forms
CLOSED_FORMS = {"haldane": Haldane, "monod": Monod}
_CLOSED_KINDS = {law: kind for kind, law in CLOSED_FORMS.items()}


def closed_form(model: GrowthModel) -> Optional[str]:
    """The CLOSED_FORMS type of an exact Haldane or Monod, else None: a
    subclass may override the rate, so it takes the general route."""
    return _CLOSED_KINDS.get(type(model))


class CustomUnimodal(GrowthModel, Record):
    """User-supplied rate law with a declared peak abscissa.

    The callables must describe a law with mu(0) = 0 that is positive on
    (0, inf) and increasing below the declared peak, decreasing above it
    (peak_abscissa = math.inf declares a strictly increasing law).  The
    shape is spot-checked on a sample grid at construction, and so is
    rate_prime_fn against one-sided differences of rate_fn.  The
    declared peak also bounds two scans, for the critical levels of the
    split map and of the growth deficit: below it mu' >= 0 is taken as
    given, and neither scan samples there.
    """
    rate_fn: Callable[[float], float]
    rate_prime_fn: Callable[[float], float]
    peak_abscissa: float
    sample_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.peak_abscissa == math.inf
                or finite_positive(self.peak_abscissa)):
            raise ValueError("peak abscissa must be positive (math.inf allowed)")
        if not finite_positive(self.sample_scale):
            raise ValueError("sample scale must be positive")
        self._shape_check()
        # callers read mu and mu' straight from the callables, one call
        # frame fewer, unless a subclass has its own
        cls = type(self)
        if cls._rate_raw is GrowthModel._rate_raw:
            object.__setattr__(self, "_rate_raw", self.rate_fn)
        if cls._rate_prime_raw is GrowthModel._rate_prime_raw:
            object.__setattr__(self, "_rate_prime_raw", self.rate_prime_fn)

    def _shape_check(self) -> None:
        if not abs(self.rate_fn(0.0)) <= 1e-12:
            raise ValueError("rate law must vanish at s = 0")
        span = self.peak_abscissa if math.isfinite(self.peak_abscissa) \
            else 10.0 * self.sample_scale
        pts = [span * (k + 1) / 16.0 for k in range(16)]
        if not math.isfinite(self.peak_abscissa):
            # on to past 1e12 sample_scale, where peak() reads the supremum
            pts += [span * 2.0 ** k for k in range(1, 38)]
        samples = []
        prev = 0.0
        for s in pts:
            v = self._sampled_rate(s)
            if v < prev - 1e-12:
                raise ValueError("rate law must increase up to the declared peak")
            samples.append((s, v))
            prev = v
        if math.isfinite(self.peak_abscissa):
            right = [self.peak_abscissa * (1.0 + (k + 1) / 8.0) for k in range(8)]
            prev = self.rate_fn(self.peak_abscissa)
            for s in right:
                v = self._sampled_rate(s)
                if v > prev + 1e-12:
                    raise ValueError("rate law must decrease beyond the declared peak")
                samples.append((s, v))
                prev = v
        self._slope_check(samples[::-(-len(samples) // _SLOPE_CHECKS)])

    def _slope_check(self, samples: list[tuple[float, float]]) -> None:
        """The declared mu' at each (s, mu(s)) must be finite and match one
        of the rate's one-sided differences there, so a kink passes and a
        wrong factor or sign does not."""
        for s, v in samples:
            slope = self.rate_prime_fn(s)
            tol = _SLOPE_RTOL * max(abs(slope), v / s)
            diffs = []
            # ahead of s, then behind it only where that does not match
            for t in (s + _SLOPE_STEP * s, s - _SLOPE_STEP * s):
                diffs.append((self.rate_fn(t) - v) / (t - s))
                if math.isfinite(slope) and abs(slope - diffs[-1]) <= tol:
                    break
            else:
                raise ValueError(
                    f"declared derivative {slope} at s = {s} matches neither "
                    f"one-sided difference of the rate law, {diffs[0]} ahead "
                    f"and {diffs[1]} behind")

    def _sampled_rate(self, s: float) -> float:
        v = self.rate_fn(s)
        if not finite_positive(v):
            raise ValueError(
                f"rate law must be finite and positive at s = {s}, got {v}")
        return v

    def peak(self) -> Peak:
        if math.isfinite(self.peak_abscissa):
            return Peak(self.peak_abscissa, self.rate_fn(self.peak_abscissa))
        # supremum probe for increasing laws; exact value is not needed
        return Peak(math.inf, self.rate_fn(1e12 * self.sample_scale))


def declared_peak(model: GrowthModel) -> Optional[float]:
    """The peak abscissa of an exact Haldane, Monod or CustomUnimodal law
    (math.inf for a law that rises for ever), else None: a subclass may
    override the rate and keep a peak() that is not its law's."""
    if type(model) is CustomUnimodal:
        return model.peak_abscissa
    return model.peak().abscissa if closed_form(model) else None

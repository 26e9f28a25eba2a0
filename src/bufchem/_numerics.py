"""Small deterministic numerical helpers shared across the package.

Every extremum the analysis layer needs is a zero of a closed-form
derivative, and critical_levels finds them all the same way: one
GridScan of the derivative on the GRID-point midpoint grid, then scalar
bisection of each sign change.  The refinement stays scalar because it
sets the last digits of every result: it evaluates the caller's own
closure, so a result depends only on that closure's arithmetic.
golden_min serves only the tangency fit, the route to r_bar that must
stay independent of these critical levels.

Every value the package returns is a Record: an immutable set of named
fields, compared and hashed by value.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BISECT_MAX_ITER = 200
_GOLDEN_X_TOL = 1e-10   # relative bracket width golden_min stops at
_NEWTON_STEPS = 8

# points of every critical-level scan and of the D2 feasibility scan
GRID = 2048

_object_setattr = object.__setattr__


class Record:
    """Immutable value record with the semantics of a frozen dataclass.

    A subclass's fields are its own annotations, in order, after any
    inherited ones; a class attribute of the same name is the field's
    default, read once when the class is created.  Instances take the
    fields by position or keyword, run __post_init__ once they are set,
    and refuse assignment and deletion.  Equality and hash go by the
    field tuple, and repr reads QualName(f=v!r, ...).  Unlike a
    dataclass, creating the class generates no code.
    """
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(
            name for name in own if name not in cls._fields)
        cls._defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        cls.__match_args__ = fields

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__, not __dict__.update: a materialized __dict__
        # makes every later field read slower
        for name, value in zip(fields, args):
            _object_setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, from any other mix of arguments."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments")
        for key in kwargs:
            if key not in fields or key in fields[:len(args)]:
                raise TypeError(f"{name}: unknown or repeated argument {key!r}")
        values = {**cls._defaults, **kwargs}
        values.update(zip(fields, args))
        if len(values) < len(fields):
            missing = ", ".join(f for f in fields if f not in values)
            raise TypeError(f"{name} missing arguments: {missing}")
        return tuple(map(values.__getitem__, fields))

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={v!r}"
                          for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({inner})"


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


class GridScan:
    """f sampled on the midpoint grid lo + step * (i + 0.5), i < n, and
    at the cut points the caller adds that lie in [lo, hi].

    The grid stays half a step clear of lo and hi, so f may have a pole
    or be undefined at either end; a cut point must be where f is defined.
    """

    def __init__(self, f: Callable[[float], float], lo: float, hi: float,
                 n: int, cuts: Sequence[float] = ()):
        step = (hi - lo) / n
        self.xs = sorted([lo + step * (i + 0.5) for i in range(n)]
                         + [c for c in cuts if lo <= c <= hi])
        self.lo, self.hi, self.n = lo, hi, len(self.xs)
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


def critical_levels(g: Callable[[float], float], lo: float, hi: float,
                    cuts: Sequence[float] = ()) -> list[float]:
    """The sign changes of g on (lo, hi), ascending: a GRID-point scan
    brackets each one and bisection refines it to machine resolution.

    g is a closed-form derivative, so these are the critical levels of
    its curve; two sign changes within one grid step go unseen.  The
    scan also samples g at the cuts, the ends of the sub-intervals a
    caller reads, so a sub-interval narrower than a step keeps the sign
    change between its ends.
    """
    return [bisect_root(g, a, b, 0.0)
            for a, b in GridScan(g, lo, hi, GRID, cuts).brackets()]


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

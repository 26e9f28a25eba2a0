"""Small deterministic numerical helpers shared across the package.

critical_levels is the sign-change scan: it samples a function on the
_GRID-point midpoint grid, or on the pieces of it a caller reads, and
bisects each sign change.  The function need not be a derivative.
critical_levels_above starts the same scan at the last grid point at or
below a level where the caller knows the sign cannot change: a rate
law's peak, for the scans of the split map and the growth deficit.
Every extremum the analysis layer needs, save the closed forms a law
declares, is a zero of a closed-form derivative found this way.
proxy_levels finds the same levels from a Chebyshev proxy of a few
dozen samples; the buffer design uses it for every law without closed
forms, and it falls back on the scan when the proxy's coefficients have
not decayed at 129 points.  The refinement stays scalar because it sets
the last digits of every result: it evaluates the caller's own closure,
so a result depends only on that closure's arithmetic.
golden_min serves only the tangency fit, the route to r_bar that must
stay independent of these critical levels.

Every value the package returns is a Record: an immutable set of named
fields, compared and hashed by value.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Optional, Sequence

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BISECT_MAX_ITER = 200
_GOLDEN_X_TOL = 1e-10   # golden_min's last width, per |lo| + |hi| of its first
_NEWTON_STEPS = 8

# points of every critical_levels scan
_GRID = 2048
# proxy_levels: the degrees n of its nested Chebyshev-Lobatto samples,
# the tail its coefficients must fall to, relative to the largest, and
# cos(pi m / n) for the largest n, m < 2 n
_PROXY_DEGREES = (16, 32, 64, 128)
_PROXY_TAIL = 1e-13
_COS = [math.cos(math.pi * m / _PROXY_DEGREES[-1])
        for m in range(2 * _PROXY_DEGREES[-1])]

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
    build it from a grid scan.  It stops at a width relative to [lo, hi].
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_X_TOL * (abs(lo) + abs(hi)):
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


def critical_levels(g: Callable[[float], float], lo: float, hi: float,
                    pieces: Optional[Sequence] = None) -> list[float]:
    """The sign changes of g on (lo, hi), ascending: a _GRID-point scan
    brackets each one and bisection refines it to machine resolution.
    g need not be a derivative.

    The grid lo + step * (i + 0.5) stays half a step clear of lo and hi,
    so g may have a pole or be undefined at either end; two sign changes
    within one step go unseen.  Given pieces, disjoint sub-intervals of
    [lo, hi], g is sampled at their grid points and ends alone, and the
    levels strictly inside each piece come in turn, bit for bit those of
    the whole grid with every end added; so a piece narrower than a step
    keeps the sign change between its ends.

    The sign is v > 0, so a crossing through an exact grid zero gives one
    bracket, with the zero at an end where bisect_root returns it.  A run
    of exact zeros whose nearest non-zero neighbours share a sign is a
    touch and gives none; a run that reaches an end of the grid keeps
    its v > 0 flip.  A piece with a zero at an end, which such a run may
    cross, is read on the whole grid."""
    step = (hi - lo) / _GRID
    if pieces is None:
        xs = _grid(lo, step, range(_GRID))
        return _bisected_sign_changes(g, xs, [g(x) for x in xs])
    at = lambda i: lo + step * (i + 0.5)
    levels = []
    for a, b in pieces:
        xs = [a, *map(at, range(bisect_right(range(_GRID), a, key=at),
                                bisect_left(range(_GRID), b, key=at))), b]
        vs = [g(x) for x in xs]
        if vs[0] == 0.0 or vs[-1] == 0.0:
            xs = sorted([a, b, *map(at, range(_GRID))])
            vs = [g(x) for x in xs]
        levels += [s for s in _bisected_sign_changes(g, xs, vs) if a < s < b]
    return levels


def critical_levels_above(g: Callable[[float], float], lo: float, hi: float,
                          x: Optional[float], pieces: Optional[Sequence] = None
                          ) -> list[float]:
    """critical_levels(g, lo, hi, pieces) for a g that keeps one scan
    sign, v > 0 or not, at every point at or below x that the scan would
    sample: the scan starts at the last grid point at or below x.  With
    x None it is critical_levels.

    The whole grid is read from that point on, and not at all when it is
    the last.  A piece that ends at or below x is dropped, and one that
    starts before that point starts there instead.  Either way the
    samples kept are the whole scan's from that point on, and those left
    out hold no sign change, so the levels are bit for bit the whole
    scan's; cutting at x itself would add a sample and could move a
    bracket.  With no grid point at or below x nothing is cut.  A rate
    law's slope scans use it with x at the law's declared peak, below
    which mu' >= 0 fixes the sign of what they scan."""
    if x is None:
        return critical_levels(g, lo, hi, pieces)
    step = (hi - lo) / _GRID
    at = lambda i: lo + step * (i + 0.5)
    first = bisect_right(range(_GRID), x, key=at) - 1
    if pieces is not None:
        cut = at(first) if first >= 0 else lo
        return critical_levels(g, lo, hi, [(max(a, cut), b)
                                           for a, b in pieces if b > x])
    if first >= _GRID - 1:
        return []
    xs = _grid(lo, step, range(max(first, 0), _GRID))
    return _bisected_sign_changes(g, xs, [g(v) for v in xs])


def _grid(lo: float, step: float, indices) -> list[float]:
    """The scan's grid points lo + step * (i + 0.5) at indices."""
    return [lo + step * (i + 0.5) for i in indices]


def proxy_levels(g: Callable[[float], float], lo: float,
                 hi: float) -> list[float]:
    """critical_levels(g, lo, hi) from a Chebyshev proxy of g.

    g is sampled on [lo + step/2, hi - step/2], the span of the scan's
    grid, at 17, 33, 65 and then 129 nested Chebyshev-Lobatto points,
    until the last four Chebyshev coefficients are at most _PROXY_TAIL
    of the largest; if they never are, the scan runs instead.  Walking
    the samples in ascending order, a sign change is a bracket; a
    same-sign gap of width d is free of levels when |g0| + |g1| > M d,
    with M = sum k^2 |c_k| / r the Markov bound on the proxy's slope and
    r the half-width of the span; any other gap wider than the scan's
    step is split at a new sample of g.  Each bracket is bisected on g
    itself, with the scan's sign and touch rules.
    """
    step = (hi - lo) / _GRID
    a, b = _grid(lo, step, (0, _GRID - 1))
    centre, r = 0.5 * (a + b), 0.5 * (b - a)
    top = _PROXY_DEGREES[-1]
    # g at the Lobatto points of degree top, ascending; degree n reads
    # every (top // n)-th of them
    xs = [a] + [centre - r * _COS[j] for j in range(1, top)] + [b]
    vs = [None] * (top + 1)
    for n in _PROXY_DEGREES:
        stride = top // n
        for j in range(0, top + 1, stride):
            if vs[j] is None:
                vs[j] = g(xs[j])
        fs = vs[::stride]
        tail = max(_chebyshev_magnitudes(fs, range(n - 3, n + 1)))
        # every |c_k| is at most 2 max |f|: a tail above that share of
        # it cannot pass, and costs no full transform
        if not tail <= _PROXY_TAIL * 2.0 * max(map(abs, fs)):
            continue
        coeffs = _chebyshev_magnitudes(fs, range(n + 1))
        if tail <= _PROXY_TAIL * max(coeffs):
            break
    else:
        return critical_levels(g, lo, hi)
    slope = sum(k * k * c for k, c in enumerate(coeffs)) / r
    kept_x, kept_v = [a], [fs[0]]
    # samples still to walk, the next one last
    todo = list(zip(xs[::stride][:0:-1], fs[:0:-1]))
    while todo:
        x1, v1 = todo[-1]
        x0, v0 = kept_x[-1], kept_v[-1]
        d = x1 - x0
        if ((v0 > 0.0) == (v1 > 0.0) and d > step
                and not abs(v0) + abs(v1) > slope * d):
            mid = x0 + 0.5 * d
            todo.append((mid, g(mid)))
        else:
            todo.pop()
            kept_x.append(x1)
            kept_v.append(v1)
    return _bisected_sign_changes(g, kept_x, kept_v)


def _chebyshev_magnitudes(fs: list[float], ks) -> list[float]:
    """|c_k| for each k in ks, of the degree-n Chebyshev interpolant
    through fs, its n + 1 values at the Lobatto points in ascending
    order: a DCT-I read from _COS.  Ascending order flips the sign of
    every odd coefficient, which the magnitudes do not see."""
    n = len(fs) - 1
    stride, period = _PROXY_DEGREES[-1] // n, len(_COS)
    weights = [0.5 * fs[0], *fs[1:n], 0.5 * fs[n]]
    out = []
    for k in ks:
        turn = stride * k
        c = sum([w * _COS[j * turn % period] for j, w in enumerate(weights)])
        out.append(abs(c) * (1.0 if 0 < k < n else 0.5) * 2.0 / n)
    return out


def _bisected_sign_changes(g: Callable[[float], float], xs: list[float],
                           vs: list[float]) -> list[float]:
    """The sign changes of g over its ascending samples vs at xs, each
    bisected, with critical_levels' sign and touch rules."""
    last = len(xs) - 1
    levels = []
    for i in range(1, last + 1):
        if (vs[i] > 0.0) == (vs[i - 1] > 0.0):
            continue
        a, b = i - 1, i
        while a > 0 and vs[a] == 0.0:
            a -= 1
        while b < last and vs[b] == 0.0:
            b += 1
        if (vs[a] != 0.0 and vs[b] != 0.0
                and (vs[a] > 0.0) == (vs[b] > 0.0)):
            continue  # a touch
        levels.append(bisect_root(g, xs[i - 1], xs[i], 0.0))
    return levels


def real_cubic_roots(a3: float, a2: float, a1: float, a0: float) -> list[float]:
    """All real roots of a3 x^3 + a2 x^2 + a1 x + a0, a3 != 0.

    Trigonometric branch for three real roots, Cardano otherwise; the
    usual depressed-cubic substitution x = t - a2/(3 a3).  Every caller
    passes coefficients in units of S_in, so the roots are O(1) and the
    max(1.0, ...) floor of the double-root test is unit-free.
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

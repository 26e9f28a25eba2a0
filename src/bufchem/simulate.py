"""Trajectory integration for the one- and two-vessel models.

A self-contained Dormand-Prince 5(4) pair over plain float tuples.  The
states here are 2- or 4-vectors and the right-hand sides are a handful
of arithmetic ops, so tuples beat array machinery on both speed and
allocation churn at this size.

The adaptive loop of a run is one function written out over scalars,
generated on first use for each state size (2: one vessel, 4: buffered)
and rate-law kind from one template over the tableau entries.  Each
pass of it takes the seven stages, the right-hand side of each stage
with the rate law written in (Haldane and Monod by their closed forms;
every other law, and any subclass, by a call of its _rate_raw), the
error estimate per component, both rejection rules, the step-size
controller, the stiffness floor and the exact landing on t_end, with no
loop over components, zip, generator, call of a right-hand side or of a
step, and no tuple but the accepted state.  The same factory gives the
right-hand side f(t, y) that sizes the first step.  Each weighted sum
adds its terms left to right, leaving out the tableau's zero weights: on
finite terms that rounds exactly as the builtin sum() of Python 3.11,
whose start 0.0 and zero-weight terms change no nonzero partial sum.
The error norm adds the components in order from 0.0.  The rounding is
then the same on every Python version; since 3.12, sum() of floats is
compensated and a loop of sum() calls would round differently.  Every
expression keeps the operand order of the law's _rate_raw and of the
model equations, so the routes agree to the bit.

Non-negativity is enforced by step rejection, never by clipping: the
mass-balance quantities S_i + X_i - S_in decay linearly and tests rely
on that structure surviving integration exactly.

One settling rule decides where a run went, and a label is the
certified candidate or the dwell verdict.  The dwell rule: a run has
settled on a candidate state when its last state is within eps
(sup-norm) of it and every state of the last 10% of the run, by time,
stayed within 2*eps.  The certificate: basin_probe gives each candidate
that is a sink of a system of an exact Haldane, Monod or CustomUnimodal
law, single or buffered, a capture region, ranges of each vessel's
substrate and mass excess s + x - S_in from which the system provably
ends within eps of it, certified from values of mu (_capture), and a
run settles on the first state inside one.  A region is a plain tuple
of one (a, b, z_lo, z_hi, floor) per vessel.  The sink of a single
vessel whose feed supports growth, mu(S_in) > D, captures every state
with biomass, so each such run stops after its first step.  The rule is
written out too, per state size and number of candidates: per
candidate, the capture test (a <= s <= b and z_lo <= s + x - S_in <=
z_hi for each vessel, with the system's one feed S_in, an end no face
needs being infinite, then x > floor, -inf but for that quadrant) and
the dwell rule; the first candidate that passes wins.
detect_convergence applies the dwell rule alone to a stored trajectory.
basin_probe checks the system and the candidates once, builds one rule
for the system's state size, hands it to integrate as the stop
condition of every start, checked after each accepted step, has
integrate store no state, and resets the rule between runs.
"""
from __future__ import annotations

import bisect
import functools
import math
import operator
from itertools import chain, repeat
from typing import Callable, Optional, Sequence, Union

from ._numerics import Record, finite_positive
from .buffered import BufferedConfig
from .kinetics import CLOSED_FORMS, closed_form, declared_peak
from .single import SingleParams

__all__ = [
    "IntegratorSettings",
    "Trajectory",
    "StiffnessError",
    "integrate",
    "detect_convergence",
    "basin_probe",
]

State = tuple[float, ...]

# Dormand-Prince 5(4) tableau; both systems are autonomous, so the
# nodes c_i never enter a step
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
# fifth-minus-fourth order error weights (last entry applies to the FSAL stage)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


# each state size's system: the constants its right-hand side closes
# over, its state components, the substrates at which the rate law is
# taken (m1 = mu(first), m2 = mu(second)) and the components of f
_SYSTEMS = {
    2: (("S_in", "D"), ("s", "x"), ("s",),
        ("-m1 * x + D * (S_in - s)", "(m1 - D) * x")),
    4: (("S_in", "d_r", "cross", "direct", "a_d"), ("s1", "x1", "s2", "x2"),
        ("s1", "s2"),
        ("-m1 * x1 + d_r * (cross * (s2 - s1) + direct * (S_in - s1))",
         "m1 * x1 + d_r * (cross * x2 - x1)",
         "-m2 * x2 + a_d * (S_in - s2)",
         "(m2 - a_d) * x2")),
}


# integrate's adaptive loop, for _dp5_step to fill in with the written-out
# stages, error norm and state update of one system.  The controller's
# min(u, max(l, v)) is written (v if v < u else u) if v > l else l, and
# max(err_n, 1e-10) is err_n if err_n > 1e-10 else 1e-10: the values min
# and max give.
_RUN = """
    def run(t_end, h, y, k1, abs_tol, rel_tol, max_step, neg_floor, h_min,
            stop, keep):
        {y}, = y
        {k1}, = k1
        sqrt = math.sqrt
        t = 0.0
        times = [t]
        states = [y]
        accepted = rejected = 0
        while t < t_end:
            if max_step < h:
                h = max_step
            # the step that reaches t_end ends there exactly: t + (t_end - t)
            # can round one ulp short and leave a step no run could take
            last = h >= t_end - t
            if last:
                h = t_end - t
            if h < h_min:
                raise StiffnessError(t, y)
{stages}
            acc = 0.0
{norm}
            err_n = sqrt(acc / {n})
            if not err_n <= 1.0:
                if not math.isfinite(err_n):
                    raise ValueError(
                        "error norm is %r at t = %r: the right-hand side "
                        "is not finite along this step" % (err_n, t))
                rejected += 1
                fac = 0.9 * err_n ** -0.2
                h *= (fac if fac < 1.0 else 1.0) if fac > 0.2 else 0.2
                continue
            # min(y_new) < neg_floor; a NaN component made err_n NaN above
            if {below_floor}:
                rejected += 1
                h *= 0.5
                continue
            t = t_end if last else t + h
{advance}
            accepted += 1
            if keep:
                times.append(t)
                states.append(y)
            if stop is not None and stop(t, y):
                break
            fac = 0.9 * (err_n if err_n > 1e-10 else 1e-10) ** -0.2
            h *= (fac if fac < 5.0 else 5.0) if fac > 0.2 else 0.2
        if not keep:
            times, states = [t], [y]
        return times, states, accepted, rejected
"""


@functools.cache
def _dp5_step(n: int, law: str) -> Callable:
    """The factory of the written-out Dormand-Prince loop of one system.

    _dp5_step(n, law)(*constants, *law_parameters) returns (rhs, run)
    for the system over n-component states (_SYSTEMS) and the rate-law
    kind law: a CLOSED_FORMS type, whose fields it closes over and whose
    _RATE it writes in, or "callable", a call of mu.  rhs(t, y) is the
    right-hand side.  run(t_end, h, y, k1, abs_tol, rel_tol, max_step,
    neg_floor, h_min, stop, keep) is integrate's adaptive loop from t =
    0, state y, rhs there k1 and a first step h (_RUN): it returns the
    lists of accepted times and states (with keep false, the last of
    each alone) with the counts of accepted and rejected steps.  Its
    source works on scalar locals: y_0, k1_0, ..., k7_{n-1}, each
    stage's input in the state's names and the rates m1, m2; the only
    tuple it builds is each accepted state.
    """
    constants, state, substrates, components = _SYSTEMS[n]
    closed = CLOSED_FORMS.get(law)
    parameters, rate = ((closed._fields, closed._RATE) if closed
                        else (("mu",), "mu({s})"))
    comps = range(n)
    ind = " " * 12

    def names(v: str) -> str:
        return ", ".join(f"{v}_{i}" for i in comps)

    def weighted(coefs: Sequence[float], i: int) -> str:
        # a float's repr reads back as the same double; a zero weight's
        # term adds nothing
        return " + ".join(f"{c!r} * k{j}_{i}"
                          for j, c in enumerate(coefs, 1) if c)

    def stage(s: int) -> list[str]:
        # the input of stage s in the state's names, then k{s} from it;
        # stage 7's input is the fifth-order solution itself (FSAL)
        lines = [f"{ind}{v} = y_{i} + h * ({weighted(_A[s - 1], i)})"
                 for i, v in enumerate(state)]
        return lines + rates(ind) + [f"{ind}k{s}_{i} = {c}"
                                     for i, c in enumerate(components)]

    def rates(indent: str) -> list[str]:
        return [f"{indent}m{j} = {rate.format(s=v)}"
                for j, v in enumerate(substrates, 1)]

    stages = [line for s in range(2, 8) for line in stage(s)]
    # max(a, b) is b if b > a else a, ties and NaN included
    norm = [line for i, v in enumerate(state) for line in (
        f"{ind}a = abs(y_{i})",
        f"{ind}b = abs({v})",
        f"{ind}acc += (h * ({weighted(_E, i)}) / (abs_tol"
        f" + rel_tol * (b if b > a else a))) ** 2")]
    advance = ([f"{ind}y_{i} = {v}" for i, v in enumerate(state)]
               + [f"{ind}k1_{i} = k7_{i}" for i in comps]
               + [f"{ind}y = ({', '.join(state)},)"])
    source = "\n".join(
        [f"def factory({', '.join(constants + parameters)}):",
         "    def rhs(t, y):",
         f"        {', '.join(state)}, = y"]
        + rates(" " * 8)
        + [f"        return ({', '.join(components)},)",
           _RUN.format(
               y=names("y"), k1=names("k1"), stages="\n".join(stages),
               norm="\n".join(norm), n=n, advance="\n".join(advance),
               below_floor=" or ".join(f"{v} < neg_floor" for v in state)),
           "    return rhs, run"])
    namespace: dict = {}
    exec(compile(source, f"<dp5 loop, n = {n}, {law} law>", "exec"),
         globals(), namespace)
    return namespace["factory"]


# a step is rejected when a component dips below -10 * abs_tol, or below
# the floor Trajectory holds every stored state to, whichever is higher
_STATE_FLOOR = -1e-12
_NEG_FLOOR_FACTOR = 10.0
_MIN_STEP_FACTOR = 1e-14   # h below this fraction of t_end is a stiffness failure


class StiffnessError(RuntimeError):
    """Step size underflowed; carries the last valid time and state."""

    def __init__(self, time: float, last_state: State):
        self.time = time
        self.last_state = last_state
        super().__init__(
            f"step size underflow at t = {time}; the problem is stiffer "
            f"than this explicit pair can handle")


class IntegratorSettings(Record):
    """Tolerances and horizon for one integration run.

    t_end = None means 200 / D, resolved against the system's dilution
    rate at call time; the horizon scales with the slowest linear decay.
    """
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = math.inf
    t_end: Optional[float] = None

    def __post_init__(self) -> None:
        for name, v in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (0.0 < v <= 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2], got {v}")
        if not (self.max_step == math.inf or finite_positive(self.max_step)):
            raise ValueError("max_step must be positive")
        if self.t_end is not None and not finite_positive(self.t_end):
            raise ValueError("t_end must be positive")


class Trajectory(Record):
    times: tuple[float, ...]
    states: tuple[State, ...]
    accepted_steps: int
    rejected_steps: int

    def __post_init__(self) -> None:
        times, states = self.times, self.states
        if any(map(operator.ge, times[:-1], times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(map(operator.lt, chain.from_iterable(states),
                   repeat(_STATE_FLOOR))):
            raise ValueError(
                f"state components must stay above {_STATE_FLOOR}")
        # NaN passes both comparisons above
        if not all(map(math.isfinite,
                       chain(times, chain.from_iterable(states)))):
            raise ValueError("times and state components must be finite")
        if len(times) != len(states):
            raise ValueError(f"{len(times)} times but {len(states)} states")
        if not times:
            raise ValueError("a trajectory needs at least one state")
        if len(set(map(len, states))) != 1:
            raise ValueError("states must all have the same size")
        if not (self.accepted_steps >= 0 and self.rejected_steps >= 0):
            raise ValueError("step counts must be >= 0")

    @property
    def final(self) -> State:
        return self.states[-1]


def _constants(system) -> Optional[tuple[int, tuple]]:
    """The state size of system and the constants of its right-hand side
    (_SYSTEMS), or None for a system of another type."""
    if isinstance(system, SingleParams):
        return 2, (system.S_in, system.D)
    if isinstance(system, BufferedConfig):
        alpha, r = system.alpha, system.r
        cross = alpha * (1.0 - r)
        return 4, (system.S_in, system.D / r, cross, 1.0 - cross,
                   alpha * system.D)
    return None


def _rhs_and_step(system: Union[SingleParams, BufferedConfig], n: int
                  ) -> tuple[Callable[[float, State], State], Callable]:
    """The right-hand side f(t, y) of system and its written-out
    Dormand-Prince loop (_dp5_step)."""
    sized = _constants(system)
    if sized is None:
        raise TypeError(f"unsupported system type {type(system).__name__}")
    size, constants = sized
    if n != size:
        kind = "single-vessel" if size == 2 else "buffered"
        raise ValueError(f"{kind} states have {size} components")
    law = closed_form(system.model)
    if law is None:
        return _dp5_step(n, "callable")(*constants, system.model._rate_raw)
    return _dp5_step(n, law)(*constants, *system.model._values())


def _initial_step(f, t0: float, y0: State, f0: State, abs_tol: float,
                  rel_tol: float, t_end: float, max_step: float) -> float:
    def norm(v: State) -> float:
        acc = 0.0
        for c, y in zip(v, y0):
            sc = abs_tol + rel_tol * abs(y)
            acc += (c / sc) ** 2
        return math.sqrt(acc / len(v))

    d0, d1 = norm(y0), norm(f0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = tuple(y + h0 * k for y, k in zip(y0, f0))
    f1 = f(t0 + h0, y1)
    d2 = norm(tuple(b - a for a, b in zip(f0, f1))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_step, t_end - t0)


def integrate(system: Union[SingleParams, BufferedConfig],
              x0: Sequence[float],
              settings: Optional[IntegratorSettings] = None,
              stop_condition: Optional[Callable[[float, State], bool]] = None,
              *, _last_only: bool = False) -> Trajectory:
    """Integrate from x0 over [0, t_end], recording every accepted step.

    stop_condition, when given, is checked after each accepted step and
    truncates the run; the trajectory then ends at the triggering state.
    Raises StiffnessError on step-size underflow (carrying the last
    valid state), and ValueError on a negative or non-finite initial
    component or on a non-finite error norm (the right-hand side left
    the finite floats).  _last_only, for basin_probe, which reads no
    state of a run, stores none: the trajectory holds the last state
    alone, with the step counts of the whole run.
    """
    y = tuple(float(c) for c in x0)
    if not all(0.0 <= c < math.inf for c in y):
        raise ValueError(
            f"initial state must be finite and non-negative, got {x0}")
    cfg = settings if settings is not None else IntegratorSettings()
    t_end = cfg.t_end if cfg.t_end is not None else 200.0 / system.D
    abs_tol, rel_tol, max_step = cfg.abs_tol, cfg.rel_tol, cfg.max_step
    neg_floor = max(-_NEG_FLOOR_FACTOR * abs_tol, _STATE_FLOOR)
    h_min = _MIN_STEP_FACTOR * t_end

    rhs, run = _rhs_and_step(system, len(y))
    k1 = rhs(0.0, y)
    h = _initial_step(rhs, 0.0, y, k1, abs_tol, rel_tol, t_end, max_step)
    times, states, accepted, rejected = run(
        t_end, h, y, k1, abs_tol, rel_tol, max_step, neg_floor, h_min,
        stop_condition, not _last_only)
    return Trajectory(tuple(times), tuple(states), accepted, rejected)


def _candidate_state(candidate) -> State:
    return candidate.state if hasattr(candidate, "state") else tuple(candidate)


# ---------------------------------------------------------------------------
# Certified capture.  Each vessel's (substrate index, biomass index) in
# the states of each size.
_VESSELS = {2: ((0, 1),), 4: ((0, 1), (2, 3))}
# relative allowance for the certificate's own rounding: 256 units in the
# last place of the size of each quantity it bounds, which is some ten
# times the rounding of the few operations behind any of them
_SLACK = 2.0 ** -44
# the capture region's ladder of steps from the candidate, in units of
# S_in: 2^-j
_LADDER = tuple(2.0 ** -j for j in range(1, 64))
# the width, in units of eps/4, at which the buffer's bracket in the main
# vessel's certificate stops being bisected
_TIGHT = 2.0 ** -16
# the halvings the sign certificate of one stretch of the main vessel's
# range may take before that stretch is given up
_HALVINGS = 64
# a capture test that no state passes: the empty ranges (+inf, -inf)
_EMPTY = (math.inf, -math.inf) * 2 + (math.inf,)
# the region of a vessel fed by the feed alone that the feed can invade:
# every state of the quadrant with biomass
_QUADRANT = (0.0, math.inf, -math.inf, math.inf, 0.0)


def _capture(n: int, constants: tuple, model, peak: float, eps: float
             ) -> Callable[[State], Optional[tuple]]:
    """box(ref): the certified capture region of a candidate ref of one
    basin_probe call, or None.  peak is the law's peak abscissa (math.inf
    for a law that rises for ever).

    The region is a tuple of one (a, b, z_lo, z_hi, floor) per vessel of
    _VESSELS: the states with a <= s <= b, z_lo <= s + x - S_in <= z_hi
    and x > floor in each vessel.  An end of z that no face needs is
    infinite; each finite one allows for the rounding of its test.  A
    box's floor is -inf (its z_lo keeps x > 0); the quadrant of a vessel
    the feed invades is _QUADRANT, whose floor 0 alone bounds it.

    In each vessel's substrate s and mass excess z = s + x - S_in both
    systems are a cascade (Smith and Waltman, The Theory of the Chemostat,
    1995, ch. 2; Thieme, J. Math. Biol. 30 (1992) 755):
        s' = g(s, z, u) = -mu(s) (S_in + z - s) + k (u - s),
    z' = -k z, with u = S_in and k = D (single vessel) or alpha D
    (buffer); in the main vessel k = D / r, u = c s_2 + (1 - c) S_in with
    c = alpha (1 - r), and z_1' = k (c z_2 - z_1).  A region is a box, s
    in [a, b], z in [z_lo, z_hi] for each vessel, or the quadrant of 7.
    g is affine in z and in u, and its z term is -mu(s) x with x = S_in +
    z - s >= 0, so one value of mu and the worst corner decide each face:
    s = b needs z >= z_lo, s = a needs z <= z_hi.  At a = 0 there is no
    face, since g = k u > 0 there, and z_hi = +inf; where b exceeds every
    u the region allows, g <= k (u - b) < 0 on s = b whatever x, and z_lo
    = -inf.  Every certified inequality below keeps _SLACK of the size of
    its terms to spare.

    A vessel driven by the feed alone (the single vessel, the buffer),
    with [a, b] = [max(s* - sigma, 0), s* + sigma], is certified when
      1. [a, b] lies on one side of the peak, where mu is monotone;
      2. g(b, z_lo) < 0 and g(a, z_hi) > 0 for z_lo = -0.9 margin(b) /
         mu(b) and z_hi = 0.9 margin(a) / mu(a) (+inf at a = 0), margin
         the face's |g| at z = 0: mu(a) and mu(b) decide;
      3. G(s) = g(s, 0) = (S_in - s)(k - mu(s)) falls through 0 across
         the bracket [s* - eps/4, s* + eps/4] (a saddle fails here, after
         two values of mu), and |x* - (S_in - s*)| <= eps/4.
    On [a, b], mu is strictly monotone by 1 (the law's class), so G has
    at most one zero where mu = k and one at S_in, and two distinct zeros
    would give G(a) and G(b) one sign: by 2, G has exactly one zero in [a,
    b], the one 3 brackets, so the region holds S_in only when that zero
    is S_in.  For a CustomUnimodal law the declared peak is an assumption
    of 1, and of 7 below.

    The main vessel of a buffered system, with the buffer's region and
    the bracket [lo_2, hi_2] about s_2* of 3, each end bisected toward
    G's zero while G's sign there is sure and the bracket's part left
    on that side is wider than _TIGHT eps/4, is certified when
      4. s = b and, unless a = 0, s = a point inward at their worst
         corners: z = z_lo (z_hi) and u at the end of the buffer's range
         of s_2;
      5. c z_2_hi <= z_1_hi and c z_2_lo >= z_1_lo, so z_1 stays in its
         range;
      6. g(., 0, u) > 0 on [a, s* - eps/4] for u >= u(lo_2), and < 0 on
         [s* + eps/4, b] for u <= u(hi_2) (affine in u: the end decides),
         and |x* - (S_in - s*)| <= eps/4.
    6 takes pieces on one side of the peak, where mu lies between its
    values at the ends, so that k (u - d) - mu(s) (S_in - s) at its worst
    bounds g on the piece [e, d]; a piece whose bound leaves the sign
    unsure is halved, and a value of mu with the wrong sign ends the
    stretch.  So the region may cross the peak, start at 0 and end past
    the feed.  The proof below needs only some bracket of the buffer's
    zero; a narrower one narrows the range of u that 6 must hold for.
    Stopped at _TIGHT eps/4 a side, u spans at most c 2 _TIGHT eps/4
    (plus the stretch where G's sign is unsure), which moves g(s* +-
    eps/4, 0, u) by k times that, against a margin of about |dg/ds|
    eps/4 at a simple rest level.  So the stop costs a region only where
    |dg/ds| at rest is below some 2 _TIGHT k c, next to a tangency, and
    each end takes 17 halvings from eps/2, not some 38 to the last ulp.

    Proof.  By 2, 4 and 5 each face of the closed region, and of x >= 0,
    points inward, so the region is forward invariant (Nagumo), and in it
    z -> 0.  A vessel driven by the feed alone ends at its zero of G, so
    within eps/4 of s*: the limit equation s' = G(s) drives all of [a, b]
    there, and so does the asymptotically autonomous one (Markus 1956;
    Thieme 1992).  The buffer's zero lies in [lo_2, hi_2], so u tends to
    some u* in [u(lo_2), u(hi_2)], and s_1 is asymptotically autonomous
    with limit flow s' = g(s, 0, u*).  Its omega-limit set in [a, b] is
    compact, connected, invariant and internally chain transitive for the
    limit flow (Mischaikow, Smith and Thieme, Trans. AMS 347 (1995)
    1669): an interval whose ends are zeros of g(., 0, u*), which by 6 lie
    in [s* - eps/4, s* + eps/4].  Each run ends within eps/4 of s* and,
    as x -> S_in - s, within eps/2 of y*, with no contraction rate.

    Sizing.  A single vessel takes the level sigma = S_in 2^-j past which
    the lesser of |z_lo| and z_hi stops growing, walking down from the
    first that fits.  The main vessel's ends walk out the ladders s* -
    S_in 2^-j, then 0, and s* + 2 S_in 2^-j while 6 reaches them, one
    value of mu each; walking back from the farthest, each side takes
    the end past which its face's z end at the bracket's u stops growing
    (0, or a b past that u, at once).  The buffer takes the level of its
    ladder whose lesser z end under 5's caps is largest, the main
    vessel's z ends taken from 4 at each level.

    A single vessel (n == 2) whose candidate passes 3 captures the whole
    quadrant s >= 0, x > 0 (_QUADRANT), in place of a box, when
      7. the feed invades it: mu(S_in) - k > _SLACK (mu(S_in) + k), one
         value of mu per call.
    Its tests are exact comparisons (s >= 0, x > 0), which need no
    rounding allowance.  Proof.  mu(0) = 0 < k < mu(S_in), and mu - k has
    one sign change on [0, S_in], since mu rises to its peak and then
    falls (the law's class): G > 0 on [0, lambda) and G < 0 on (lambda,
    S_in) for the lower break-even lambda.  3 brackets lambda: x* >= 0
    and the balance keep s* - eps/4 at or below S_in, where G > 0 only
    below lambda, and G(s* + eps/4) < 0 only above it.  Along every run z -> 0,
    so the omega-limit set of a state with x > 0 lies in z = 0, 0 <= s <=
    S_in, and is chain transitive for the limit flow s' = G(s) (Thieme
    1992): a rest point, lambda or the washout S_in.  The washout is a
    hyperbolic saddle, with eigenvalues -k and mu(S_in) - k > 0, whose
    stable manifold is the axis x = 0, and x > 0 is forward invariant (x'
    = (mu - k) x); so the run does not tend to it, and by the
    Butler-McGehee lemma an omega-limit set holding it holds more than
    it.  Each run with x > 0 ends at lambda, within eps/4 of s* and eps/2
    of y*: the classical result for a chemostat whose feed supports
    growth (Butler and Wolkowicz, SIAM J. Appl. Math. 45 (1985) 138;
    Smith and Waltman 1995, ch. 2).  A buffer is invaded the same way, but
    the main vessel's region is sized from the buffer's box, so a
    buffered system keeps its boxes.
    """
    S_in = constants[0]
    mu = model._rate_raw
    quarter = 0.25 * eps
    tight = _TIGHT * quarter
    # [a, b] must end this far short of the peak, or start this far past it
    below, above = peak * (1.0 - _SLACK), peak * (1.0 + _SLACK)

    sigmas = [S_in * level for level in _LADDER if S_in * level >= eps]

    def ladder(fit: Callable[[float], Optional[tuple]]
               ) -> Optional[tuple[float, tuple]]:
        # (sigma, fit(sigma)) of the level past which zeta, fit's first
        # entry, stops growing, walking down from the first level that fits
        best = None
        for sigma in sigmas:
            got = fit(sigma)
            if got is not None and (best is None or got[0] > best[1][0]):
                best = sigma, got
            elif best is not None:
                break
        return best

    def flow(s: float, k: float) -> float:
        # G(s), or 0.0 where the rounding of mu could flip k - mu(s)
        m = mu(s)
        d = k - m
        return (S_in - s) * d if abs(d) > _SLACK * (k + m) else 0.0

    def bracket(s_: float, k: float) -> Optional[tuple[float, float]]:
        # 3: the bracket of half-width eps/4 about s_ if G falls through
        # 0 across it
        lo, hi = (s_ - quarter if s_ > quarter else 0.0), s_ + quarter
        return (lo, hi) if flow(lo, k) > 0.0 > flow(hi, k) else None

    def fed(s_: float, k: float, sigma: float) -> Optional[tuple]:
        # (zeta, region) of the region about s_ of a vessel driven by the
        # feed alone, zeta the lesser size of its z ends (1 and 2), or None
        b, a = s_ + sigma, (s_ - sigma if s_ > sigma else 0.0)
        if not (b <= below or a >= above):
            return None
        m_a, m_b = (mu(a) if a > 0.0 else 0.0), mu(b)
        up = (m_b - k) * (S_in - b) - _SLACK * (m_b + k) * (S_in + b)
        low = (k - m_a) * (S_in - a) - _SLACK * (k + m_a) * (S_in + a)
        # a face where mu rounds to 0 (far past the peak) gets no region
        if not (up > 0.0 and low > 0.0 and m_b > 0.0
                and (m_a > 0.0 or a == 0.0)):
            return None
        z_lo, z_hi = up / m_b, (low / m_a if a > 0.0 else math.inf)
        return (z_lo if z_lo < z_hi else z_hi,
                (a, b, -0.9 * z_lo, 0.9 * z_hi))

    def balanced(ref: State, s: int, x: int) -> bool:
        # the vessel's mass excess at the candidate is within eps/4 of 0
        return (abs(ref[x] - (S_in - ref[s])) + _SLACK * (S_in + ref[x])
                <= quarter)

    def tested(region: tuple) -> tuple:
        # the mass test's own rounding comes off each z end; a box needs
        # no floor
        a, b, z_lo, z_hi = region
        pad = _SLACK * (2.0 * S_in + b)
        return (a, b, z_lo * (1.0 - _SLACK) + pad,
                z_hi * (1.0 - _SLACK) - pad, -math.inf)

    if n == 2:
        D = constants[1]

        @functools.cache
        def invaded() -> bool:
            # 7, from one value of mu per call
            m_in = mu(S_in)
            return m_in - D > _SLACK * (m_in + D)

        def box(ref: State) -> Optional[tuple]:
            if bracket(ref[0], D) is None or not balanced(ref, 0, 1):
                return None
            if invaded():
                return (_QUADRANT,)
            got = ladder(lambda sigma: fed(ref[0], D, sigma))
            if got is None:
                return None
            return (tested(got[1][1]),)

        return box

    _, k, cross, direct, a_d = constants
    m_peak = mu(peak) if peak < math.inf else 0.0

    def g(s: float, m: float, u: float) -> float:
        # g(s, 0, u) of the main vessel, m = mu(s)
        return k * (u - s) - m * (S_in - s)

    def signed(p: float, q: float, m_p: float, m_q: float, u: float,
               sign: float) -> bool:
        # 6 on the piece between p and q, on one side of the peak: sign g(.,
        # 0, u) > 0 there, halving the piece nearest p first
        pieces = [(p, q, m_p, m_q)]
        left = _HALVINGS
        while pieces:
            p, q, m_p, m_q = pieces.pop()
            lo, hi = (p, q) if p < q else (q, p)
            least, most = (m_p, m_q) if m_p < m_q else (m_q, m_p)
            # mu(s) (S_in - s) at its largest (sign > 0) or least
            if sign > 0.0:
                worst = k * (u - hi) - (most if S_in >= lo else least) * (
                    S_in - lo)
            else:
                worst = (least if S_in >= hi else most) * (S_in - hi) - k * (
                    u - lo)
            if worst > _SLACK * (k * (u + hi) + most * (S_in + hi)):
                continue
            mid = 0.5 * (p + q)
            left -= 1
            if left < 0 or mid == p or mid == q:
                return False
            m = mu(mid)
            if not sign * g(mid, m, u) > 0.0:
                return False
            pieces += ((mid, q, m, m_q), (p, mid, m_p, m))
        return True

    def reach(start: float, m_start: float, ends: list, u: float,
              sign: float) -> list:
        # the (end, mu(end)) of ends, in order away from start, up to
        # which 6 holds from start on
        got = []
        for end in ends:
            m_end = mu(end)
            if not sign * g(end, m_end, u) > 0.0:
                break
            cuts = [(start, m_start), (end, m_end)]
            if (start - peak) * (end - peak) < 0.0:
                cuts.insert(1, (peak, m_peak))
            if not all(signed(p, q, m_p, m_q, u, sign) for (p, m_p), (q, m_q)
                       in zip(cuts, cuts[1:])):
                break
            got.append((end, m_end))
            start, m_start = end, m_end
        return got

    def tightest(lo: float, hi: float) -> tuple[float, float]:
        # the buffer's bracket with each end bisected toward the zero of G
        # while G's sign there is sure, down to _TIGHT of eps/4
        def walk(end: float, far: float, sign: float) -> float:
            mid = 0.5 * (end + far)
            while end != mid != far and abs(far - end) > tight:
                if sign * flow(mid, a_d) > 0.0:
                    end = mid
                else:
                    far = mid
                mid = 0.5 * (end + far)
            return end

        return walk(lo, hi, 1.0), walk(hi, lo, -1.0)

    def widest(ends: list, u: float, sign: float) -> tuple:
        # the end of ends (in order away from the candidate) past which
        # the face's z end, sign g(e, 0, u) / mu(e), stops growing, walking
        # back from the farthest; infinite where the face needs no z end
        best, size = None, -1.0
        for e, m in reversed(ends):
            if e == 0.0 or (sign < 0.0 and e > u):
                return e, m
            got = sign * g(e, m, u) / m if m > 0.0 else 0.0
            if got <= size:
                break
            best, size = (e, m), got
        return best

    offsets = [S_in * level for level in reversed((2.0, 1.0) + _LADDER)
               if S_in * level >= eps]

    def box(ref: State) -> Optional[tuple]:
        s1, s2 = ref[0], ref[2]
        u = cross * s2 + direct * S_in
        # the saddle tests: the buffer's bracket (3), then g's sign at the
        # main vessel's bracket ends with the buffer at rest; a vessel
        # that fails has no region, and none is sized
        found = bracket(s2, a_d)
        if found is None:
            return None
        a_in, b_in = (s1 - quarter if s1 > quarter else 0.0), s1 + quarter
        m_in, m_out = mu(a_in), mu(b_in)
        if not (g(a_in, m_in, u) > 0.0 > g(b_in, m_out, u)
                and balanced(ref, 0, 1) and balanced(ref, 2, 3)):
            return None
        lo, hi = tightest(*found)
        u_lo, u_hi = cross * lo + direct * S_in, cross * hi + direct * S_in
        upper = reach(b_in, m_out, [s1 + d for d in offsets], u_hi, -1.0)
        if a_in > 0.0:
            lower = reach(a_in, m_in, [s1 - d for d in offsets if d < s1]
                          + [0.0], u_lo, 1.0)
        else:
            lower = [(0.0, 0.0)]
        if not (upper and lower):
            return None
        a, m_a = widest(lower, u_lo, 1.0)
        b, m_b = widest(upper, u_hi, -1.0)

        def pair(sigma: float) -> Optional[tuple]:
            # (the buffer's least z end under 5's caps, (the main vessel's
            # region, the buffer's)) with the buffer's region about s2 at
            # sigma, or None
            got = fed(s2, a_d, sigma)
            if got is None:
                return None
            a2, b2, lo_2, hi_2 = got[1]
            # 4: the main vessel's faces at the buffer's worst corners
            v_lo, v_hi = cross * a2 + direct * S_in, cross * b2 + direct * S_in
            z_lo = z_hi = math.inf
            if b - v_hi <= _SLACK * (b + v_hi):
                up = m_b * (S_in - b) - k * (v_hi - b) - _SLACK * (
                    m_b * (S_in + b) + k * (v_hi + b))
                if not (up > 0.0 and m_b > 0.0):
                    return None
                z_lo = 0.9 * up / m_b
            if a > 0.0:
                low = k * (v_lo - a) - m_a * (S_in - a) - _SLACK * (
                    k * (v_lo + a) + m_a * (S_in + a))
                if not (low > 0.0 and m_a > 0.0):
                    return None
                z_hi = 0.9 * low / m_a
            if cross > 0.0:
                scale = (1.0 - _SLACK) / cross
                hi_2, lo_2 = min(hi_2, z_hi * scale), max(lo_2, -z_lo * scale)
            return (-lo_2 if -lo_2 < hi_2 else hi_2,
                    ((a, b, -z_lo, z_hi), (a2, b2, lo_2, hi_2)))

        fits = [got for got in map(pair, sigmas) if got is not None]
        if not fits:
            return None
        best = max(fits, key=operator.itemgetter(0))
        return tuple(map(tested, best[1]))

    return box


def _captures(system, candidates: Sequence, eps: float
              ) -> list[Optional[tuple]]:
    """The capture region of each candidate of a basin_probe call
    (_capture), or None.

    A system of an exact Haldane, Monod or CustomUnimodal law
    (declared_peak), single or buffered, has regions; a subclass of any of
    them never does.  _settling has checked the candidates' sizes and
    coordinates; one with a negative coordinate gets no region.
    """
    refs = [tuple(map(float, _candidate_state(c))) for c in candidates]
    peak = declared_peak(system.model)
    if peak is None:
        return [None] * len(refs)
    box = _capture(*_constants(system), system.model, peak, eps)
    return [box(ref) if all(v >= 0.0 for v in ref) else None for ref in refs]


@functools.cache
def _settling_rule(n: int, m: int) -> Callable:
    """The factory of the written-out settling rule of m candidates over
    n-component states.

    _settling_rule(n, m)(*coordinates, feed, *tests, eps, eps2, t0),
    given the candidates' coordinates, the system's S_in, then each
    candidate's capture test (each vessel's a, b, z_lo, z_hi and floor)
    and eps2 = 2 * eps, returns (settled, label, reset) as _settling
    describes.  settled works on the state's components y_0, ... as
    locals and closes over the coordinates r{j}_{i}, the feed f and the
    tests a{j}_{v}, b{j}_{v}, l{j}_{v}, h{j}_{v}, p{j}_{v}; the far times
    far_{j} and the label are cells.
    """
    coordinates = [f"r{j}_{i}" for j in range(m) for i in range(n)]
    vessels = _VESSELS.get(n, ())
    tests = [f"{v}{j}_{i}" for j in range(m) for i in range(len(vessels))
             for v in ("a", "b", "l", "h", "p")]
    fars = [f"far_{j}" for j in range(m)]
    parameters = coordinates + ["f"] + tests + ["eps", "eps2", "t0"]
    lines = [f"def factory({', '.join(parameters)}):"]
    if m:
        lines.append(f"    {' = '.join(fars)} = -math.inf")
    lines += ["    found = None",
              "",
              "    def settled(t, y):",
              f"        nonlocal {', '.join(fars + ['found'])}",
              f"        [{', '.join(f'y_{i}' for i in range(n))}] = y",
              "        t_cut = t - 0.1 * (t - t0)",
              "        hit = None"]
    for j in range(m):
        # the capture region: each vessel's substrate and mass excess,
        # then each one's biomass floor, which only a state inside every
        # box reaches
        inside = " and ".join(
            [f"a{j}_{i} <= y_{s} <= b{j}_{i} and"
             f" l{j}_{i} <= y_{s} + y_{x} - f <= h{j}_{i}"
             for i, (s, x) in enumerate(vessels)]
            + [f"y_{x} > p{j}_{i}" for i, (s, x) in enumerate(vessels)]
        ) or "False"
        lines += [f"        if hit is None and {inside}:",
                  f"            hit = {j}"]
        # the sup-norm distance as max() takes it: a later component
        # replaces d only if it is greater
        lines.append(f"        d = abs(y_0 - r{j}_0)")
        for i in range(1, n):
            lines += [f"        e = abs(y_{i} - r{j}_{i})",
                      "        d = e if e > d else d"]
        lines += ["        if not d <= eps2:",
                  f"            far_{j} = t",
                  "        elif hit is None and d <= eps and"
                  f" far_{j} < t_cut:",
                  f"            hit = {j}"]
    lines += ["        found = hit",
              "        return hit is not None",
              "",
              "    def label():",
              "        return found",
              "",
              "    def reset():",
              f"        nonlocal {', '.join(fars + ['found'])}"]
    if m:
        lines.append(f"        {' = '.join(fars)} = -math.inf")
    lines += ["        found = None",
              "",
              "    return settled, label, reset"]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<settling rule, n = {n}, m = {m}>",
                 "exec"), globals(), namespace)
    return namespace["factory"]


def _settling(candidates: Sequence, eps: float, t0: float, n: int,
              system=None
              ) -> tuple[Callable[[float, State], bool],
                         Callable[[], Optional[int]], Callable[[], None]]:
    """The settling rule of a run: (settled, label, reset).

    settled(t, y) is fed the states of the run in time order.  It keeps
    the last time the run was over 2*eps from each candidate, records as
    the label the first candidate that y lies in the capture region of
    (_captures of system, tested with its one feed S_in; without a
    system, or a region, the empty ranges (+inf, -inf), which no state
    passes) or that is within eps of y with its last far time before
    t_cut = t - 0.1 * (t - t0), else None, and returns whether it found
    one; label() is the label recorded last; reset() forgets the run, so
    the rule serves another run from t0.  A candidate whose length is
    not the state size n, or with a non-finite coordinate, is a
    ValueError, raised before any region is built.
    """
    if n < 1:
        raise ValueError("the states have no components")
    refs = list(map(_candidate_state, candidates))
    for i, ref in enumerate(refs):
        if len(ref) != n:
            raise ValueError(
                f"candidate {i} has {len(ref)} components, the states "
                f"have {n}")
        if not all(map(math.isfinite, ref)):
            raise ValueError(
                f"candidate {i} has a non-finite coordinate: {ref}")
    regions = ([None] * len(refs) if system is None
               else _captures(system, refs, eps))
    empty = (_EMPTY,) * len(_VESSELS.get(n, ()))
    return _settling_rule(n, len(refs))(
        *chain.from_iterable(refs), 0.0 if system is None else system.S_in,
        *chain.from_iterable(chain.from_iterable(
            region or empty for region in regions)),
        eps, 2.0 * eps, t0)


def detect_convergence(traj: Trajectory, candidates: Sequence,
                       eps: float = 1e-6) -> Optional[int]:
    """Index of the candidate the trajectory settled on, or None.

    The settling rule: the final state is within eps (sup-norm) of the
    candidate and the last 10% of the run (by time) stayed within 2*eps;
    the first candidate that passes wins.  Earlier states cannot change
    the verdict, so only that tail is fed to the rule.  A candidate of
    another length than the states, or with a non-finite coordinate, is
    a ValueError.
    """
    if not finite_positive(eps):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    times = traj.times
    tail = bisect.bisect_left(times, times[-1] - 0.1 * (times[-1] - times[0]))
    settled, label, _ = _settling(candidates, eps, times[0],
                                  len(traj.final))
    for t, y in zip(times[tail:], traj.states[tail:]):
        settled(t, y)
    return label()


def basin_probe(system: Union[SingleParams, BufferedConfig],
                grid: Sequence[Sequence[float]],
                settings: Optional[IntegratorSettings] = None,
                candidates: Sequence = (),
                eps: Optional[float] = None) -> list[Optional[int]]:
    """Label each initial state with the candidate it converges to.

    A label is the certified candidate or the dwell verdict.  Once per
    call, each candidate that is a sink gets a certified capture region,
    one (a, b, z_lo, z_hi, floor) per vessel (ranges of its substrate s
    and mass excess s + x - S_in, and a biomass floor, from which the
    system provably ends within eps of it; see _capture) when the system,
    single or buffered, has an exact Haldane, Monod or CustomUnimodal law.  Each
    region is certified from values of mu alone: a vessel driven by the
    feed alone (the single vessel, the buffer) on one side of the law's
    peak, and the main vessel of a buffered system by the sign of its
    flow at rest, on pieces on one side of the peak; for a CustomUnimodal
    law that is its declared peak, which the region takes as given.  In
    a single vessel whose feed supports growth, mu(S_in) > D, the region
    of the positive sink is every state with biomass x > 0.  Each run
    stops at the first accepted state that lies in a capture region or
    where detect_convergence's settling rule (the dwell rule) holds,
    which may be after one step; every start is integrated through the
    module's integrate, for one accepted step at least, and no state of
    a run is stored.  The first candidate that passes either test wins.
    Any other candidate, law or system (a subclass of any law above
    included) relies on the dwell rule alone.  eps = None means 1e-6
    S_in, resolved against the system's feed, so the labels do not
    depend on the substrate unit.
    None marks unresolved runs (not settled by t_end, or stiffness
    failure).  Runs execute sequentially in input order, so output
    ordering and determinism hold regardless of environment.  The system
    and the candidates are checked once, before any start is integrated:
    a system of another type is a TypeError, and a candidate of another
    length than the system's states, or with a non-finite coordinate, a
    ValueError.  A start of another length fails in integrate, with its
    own ValueError.
    """
    if not grid or not candidates:
        raise ValueError("basin_probe needs a non-empty grid and candidates")
    sized = _constants(system)
    if sized is None:
        raise TypeError(f"unsupported system type {type(system).__name__}")
    if eps is None:
        eps = 1e-6 * system.S_in
    if not finite_positive(eps):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    # one rule serves every run, reset before each: a rule built per run
    # allocated its closure per run, and that pinned memory (basin's peak
    # rose by about 0.5 MiB once the capture test came in); a run starts
    # at t = 0, which is never in its last 10%
    settled, label, reset = _settling(candidates, eps, 0.0, sized[0],
                                      system)
    labels: list[Optional[int]] = []
    for x0 in grid:
        reset()
        try:
            integrate(system, x0, settings, stop_condition=settled,
                      _last_only=True)
        except StiffnessError:
            pass  # no state settled, so the label is None
        labels.append(label())
    return labels

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
right-hand side f(t, y) that sizes the first step.  Each weighted sum is
taken left to right from 0.0, exactly as the builtin sum() of Python
3.11 adds floats, and the error norm adds the components in order from
0.0.  The rounding is then the same on every Python version; since 3.12,
sum() of floats is compensated and a loop of sum() calls would round
differently.  Every expression keeps the operand order of the law's
_rate_raw and of the model equations, so the routes agree to the bit.

Non-negativity is enforced by step rejection, never by clipping: the
mass-balance quantities S_i + X_i - S_in decay linearly and tests rely
on that structure surviving integration exactly.

One settling rule decides where a run went, and a label is the
certified candidate or the dwell verdict.  The dwell rule: a run has
settled on a candidate state when its last state is within eps
(sup-norm) of it and every state of the last 10% of the run, by time,
stayed within 2*eps.  The certificate: basin_probe gives each candidate
that is a hyperbolic sink of an exact Haldane or Monod system a capture
set, a sublevel set of a quadratic Lyapunov function from which the
system provably ends within eps of it (_capture), and a run settles on
the first state inside one.  The rule is written out too, per state size
and number of candidates: per candidate, the sup-norm distance, the
capture test (that distance as a pre-filter, then the quadratic form
against the set's level) and the dwell rule; the first candidate that
passes wins.  detect_convergence applies the dwell rule alone to a
stored trajectory; basin_probe hands the whole rule to integrate as the
stop condition, checked after each accepted step, and resets it between
runs.
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
from .kinetics import CLOSED_FORMS, closed_form
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
            stop):
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
            times.append(t)
            states.append(y)
            if stop is not None and stop(t, y):
                break
            fac = 0.9 * (err_n if err_n > 1e-10 else 1e-10) ** -0.2
            h *= (fac if fac < 5.0 else 5.0) if fac > 0.2 else 0.2
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
    neg_floor, h_min, stop) is integrate's adaptive loop from t = 0,
    state y, rhs there k1 and a first step h (_RUN): it returns the lists
    of accepted times and states with the counts of accepted and
    rejected steps.  Its source works on scalar locals: y_0, k1_0, ...,
    k7_{n-1}, each stage's input in the state's names and the rates m1,
    m2; the only tuple it builds is each accepted state.
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
        # a float's repr reads back as the same double
        return "0.0" + "".join(f" + {c!r} * k{j}_{i}"
                               for j, c in enumerate(coefs, 1))

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
              ) -> Trajectory:
    """Integrate from x0 over [0, t_end], recording every accepted step.

    stop_condition, when given, is checked after each accepted step and
    truncates the run; the trajectory then ends at the triggering state.
    Raises StiffnessError on step-size underflow (carrying the last
    valid state), and ValueError on a negative or non-finite initial
    component or on a non-finite error norm (the right-hand side left
    the finite floats).
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
        stop_condition)
    return Trajectory(tuple(times), tuple(states), accepted, rejected)


def _candidate_state(candidate) -> State:
    return candidate.state if hasattr(candidate, "state") else tuple(candidate)


# ---------------------------------------------------------------------------
# Certified capture.  Both systems are an affine part plus one uptake term
# per vessel (substrate index, biomass index):
#     f(y) = C + B y + sum over vessels of mu(s) x (e_x - e_s),
# so J(y) - J(y*) is, per vessel, the rank-one block (-1, 1)^T (a, b)
# with a = mu'(s) x - mu'(s*) x*, b = mu(s) - mu(s*).
_VESSELS = {2: ((0, 1),), 4: ((0, 1), (2, 3))}
# relative allowance for the certificate's own rounding: 256 units in the
# last place of the size of each quantity it bounds, which is some ten
# times the rounding of the few operations behind any of them
_SLACK = 2.0 ** -44
# the share of the Lyapunov margin 1 - delta that the Jacobian's
# variation may take
_CAPTURE_SHARE = 0.99


class _Capture(Record):
    """A certified capture set {e : e^T P e <= level} of a candidate y*,
    e = y - y*.

    jacobian is A = J(y*) and gram the P with A^T P + P A = -I (both
    rows of floats); lipschitz bounds ||J(y) - A|| / ||y - y*|| over
    the non-negative part of the sup-ball of radius radius about y*,
    which holds the set.
    """
    jacobian: tuple
    gram: tuple
    lipschitz: float
    radius: float
    level: float


def _linearization(n: int, constants: tuple, model, y: State
                   ) -> tuple[list, list, list]:
    """(f(y), J(y), the size of f's terms at y) for the system of size n
    with constants (_constants), in pure Python."""
    S_in = constants[0]
    if n == 2:
        D = constants[1]
        C, B = (D * S_in, 0.0), ((-D, 0.0), (0.0, -D))
    else:
        _, d_r, cross, direct, a_d = constants
        C = (d_r * direct * S_in, 0.0, a_d * S_in, 0.0)
        B = ((-d_r * (cross + direct), 0.0, d_r * cross, 0.0),
             (0.0, -d_r, 0.0, d_r * cross),
             (0.0, 0.0, -a_d, 0.0),
             (0.0, 0.0, 0.0, -a_d))
    f = [c + sum(map(operator.mul, row, y)) for c, row in zip(C, B)]
    size = [abs(c) + sum(abs(b * v) for b, v in zip(row, y))
            for c, row in zip(C, B)]
    J = [list(row) for row in B]
    for s, x in _VESSELS[n]:
        m, slope = model._rate_raw(y[s]), model._rate_prime_raw(y[s])
        uptake = m * y[x]
        f[s] -= uptake
        f[x] += uptake
        size[s] += abs(uptake)
        size[x] += abs(uptake)
        J[s][s] -= slope * y[x]
        J[s][x] -= m
        J[x][s] += slope * y[x]
        J[x][x] += m
    return f, J, size


def _lyapunov(A: list) -> Optional[list]:
    """The symmetric P with A^T P + P A = -I, by Gaussian elimination with
    partial pivoting on its n(n+1)/2 unknowns, or None when singular."""
    n = len(A)
    pairs = [(i, k) for i in range(n) for k in range(i, n)]
    index = {pair: u for u, pair in enumerate(pairs)}
    m = len(pairs)

    def unknown(i: int, k: int) -> int:
        return index[(i, k) if i <= k else (k, i)]

    rows = []
    for i, j in pairs:
        row = [0.0] * (m + 1)
        for k in range(n):
            row[unknown(k, j)] += A[k][i]
            row[unknown(i, k)] += A[k][j]
        row[m] = -1.0 if i == j else 0.0
        rows.append(row)
    for c in range(m):
        p = max(range(c, m), key=lambda r: abs(rows[r][c]))
        if rows[p][c] == 0.0:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, m):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    p = [0.0] * m
    for c in reversed(range(m)):
        p[c] = (rows[c][m] - sum(rows[c][k] * p[k] for k in range(c + 1, m))
                ) / rows[c][c]
    return [[p[unknown(i, k)] for k in range(n)] for i in range(n)]


def _has_cholesky(M: list, shift: float) -> bool:
    """Whether the Cholesky factorisation of M - shift I runs to the end
    with positive pivots."""
    L: list[list[float]] = []
    for i, row in enumerate(M):
        out: list[float] = []
        for j in range(i):
            out.append((row[j] - sum(map(operator.mul, out, L[j]))) / L[j][j])
        v = row[i] - shift - sum(map(operator.mul, out, out))
        if not v > 0.0:
            return False
        out.append(math.sqrt(v))
        L.append(out)
    return True


def _least_eigenvalue(M: list) -> float:
    """A lower bound of the least eigenvalue of the symmetric matrix M.

    Bisection on whether M - shift I has a Cholesky factor (Sylvester's
    law of inertia).  A factor found in floating point is exact for M -
    shift I plus a perturbation below n(n+1) ulps of the largest row sum
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3),
    and the bound gives that away.
    """
    scale = max(sum(map(abs, row)) for row in M)  # >= the spectral radius
    lo, hi = -scale, min(M[i][i] for i in range(len(M)))
    for _ in range(32):  # to 2^-31 of the scale
        mid = 0.5 * (lo + hi)
        if _has_cholesky(M, mid):
            lo = mid
        else:
            hi = mid
    return lo - _SLACK * scale


def _capture(n: int, constants: tuple, model, ref: State, eps: float
             ) -> Optional[_Capture]:
    """The certified capture set of the candidate ref, or None.

    Only a hyperbolic sink of an exact Haldane or Monod system has one.
    Let A = J(ref), P solve A^T P + P A = -I up to a residual delta, low
    <= lambda_min(P) <= lambda_max(P) <= top, and L bound ||J(y) - A|| /
    ||y - ref|| over the orthant's part of the sup-ball of radius R about
    ref.  On the set e^T P e <= low R^2, which lies in that ball,
    ||P e|| <= sqrt(top low) R, so V = e^T P e has
        dV/dt <= -||e|| ((1 - delta - L sqrt(top low) R) ||e||
                         - 2 top ||f(ref)||)
    (Khalil, Nonlinear Systems, 3rd ed., Thm 4.7 and section 8.2).  R is
    the largest radius with L sqrt(top low) R <= _CAPTURE_SHARE (1 -
    delta).  Every solution from the set then stays in it (and in the
    orthant, which the system keeps) and ends within reach = 2 top
    ||f(ref)|| / (1 - delta - L sqrt(top low) R) * sqrt(top / low) of
    ref; the set is certified only if reach <= eps / 2 and reach < R / 2.
    L comes from interval bounds of mu' and mu'' on [max(s* - R, 0), s*
    + R] for each vessel's substrate s.
    """
    if closed_form(model) is None:
        return None
    mu_bar, K = model._values()[:2]
    q = 1.0 / getattr(model, "K_I", math.inf)  # a law without K_I: q = 0
    f, A, size = _linearization(n, constants, model, ref)
    P = _lyapunov(A)
    if P is None:
        return None
    rows = range(n)
    residual = math.hypot(*(
        sum(A[k][i] * P[k][j] + P[i][k] * A[k][j] for k in rows)
        + (1.0 if i == j else 0.0) for i in rows for j in rows))
    frobenius_P = math.hypot(*chain.from_iterable(P))
    # A carries the rounding of its entries and of mu'(s*), whose terms
    # K and q s^2 may cancel; delta allows for it and for the residual's
    spread = math.hypot(*chain.from_iterable(A)) + sum(
        mu_bar * (K + q * ref[s] ** 2) / (K + ref[s] + q * ref[s] ** 2) ** 2
        * abs(ref[x]) for s, x in _VESSELS[n])
    delta = residual + _SLACK * (1.0 + 4.0 * spread * frobenius_P)
    low = _least_eigenvalue(P)
    if not (low > 0.0 and delta < 0.5):
        return None  # not a sink, or P is not trusted
    top = -_least_eigenvalue([[-v for v in row] for row in P])

    def lipschitz(rho: float) -> float:
        # per vessel, (|a|, |b|) <= N (|s - s*|, |x - x*|) with N =
        # [[x* M2, M1], [M1, 0]] for M1 >= |mu'| and M2 >= |mu''|; the
        # rank-one block then has norm <= sqrt(2) ||N||
        worst = 0.0
        for s, x in _VESSELS[n]:
            # the states stay in the orthant, and den increases on s >= 0
            lo, hi = max(ref[s] - rho, 0.0), ref[s] + rho
            den = K + lo + lo * lo * q
            # mu' = mu_bar (K - q s^2) / den^2 and
            # mu'' = 2 mu_bar (q^2 s^3 - 3 q K s - K) / den^3
            m1 = mu_bar * (max(abs(K - hi * hi * q), abs(K - lo * lo * q))
                           + _SLACK * (K + hi * hi * q)) / den ** 2
            m2 = 2.0 * mu_bar * (
                max(abs(q * q * lo ** 3 - 3.0 * q * K * hi - K),
                    abs(q * q * hi ** 3 - 3.0 * q * K * lo - K))
                + _SLACK * (q * q * hi ** 3 + 3.0 * q * K * hi + K)) / den ** 3
            a = 0.5 * abs(ref[x]) * m2
            worst = max(worst, a + math.sqrt(a * a + m1 * m1))
        return math.sqrt(2.0) * worst * (1.0 + _SLACK)

    mean = math.sqrt(top * low)

    def fits(rho: float) -> bool:
        return lipschitz(rho) * mean * rho <= _CAPTURE_SHARE * (1.0 - delta)

    # L(rho) grows with rho, so no radius past the one L(0) allows fits
    lo, hi = 0.0, _CAPTURE_SHARE * (1.0 - delta) / (lipschitz(0.0) * mean)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    radius, L = lo, lipschitz(lo)
    drift = math.hypot(*f) + _SLACK * math.hypot(*size)  # >= ||f(ref)||
    reach = (2.0 * top * drift / (1.0 - delta - L * mean * radius)
             * math.sqrt(top / low))
    level = low * radius * radius * (1.0 - _SLACK * frobenius_P / low)
    if not (reach <= 0.5 * eps and reach < 0.5 * radius and level > 0.0):
        return None
    return _Capture(tuple(map(tuple, A)), tuple(map(tuple, P)), L, radius,
                    level)


def _captures(system, candidates: Sequence, eps: float
              ) -> list[Optional[_Capture]]:
    """The capture set of each candidate of a basin_probe call, or None."""
    sized = _constants(system)
    refs = list(map(_candidate_state, candidates))
    if sized is None:
        return [None] * len(refs)
    n, constants = sized
    return [_capture(n, constants, system.model, tuple(map(float, ref)), eps)
            if len(ref) == n and all(0.0 <= v < math.inf for v in ref)
            else None for ref in refs]


def _capture_arguments(capture: Optional[_Capture]) -> tuple:
    """A candidate's capture test in _settling_rule: the sup-norm
    pre-filter rho, the level and P.  Without a capture set rho is -1,
    so the test never passes."""
    if capture is None:
        return -1.0, 0.0, ()
    return capture.radius, capture.level, capture.gram


def _captured(P: tuple, level: float, e: State) -> bool:
    """Whether e^T P e <= level.  _capture's level allows for the
    rounding of the form in any order."""
    return sum(e_i * sum(map(operator.mul, row, e))
               for e_i, row in zip(e, P)) <= level


@functools.cache
def _settling_rule(n: int, m: int) -> Callable:
    """The factory of the written-out settling rule of m candidates over
    n-component states.

    _settling_rule(n, m)(*coordinates, *tests, eps, eps2, t0), given
    the candidates' coordinates in order, then each candidate's capture
    test (rho, level, P; _capture_arguments) in order and eps2 = 2 *
    eps, returns (settled, label, reset) as _settling describes.
    settled works on the state's components y_0, ... as locals and
    closes over the coordinates r{j}_{i} and the tests rho_{j}, c_{j},
    P{j}; the far times far_{j} and the label are cells.  Only a state
    within rho_{j} of candidate j (sup-norm) calls _captured.
    """
    coordinates = [f"r{j}_{i}" for j in range(m) for i in range(n)]
    tests = [f"{v}{j}" for j in range(m) for v in ("rho_", "c_", "P")]
    fars = [f"far_{j}" for j in range(m)]
    lines = [f"def factory("
             f"{', '.join(coordinates + tests + ['eps', 'eps2', 't0'])}):"]
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
        # the sup-norm distance as max() takes it: a later component
        # replaces d only if it is greater
        lines.append(f"        d = abs(y_0 - r{j}_0)")
        for i in range(1, n):
            lines += [f"        e = abs(y_{i} - r{j}_{i})",
                      "        d = e if e > d else d"]
        offset = ", ".join(f"y_{i} - r{j}_{i}" for i in range(n))
        lines += [f"        if d <= rho_{j} and hit is None and"
                  f" _captured(P{j}, c_{j}, ({offset},)):",
                  f"            hit = {j}",
                  "        if not d <= eps2:",
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
              tests: Sequence[tuple] = ()
              ) -> tuple[Callable[[float, State], bool],
                         Callable[[], Optional[int]], Callable[[], None]]:
    """The settling rule of a run: (settled, label, reset).

    settled(t, y) is fed the states of the run in time order.  It keeps
    the last time the run was over 2*eps from each candidate, records as
    the label the first candidate that y lies in the capture set of
    (tests, parallel to candidates, holds their _capture_arguments; when
    empty, no candidate has one) or that is within eps of y with its
    last far time before t_cut = t - 0.1 * (t - t0), else None, and
    returns whether it found one; label() is the label recorded last;
    reset() forgets the run, so the rule serves another run from t0.  A
    candidate whose length is not the state size n, or with a non-finite
    coordinate, is a ValueError.
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
    return _settling_rule(n, len(refs))(
        *chain.from_iterable(refs),
        *chain.from_iterable(tests or [_capture_arguments(None)] * len(refs)),
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
                eps: float = 1e-6) -> list[Optional[int]]:
    """Label each initial state with the candidate it converges to.

    A label is the certified candidate or the dwell verdict.  Once per
    call, each candidate that is a hyperbolic sink of an exact Haldane or
    Monod system gets a certified capture set (a Lyapunov sublevel set
    from which the system provably ends within eps of it; see _capture).
    Each run stops at the first accepted state that lies in a capture set
    or where detect_convergence's settling rule (the dwell rule) holds,
    and the first candidate that passes either test wins.  Any other
    candidate, law or system relies on the dwell rule alone.  None marks
    unresolved runs (not settled by t_end, or stiffness failure).  Runs
    execute sequentially in input order, so output ordering and
    determinism hold regardless of environment.  A candidate of another
    length than a start is a ValueError, raised before that start is
    integrated; one with a non-finite coordinate is a ValueError raised
    before the first start is.
    """
    if not grid or not candidates:
        raise ValueError("basin_probe needs a non-empty grid and candidates")
    if not finite_positive(eps):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    tests = list(map(_capture_arguments, _captures(system, candidates, eps)))
    # one rule per state size serves every run, reset before each: a rule
    # built per run allocated its closure per run, and that pinned memory
    # (basin's peak rose by about 0.5 MiB once the capture test came in)
    rules: dict = {}
    labels: list[Optional[int]] = []
    for x0 in grid:
        if len(x0) not in rules:
            # a run starts at t = 0, which is never in its last 10%
            rules[len(x0)] = _settling(candidates, eps, 0.0, len(x0), tests)
        settled, label, reset = rules[len(x0)]
        reset()
        try:
            integrate(system, x0, settings, stop_condition=settled)
        except StiffnessError:
            pass  # no state settled, so the label is None
        labels.append(label())
    return labels

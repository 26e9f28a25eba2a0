"""Trajectory integration for the one- and two-vessel models.

A self-contained Dormand-Prince 5(4) pair over plain float tuples.  The
states here are 2- or 4-vectors and the right-hand sides are a handful
of arithmetic ops, so tuples beat array machinery on both speed and
allocation churn at this size.

Non-negativity is enforced by step rejection, never by clipping: the
mass-balance quantities S_i + X_i - S_in decay linearly and tests rely
on that structure surviving integration exactly.

One settling rule decides where a run went: it has settled on a
candidate state when its last state is within eps (sup-norm) of it and
every state of the last 10% of the run, by time, stayed within 2*eps.
detect_convergence applies it to a stored trajectory; basin_probe checks
it after each accepted step and stops the run once it holds.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from ._numerics import finite_positive
from .buffered import BufferedConfig
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

# Dormand-Prince 5(4) tableau
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
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
# fifth-minus-fourth order error weights (last entry applies to the FSAL stage)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

_NEG_FLOOR_FACTOR = 10.0   # reject a step dipping below -10 * abs_tol
_MIN_STEP_FACTOR = 1e-14   # h below this fraction of t_end is a stiffness failure


class StiffnessError(RuntimeError):
    """Step size underflowed; carries the last valid time and state."""

    def __init__(self, time: float, last_state: State):
        self.time = time
        self.last_state = last_state
        super().__init__(
            f"step size underflow at t = {time}; the problem is stiffer "
            f"than this explicit pair can handle")


@dataclass(frozen=True)
class IntegratorSettings:
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


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[State, ...]
    accepted_steps: int
    rejected_steps: int

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.times[:-1], self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(c < -1e-12 for st in self.states for c in st):
            raise ValueError("state components must stay above -1e-12")

    @property
    def final(self) -> State:
        return self.states[-1]


def _single_rhs(params: SingleParams) -> Callable[[float, State], State]:
    mu = params.model._rate_raw
    S_in, D = params.S_in, params.D

    def f(t: float, y: State) -> State:
        s, x = y
        m = mu(s)
        return (-m * x + D * (S_in - s), (m - D) * x)

    return f


def _buffered_rhs(config: BufferedConfig) -> Callable[[float, State], State]:
    mu = config.model._rate_raw
    S_in, D, alpha, r = config.S_in, config.D, config.alpha, config.r
    d_r = D / r
    cross = alpha * (1.0 - r)
    direct = 1.0 - cross
    a_d = alpha * D

    def f(t: float, y: State) -> State:
        s1, x1, s2, x2 = y
        m1, m2 = mu(s1), mu(s2)
        return (-m1 * x1 + d_r * (cross * (s2 - s1) + direct * (S_in - s1)),
                m1 * x1 + d_r * (cross * x2 - x1),
                -m2 * x2 + a_d * (S_in - s2),
                (m2 - a_d) * x2)

    return f


def _rhs_and_rate(system: Union[SingleParams, BufferedConfig],
                  n: int) -> Callable[[float, State], State]:
    if isinstance(system, SingleParams):
        if n != 2:
            raise ValueError("single-vessel states have 2 components")
        return _single_rhs(system)
    if isinstance(system, BufferedConfig):
        if n != 4:
            raise ValueError("buffered states have 4 components")
        return _buffered_rhs(system)
    raise TypeError(f"unsupported system type {type(system).__name__}")


def _err_norm(err: State, y0: State, y1: State, abs_tol: float,
              rel_tol: float) -> float:
    acc = 0.0
    for e, a, b in zip(err, y0, y1):
        sc = abs_tol + rel_tol * max(abs(a), abs(b))
        acc += (e / sc) ** 2
    return math.sqrt(acc / len(err))


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
    valid state) and ValueError on negative initial components.
    """
    y = tuple(float(c) for c in x0)
    if any(c < 0.0 for c in y):
        raise ValueError(f"initial state must be non-negative, got {x0}")
    cfg = settings if settings is not None else IntegratorSettings()
    t_end = cfg.t_end if cfg.t_end is not None else 200.0 / system.D
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    neg_floor = -_NEG_FLOOR_FACTOR * abs_tol

    f = _rhs_and_rate(system, len(y))
    t = 0.0
    k1 = f(t, y)
    h = _initial_step(f, t, y, k1, abs_tol, rel_tol, t_end, cfg.max_step)

    times = [t]
    states = [y]
    accepted = 0
    rejected = 0
    n = len(y)
    ks: list[State] = [k1] * 7

    while t < t_end:
        h = min(h, cfg.max_step, t_end - t)
        if h < _MIN_STEP_FACTOR * t_end:
            raise StiffnessError(t, y)

        ks[0] = k1
        for i in range(1, 7):
            coeffs = _A[i]
            yi = tuple(
                y[j] + h * sum(coeffs[m] * ks[m][j] for m in range(i))
                for j in range(n))
            ks[i] = f(t + _C[i] * h, yi)
        # stage 7 input is the fifth-order solution itself (FSAL)
        y_new = yi
        err = tuple(h * sum(_E[m] * ks[m][j] for m in range(7))
                    for j in range(n))
        err_n = _err_norm(err, y, y_new, abs_tol, rel_tol)

        if err_n > 1.0:
            rejected += 1
            h *= min(1.0, max(0.2, 0.9 * err_n ** -0.2))
            continue
        if any(c < neg_floor for c in y_new):
            rejected += 1
            h *= 0.5
            continue

        t += h
        y = y_new
        k1 = ks[6]
        accepted += 1
        times.append(t)
        states.append(y)
        if stop_condition is not None and stop_condition(t, y):
            break
        h *= min(5.0, max(0.2, 0.9 * max(err_n, 1e-10) ** -0.2))

    return Trajectory(tuple(times), tuple(states), accepted, rejected)


def _candidate_state(candidate) -> State:
    return candidate.state if hasattr(candidate, "state") else tuple(candidate)


def _settling(candidates: Sequence, eps: float, t0: float, n: int
              ) -> Callable[[float, State], Optional[int]]:
    """The settling rule, fed the states (t, y) of one run in time order.

    It keeps the last time the run was over 2*eps from each candidate of
    length n, and returns the first candidate within eps of y whose last
    far time is before t_cut = t - 0.1 * (t - t0), else None.
    """
    refs = [(i, ref) for i, ref in enumerate(map(_candidate_state, candidates))
            if len(ref) == n]
    far = [-math.inf] * len(refs)

    def verdict(t: float, y: State) -> Optional[int]:
        t_cut = t - 0.1 * (t - t0)
        label = None
        for k, (i, ref) in enumerate(refs):
            d = max(abs(a - b) for a, b in zip(y, ref))
            if not d <= 2.0 * eps:
                far[k] = t
            elif label is None and d <= eps and far[k] < t_cut:
                label = i
        return label

    return verdict


def detect_convergence(traj: Trajectory, candidates: Sequence,
                       eps: float = 1e-6) -> Optional[int]:
    """Index of the candidate the trajectory settled on, or None.

    The settling rule: the final state is within eps (sup-norm) of the
    candidate and the last 10% of the run (by time) stayed within 2*eps;
    the first candidate that passes wins.  Earlier states cannot change
    the verdict, so only that tail is fed to the rule.
    """
    if not finite_positive(eps):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    times = traj.times
    tail = bisect.bisect_left(times, times[-1] - 0.1 * (times[-1] - times[0]))
    verdict = _settling(candidates, eps, times[0], len(traj.final))
    for t, y in zip(times[tail:], traj.states[tail:]):
        label = verdict(t, y)
    return label


def basin_probe(system: Union[SingleParams, BufferedConfig],
                grid: Sequence[Sequence[float]],
                settings: Optional[IntegratorSettings] = None,
                candidates: Sequence = (),
                eps: float = 1e-6) -> list[Optional[int]]:
    """Label each initial state with the candidate it converges to.

    Each run stops at the first accepted state where detect_convergence's
    settling rule holds, so every label is detect_convergence's verdict
    on the run made.  None marks unresolved runs (not settled by t_end,
    or stiffness failure).  Runs execute sequentially in input order, so
    output ordering and determinism hold regardless of environment.
    """
    if not grid or not candidates:
        raise ValueError("basin_probe needs a non-empty grid and candidates")
    if not finite_positive(eps):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    labels: list[Optional[int]] = []
    for x0 in grid:
        # a run starts at t = 0, which is never in its last 10%
        verdict = _settling(candidates, eps, 0.0, len(x0))
        label = None

        def stop(t: float, y: State) -> bool:
            nonlocal label
            label = verdict(t, y)
            return label is not None

        try:
            integrate(system, x0, settings, stop_condition=stop)
        except StiffnessError:
            pass  # label stays None
        labels.append(label)
    return labels

"""Single-vessel chemostat: phase portrait classification and network audits.

The planar model with unit yield is

    dS/dt = -mu(S) X + D (S_in - S)
    dX/dt = (mu(S) - D) X

Its long-run behaviour is decided entirely by where the feed level S_in
sits relative to the break-even interval of D:

* washout_only  -- growth never beats dilution below the feed level;
                   the washout state (S_in, 0) attracts everything.
* bistable      -- the feed sits beyond the upper break-even point;
                   washout and the lower positive rest point are both
                   attracting, separated by a saddle.
* persistent    -- the feed sits inside the break-even interval; the
                   positive rest point attracts all populated states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._numerics import finite_positive
from .kinetics import GrowthModel

__all__ = [
    "SingleParams",
    "PortraitEquilibrium",
    "Portrait",
    "DegenerateBoundary",
    "classify_portrait",
    "Serial",
    "Parallel",
    "washout_audit",
    "WASHOUT_ONLY",
    "BISTABLE",
    "PERSISTENT",
]

WASHOUT_ONLY = "washout_only"
BISTABLE = "bistable"
PERSISTENT = "persistent"

# equilibrium tags
TAG_WASHOUT_ATTRACTING = "washout_attracting"
TAG_WASHOUT_SADDLE = "washout_saddle"
TAG_POSITIVE_ATTRACTING = "positive_attracting"
TAG_POSITIVE_SADDLE = "positive_saddle"

# feed levels closer than this to a break-even endpoint are refused:
# the portrait is structurally ambiguous there
_BOUNDARY_TOL = 1e-9


class DegenerateBoundary(ValueError):
    """Feed level coincides with a break-even endpoint within tolerance."""

    def __init__(self, which: str, feed: float, endpoint: float):
        self.which = which
        self.feed = feed
        self.endpoint = endpoint
        super().__init__(
            f"feed level {feed} sits on the {which} break-even endpoint "
            f"{endpoint} within {_BOUNDARY_TOL}; classification is degenerate")


@dataclass(frozen=True)
class SingleParams:
    model: GrowthModel
    S_in: float
    D: float

    def __post_init__(self) -> None:
        if not finite_positive(self.S_in):
            raise ValueError("feed concentration S_in must be positive")
        if not finite_positive(self.D):
            raise ValueError("dilution rate D must be positive")


@dataclass(frozen=True)
class PortraitEquilibrium:
    S: float
    X: float
    tag: str

    @property
    def state(self) -> tuple[float, float]:
        return (self.S, self.X)


@dataclass(frozen=True)
class Portrait:
    case: str
    equilibria: tuple[PortraitEquilibrium, ...]


def classify_portrait(params: SingleParams) -> Portrait:
    """Classify the planar portrait and list equilibria with their roles.

    Raises DegenerateBoundary when S_in falls on a break-even endpoint
    within 1e-9 rather than silently binning the boundary case.
    """
    model, S_in, D = params.model, params.S_in, params.D
    window = model.break_even(D)

    if window is not None:
        if abs(S_in - window.lower) <= _BOUNDARY_TOL:
            raise DegenerateBoundary("lower", S_in, window.lower)
        if window.has_finite_upper and abs(S_in - window.upper) <= _BOUNDARY_TOL:
            raise DegenerateBoundary("upper", S_in, window.upper)

    washout = lambda tag: PortraitEquilibrium(S_in, 0.0, tag)

    if window is None or window.lower > S_in:
        return Portrait(WASHOUT_ONLY, (washout(TAG_WASHOUT_ATTRACTING),))

    if window.has_finite_upper and S_in > window.upper:
        low = PortraitEquilibrium(window.lower, S_in - window.lower,
                                  TAG_POSITIVE_ATTRACTING)
        high = PortraitEquilibrium(window.upper, S_in - window.upper,
                                   TAG_POSITIVE_SADDLE)
        return Portrait(BISTABLE, (low, high, washout(TAG_WASHOUT_ATTRACTING)))

    low = PortraitEquilibrium(window.lower, S_in - window.lower,
                              TAG_POSITIVE_ATTRACTING)
    return Portrait(PERSISTENT, (low, washout(TAG_WASHOUT_SADDLE)))


@dataclass(frozen=True)
class Serial:
    """Vessels in series; volume_fractions are V_i / V, summing to one."""
    volume_fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_fractions("volume fractions", self.volume_fractions)


@dataclass(frozen=True)
class Parallel:
    """Vessels in parallel; volume and flow fractions each sum to one."""
    volume_fractions: tuple[float, ...]
    flow_fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_fractions("volume fractions", self.volume_fractions)
        _check_fractions("flow fractions", self.flow_fractions)
        if len(self.volume_fractions) != len(self.flow_fractions):
            raise ValueError(
                "volume and flow fraction lists must match in length")


def _check_fractions(name: str, fractions: tuple[float, ...]) -> None:
    if not fractions:
        raise ValueError(f"{name} must be non-empty")
    if not all(map(finite_positive, fractions)):
        raise ValueError(f"{name} must all be positive")
    if abs(math.fsum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1 within 1e-9")


def _vessel_dilutions(D: float, topology) -> list[float]:
    """Each vessel's own dilution rate, as washout_audit describes."""
    if isinstance(topology, Serial):
        return [D / r for r in topology.volume_fractions]
    if isinstance(topology, Parallel):
        return [a / r * D for a, r in zip(topology.flow_fractions,
                                          topology.volume_fractions)]
    raise TypeError(f"unsupported topology {type(topology).__name__}")


def washout_audit(params: SingleParams, topology) -> list[bool]:
    """Per-vessel washout-attraction flags for a vessel network.

    Each vessel is judged in isolation under the shared feed level: the
    i-th flag is True when the washout state attracts for that vessel's
    own dilution rate (serial vessel i runs at D / r_i, parallel vessel
    i at (a_i / r_i) D).  Whenever the feed level lies outside the
    break-even interval of the aggregate rate D, at least one flag is
    True: the fractions cannot all exceed their flow shares at once.
    """
    flags = []
    for rate in _vessel_dilutions(params.D, topology):
        sub = SingleParams(params.model, params.S_in, rate)
        try:
            portrait = classify_portrait(sub)
            flags.append(portrait.case in (WASHOUT_ONLY, BISTABLE))
        except DegenerateBoundary:
            # boundary coincidence: growth exactly balances dilution at the
            # feed level, so washout is still (marginally) attracting
            flags.append(True)
    return flags

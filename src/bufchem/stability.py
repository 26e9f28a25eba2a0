"""Linearization of the buffered chemostat at its rest points.

The Jacobian is block upper triangular at every state (the buffer never
feels the main vessel), so its spectrum is that of its two 2x2 diagonal
blocks.  At a rest point the four eigenvalues have closed forms; the
blocks' roots, from the Jacobian's entries alone, cross-check them.
"""
from __future__ import annotations

import math

from ._numerics import Record
from .buffered import BufferedConfig, _deficit_prime
from .simulate import _VESSELS, _constants

__all__ = [
    "EigenReport",
    "TAG_STABLE",
    "TAG_SADDLE",
    "TAG_NON_HYPERBOLIC",
    "positive_eigenvalues",
    "washout_eigenvalues",
    "jacobian",
    "numeric_eigenvalues",
    "classify",
]

TAG_STABLE = "stable"
TAG_SADDLE = "saddle"
TAG_NON_HYPERBOLIC = "non_hyperbolic"

_HYPERBOLIC_REL_TOL = 1e-9
_GAP_TOL = 1e-12


class EigenReport(Record):
    """Spectrum at a rest point, sorted ascending.

    ill_conditioned marks near-coincident eigenvalues (minimum pairwise
    gap below 1e-12), where numeric spectra lose accuracy.
    """
    values: tuple[float, float, float, float]
    tag: str
    unstable: int
    ill_conditioned: bool


def classify(values: tuple[float, ...], D: float) -> EigenReport:
    """Tag a spectrum: any eigenvalue within 1e-9 * D of zero is treated
    as a hyperbolicity failure rather than silently rounded."""
    tol = _HYPERBOLIC_REL_TOL * D
    vals = tuple(sorted(values))
    gaps = [b - a for a, b in zip(vals[:-1], vals[1:])]
    ill = bool(gaps and min(gaps) < _GAP_TOL)
    if any(abs(v) <= tol for v in vals):
        return EigenReport(vals, TAG_NON_HYPERBOLIC,
                           sum(v > tol for v in vals), ill)
    unstable = sum(v > 0.0 for v in vals)
    tag = TAG_STABLE if unstable == 0 else TAG_SADDLE
    return EigenReport(vals, tag, unstable, ill)


def positive_eigenvalues(config: BufferedConfig, s1: float,
                         s2: float) -> EigenReport:
    """Spectrum at a buffer-active rest point with main level s1.

    Two water-clock eigenvalues -D/r and -alpha*D, the buffer's own
    -mu'(s2) (S_in - s2), and the main vessel's deficit-slope eigenvalue
    f'(s1) (S_in - s1), f taken with the buffer at s2: the rest point is
    attracting exactly when the growth deficit crosses downward through
    zero at s1.
    """
    model, D, r = config.model, config.D, config.r
    e_main = _deficit_prime(config, s2, s1) * (config.S_in - s1)
    e_buf = -model.rate_prime(s2) * (config.S_in - s2)
    return classify((-D / r, -config.alpha * D, e_main, e_buf), D)


def washout_eigenvalues(config: BufferedConfig, s1: float) -> EigenReport:
    """Spectrum at a buffer-washout rest point with main level s1.

    s1 = S_in gives total washout.  The buffer block contributes
    -alpha*D and mu(S_in) - alpha*D; the main block contributes -D/r and
    -mu'(s1)(S_in - s1) + mu(s1) - D/r (which collapses to
    mu(S_in) - D/r at total washout).
    """
    model, D, r = config.model, config.D, config.r
    e_main = (-model.rate_prime(s1) * (config.S_in - s1)
              + model.rate(s1) - D / r)
    e_buf = model.rate(config.S_in) - config.alpha * D
    return classify((-D / r, e_main, -config.alpha * D, e_buf), D)


def jacobian(config: BufferedConfig,
             state: tuple[float, float, float, float]) -> tuple:
    """4x4 Jacobian of the vector field at an arbitrary state, as four
    tuples of floats.  A negative or non-finite substrate is a ValueError."""
    s1, _, s2, _ = state
    model = config.model
    model._check_domain(s1)
    model._check_domain(s2)
    y = tuple(map(float, state))
    _, d_r, cross, direct, a_d = _constants(config)[1]
    # the affine part, then each vessel's uptake block
    J = [[-d_r * (cross + direct), 0.0, d_r * cross, 0.0],
         [0.0, -d_r, 0.0, d_r * cross],
         [0.0, 0.0, -a_d, 0.0],
         [0.0, 0.0, 0.0, -a_d]]
    for s, x in _VESSELS[4]:
        m, slope = model._rate_raw(y[s]), model._rate_prime_raw(y[s])
        J[s][s] -= slope * y[x]
        J[s][x] -= m
        J[x][s] += slope * y[x]
        J[x][x] += m
    return tuple(map(tuple, J))


def _block_roots(a: float, b: float, c: float, d: float) -> tuple:
    """The eigenvalues of [[a, b], [c, d]]: q = tr/2 + sign(tr) sqrt(disc)
    and det/q, with disc = ((a - d)/2)^2 + bc, tr^2/4 - det without the
    cancellation.  An imaginary part above 1e-7 max(1, modulus) is a
    ValueError; a smaller one is taken as rounding (disc = 0)."""
    tr, disc = a + d, (0.5 * (a - d)) ** 2 + b * c
    if -disc > 1e-14 * max(1.0, 0.25 * tr * tr - disc):
        raise ValueError(f"complex pair of [[{a}, {b}], [{c}, {d}]]")
    q = 0.5 * tr + math.copysign(math.sqrt(max(disc, 0.0)), tr)
    return (q, (a * d - b * c) / q) if q != 0.0 else (0.0, 0.0)


def numeric_eigenvalues(config: BufferedConfig,
                        state: tuple[float, float, float, float]
                        ) -> EigenReport:
    """Spectrum of the Jacobian at a state, from the entries of its two
    diagonal blocks alone.  A spectrum that is not real beyond rounding,
    or not finite, is a ValueError: at every state it is real."""
    J = jacobian(config, state)
    vals = (_block_roots(J[0][0], J[0][1], J[1][0], J[1][1])
            + _block_roots(J[2][2], J[2][3], J[3][2], J[3][3]))
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite spectrum {vals} at {state}")
    return classify(vals, config.D)

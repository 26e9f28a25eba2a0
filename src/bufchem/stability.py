"""Linearization of the buffered chemostat at its rest points.

The Jacobian is block-triangular at every rest point (the buffer never
feels the main vessel), so all four eigenvalues come out in closed form.
A numerically computed spectrum of the full 4x4 Jacobian is available as
an independent route for cross-checking; only that route imports numpy,
on first use, so the package and the CLI load without it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from ._numerics import Record
from .buffered import BufferedConfig, growth_deficit_prime

if TYPE_CHECKING:
    import numpy as np

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
    f'(s1) (S_in - s1): the rest point is attracting exactly when the
    growth deficit crosses downward through zero at s1.
    """
    model, D, r = config.model, config.D, config.r
    e_main = growth_deficit_prime(config, s1) * (config.S_in - s1)
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
             state: tuple[float, float, float, float]) -> np.ndarray:
    """4x4 Jacobian of the vector field at an arbitrary state."""
    import numpy as np
    model, S_in, D, alpha, r = (config.model, config.S_in, config.D,
                                config.alpha, config.r)
    s1, x1, s2, x2 = state
    mu1, mp1 = model.rate(s1), model.rate_prime(s1)
    mu2, mp2 = model.rate(s2), model.rate_prime(s2)
    d_r = D / r
    cross = d_r * alpha * (1.0 - r)
    return np.array([
        [-mp1 * x1 - d_r, -mu1, cross, 0.0],
        [mp1 * x1, mu1 - d_r, 0.0, cross],
        [0.0, 0.0, -mp2 * x2 - alpha * D, -mu2],
        [0.0, 0.0, mp2 * x2, mu2 - alpha * D],
    ])


def numeric_eigenvalues(config: BufferedConfig,
                        state: tuple[float, float, float, float]
                        ) -> EigenReport:
    """Spectrum of the Jacobian at a rest point, via the QR algorithm.

    Spurious imaginary parts beyond rounding noise are rejected: the
    spectrum at any rest point of this system is real.
    """
    import numpy as np
    eig = np.linalg.eigvals(jacobian(config, state))
    scale = max(1.0, float(np.max(np.abs(eig))))
    if float(np.max(np.abs(eig.imag))) > 1e-7 * scale:
        raise ValueError(f"unexpected complex spectrum {eig} at {state}")
    vals = tuple(float(v) for v in sorted(eig.real))
    return classify(vals, config.D)

"""Shared fixtures: canonical models, random draws, acceptance reporting."""
from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import bufchem
from bufchem import BufferedConfig, Haldane, Monod

# acceptance tests append (index, status, detail) here; the terminal
# summary hook prints one line per criterion after the run
RESULTS: list[tuple[int, str, str]] = []


def record_criterion(index: int, passed: bool, detail: str = "") -> None:
    RESULTS.append((index, "PASS" if passed else "FAIL", detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index, status, detail in sorted(RESULTS):
        line = f"CRITERION {index:2d}: {status}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


def run_python(*args: str, env: dict | None = None):
    """Run sys.executable in a child that imports the same bufchem as the
    tests, installed or not; env adds to the inherited environment."""
    src = os.path.dirname(os.path.dirname(bufchem.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": path})


@pytest.fixture
def reference_model() -> Haldane:
    return Haldane(12.0, 1.0, 0.08)


def draw_buffered_config(rng: random.Random, monod_share: float = 0.0,
                         subcritical_buffer: bool = False
                         ) -> BufferedConfig:
    """Rejection-sample a configuration whose buffer is viable: the
    over-dilution alpha*D admits a growth window with lower break-even
    safely below the feed.  subcritical_buffer additionally keeps
    alpha*D under 0.9*mu(S_in), the regime where the buffer alone runs
    as a persistent chemostat."""
    while True:
        if rng.random() < monod_share:
            model = Monod(rng.uniform(0.5, 5.0), rng.uniform(0.1, 2.0))
        else:
            model = Haldane(rng.uniform(2.0, 20.0), rng.uniform(0.1, 2.0),
                            rng.uniform(0.05, 5.0))
        S_in = rng.uniform(0.3, 4.0)
        D = rng.uniform(0.1, 2.0)
        r = rng.uniform(0.05, 0.95)
        alpha = rng.uniform(0.02, min(1.0, 1.0 / (1.0 - r)))
        if alpha * (1.0 - r) > 1.0:
            continue
        window = model.break_even(alpha * D)
        if window is None or window.lower >= 0.9 * S_in:
            continue
        if subcritical_buffer and alpha * D > 0.6 * model.rate(S_in):
            continue
        return BufferedConfig(model, S_in, D, alpha, r)


def draw_threshold_inputs(rng: random.Random
                          ) -> tuple[Haldane, float, float, float]:
    """Random Haldane operating point with a genuine upper break-even
    inside the feed, so the volume-split threshold comes from an actual
    tangency and the two independent routes to it can be compared."""
    while True:
        model = Haldane(rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5),
                        rng.uniform(0.05, 4.0))
        S_in = rng.uniform(0.3, 4.0)
        D = rng.uniform(0.1, 2.0)
        alpha = rng.uniform(0.05, 1.0)
        window = model.break_even(D)
        if (window is None or not window.has_finite_upper
                or window.upper >= 0.95 * S_in):
            continue
        buffer_window = model.break_even(alpha * D)
        if buffer_window is None or buffer_window.lower >= 0.9 * S_in:
            continue
        return model, S_in, D, alpha


def draw_outside_window(rng: random.Random
                        ) -> tuple[Haldane, float, float]:
    """Random Haldane point whose feed lies outside the growth window
    of D, with margin, so single-vessel splits must fail somewhere."""
    while True:
        model = Haldane(rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.5),
                        rng.uniform(0.05, 4.0))
        S_in = rng.uniform(0.1, 4.0)
        D = rng.uniform(0.1, 2.0)
        window = model.break_even(D)
        if window is None:
            return model, S_in, D
        if S_in < window.lower - 1e-6:
            return model, S_in, D
        if window.has_finite_upper and S_in > window.upper + 1e-6:
            return model, S_in, D


def random_fractions(rng: random.Random, n: int) -> tuple[float, ...]:
    raw = [rng.uniform(0.2, 1.0) for _ in range(n)]
    total = sum(raw)
    parts = [v / total for v in raw[:-1]]
    return tuple(parts + [1.0 - sum(parts)])

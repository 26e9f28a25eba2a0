"""Deterministic artifact emission: CSV and JSON writers.

The CSV writers print numbers with 17 significant digits; write_json
leaves them to json.dumps, which prints the shortest form that reads
back as the same double.  Either way the text preserves the double
exactly.  Line endings are '\\n' unconditionally.  Nothing here reads
clocks or hostnames: identical inputs must produce byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
from typing import Iterable, Optional, Sequence

from .simulate import Trajectory

__all__ = [
    "fmt_float",
    "write_csv",
    "write_json",
    "finite_or_none",
    "write_trajectory_csv",
    "trajectory_payload",
]


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form, enough to round-trip a double."""
    return format(float(x), ".17g")


def finite_or_none(x: Optional[float]) -> Optional[float]:
    """JSON has no inf; map non-finite endpoints to null explicitly."""
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path: str, payload) -> None:
    # allow_nan=False turns any stray inf/nan into a loud error here
    # rather than an invalid token in the artifact
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _trajectory_header(traj: Trajectory) -> list[str]:
    if len(traj.states[0]) == 2:
        return ["t", "S", "X"]
    return ["t", "S1", "X1", "S2", "X2"]


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    write_csv(path, _trajectory_header(traj),
              ((t, *state) for t, state in zip(traj.times, traj.states)))


def trajectory_payload(traj: Trajectory) -> dict:
    return {
        "columns": _trajectory_header(traj),
        "times": list(traj.times),
        "states": [list(s) for s in traj.states],
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
    }


def ensure_out_dir(path: str) -> None:
    if path and not os.path.isdir(path):
        os.makedirs(path, exist_ok=True)

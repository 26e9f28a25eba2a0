"""Command-line front end: load a config file, run one analysis, emit files.

Every command reads the same INI-style config and writes its artifacts
into --out (default: current directory).  Success prints a one-line
JSON summary listing the written paths; any failure prints a JSON
error object and exits non-zero.  Output bytes depend only on the
config contents, so identical invocations produce identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import (buffered, design, io, multiplicity, simulate, single,
               stability)
from .config import ConfigError, RunConfig, parse_config
from .kinetics import GrowthModel, closed_form

__all__ = ["main"]

_DEFAULT_SWEEP_POINTS = 400
_COMPARISON_POINTS = 30
_BASIN_GRID = 20
# the single vessel's attractors by portrait tag, in label order
_SINGLE_ATTRACTORS = ((single.TAG_POSITIVE_ATTRACTING, "survival"),
                      (single.TAG_WASHOUT_ATTRACTING, "washout"))


def _model_payload(model: GrowthModel) -> dict:
    kind = closed_form(model)
    if kind is None:
        raise ValueError(f"no [growth] type for {type(model).__name__}")
    return {"type": kind,
            "parameters": dict(zip(model._fields, model._values()))}


def _break_even_payload(window) -> dict | None:
    if window is None:
        return None
    return {"lower": window.lower, "upper": io.finite_or_none(window.upper)}


def _cmd_kinetics(cfg: RunConfig, out: str, fmt: str) -> list[str]:
    peak = cfg.model.peak()
    payload = {
        "model": _model_payload(cfg.model),
        "peak": {"abscissa": io.finite_or_none(peak.abscissa),
                 "height": peak.height},
        "dilution": cfg.D,
        "break_even": _break_even_payload(cfg.model.break_even(cfg.D)),
    }
    path = os.path.join(out, "kinetics.json")
    io.write_json(path, payload)
    return [path]


def _cmd_classify(cfg: RunConfig, out: str, fmt: str) -> list[str]:
    portrait = single.classify_portrait(cfg.single_params())
    payload = {
        "S_in": cfg.S_in,
        "D": cfg.D,
        "case": portrait.case,
        "break_even": _break_even_payload(cfg.model.break_even(cfg.D)),
        "equilibria": [{"S": e.S, "X": e.X, "tag": e.tag}
                       for e in portrait.equilibria],
    }
    path = os.path.join(out, "classify.json")
    io.write_json(path, payload)
    return [path]


def _cmd_equilibria(cfg: RunConfig, out: str, fmt: str) -> list[str]:
    bc = cfg.buffered
    if bc is None:
        raise ConfigError("buffered command needs a [buffered] section "
                          "with alpha, r or Q1, Q2, V1, V2")
    points = buffered.find_equilibria(bc)
    payload = {
        "S_in": bc.S_in,
        "D": bc.D,
        "alpha": bc.alpha,
        "r": bc.r,
        "buffer_substrate": buffered.buffer_substrate(bc.model, bc.S_in,
                                                      bc.D, bc.alpha),
        "pivot": buffered.pivot_level(bc.model, bc.S_in, bc.D, bc.alpha),
        "positive_count": sum(e.branch == buffered.BRANCH_POSITIVE
                              for e in points),
        "equilibria": [{
            "s1": e.s1, "x1": e.x1, "s2": e.s2, "x2": e.x2,
            "branch": e.branch, "tag": e.tag, "unstable": e.unstable,
            "eigenvalues": list(e.eigenvalues),
        } for e in points],
    }
    path = os.path.join(out, "equilibria.json")
    io.write_json(path, payload)
    return [path]


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(n)]


def _cmd_domain(cfg: RunConfig, out: str, fmt: str) -> list[str]:
    if cfg.sweep is not None:
        grid = _log_grid(*cfg.sweep)
    else:
        # sweep the whole feasibility range (0, mu(S_in)/D), stopping just
        # short of both ends where the buffer turns infeasible
        bound = cfg.model.rate(cfg.S_in) / cfg.D
        grid = _log_grid(bound / 1000.0, 0.999 * bound,
                         _DEFAULT_SWEEP_POINTS)
    curve = multiplicity.stable_domain_curve(cfg.model, cfg.S_in, cfg.D,
                                             grid)
    csv_path = os.path.join(out, "domain.csv")
    io.write_csv(csv_path, ["alpha", "r_bar"], curve.points)
    payload = {
        "S_in": cfg.S_in,
        "D": cfg.D,
        "alpha_min": grid[0],
        "alpha_max": grid[-1],
        "point_count": len(curve.points),
        "crossing_alpha": curve.crossing_alpha,
        "jump": None if curve.jump is None else list(curve.jump),
    }
    json_path = os.path.join(out, "domain.json")
    io.write_json(json_path, payload)
    return [csv_path, json_path]


def _cmd_design(cfg: RunConfig, out: str, fmt: str) -> list[str]:
    # the configured feed, then the feed swept over (upper break-even,
    # 15/7 S_in], a range in the feed's own unit that ends at 3 for the
    # README's S_in = 1.4, to compare the two cures at each level; with
    # no upper break-even the sweep refuses S_in itself
    window = cfg.model.break_even(cfg.D)
    feeds = []
    if window is not None and window.has_finite_upper:
        lo, hi = window.upper, cfg.S_in * 15.0 / 7.0
        feeds = [lo + k * (hi - lo) / _COMPARISON_POINTS
                 for k in range(1, _COMPARISON_POINTS + 1)]
    report, *rows = design.design_sweep(cfg.model, cfg.D, [cfg.S_in, *feeds])
    payload = {
        "S_in": cfg.S_in,
        "D": cfg.D,
        "delta_v_inf": report.delta_v_inf,
        "v2_inf": report.v2_inf,
        "d2_star": report.d2_star,
        "s_bar": report.s_bar,
        "surplus_max": report.surplus_max,
    }
    json_path = os.path.join(out, "design.json")
    io.write_json(json_path, payload)
    csv_path = os.path.join(out, "design_comparison.csv")
    io.write_csv(csv_path, ["S_in", "delta_v_inf", "v2_inf", "d2_star"],
                 [(feed, row.delta_v_inf, row.v2_inf, row.d2_star)
                  for feed, row in zip(feeds, rows)])
    return [json_path, csv_path]


def _cmd_simulate(cfg: RunConfig, out: str, fmt: str) -> list[str]:
    if cfg.initial is None:
        raise ConfigError("simulate needs an [initial] section with state")
    if cfg.buffered is not None:
        system, expected = cfg.buffered, 4
    else:
        system, expected = cfg.single_params(), 2
    if len(cfg.initial) != expected:
        raise ConfigError(
            f"initial state has {len(cfg.initial)} components; the "
            f"configured system needs {expected}")
    traj = simulate.integrate(system, cfg.initial, cfg.integrator)
    if fmt == "json":
        path = os.path.join(out, "trajectory.json")
        io.write_json(path, io.trajectory_payload(traj))
    else:
        path = os.path.join(out, "trajectory.csv")
        io.write_trajectory_csv(path, traj)
    return [path]


def _cmd_basin(cfg: RunConfig, out: str, fmt: str) -> list[str]:
    # label the midpoint grid over (0, S_in)^2: the single vessel's
    # starts, or the main vessel's with the buffer at its own rest state,
    # the slice every buffered run ends on (the buffer's equations leave
    # out the main vessel)
    n, S_in, bc = _BASIN_GRID, cfg.S_in, cfg.buffered
    plane = [(S_in * (i + 0.5) / n, S_in * (j + 0.5) / n)
             for i in range(n) for j in range(n)]
    if bc is None:
        system, buffer = cfg.single_params(), ()
        portrait = single.classify_portrait(system)
        attractors = {name: e.state for tag, name in _SINGLE_ATTRACTORS
                      for e in portrait.equilibria if e.tag == tag}
    else:
        s2 = buffered.buffer_substrate(bc.model, S_in, bc.D, bc.alpha)
        system, buffer = bc, (s2, S_in - s2)
        stable = [e.state for e in buffered.find_equilibria(bc)
                  if e.branch == buffered.BRANCH_POSITIVE
                  and e.tag == stability.TAG_STABLE]
        attractors = {f"positive_{k}": state
                      for k, state in enumerate(stable)}
    labels = simulate.basin_probe(system, [p + buffer for p in plane],
                                  cfg.integrator, list(attractors.values()))
    names = list(attractors)
    basin = ["unresolved" if k is None else names[k] for k in labels]
    csv_path = os.path.join(out, "basin.csv")
    io.write_csv(csv_path, ["S0", "X0", "basin"],
                 [(s, x, b) for (s, x), b in zip(plane, basin)])
    payload = {
        "S_in": S_in,
        "D": cfg.D,
        "grid": n,
        "attractors": [{"name": name, "state": list(state)}
                       for name, state in attractors.items()],
        "counts": {name: basin.count(name)
                   for name in names + ["unresolved"]},
    }
    json_path = os.path.join(out, "basin.json")
    io.write_json(json_path, payload)
    return [csv_path, json_path]


def _cmd_audit(cfg: RunConfig, out: str, fmt: str) -> list[str]:
    topology = cfg.audit_topology
    if topology is None:
        raise ConfigError("audit needs an [audit] section")
    flags = single.washout_audit(cfg.single_params(), topology)
    parallel = isinstance(topology, single.Parallel)
    payload = {
        "kind": "parallel" if parallel else "serial",
        "volume_fractions": list(topology.volume_fractions),
        "flow_fractions": (list(topology.flow_fractions) if parallel
                           else None),
        "effective_dilutions": single._vessel_dilutions(cfg.D, topology),
        "flags": flags,
        "any_flagged": any(flags),
    }
    path = os.path.join(out, "audit.json")
    io.write_json(path, payload)
    return [path]


# every command, in the order the usage text lists them
_DISPATCH = {
    "kinetics": _cmd_kinetics,
    "classify": _cmd_classify,
    "equilibria": _cmd_equilibria,
    "domain": _cmd_domain,
    "design": _cmd_design,
    "simulate": _cmd_simulate,
    "basin": _cmd_basin,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bufchem",
        description="Equilibrium, stability, and design analysis for "
                    "buffered chemostats.")
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", required=True,
                        help="path to an INI-style run configuration")
    parser.add_argument("--out", default=".",
                        help="directory for output artifacts")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="trajectory format for simulate (default csv)")
    args = parser.parse_args(argv)

    try:
        if args.format is not None and args.command != "simulate":
            raise ValueError("--format applies to simulate only; "
                             f"{args.command} writes fixed artifacts")
        cfg = parse_config(args.config)
        io.ensure_out_dir(args.out)
        written = _DISPATCH[args.command](cfg, args.out,
                                          args.format or "csv")
    except Exception as exc:  # boundary: every failure becomes an error object
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}},
                         sort_keys=True))
        return 1
    print(json.dumps({"command": args.command, "written": written},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

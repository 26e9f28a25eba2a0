"""Run configuration: strict INI-style ingestion for the CLI.

Flat sections with scalar values.  Parsing is strict on purpose: every
key must be known and every section recognized, because a silently
ignored misspelling (K_s for K_I, say) would corrupt results without
any visible failure.  Keys are case-sensitive.

Sections:

    [growth]     type = haldane | monod, plus the named parameters;
                 optional yield_factor (biomass is rescaled X <- Y*X on
                 load so the internal model always runs at unit yield)
    [operating]  S_in plus either D directly or the pair Q, V
    [buffered]   either alpha, r or the physical quadruple Q1,Q2,V1,V2
    [integrator] rel_tol, abs_tol, max_step, t_end (all optional)
    [initial]    state = comma-separated concentrations (2 or 4)
    [sweep]      alpha_min, alpha_max, points
    [audit]      kind = serial | parallel, volume_fractions,
                 flow_fractions (parallel only)

Numbers must be finite: nan and inf are rejected where they are read.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .buffered import BufferedConfig
from .kinetics import GrowthModel, Haldane, Monod
from .simulate import IntegratorSettings
from .single import Parallel, Serial, SingleParams

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


_GROWTH_KEYS = {
    "haldane": {"mu_bar", "K", "K_I"},
    "monod": {"mu_max", "K_s"},
}
_SECTION_KEYS = {
    "growth": {"type", "yield_factor", "mu_bar", "K", "K_I", "mu_max", "K_s"},
    "operating": {"S_in", "D", "Q", "V"},
    "buffered": {"alpha", "r", "Q1", "Q2", "V1", "V2"},
    "integrator": {"rel_tol", "abs_tol", "max_step", "t_end"},
    "initial": {"state"},
    "sweep": {"alpha_min", "alpha_max", "points"},
    "audit": {"kind", "volume_fractions", "flow_fractions"},
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs, validated and typed."""
    model: GrowthModel
    S_in: float
    D: float
    alpha: Optional[float] = None
    r: Optional[float] = None
    physical: Optional[tuple[float, float, float, float]] = None
    integrator: IntegratorSettings = field(default_factory=IntegratorSettings)
    initial: Optional[tuple[float, ...]] = None
    sweep: Optional[tuple[float, float, int]] = None
    audit_topology: Optional[object] = None

    @property
    def has_buffered(self) -> bool:
        return self.alpha is not None or self.physical is not None

    def single_params(self) -> SingleParams:
        return SingleParams(self.model, self.S_in, self.D)

    def buffered_config(self) -> BufferedConfig:
        if self.physical is not None:
            q1, q2, v1, v2 = self.physical
            return BufferedConfig.from_physical(q1, q2, v1, v2, self.S_in,
                                                self.model)
        if self.alpha is None or self.r is None:
            raise ConfigError("buffered command needs a [buffered] section "
                              "with alpha, r or Q1, Q2, V1, V2")
        return BufferedConfig(self.model, self.S_in, self.D, self.alpha,
                              self.r)


def _float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(
            f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError(f"[{section}] {key}: expected numbers")
    return tuple(_float(section, key, p) for p in parts)


def _check_keys(section: str, present) -> None:
    known = _SECTION_KEYS[section]
    for key in present:
        if key not in known:
            raise ConfigError(f"[{section}] unknown key {key!r}")


def _require(section: dict, name: str, key: str) -> str:
    if key not in section:
        raise ConfigError(f"[{name}] missing required key {key!r}")
    return section[key]


def _parse_growth(sec: dict) -> tuple[GrowthModel, float]:
    _check_keys("growth", sec)
    kind = _require(sec, "growth", "type").strip().lower()
    if kind not in _GROWTH_KEYS:
        raise ConfigError(f"[growth] type must be haldane or monod, "
                          f"got {kind!r}")
    wanted = _GROWTH_KEYS[kind]
    for key in sec:
        if key in {"type", "yield_factor"}:
            continue
        if key not in wanted:
            raise ConfigError(
                f"[growth] key {key!r} does not belong to type {kind}")
    params = {key: _float("growth", key, _require(sec, "growth", key))
              for key in wanted}
    try:
        if kind == "haldane":
            model: GrowthModel = Haldane(params["mu_bar"], params["K"],
                                         params["K_I"])
        else:
            model = Monod(params["mu_max"], params["K_s"])
    except ValueError as exc:
        raise ConfigError(f"[growth] {exc}") from None
    y = _float("growth", "yield_factor", sec.get("yield_factor", "1.0"))
    if y <= 0.0:
        raise ConfigError("[growth] yield_factor must be strictly positive")
    return model, y


def _parse_operating(sec: dict) -> tuple[float, float]:
    _check_keys("operating", sec)
    s_in = _float("operating", "S_in", _require(sec, "operating", "S_in"))
    has_d = "D" in sec
    has_qv = "Q" in sec or "V" in sec
    if has_d and has_qv:
        raise ConfigError("[operating] give either D or the pair Q, V, "
                          "not both")
    if has_d:
        d = _float("operating", "D", sec["D"])
    elif "Q" in sec and "V" in sec:
        q = _float("operating", "Q", sec["Q"])
        v = _float("operating", "V", sec["V"])
        if v <= 0.0:
            raise ConfigError("[operating] V must be strictly positive")
        d = q / v
    else:
        raise ConfigError("[operating] missing D (or the pair Q, V)")
    return s_in, d


def _parse_buffered(sec: dict) -> tuple[Optional[float], Optional[float],
                                        Optional[tuple]]:
    _check_keys("buffered", sec)
    dimensionless = {"alpha", "r"} & set(sec)
    physical = {"Q1", "Q2", "V1", "V2"} & set(sec)
    if dimensionless and physical:
        raise ConfigError("[buffered] alpha/r and Q1,Q2,V1,V2 are mutually "
                          f"exclusive; found both {sorted(dimensionless)} "
                          f"and {sorted(physical)}")
    if dimensionless:
        if dimensionless != {"alpha", "r"}:
            raise ConfigError("[buffered] needs both alpha and r")
        return (_float("buffered", "alpha", sec["alpha"]),
                _float("buffered", "r", sec["r"]), None)
    if physical:
        if physical != {"Q1", "Q2", "V1", "V2"}:
            raise ConfigError("[buffered] needs all of Q1, Q2, V1, V2")
        return (None, None, tuple(_float("buffered", k, sec[k])
                                  for k in ("Q1", "Q2", "V1", "V2")))
    raise ConfigError("[buffered] section present but empty")


def _parse_integrator(sec: dict) -> IntegratorSettings:
    _check_keys("integrator", sec)
    kwargs = {}
    for key in ("rel_tol", "abs_tol", "max_step", "t_end"):
        if key in sec:
            kwargs[key] = _float("integrator", key, sec[key])
    try:
        return IntegratorSettings(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[integrator] {exc}") from None


def _parse_audit(sec: dict):
    _check_keys("audit", sec)
    kind = _require(sec, "audit", "kind").strip().lower()
    volumes = _float_list("audit", "volume_fractions",
                          _require(sec, "audit", "volume_fractions"))
    if kind == "serial":
        if "flow_fractions" in sec:
            raise ConfigError("[audit] flow_fractions only applies to "
                              "parallel topologies")
        return Serial(volumes)
    if kind == "parallel":
        flows = _float_list("audit", "flow_fractions",
                            _require(sec, "audit", "flow_fractions"))
        return Parallel(volumes, flows)
    raise ConfigError(f"[audit] kind must be serial or parallel, got {kind!r}")


def parse_config(path: str) -> RunConfig:
    """Read and validate a run configuration file.

    Unknown sections or keys, missing required keys, type mismatches,
    and invariant violations all raise ConfigError naming the culprit.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive: K_I is not k_i
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    sections = {name: dict(parser[name]) for name in parser.sections()}
    for name in sections:
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
    if "growth" not in sections:
        raise ConfigError("missing required section [growth]")
    if "operating" not in sections:
        raise ConfigError("missing required section [operating]")

    model, y = _parse_growth(sections["growth"])
    s_in, d = _parse_operating(sections["operating"])

    alpha = r = None
    physical = None
    if "buffered" in sections:
        alpha, r, physical = _parse_buffered(sections["buffered"])

    integrator = (_parse_integrator(sections["integrator"])
                  if "integrator" in sections else IntegratorSettings())

    initial: Optional[tuple[float, ...]] = None
    if "initial" in sections:
        _check_keys("initial", sections["initial"])
        state = _float_list("initial", "state",
                            _require(sections["initial"], "initial", "state"))
        if len(state) not in (2, 4):
            raise ConfigError("[initial] state needs 2 (single) or 4 "
                              "(buffered) components")
        if any(c < 0.0 for c in state):
            raise ConfigError("[initial] state components must be >= 0")
        # biomass enters in yield units; internally yield is 1
        scaled = list(state)
        for i in range(1, len(scaled), 2):
            scaled[i] = y * scaled[i]
        initial = tuple(scaled)

    sweep: Optional[tuple[float, float, int]] = None
    if "sweep" in sections:
        sec = sections["sweep"]
        _check_keys("sweep", sec)
        lo = _float("sweep", "alpha_min", _require(sec, "sweep", "alpha_min"))
        hi = _float("sweep", "alpha_max", _require(sec, "sweep", "alpha_max"))
        pts_raw = _require(sec, "sweep", "points")
        try:
            pts = int(pts_raw)
        except ValueError:
            raise ConfigError(f"[sweep] points: expected an integer, got "
                              f"{pts_raw!r}") from None
        if not (0.0 < lo < hi):
            raise ConfigError("[sweep] needs 0 < alpha_min < alpha_max")
        if pts < 2:
            raise ConfigError("[sweep] points must be at least 2")
        sweep = (lo, hi, pts)

    topology = _parse_audit(sections["audit"]) if "audit" in sections else None

    try:
        cfg = RunConfig(model=model, S_in=s_in, D=d, alpha=alpha, r=r,
                        physical=physical, integrator=integrator,
                        initial=initial, sweep=sweep, audit_topology=topology)
        # validate the buffered block eagerly so errors name this file
        if cfg.has_buffered:
            cfg.buffered_config()
        cfg.single_params()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg

"""Run configuration: strict INI-style ingestion for the CLI.

Flat sections with scalar values.  Parsing is strict on purpose: every
key must be known and every section recognized, because a silently
ignored misspelling (K_s for K_I, say) would corrupt results without
any visible failure.  Keys are case-sensitive.

Sections:

    [growth]     type = haldane | monod, plus the named parameters
    [operating]  S_in plus either D directly or the pair Q, V
    [buffered]   either alpha, r or the physical quadruple Q1,Q2,V1,V2,
                 whose (Q1 + Q2) / (V1 + V2) must equal the [operating] D
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
from typing import Optional

from ._numerics import Record
from .buffered import BufferedConfig
from .kinetics import CLOSED_FORMS, GrowthModel
from .simulate import IntegratorSettings
from .single import Parallel, Serial, SingleParams

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


# the [growth] keys of each type are its law's fields, in constructor order
_SECTION_KEYS = {
    "growth": {"type", *(key for law in CLOSED_FORMS.values()
                         for key in law._fields)},
    "operating": {"S_in", "D", "Q", "V"},
    "buffered": {"alpha", "r", "Q1", "Q2", "V1", "V2"},
    "integrator": {"rel_tol", "abs_tol", "max_step", "t_end"},
    "initial": {"state"},
    "sweep": {"alpha_min", "alpha_max", "points"},
    "audit": {"kind", "volume_fractions", "flow_fractions"},
}


class RunConfig(Record):
    """Everything a CLI command needs, validated and typed."""
    model: GrowthModel
    S_in: float
    D: float
    buffered: Optional[BufferedConfig] = None
    integrator: IntegratorSettings = IntegratorSettings()
    initial: Optional[tuple[float, ...]] = None
    sweep: Optional[tuple[float, float, int]] = None
    audit_topology: Optional[object] = None

    def single_params(self) -> SingleParams:
        return SingleParams(self.model, self.S_in, self.D)


def _build(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


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


def _parse_growth(sec: dict) -> GrowthModel:
    _check_keys("growth", sec)
    kind = _require(sec, "growth", "type").strip().lower()
    if kind not in CLOSED_FORMS:
        raise ConfigError(f"[growth] type must be {' or '.join(CLOSED_FORMS)}, "
                          f"got {kind!r}")
    keys = CLOSED_FORMS[kind]._fields
    for key in sec:
        if key not in {"type", *keys}:
            raise ConfigError(
                f"[growth] key {key!r} does not belong to type {kind}")
    params = [_float("growth", key, _require(sec, "growth", key))
              for key in keys]
    return _build("[growth] ", CLOSED_FORMS[kind], *params)


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


def _parse_buffered(sec: dict, model: GrowthModel, S_in: float,
                    D: float) -> BufferedConfig:
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
        alpha = _float("buffered", "alpha", sec["alpha"])
        r = _float("buffered", "r", sec["r"])
        return _build("", BufferedConfig, model, S_in, D, alpha, r)
    if not physical:
        raise ConfigError("[buffered] section present but empty")
    if physical != {"Q1", "Q2", "V1", "V2"}:
        raise ConfigError("[buffered] needs all of Q1, Q2, V1, V2")
    flows = [_float("buffered", k, sec[k]) for k in ("Q1", "Q2", "V1", "V2")]
    config = _build("", BufferedConfig.from_physical, *flows, S_in, model)
    # the buffered system runs at the dilution rate of every other command
    if abs(config.D - D) > 1e-9 * D:
        raise ConfigError(f"[buffered] (Q1 + Q2) / (V1 + V2) = {config.D!r} "
                          f"differs from [operating] D = {D!r}")
    return BufferedConfig(config.model, config.S_in, D, config.alpha, config.r)


def _parse_integrator(sec: dict) -> IntegratorSettings:
    _check_keys("integrator", sec)
    kwargs = {key: _float("integrator", key, sec[key])
              for key in ("rel_tol", "abs_tol", "max_step", "t_end")
              if key in sec}
    return _build("[integrator] ", IntegratorSettings, **kwargs)


def _parse_audit(sec: dict):
    _check_keys("audit", sec)
    kind = _require(sec, "audit", "kind").strip().lower()
    volumes = _float_list("audit", "volume_fractions",
                          _require(sec, "audit", "volume_fractions"))
    if kind == "serial":
        if "flow_fractions" in sec:
            raise ConfigError("[audit] flow_fractions only applies to "
                              "parallel topologies")
        return _build("", Serial, volumes)
    if kind == "parallel":
        flows = _float_list("audit", "flow_fractions",
                            _require(sec, "audit", "flow_fractions"))
        return _build("", Parallel, volumes, flows)
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

    model = _parse_growth(sections["growth"])
    s_in, d = _parse_operating(sections["operating"])
    _build("", SingleParams, model, s_in, d)  # checks S_in, D > 0
    buffered = (_parse_buffered(sections["buffered"], model, s_in, d)
                if "buffered" in sections else None)

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
        initial = state

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
        # stable_domain_curve's bound and slack: a larger alpha starves
        # the buffer
        bound = model.rate(s_in) / d
        if hi > bound + 1e-12:
            raise ConfigError(f"[sweep] alpha_max = {hi!r} exceeds the "
                              f"feasibility bound mu(S_in)/D = {bound!r}")
        sweep = (lo, hi, pts)

    topology = _parse_audit(sections["audit"]) if "audit" in sections else None

    return RunConfig(model=model, S_in=s_in, D=d, buffered=buffered,
                     integrator=integrator, initial=initial, sweep=sweep,
                     audit_topology=topology)

"""Correctness checks, run after a worker's metrics have been read.

Each check compares bufchem's output with the benchmark's own model in
reference.py, with an independent integrator (scipy's DOP853), with the
shipped JSON schemas, or with a property the method must have.  A check
returns the reasons it failed; an empty list means the output passed.
"""
from __future__ import annotations

import configparser
import csv
import json
import math
import os
import sys

import reference

LEVEL_TOL = 1e-7          # rest levels, relative to max(1, S_in)
WINDOW_TOL = 1e-9         # break-even levels, relative
ROUTE_TOL = 1e-9          # wrapped Haldane against the closed-form routes
DECAY_TOL = 1e-6          # buffer mass balance, relative to its start value
REFERENCE_SAMPLE = 2      # starts per map re-integrated with DOP853
REFERENCE_MATCH = 1e-3    # reference final state to candidate, sup-norm


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# basin maps

def map_reference_reasons(m) -> list[str]:
    """The map's candidates are the attractors the model equations give."""
    if m.alpha is None:
        lo, _ = reference.haldane_window(*_law(m), m.system.D)
        want = [(lo, m.system.S_in - lo), (m.system.S_in, 0.0)]
    else:
        cfg = m.system
        mu = reference.haldane_law(*_law(m))[0]
        s2 = reference.haldane_window(*_law(m), cfg.alpha * cfg.D)[0]
        levels = reference.rest_levels(mu, cfg.S_in, cfg.D, cfg.alpha, cfg.r,
                                       s2)
        stable = levels[::2]   # the balance rises through the stable levels
        if len(stable) != len(m.candidates):
            return [f"{m.name}: {len(levels)} rest levels, "
                    f"{len(m.candidates)} stable candidates"]
        want = [(s, cfg.S_in - s, s2, cfg.S_in - s2) for s in stable]
    got = [tuple(c.state) for c in m.candidates]
    for w, g in zip(want, got):
        if any(abs(a - b) > LEVEL_TOL for a, b in zip(w, g)):
            return [f"{m.name}: candidate {g} is not the rest point {w}"]
    return []


def _law(m):
    model = m.system.model
    return (model.mu_bar, model.K, model.K_I)


def reference_label(m, start):
    """Label of start from scipy's DOP853 on the model equations, or None."""
    from scipy.integrate import solve_ivp
    mu = reference.haldane_law(*_law(m))[0]
    sys_ = m.system
    if m.alpha is None:
        f = reference.single_rhs(mu, sys_.S_in, sys_.D)
        t_end = 200.0 / sys_.D
    else:
        f = reference.buffered_rhs(mu, sys_.S_in, sys_.D, sys_.alpha, sys_.r)
        t_end = m.settings.t_end
    sol = solve_ivp(f, (0.0, t_end), list(start), method="DOP853",
                    rtol=1e-10, atol=1e-12)
    final = sol.y[:, -1]
    for k, c in enumerate(m.candidates):
        if max(abs(a - b) for a, b in zip(final, c.state)) <= REFERENCE_MATCH:
            return k
    return None


def map_label_reasons(m, labels, reference_labels: dict) -> list[str]:
    """Labels of one basin_probe call against what the map must show.

    reference_labels maps start index to the DOP853 label of that start.
    """
    if len(labels) != len(m.starts):
        return [f"{m.name}: {len(labels)} labels for {len(m.starts)} starts"]
    reasons = []
    if m.name.startswith("unique"):
        wrong = sum(lab != 0 for lab in labels)
        if wrong:
            reasons.append(f"{m.name}: {wrong} starts not at the unique "
                           "positive rest point")
    else:
        if None in labels:
            reasons.append(f"{m.name}: {labels.count(None)} unresolved")
        if not (0 in labels and 1 in labels):
            reasons.append(f"{m.name}: only {set(labels)} reached")
    for k, want in reference_labels.items():
        if labels[k] != want:
            reasons.append(f"{m.name}: start {k} labelled {labels[k]}, "
                           f"DOP853 says {want}")
    return reasons


def repeat_reasons(records) -> dict:
    """Per record index, why a repeated item fails: its output differs
    from that item's first.  measure() records an output equal to the
    first as None, so a repeat that is not None differs."""
    seen, reasons = set(), {}
    for k, (idx, out, _, _) in enumerate(records):
        if idx in seen and out is not None and not isinstance(out, Exception):
            reasons[k] = [f"item {idx}: output differs from its first round"]
        seen.add(idx)
    return reasons


def check_basin(maps, records, rng):
    """Starts failed; a None output repeats the map's first, checked one."""
    failed, ok = 0, {}
    repeats = repeat_reasons(records)
    for k, (idx, labels, _, starts) in enumerate(records):
        m = maps[idx]
        if isinstance(labels, Exception):
            _report([f"{m.name}: {type(labels).__name__}: {labels}"])
            failed += starts
            continue
        if k in repeats:
            _report(repeats[k])
            failed += starts
            continue
        if labels is not None:
            sample = rng.sample(range(len(m.starts)), REFERENCE_SAMPLE)
            refs = {j: reference_label(m, m.starts[j]) for j in sample}
            reasons = map_reference_reasons(m) + map_label_reasons(
                m, labels, refs)
            ok[idx] = not reasons
            _report(reasons)
        if not ok[idx]:
            failed += starts
    return failed


# ---------------------------------------------------------------------------
# operating points (sweep and generic)

def point_reasons(pt, out: dict) -> list[str]:
    """One analysed operating point against the model equations."""
    reasons = []
    window = pt.window(pt.D)
    if not all(_close(a, b, WINDOW_TOL) for a, b in zip(out["window"], window)):
        reasons.append(f"break-even {out['window']} != {window}")
    if out["case"] != pt.case:
        reasons.append(f"case {out['case']} != {pt.case}")
    s2 = pt.buffer_level()
    r_bar = out["r_bar"]
    below = reference.rest_levels(pt.mu, pt.S_in, pt.D, pt.alpha,
                                  0.9 * r_bar, s2)
    positive = [e[2] for e in out["equilibria"] if e[0] == "buffer_positive"]
    if len(below) != 1 or len(positive) != 1:
        reasons.append(f"at 0.9 r_bar: {len(below)} rest levels by sign "
                       f"changes, {len(positive)} from find_equilibria")
    elif abs(below[0] - positive[0]) > LEVEL_TOL * max(1.0, pt.S_in):
        reasons.append(f"rest level {positive[0]} != {below[0]}")
    if r_bar < 0.99:
        above = reference.rest_levels(pt.mu, pt.S_in, pt.D, pt.alpha,
                                      1.01 * r_bar, s2)
        if len(above) < 2:
            reasons.append(f"at 1.01 r_bar = {1.01 * r_bar}: only "
                           f"{len(above)} rest level")
    if not out["v2_inf"] < out["delta_v_inf"]:
        reasons.append(f"v2_inf {out['v2_inf']} >= delta_v_inf "
                       f"{out['delta_v_inf']}")
    if pt.kind == "wrapped":
        reasons += _closed_form_reasons(pt, out)
    if pt.kind != "haldane" and out["label"] != 0:
        reasons.append(f"invasion probe labelled {out['label']}, not the "
                       "buffer's positive rest point")
    return reasons


def _closed_form_reasons(pt, out: dict) -> list[str]:
    """The callable-wrapped Haldane law against bufchem's Haldane routes."""
    from bufchem import BufferedConfig, Haldane, find_equilibria, split_threshold
    model = Haldane(*pt.params)
    r_bar = split_threshold(model, pt.S_in, pt.D, pt.alpha).r_bar
    if not _close(r_bar, out["r_bar"], ROUTE_TOL):
        return [f"wrapped r_bar {out['r_bar']} != closed-form {r_bar}"]
    eqs = find_equilibria(BufferedConfig(model, pt.S_in, pt.D, pt.alpha,
                                         0.9 * out["r_bar"]))
    want = sorted(e.s1 for e in eqs)
    got = sorted(e[2] for e in out["equilibria"])
    if len(want) != len(got) or not all(
            _close(a, b, ROUTE_TOL) for a, b in zip(want, got)):
        return [f"wrapped rest levels {got} != closed-form {want}"]
    return []


def check_points(items, records):
    """(items failed, of them not known_fault items); a None output
    repeats the point's first, checked one."""
    failed = unexpected = 0
    first, reported = {}, set()   # point index: reasons its first output failed
    repeats = repeat_reasons(records)
    for k, (idx, out, _, _) in enumerate(records):
        if isinstance(out, Exception):
            reasons = [f"{type(out).__name__}: {out}"]
        elif k in repeats:
            reasons = repeats[k]
        else:
            if out is not None:
                first[idx] = point_reasons(items[idx].pt, out)
            reasons = first[idx]
        if not reasons:
            continue
        failed += 1
        unexpected += not items[idx].known_fault
        if idx not in reported:   # once per point, not once per round
            reported.add(idx)
            known = " (known fault)" if items[idx].known_fault else ""
            _report([f"point {idx}{known}: {r}" for r in reasons])
    return failed, unexpected


# ---------------------------------------------------------------------------
# CLI artifacts

def decay_reasons(rows, S_in: float, alpha_d: float) -> list[str]:
    """S2 + X2 - S_in must decay as exp(-alpha D t) along the trajectory."""
    t0, _, _, s2, x2 = rows[0]
    m0 = s2 + x2 - S_in
    for t, _, _, s2, x2 in rows:
        want = m0 * math.exp(-alpha_d * (t - t0))
        if abs(s2 + x2 - S_in - want) > DECAY_TOL * max(abs(m0), 1e-3):
            return [f"buffer mass balance {s2 + x2 - S_in} at t = {t}, "
                    f"expected {want}"]
    return []


def read_config(path: str) -> dict:
    """The numbers of a CLI run configuration, read with configparser."""
    ini = configparser.ConfigParser()
    ini.optionxform = str
    ini.read(path, encoding="utf-8")
    keys = (("growth", "mu_bar"), ("growth", "K"), ("growth", "K_I"),
            ("operating", "S_in"), ("operating", "D"), ("buffered", "alpha"),
            ("buffered", "r"))
    return {key: float(ini[sec][key]) for sec, key in keys}


def command_reasons(result: dict, cfg: dict) -> list[str]:
    """One CLI invocation's artifacts against the schemas and the model."""
    import jsonschema

    import bufchem
    if result["returncode"] != 0:
        return [f"{result['command']} exited {result['returncode']}: "
                f"{result['stdout']}{result['stderr']}"]
    written = json.loads(result["stdout"])["written"]
    reasons = []
    law = (cfg["mu_bar"], cfg["K"], cfg["K_I"])
    schemas = os.path.join(os.path.dirname(bufchem.__file__), "schemas")
    for path in written:
        name, ext = os.path.splitext(os.path.basename(path))
        if ext != ".json":
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(os.path.join(schemas, f"{name}.schema.json"),
                  encoding="utf-8") as fh:
            schema = json.load(fh)
        for err in jsonschema.Draft7Validator(schema).iter_errors(doc):
            reasons.append(f"{name}.json: {err.message}")
        if name == "kinetics":
            lo, hi = reference.haldane_window(*law, cfg["D"])
            got = doc["break_even"]
            if not (_close(got["lower"], lo, 1e-12)
                    and _close(got["upper"], hi, 1e-12)):
                reasons.append(f"kinetics.json break-even {got} != {(lo, hi)}")
        if name == "equilibria":
            s2 = reference.haldane_window(*law, cfg["alpha"] * cfg["D"])[0]
            n = len(reference.rest_levels(
                reference.haldane_law(*law)[0], cfg["S_in"], cfg["D"],
                cfg["alpha"], cfg["r"], s2))
            if doc["positive_count"] != n:
                reasons.append(f"equilibria.json positive_count "
                               f"{doc['positive_count']} != {n}")
    if result["command"] == "simulate":
        with open(written[0], encoding="utf-8") as fh:
            rows = [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
        reasons += decay_reasons(rows, cfg["S_in"], cfg["alpha"] * cfg["D"])
    return reasons


def check_cli(config_path: str, records):
    cfg = read_config(config_path)
    failed = 0
    for _, result, _, _ in records:
        if isinstance(result, Exception):
            _report([f"{type(result).__name__}: {result}"])
            failed += 1
            continue
        reasons = command_reasons(result, cfg)
        _report(reasons)
        failed += bool(reasons)
    return failed


# ---------------------------------------------------------------------------

def _report(reasons) -> None:
    for r in reasons:
        print(f"check failed: {r}", file=sys.stderr)


def check(workload: str, inputs, records, rng) -> tuple[int, int]:
    """(items attempted, items failed, of them not known faults) of one
    workload pass."""
    if workload == "basin":
        failed = check_basin(inputs, records, rng)
        return sum(r[3] for r in records), failed, failed
    if workload == "cli":
        failed = check_cli(inputs, records)
        return len(records), failed, failed
    return (len(records),) + check_points(inputs, records)

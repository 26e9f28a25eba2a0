"""The measured process: build one workload's inputs, time it, then check it.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR
    python perfbench/worker.py --workload W --out DIR --setup-only --inputs FILE

Until its metrics have been read this process imports only the standard
library, bufchem and the benchmark's own stdlib-only modules; the checks
that need scipy or jsonschema import them afterwards.  --setup-only
builds the inputs from FILE (the JSON of draw()), prints "ready" and
exits: run.py times that from a fresh interpreter as setup_s.  The last
stdout line is a JSON object with the items attempted and failed, whether
every failure is that of a known fault, and the metrics measured.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("basin", "sweep", "generic", "cli")

# reference scenario of the paper's figures and of the acceptance gate
REF_LAW = (12.0, 1.0, 0.08)
REF_S_IN, REF_D = 1.4, 1.0
BASIN_ALPHAS = (0.25, 0.35, 0.45)
BASIN_STARTS = 100
BASIN_T_END = 200.0
SINGLE_GRID = 20

SWEEP_POOL = 128
PIVOT_AT_EVERY = 8
GENERIC_POOL = 512
CLI_MIN_ROUNDS = 17   # 102 invocations: ten beyond the 90th percentile

# one round of a workload run only for its per-layer metrics (see README)
SIDE_ITEMS = {"basin": 1, "sweep": 32, "generic": 32,
              "cli": len(tracing.COMMANDS)}

CLI_CONFIG = """\
[growth]
type = haldane
mu_bar = 12
K = 1
K_I = 0.08

[operating]
S_in = 1.4
D = 1

[buffered]
alpha = 0.35
r = 0.48

[integrator]
t_end = 80

[initial]
state = {state}

[audit]
kind = parallel
volume_fractions = 0.5, 0.3, 0.2
flow_fractions = 0.4, 0.4, 0.2
"""


# ---------------------------------------------------------------------------
# inputs: drawn from the seed with the benchmark's own code (draw), then
# turned into bufchem objects (build); set-up time covers only the latter

# A Haldane point whose split_threshold r_bar is the upper edge of a
# uniqueness set with a hole, so that 0.9 r_bar lies in a band of three
# positive rest points (a fault recorded in CHANGES.md).  It ends every
# round of sweep and generic, the same on every seed, and fails its check
# until split_threshold is mended.
BAND_POINT = ((3.73499, 0.46447, 2.96842), 3.98952, 1.81470, 0.357769)
BAND_PROBE_START = (1.99476, 1e-5)


class Map:
    """One basin_probe call: a system, its starts and the candidates."""

    def __init__(self, name, system, starts, candidates, settings, alpha, r):
        self.name, self.system, self.starts = name, system, starts
        self.candidates, self.settings = candidates, settings
        self.alpha, self.r = alpha, r


class PointItem:
    """An operating point of sweep or generic: the drawn point, its bufchem
    law and, for generic, the invasion probe's (start, targets).  A
    known_fault item is one that fails because of a recorded fault."""

    def __init__(self, pt: reference.Point, model, probe=None,
                 known_fault=False):
        self.pt, self.model, self.probe = pt, model, probe
        self.known_fault = known_fault


def threshold_holds(pt: reference.Point) -> bool:
    """False where 0.9 r_bar may fall in a band of extra rest points.

    Such a point fails its check (see BAND_POINT), and drawn ones would
    fail on some seeds only, so they are not drawn; BAND_POINT stands for
    them in every round.
    """
    return not reference.in_band(pt, 0.9)


def draw_basin(rng: random.Random) -> dict:
    starts = [[[rng.uniform(0.05, 2.0 * REF_S_IN) for _ in range(4)]
               for _ in range(BASIN_STARTS)]
              for _ in range(2 * len(BASIN_ALPHAS))]
    return {"starts": starts}


def draw_points(rng: random.Random, workload: str) -> dict:
    """[kind, params, S_in, D, alpha, probe] rows; probe is None for sweep,
    else [start, targets] of the invasion probe."""
    rows = []
    pool = SWEEP_POOL if workload == "sweep" else GENERIC_POOL
    while len(rows) < pool:
        if workload == "sweep":
            pt = reference.draw_point(
                rng, "haldane", pivot_at=len(rows) % PIVOT_AT_EVERY == 0)
        else:
            pt = reference.draw_point(
                rng, ("andrews", "wrapped")[len(rows) % 2], invasion=True)
        if not threshold_holds(pt):
            continue
        probe = None
        if workload == "generic":
            start = [rng.uniform(0.0, pt.S_in), 10.0 ** rng.uniform(-8.0, -2.0)]
            probe = [start, _probe_targets(pt)]
        rows.append([pt.kind, list(pt.params), pt.S_in, pt.D, pt.alpha, probe])
    params, S_in, D, alpha = BAND_POINT
    kind = "haldane" if workload == "sweep" else "wrapped"
    probe = None
    if workload == "generic":
        pt = reference.Point(kind, params, S_in, D, alpha)
        probe = [list(BAND_PROBE_START), _probe_targets(pt)]
    rows.append([kind, list(params), S_in, D, alpha, probe])
    return {"points": rows}


def _probe_targets(pt: reference.Point) -> list:
    """The buffer's positive rest point and its washout, alone at alpha D."""
    s_buf = pt.buffer_level()
    return [[s_buf, pt.S_in - s_buf], [pt.S_in, 0.0]]


def draw(workload: str, seed: int) -> dict:
    """The seeded inputs of a workload as plain JSON-able data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "basin":
        return draw_basin(rng)
    if workload == "cli":
        return {"state": ", ".join(f"{rng.uniform(0.05, 2.0 * REF_S_IN):.6f}"
                                   for _ in range(4))}
    return draw_points(rng, workload)


def build_basin(data: dict) -> list[Map]:
    from bufchem import (BRANCH_POSITIVE, BufferedConfig, Haldane,
                         IntegratorSettings, SingleParams, classify_portrait,
                         find_equilibria, split_threshold)
    from bufchem.single import TAG_POSITIVE_ATTRACTING, TAG_WASHOUT_ATTRACTING
    model = Haldane(*REF_LAW)
    settings = IntegratorSettings(t_end=BASIN_T_END)
    maps = []
    starts = iter(data["starts"])
    for alpha in BASIN_ALPHAS:
        r_bar = split_threshold(model, REF_S_IN, REF_D, alpha).r_bar
        # below r_bar the positive rest point is unique; above, two are stable
        for kind, r in (("unique", 0.9 * r_bar), ("bistable", 1.2 * r_bar)):
            cfg = BufferedConfig(model, REF_S_IN, REF_D, alpha, r)
            stable = tuple(e for e in find_equilibria(cfg)
                           if e.branch == BRANCH_POSITIVE and e.tag == "stable")
            maps.append(Map(f"{kind}@{alpha}", cfg,
                            [tuple(x) for x in next(starts)], stable,
                            settings, alpha, r))
    params = SingleParams(model, REF_S_IN, REF_D)
    eqs = classify_portrait(params).equilibria
    n = SINGLE_GRID
    grid = [(REF_S_IN * (i + 0.5) / n, REF_S_IN * (j + 0.5) / n)
            for i in range(n) for j in range(n)]
    maps.append(Map("single", params, grid,
                    (next(e for e in eqs if e.tag == TAG_POSITIVE_ATTRACTING),
                     next(e for e in eqs if e.tag == TAG_WASHOUT_ATTRACTING)),
                    None, None, None))
    return maps


def build_points(data: dict, counter) -> list[PointItem]:
    """Haldane points (sweep), or Andrews and callable-wrapped Haldane
    points as CustomUnimodal laws (generic).

    counter, when given, is a one-element list every rate-law evaluation
    the library makes adds one to.
    """
    from bufchem import CustomUnimodal, Haldane
    items = []
    last = len(data["points"]) - 1
    for k, (kind, params, S_in, D, alpha, probe) in enumerate(data["points"]):
        pt = reference.Point(kind, tuple(params), S_in, D, alpha)
        if kind == "haldane":
            model = Haldane(*params)
        else:
            mu, mu_prime = pt.mu, pt.mu_prime
            if counter is not None:
                mu = reference.counted(mu, counter)
                mu_prime = reference.counted(mu_prime, counter)
            model = CustomUnimodal(mu, mu_prime, pt.peak)
        if probe is not None:
            start, targets = probe
            probe = (tuple(start), tuple(tuple(t) for t in targets))
        items.append(PointItem(pt, model, probe, known_fault=k == last))
    return items


def build_cli(data: dict, out: str) -> str:
    path = os.path.join(out, "run.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CLI_CONFIG.format(state=data["state"]))
    return path


def build(workload: str, data: dict, out: str, counter=None):
    """Import the layer under test and build its inputs from drawn data."""
    if workload == "cli":
        import bufchem.cli  # noqa: F401  (its import is part of set-up)
        return build_cli(data, out)
    import bufchem  # noqa: F401
    if workload == "basin":
        return build_basin(data)
    return build_points(data, counter)


# ---------------------------------------------------------------------------
# one item of each workload

def run_map(m: Map, tr):
    from bufchem import basin_probe
    with tr.span("simulate.basin_probe", starts=len(m.starts)):
        return basin_probe(m.system, m.starts, m.settings, m.candidates,
                           eps=1e-6)


def run_point(it: PointItem, tr):
    """break_even, r_bar, rest points at 0.9 r_bar, buffer sizing (+ probe)."""
    from bufchem import (BufferedConfig, IntegratorSettings, SingleParams,
                         basin_probe, buffer_design, find_equilibria,
                         split_threshold)
    pt, model = it.pt, it.model
    with tr.span("kinetics.break_even"):
        window = model.break_even(pt.D)
    with tr.span("multiplicity.split_threshold"):
        rep = split_threshold(model, pt.S_in, pt.D, pt.alpha)
    cfg = BufferedConfig(model, pt.S_in, pt.D, pt.alpha, 0.9 * rep.r_bar)
    with tr.span("buffered.find_equilibria"):
        eqs = find_equilibria(cfg)
    with tr.span("design.buffer_design"):
        des = buffer_design(model, pt.S_in, pt.D)
    label = None
    if it.probe is not None:
        start, targets = it.probe
        a_d = pt.alpha * pt.D
        with tr.span("simulate.basin_probe", starts=1):
            label = basin_probe(SingleParams(model, pt.S_in, a_d), [start],
                                IntegratorSettings(t_end=200.0 / a_d),
                                targets, eps=1e-6)[0]
    return {"window": (window.lower, window.upper), "r_bar": rep.r_bar,
            "case": rep.case,
            "equilibria": [(e.branch, e.tag) + e.state for e in eqs],
            "v2_inf": des.v2_inf, "delta_v_inf": des.delta_v_inf,
            "label": label}


def run_command(cmd: str, k: int, config: str, out: str, trace: bool):
    """One CLI invocation in a fresh interpreter; returns its artifacts' dir."""
    dest = os.path.join(out, f"{k:04d}-{cmd}")
    argv = [cmd, "--config", config, "--out", dest]
    if trace:
        head = [sys.executable, os.path.join(HERE, "cli_child.py"),
                os.path.join(dest, "spans.json")]
    else:
        head = [sys.executable, "-m", "bufchem"]
    proc = subprocess.run(head + argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=60)
    return {"command": cmd, "dir": dest, "returncode": proc.returncode,
            "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}


# ---------------------------------------------------------------------------
# timed loop

def install_integrate_span(tr):
    """Route basin_probe's calls of simulate.integrate through a span."""
    from bufchem import simulate
    original = simulate.integrate

    def traced(*args, **kwargs):
        with tr.span("simulate.integrate") as attrs:
            traj = original(*args, **kwargs)
        attrs["accepted"] = traj.accepted_steps
        attrs["rejected"] = traj.rejected_steps
        return traj

    simulate.integrate = traced
    return lambda: setattr(simulate, "integrate", original)


def measure(workload, inputs, seconds, tr, out, max_items=None):
    """Run whole rounds, ending at the round boundary nearest to seconds.

    With max_items, one round of the first max_items elements instead.

    Returns the per-item records: (round element index, output or
    exception, host-normalised seconds, starts).  An output equal to the
    element's first one is recorded as None, so that memory does not grow
    with the number of rounds.  A CLI item is normalised by bare
    interpreter starts, any other by the kernel (see calibration.py).
    """
    trace = tr is not tracing.NULL
    cli = workload == "cli"
    restore = install_integrate_span(tr) if trace and not cli else None
    elements = list(tracing.COMMANDS) if workload == "cli" else inputs
    if max_items is not None:
        elements = elements[:max_items]
    first = {}
    records, walls, bare = [], [], []
    rounds = 0
    with nullcontext() if cli else calibration.HostSpeed() as host:
        t_start = time.perf_counter()
        while not _done(rounds, time.perf_counter() - t_start, seconds,
                        workload, max_items):
            for idx, element in enumerate(elements):
                if trace:
                    tr.item = len(records)
                t0 = time.perf_counter()
                result = _run(workload, element, inputs, out, trace, tr,
                              len(records))
                walls.append((t0, time.perf_counter()))
                if cli:
                    bare.append(calibration.bare_start_seconds())
                else:
                    if idx in first and result == first[idx]:
                        result = None
                    else:
                        first.setdefault(idx, result)
                starts = len(element.starts) if workload == "basin" else 1
                records.append((idx, result, starts))
            rounds += 1
    if restore is not None:
        restore()
    if cli:
        times = calibration.start_normalised([t1 - t0 for t0, t1 in walls],
                                             bare)
    else:
        times = [host.item_seconds(t0, t1) for t0, t1 in walls]
    return [(idx, result, t, starts)
            for (idx, result, starts), t in zip(records, times)]


def _run(workload, element, inputs, out, trace, tr, k):
    try:
        if workload == "basin":
            return run_map(element, tr)
        if workload == "cli":
            return run_command(element, k, inputs, out, trace)
        return run_point(element, tr)
    except Exception as exc:  # a failed item is counted, not fatal
        return exc


def _done(rounds, elapsed, seconds, workload, max_items) -> bool:
    """Whether the round just ended is the boundary nearest to seconds."""
    if rounds == 0:
        return False
    if max_items is not None:
        return True
    if workload == "cli" and rounds < CLI_MIN_ROUNDS:
        return False
    return elapsed + 0.5 * elapsed / rounds >= seconds


def items_per_s(records) -> float:
    """Items over their summed host-normalised time."""
    return sum(r[3] for r in records) / sum(r[2] for r in records)


def end_to_end(workload, records) -> dict:
    """Host-normalised item rate and times, and the peak resident memory."""
    per_item = [r[2] / r[3] * 1e3 for r in records]
    if workload == "cli":
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "items_per_s": (items_per_s(records), "1/s"),
        "item_ms_p50": (statistics.median(per_item), "ms"),
        "item_ms_p90": (statistics.quantiles(per_item, n=10)[-1], "ms"),
        "peak_rss_mib": (usage.ru_maxrss / 1024.0, "MiB"),
    }


def adopt_child_spans(tr, records) -> None:
    for k, (_, result, _, _) in enumerate(records):
        if not isinstance(result, dict):
            continue
        path = os.path.join(result["dir"], "spans.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                tr.add(json.load(fh), k)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--inputs", help="drawn inputs for --setup-only")
    args = p.parse_args(argv)
    if args.setup_only and args.inputs is None:
        p.error("--setup-only needs --inputs")
    if not args.setup_only and args.seed is None:
        p.error("--seed is required")
    out = args.out
    os.makedirs(out, exist_ok=True)

    if args.setup_only:
        with open(args.inputs, encoding="utf-8") as fh:
            build(args.workload, json.load(fh), out)
        print("ready", flush=True)
        return 0

    own = args.workload
    passes = [own]
    if args.trace:
        # the other workloads, for the per-layer metrics they give
        passes += [w for w in WORKLOADS if w != own]
    results, tracers, counts = {}, {}, {}
    for wl in passes:
        tr = tracing.Tracer() if args.trace else tracing.NULL
        counter = [0] if args.trace and wl == "generic" else None
        wl_out = os.path.join(out, wl)
        os.makedirs(wl_out, exist_ok=True)
        inputs = build(wl, draw(wl, args.seed), wl_out, counter)
        if counter is not None:
            counter[0] = 0
        records = measure(wl, inputs, args.seconds, tr, wl_out,
                          None if wl == own else SIDE_ITEMS[wl])
        results[wl] = (inputs, records)
        if args.trace:
            if counter is not None:
                tr.counters["rate_evals"] = counter[0]
            if wl == "cli":
                adopt_child_spans(tr, records)
            tracers[wl] = tr
            counts[wl] = sum(r[3] for r in records)

    # metrics are read; only now may heavier imports happen
    inputs, records = results[own]
    if args.trace:
        metrics = tracing.layer_metrics(tracers, counts)
        metrics["trace.items_per_s"] = (items_per_s(records), "1/s")
        for wl, tr in tracers.items():
            tr.dump(os.path.join(out, f"spans-{wl}.json"))
    else:
        metrics = end_to_end(own, records)

    import checks
    attempted = failed = unexpected = 0
    for wl, (wl_inputs, wl_records) in results.items():
        n_items, n_failed, n_unexpected = checks.check(
            wl, wl_inputs, wl_records, random.Random(f"check:{args.seed}"))
        attempted += n_items
        failed += n_failed
        unexpected += n_unexpected
    print(json.dumps({
        # the failures of known-fault items do not make a run incorrect
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

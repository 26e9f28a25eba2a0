"""Benchmark of bufchem: basin maps, threshold sweeps and CLI start-up.

    python3 perfbench/run.py --workload basin|sweep|generic|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  The library is imported from
./src; nothing is installed.  With --trace 0 the last stdout line holds
the end-to-end metrics (setup_s included), with --trace 1 the per-layer
metrics.  Outputs go to ./.perfbench-out.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("basin", "sweep", "generic", "cli")
SETUP_PROBES = 15
DEADLINE_S = 175.0   # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(args, env, out: str) -> float:
    """Median time from spawning a fresh interpreter to its "ready".

    The seeded inputs are drawn here, untimed; a probe imports bufchem and
    builds the inputs from them.  Each probe's wall time is host-normalised
    by the bare interpreter starts timed beside it (see calibration.py).
    """
    os.makedirs(out, exist_ok=True)
    inputs = os.path.join(out, "inputs.json")
    with open(inputs, "w", encoding="utf-8") as fh:
        json.dump(worker.draw(args.workload, args.seed), fh)
    walls, starts = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--out", out,
               "--setup-only", "--inputs", inputs]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait(timeout=30)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        walls.append(t1 - t0)
        starts.append(calibration.bare_start_seconds(env))
    return statistics.median(calibration.start_normalised(walls, starts))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_begin = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "bufchem", "__init__.py")):
        print("perfbench: no bufchem sources under src/ of this checkout",
              file=sys.stderr)
        return 2
    out = os.path.join(ROOT, ".perfbench-out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    for tree in (os.path.join(ROOT, "src"), HERE):
        if not compileall.compile_dir(tree, quiet=1):
            print(f"perfbench: {tree} does not compile", file=sys.stderr)
            return 2
    env = child_env()

    setup_s = None if args.trace else setup_seconds(
        args, env, os.path.join(out, "setup"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    # its own session, so that a timeout also ends the CLI children
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(
                timeout=DEADLINE_S - (time.monotonic() - t_begin))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("perfbench: worker timed out", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

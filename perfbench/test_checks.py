"""Each benchmark check rejects a deliberately wrong answer.

    PYTHONPATH=src python -m pytest perfbench/test_checks.py -q

A check that passes the library's real output and also a perturbed one
would be vacuous; these tests feed both.
"""
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from bufchem import (BufferedConfig, Haldane, IntegratorSettings,  # noqa: E402
                     basin_probe, integrate)

REF = (12.0, 1.0, 0.08)
ALPHA = 0.35


@pytest.fixture(scope="module")
def analysed():
    pt = reference.Point("haldane", REF, 1.4, 1.0, ALPHA)
    item = worker.PointItem(pt, Haldane(*REF))
    return pt, worker.run_point(item, tracing.NULL)


def test_point_check_passes_library_output(analysed):
    pt, out = analysed
    assert checks.point_reasons(pt, out) == []


@pytest.mark.parametrize("factor", [1.25, 0.8])
def test_point_check_rejects_perturbed_r_bar(analysed, factor):
    pt, out = analysed
    assert checks.point_reasons(pt, dict(out, r_bar=factor * out["r_bar"]))


def test_point_check_rejects_design_order(analysed):
    pt, out = analysed
    wrong = dict(out, v2_inf=out["delta_v_inf"] * 1.01)
    assert checks.point_reasons(pt, wrong)


def test_repeat_that_differs_from_first_round_fails(analysed):
    pt, out = analysed
    items = [worker.PointItem(pt, Haldane(*REF))]
    again = dict(out, r_bar=out["r_bar"] * (1.0 + 1e-12))
    records = [(0, out, 0.01, 1), (0, None, 0.01, 1), (0, again, 0.01, 1)]
    assert checks.check_points(items, records) == (1, 1)


def test_known_fault_failure_counts_but_is_expected(analysed):
    pt, out = analysed
    items = [worker.PointItem(pt, Haldane(*REF), known_fault=True),
             worker.PointItem(pt, Haldane(*REF))]
    wrong = dict(out, r_bar=1.25 * out["r_bar"])
    records = [(0, wrong, 0.01, 1), (1, out, 0.01, 1), (0, None, 0.01, 1)]
    assert checks.check_points(items, records) == (2, 0)
    records.append((1, wrong, 0.01, 1))
    assert checks.check_points(items, records) == (3, 1)


def _bistable_map(n: int):
    maps = worker.build_basin(worker.draw_basin(random.Random(7)))
    m = next(m for m in maps
             if m.name == f"bistable@{ALPHA}")
    m.starts = m.starts[:n]
    return m


def test_basin_check_rejects_swapped_label():
    m = _bistable_map(12)
    labels = basin_probe(m.system, m.starts, m.settings, m.candidates,
                         eps=1e-6)
    assert 0 in labels and 1 in labels
    k = labels.index(1)
    refs = {k: checks.reference_label(m, m.starts[k])}
    assert checks.map_reference_reasons(m) == []
    assert checks.map_label_reasons(m, labels, refs) == []
    swapped = list(labels)
    swapped[k] = 0
    assert checks.map_label_reasons(m, swapped, refs)


def test_basin_check_rejects_unresolved_start():
    m = _bistable_map(12)
    labels = basin_probe(m.system, m.starts, m.settings, m.candidates,
                         eps=1e-6)
    labels[0] = None
    assert checks.map_label_reasons(m, labels, {})


def _buffer_rows():
    model = Haldane(*REF)
    cfg = BufferedConfig(model, 1.4, 1.0, ALPHA, 0.48)
    traj = integrate(cfg, (1.0, 0.2, 1.0, 0.2), IntegratorSettings(t_end=80))
    return [(t, *y) for t, y in zip(traj.times, traj.states)]


def test_decay_check_passes_integrated_trajectory():
    assert checks.decay_reasons(_buffer_rows(), 1.4, ALPHA) == []


def test_decay_check_rejects_broken_mass_balance():
    rows = _buffer_rows()
    t, s1, x1, s2, x2 = rows[len(rows) // 2]
    rows[len(rows) // 2] = (t, s1, x1, s2 + 1e-4, x2)
    assert checks.decay_reasons(rows, 1.4, ALPHA)


def _cli(tmp_path, command):
    config = worker.build_cli(worker.draw("cli", 3), str(tmp_path))
    out = tmp_path / command
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "bufchem", command,
                           "--config", config, "--out", str(out)],
                          capture_output=True, text=True, env=env, check=True)
    result = {"command": command, "dir": str(out), "returncode": 0,
              "stdout": proc.stdout, "stderr": proc.stderr}
    return result, checks.read_config(config)


def test_cli_check_rejects_wrong_break_even(tmp_path):
    result, cfg = _cli(tmp_path, "kinetics")
    assert checks.command_reasons(result, cfg) == []
    path = tmp_path / "kinetics" / "kinetics.json"
    doc = json.loads(path.read_text())
    doc["break_even"]["upper"] *= 1.0 + 1e-9
    path.write_text(json.dumps(doc))
    assert checks.command_reasons(result, cfg)


def test_cli_check_rejects_schema_violation(tmp_path):
    result, cfg = _cli(tmp_path, "equilibria")
    assert checks.command_reasons(result, cfg) == []
    path = tmp_path / "equilibria" / "equilibria.json"
    doc = json.loads(path.read_text())
    doc["unexpected"] = 1
    path.write_text(json.dumps(doc))
    assert checks.command_reasons(result, cfg)


def test_cli_check_rejects_broken_trajectory(tmp_path):
    result, cfg = _cli(tmp_path, "simulate")
    assert checks.command_reasons(result, cfg) == []
    path = tmp_path / "simulate" / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-4)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert checks.command_reasons(result, cfg)

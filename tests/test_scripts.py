"""The experiment scripts run end to end on small grids."""
import os

import pytest

from conftest import run_python

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, flags, csv_name, header", [
    ("basin_map.py", ("--grid", "2"), "basin_map.csv", "S0,X0,basin"),
])
def test_script_writes_its_csv(tmp_path, script, flags, csv_name, header):
    result = run_python(os.path.join(SCRIPTS, script), *flags,
                        "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / csv_name).read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1


@pytest.mark.parametrize("script, flag", [
    ("basin_map.py", "--grid"),
])
def test_script_refuses_empty_grid(tmp_path, script, flag):
    result = run_python(os.path.join(SCRIPTS, script), flag, "0",
                        "--out", str(tmp_path))
    assert result.returncode == 2
    assert f"{flag} must be at least 1" in result.stderr
    assert "Traceback" not in result.stderr

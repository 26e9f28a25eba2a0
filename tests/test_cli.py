"""End-to-end command-line runs: artifacts, schemas, determinism."""
import ast
import hashlib
import json
from importlib import resources

import jsonschema
import pytest

from conftest import run_python

REFERENCE_INI = """\
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

[initial]
state = 1.4 0.1 1.4 0.01

[sweep]
alpha_min = 0.1
alpha_max = 0.55
points = 12
"""

MONOD_BUFFERED = """\
[growth]
type = monod
mu_max = 2
K_s = 1

[operating]
S_in = 3
D = 1

[buffered]
alpha = 0.5
r = 0.6
"""

AUDIT = """\
[growth]
type = haldane
mu_bar = 12
K = 1
K_I = 0.08

[operating]
S_in = 1.4
D = 1

[audit]
kind = parallel
volume_fractions = 0.5 0.5
flow_fractions = 0.6 0.4
"""


def run_cli(*args: str):
    return run_python("-m", "bufchem", *args)


def test_cli_import_leaves_numpy_unloaded():
    # numpy serves only the numeric eigenvalue route, imported on use, and
    # the value records need neither dataclasses nor what it pulls in.
    # Only what the import itself adds counts, not what site preloads.
    for module in ("bufchem.cli", "bufchem"):
        out = run_python("-c", "import sys\n"
                         "before = set(sys.modules)\n"
                         f"import {module}\n"
                         "print(sorted(set(sys.modules) - before))")
        assert out.returncode == 0, out.stderr
        added = set(ast.literal_eval(out.stdout))
        assert module in added
        assert not added & {"numpy", "dataclasses", "inspect"}, module


def schema(name: str) -> dict:
    text = (resources.files("bufchem") / "schemas" /
            f"{name}.schema.json").read_text()
    return json.loads(text)


def validate(path, name: str) -> dict:
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, schema(name))
    return payload


@pytest.fixture
def reference_ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(REFERENCE_INI)
    return path


def test_kinetics_artifact(reference_ini, tmp_path):
    result = run_cli("kinetics", "--config", str(reference_ini),
                     "--out", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    summary = json.loads(result.stdout)
    assert summary["command"] == "kinetics"
    payload = validate(tmp_path / "kinetics.json", "kinetics")
    assert payload["break_even"]["lower"] == pytest.approx(
        0.10295400907294566)
    assert payload["break_even"]["upper"] == pytest.approx(
        0.7770459909270544)


def test_kinetics_monod_nulls(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(MONOD_BUFFERED)
    result = run_cli("kinetics", "--config", str(ini),
                     "--out", str(tmp_path))
    assert result.returncode == 0
    payload = validate(tmp_path / "kinetics.json", "kinetics")
    assert payload["peak"]["abscissa"] is None
    assert payload["break_even"]["upper"] is None


def test_classify_artifact(reference_ini, tmp_path):
    assert run_cli("classify", "--config", str(reference_ini),
                   "--out", str(tmp_path)).returncode == 0
    payload = validate(tmp_path / "classify.json", "classify")
    assert payload["case"] == "bistable"
    assert len(payload["equilibria"]) == 3


def test_equilibria_artifact(reference_ini, tmp_path):
    assert run_cli("equilibria", "--config", str(reference_ini),
                   "--out", str(tmp_path)).returncode == 0
    payload = validate(tmp_path / "equilibria.json", "equilibria")
    assert payload["positive_count"] == 1
    stable = [e for e in payload["equilibria"]
              if e["branch"] == "buffer_positive"]
    assert stable[0]["tag"] == "stable"
    assert all(len(e["eigenvalues"]) == 4 for e in payload["equilibria"])


def test_equilibria_monod_unique_stable(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(MONOD_BUFFERED)
    assert run_cli("equilibria", "--config", str(ini),
                   "--out", str(tmp_path)).returncode == 0
    payload = validate(tmp_path / "equilibria.json", "equilibria")
    positives = [e for e in payload["equilibria"]
                 if e["branch"] == "buffer_positive"]
    assert len(positives) == 1
    assert positives[0]["tag"] == "stable"


def test_domain_artifacts(reference_ini, tmp_path):
    assert run_cli("domain", "--config", str(reference_ini),
                   "--out", str(tmp_path)).returncode == 0
    payload = validate(tmp_path / "domain.json", "domain")
    assert payload["crossing_alpha"] == pytest.approx(
        0.45822841362922084, abs=1e-6)
    lines = (tmp_path / "domain.csv").read_text().splitlines()
    assert lines[0] == "alpha,r_bar"
    assert len(lines) == 13
    for line in lines[1:]:
        alpha, r_bar = map(float, line.split(","))
        assert 0.0 < r_bar <= 1.0
        assert 0.1 <= alpha <= 0.55 + 1e-12


def test_design_artifacts(reference_ini, tmp_path):
    assert run_cli("design", "--config", str(reference_ini),
                   "--out", str(tmp_path)).returncode == 0
    payload = validate(tmp_path / "design.json", "design")
    assert payload["delta_v_inf"] == pytest.approx(101.0 / 168.0)
    lines = (tmp_path / "design_comparison.csv").read_text().splitlines()
    assert lines[0] == "S_in,delta_v_inf,v2_inf,d2_star"
    assert len(lines) == 31
    for line in lines[1:]:
        _, dv, v2, d2 = map(float, line.split(","))
        assert v2 < dv
        assert d2 > 0.0


def test_simulate_csv_and_determinism(reference_ini, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("simulate", "--config", str(reference_ini),
                   "--out", str(out1)).returncode == 0
    assert run_cli("simulate", "--config", str(reference_ini),
                   "--out", str(out2)).returncode == 0
    first = (out1 / "trajectory.csv").read_bytes()
    second = (out2 / "trajectory.csv").read_bytes()
    assert first == second
    lines = first.decode().splitlines()
    assert lines[0] == "t,S1,X1,S2,X2"
    # all numeric fields round-trip exactly through 17 significant digits
    for line in lines[1:]:
        for cell in line.split(","):
            assert format(float(cell), ".17g") == cell
    assert first.endswith(b"\n")
    assert b"\r" not in first


def test_simulate_json_format(reference_ini, tmp_path):
    assert run_cli("simulate", "--config", str(reference_ini),
                   "--out", str(tmp_path), "--format", "json"
                   ).returncode == 0
    payload = validate(tmp_path / "trajectory.json", "trajectory")
    assert payload["columns"] == ["t", "S1", "X1", "S2", "X2"]
    assert len(payload["times"]) == len(payload["states"])


def test_audit_artifact(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(AUDIT)
    assert run_cli("audit", "--config", str(ini),
                   "--out", str(tmp_path)).returncode == 0
    payload = validate(tmp_path / "audit.json", "audit")
    assert payload["kind"] == "parallel"
    assert payload["any_flagged"] is True
    assert len(payload["flags"]) == 2


def test_error_object_on_module_error(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(MONOD_BUFFERED)
    result = run_cli("design", "--config", str(ini),
                     "--out", str(tmp_path))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, schema("error"))
    assert "upper" in payload["error"]["message"]


def test_error_object_on_bad_config(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[growth]\ntype = haldane\nmu_bar = 12\nK = 1\nK_I = 0\n"
                   "\n[operating]\nS_in = 1.4\nD = 1\n")
    result = run_cli("kinetics", "--config", str(ini),
                     "--out", str(tmp_path))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["error"]["type"] == "ConfigError"


def test_equilibria_needs_buffered_section(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(AUDIT)
    result = run_cli("equilibria", "--config", str(ini),
                     "--out", str(tmp_path))
    assert result.returncode == 1
    assert json.loads(result.stdout)["error"] == {
        "type": "ConfigError",
        "message": "buffered command needs a [buffered] section with "
                   "alpha, r or Q1, Q2, V1, V2"}
    assert not (tmp_path / "equilibria.json").exists()


def test_nan_feed_rejected_at_parse(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(REFERENCE_INI.replace("S_in = 1.4", "S_in = nan"))
    result = run_cli("equilibria", "--config", str(ini),
                     "--out", str(tmp_path))
    assert result.returncode == 1
    error = json.loads(result.stdout)["error"]
    assert error["type"] == "ConfigError"
    assert "[operating] S_in" in error["message"]
    assert not (tmp_path / "equilibria.json").exists()


def test_format_rejected_outside_simulate(reference_ini, tmp_path):
    result = run_cli("kinetics", "--config", str(reference_ini),
                     "--out", str(tmp_path), "--format", "json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["error"]["type"] == "ValueError"


def test_unknown_command_exits_nonzero(reference_ini):
    result = run_cli("frobnicate", "--config", str(reference_ini))
    assert result.returncode == 2


def test_json_artifacts_are_byte_stable(reference_ini, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("equilibria", "--config", str(reference_ini),
                       "--out", str(out)).returncode == 0
    assert ((out1 / "equilibria.json").read_bytes()
            == (out2 / "equilibria.json").read_bytes())


# sha256 of each artifact of the reference and audit runs
RECORDED_DIGESTS = {
    "kinetics.json":
        "439582ea51182def0c36fce760ff16cb8fc6e33c8b292ecd1845ecc74cd406b3",
    "classify.json":
        "7a227d989f48190c8df9ee2c87a1117553c7b9afc29b722c2459cbb293280d85",
    "equilibria.json":
        "373d8d9bfb28fc2fae9aab73cfd6085daac775ad40e263d1c450bf23197ab82a",
    "domain.csv":
        "fdd04c34d75f73df1241534f1852be015673bbf69f41c34928776414b20dbd8f",
    "domain.json":
        "60a31e649619accdb331ea1e66659364de8928c1c4f77c829b707091312e491d",
    "design.json":
        "d8ebf02f0fe575aa10651ac46c07c386ef2dcdfea3e492beafed7a259cda2a29",
    "design_comparison.csv":
        "4e8d48cd553733f455fd78dbc31a58eb3446c2090586e10a7a432e9618b16b61",
    "trajectory.csv":
        "6f616ec4264cc5825d7cd59168dc720cc3215916e3398ca2ae9e6d4f4fa85105",
    "audit.json":
        "6e8ba7ded1b979e74432281bbd86d1e96905aacc8c22916f96fb8215c5ef7c4b",
}


def test_artifacts_match_recorded_digests(reference_ini, tmp_path):
    """Every artifact of the two runs keeps its recorded bytes.

    The digests assume IEEE doubles and the libm of the host they were
    recorded on (x86-64 Linux, glibc 2.36); exp, log and pow may round
    differently elsewhere.  A deliberate change of output updates them,
    with a CHANGES.md line naming the change.
    """
    audit_ini = tmp_path / "audit.ini"
    audit_ini.write_text(AUDIT)
    runs = [(cmd, reference_ini) for cmd in
            ("kinetics", "classify", "equilibria", "domain", "design",
             "simulate")] + [("audit", audit_ini)]
    for cmd, ini in runs:
        result = run_cli(cmd, "--config", str(ini), "--out", str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in RECORDED_DIGESTS}
    assert digests == RECORDED_DIGESTS

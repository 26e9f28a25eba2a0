"""End-to-end command-line runs: artifacts, schemas, determinism."""
import ast
import hashlib
import json
import re
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from bufchem import cli
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
    # the package has no third-party dependency to load, and the value
    # records need neither dataclasses nor what it pulls in.
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


def basin_rows(out) -> list[list[str]]:
    lines = (out / "basin.csv").read_text().splitlines()
    assert lines[0] == "S0,X0,basin"
    return [line.split(",") for line in lines[1:]]


def test_basin_single_vessel_map(tmp_path):
    # no [buffered]: the bistable single vessel's two attractors split the
    # 20x20 grid over (0, S_in)^2
    ini = tmp_path / "run.ini"
    ini.write_text(AUDIT)
    result = run_cli("basin", "--config", str(ini), "--out", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    payload = validate(tmp_path / "basin.json", "basin")
    assert [a["name"] for a in payload["attractors"]] == ["survival",
                                                          "washout"]
    assert payload["counts"] == {"survival": 228, "washout": 172,
                                 "unresolved": 0}
    rows = basin_rows(tmp_path)
    assert len(rows) == 400
    assert {float(s) for s, _, _ in rows} == {
        1.4 * (i + 0.5) / 20 for i in range(20)}


@pytest.mark.parametrize("r, names", [
    ("0.48", {"positive_0"}),
    ("0.65", {"positive_0", "positive_1"}),
])
def test_basin_buffered_map(tmp_path, r, names):
    # below r_bar (0.5378 at alpha 0.35) one attractor takes every start:
    # the global stability the buffer buys; above it two share the grid
    ini = tmp_path / "run.ini"
    ini.write_text(REFERENCE_INI.replace("r = 0.48", f"r = {r}"))
    result = run_cli("basin", "--config", str(ini), "--out", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    payload = validate(tmp_path / "basin.json", "basin")
    assert [a["name"] for a in payload["attractors"]] == sorted(names)
    assert all(len(a["state"]) == 4 for a in payload["attractors"])
    assert payload["counts"]["unresolved"] == 0
    assert {b for _, _, b in basin_rows(tmp_path)} == names


def _in_substrate_unit(c: float, r: str, tau: float = 1.0) -> str:
    """The README config at split r, every concentration times c and
    every rate over tau (every time times tau)."""
    text = REFERENCE_INI.replace("r = 0.48", f"r = {r}")
    for name, value, scale in (("K", "1", c), ("K_I", "0.08", c),
                               ("S_in", "1.4", c),
                               ("state", "1.4 0.1 1.4 0.01", c),
                               ("mu_bar", "12", 1.0 / tau),
                               ("D", "1", 1.0 / tau)):
        scaled = " ".join(repr(float(v) * scale) for v in value.split())
        text = text.replace(f"\n{name} = {value}\n",
                            f"\n{name} = {scaled}\n")
    return text


@pytest.mark.parametrize("r", ["0.48", "0.65"])
def test_readme_config_in_a_smaller_substrate_unit(tmp_path, r):
    # the same chemostat with concentrations in a unit 100x or 1e4x
    # smaller: the same rest points times c, the same eigenvalues and the
    # same basin of every start; in a unit 1e6x or 1e8x smaller, the same
    # basin of every start, and in one 1e10x smaller the same
    # single-vessel portrait
    runs, maps, portraits = {}, {}, {}
    for c in (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        out = tmp_path / repr(c)
        out.mkdir()
        (out / "run.ini").write_text(_in_substrate_unit(c, r))
        commands = {1.0: ("equilibria", "basin", "classify"),
                    1e-6: ("basin",), 1e-8: ("basin",),
                    1e-10: ("classify",)}.get(c, ("equilibria", "basin"))
        for command in commands:
            result = run_cli(command, "--config", str(out / "run.ini"),
                             "--out", str(out))
            assert result.returncode == 0, result.stdout + result.stderr
        if "basin" in commands:
            maps[c] = (validate(out / "basin.json", "basin"),
                       [b for _, _, b in basin_rows(out)])
        if "equilibria" in commands:
            runs[c] = validate(out / "equilibria.json", "equilibria")
        if "classify" in commands:
            portraits[c] = validate(out / "classify.json", "classify")
    base = runs.pop(1.0)
    base_basin, base_labels = maps.pop(1.0)
    tol = 1e-10 * 1.4
    for c, payload in runs.items():
        assert payload["S_in"] == pytest.approx(1.4 * c)
        assert payload["positive_count"] == base["positive_count"]
        assert abs(payload["pivot"] - c * base["pivot"]) <= tol * c
        for e, f in zip(base["equilibria"], payload["equilibria"],
                        strict=True):
            assert (f["branch"], f["tag"]) == (e["branch"], e["tag"])
            assert f["eigenvalues"] == pytest.approx(e["eigenvalues"],
                                                     rel=1e-10, abs=0.0)
            for key in ("s1", "x1", "s2", "x2"):
                assert abs(f[key] - c * e[key]) <= tol * c, (c, key)
    for c, (basin, labels) in maps.items():
        assert basin["S_in"] == pytest.approx(1.4 * c)
        assert basin["counts"] == base_basin["counts"], c
        assert labels == base_labels, c
    base_portrait = portraits.pop(1.0)
    for c, portrait in portraits.items():
        assert portrait["case"] == base_portrait["case"]
        for e, f in zip(base_portrait["equilibria"], portrait["equilibria"],
                        strict=True):
            assert f["tag"] == e["tag"]
            for key in ("S", "X"):
                assert abs(f[key] - c * e[key]) <= tol * c, (c, key)


def test_design_in_other_substrate_and_time_units(tmp_path):
    # the README design with concentrations times c, or every time times
    # tau: the feeds, levels and surplus scale by c (the surplus by c /
    # tau), the two volume ratios stay, and the buffer's dilution rate
    # scales by 1 / tau
    def run(c: float, tau: float) -> tuple[dict, list[list[float]]]:
        out = tmp_path / f"{c!r}-{tau!r}"
        out.mkdir()
        (out / "run.ini").write_text(_in_substrate_unit(c, "0.48", tau))
        result = run_cli("design", "--config", str(out / "run.ini"),
                         "--out", str(out))
        assert result.returncode == 0, result.stdout + result.stderr
        lines = (out / "design_comparison.csv").read_text().splitlines()
        return (validate(out / "design.json", "design"),
                [list(map(float, line.split(","))) for line in lines[1:]])

    def close(value: float, want: float) -> bool:
        return abs(value - want) <= 1e-10 * abs(want)

    base, base_rows = run(1.0, 1.0)
    assert base_rows[-1][0] == 3.0
    for c, tau in ((1e-2, 1.0), (1e-6, 1.0), (1.0, 1e-5), (1.0, 1e3)):
        payload, rows = run(c, tau)
        scales = {"S_in": c, "D": 1.0 / tau, "delta_v_inf": 1.0,
                  "v2_inf": 1.0, "d2_star": 1.0 / tau, "s_bar": c,
                  "surplus_max": c / tau}
        for key, scale in scales.items():
            assert close(payload[key], scale * base[key]), (c, tau, key)
        assert len(rows) == len(base_rows) == 30
        for row, base_row in zip(rows, base_rows):
            for value, want, scale in zip(row, base_row,
                                          (c, 1.0, 1.0, 1.0 / tau)):
                assert close(value, scale * want), (c, tau, row)


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
        "5b9f8b59ab1ba7e4364e442550a0104ff73a96cced5ad24a955ea22d1925a155",
    "classify.json":
        "e4c7d000fbb2e1394d8a46748d12a40e2e387e7c9f971773342eec50d3cd554e",
    "equilibria.json":
        "bcc5318967e7588342529f5e1ab2ad96f6e77469a2da9b0af96631b275199f71",
    "domain.csv":
        "72de12af14057aebd741fc5f79cb87716ff6add9a6f90b0549cf1a661c1513f1",
    "domain.json":
        "d5eb4e594ced8cfa37f6d11462292095f21b41257d86dcb08e6109d55f38af3b",
    "design.json":
        "7fee5178c0c1b829b392dd7537d0b91e6b4a49879cc4e601284ef98d9b11eb9d",
    "design_comparison.csv":
        "aa2eeb15fd7f3885107fb278cdaf1b90d4ebccccd225f7b0ee366bef107309d8",
    "trajectory.csv":
        "6f616ec4264cc5825d7cd59168dc720cc3215916e3398ca2ae9e6d4f4fa85105",
    "audit.json":
        "6e8ba7ded1b979e74432281bbd86d1e96905aacc8c22916f96fb8215c5ef7c4b",
    # the single-vessel map's CSV keeps the bytes of the basin-map script
    # it replaces
    "basin.csv":
        "28bfd2b293c76b7b6373b40e9631d55ac1771c74d706e78918797979f0c0e8f0",
    "basin.json":
        "9d8a84cfba7518deeefa9db9d22630d972c7574c3ed8bf2910f8a56fe64591d1",
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
             "simulate")] + [("audit", audit_ini), ("basin", audit_ini)]
    for cmd, ini in runs:
        result = run_cli(cmd, "--config", str(ini), "--out", str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in RECORDED_DIGESTS}
    assert digests == RECORDED_DIGESTS


def test_docs_and_schemas_cover_every_command():
    # the README's CLI table lists exactly the commands, in usage order,
    # and every JSON artifact a command writes ships a schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `(\w+)`", readme, re.MULTILINE)
    assert table == list(cli._DISPATCH)
    written = set(re.findall(r'"(\w+)\.json"',
                             Path(cli.__file__).read_text()))
    assert written >= {"kinetics", "trajectory", "basin"}
    shipped = {path.name for path in
               (resources.files("bufchem") / "schemas").iterdir()}
    assert {f"{name}.schema.json" for name in written} <= shipped

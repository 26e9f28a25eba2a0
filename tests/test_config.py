"""Strict INI parsing into validated run configurations."""
import textwrap

import pytest

from bufchem import ConfigError, Haldane, Monod, parse_config
from bufchem.single import Parallel, Serial
from conftest import run_python

BASE_INI = """
[growth]
type = haldane
mu_bar = 12
K = 1
K_I = 0.08

[operating]
S_in = 1.4
D = 1
"""


def write(tmp_path, body: str):
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent(body))
    return str(path)


def test_base_config_parses(tmp_path):
    cfg = parse_config(write(tmp_path, BASE_INI))
    assert isinstance(cfg.model, Haldane)
    assert cfg.model.mu_bar == 12.0
    assert cfg.model.K == 1.0
    assert cfg.model.K_I == 0.08
    assert cfg.S_in == 1.4
    assert cfg.D == 1.0
    assert cfg.buffered is None


def test_buffered_section(tmp_path):
    cfg = parse_config(write(tmp_path, BASE_INI + """
[buffered]
alpha = 0.35
r = 0.48
"""))
    bc = cfg.buffered
    assert bc.alpha == 0.35
    assert bc.r == 0.48


def test_physical_quadruple(tmp_path):
    cfg = parse_config(write(tmp_path, """
[growth]
type = monod
mu_max = 2
K_s = 1

[operating]
S_in = 2
Q = 1
V = 1

[buffered]
Q1 = 0.8
Q2 = 0.2
V1 = 0.9
V2 = 0.1
"""))
    bc = cfg.buffered
    assert bc.D == pytest.approx(1.0)
    assert bc.r == pytest.approx(0.9)
    assert bc.alpha == pytest.approx(2.0)


def test_mutual_exclusion_named(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config(write(tmp_path, BASE_INI + """
[buffered]
alpha = 0.3
r = 0.5
Q1 = 0.8
Q2 = 0.2
V1 = 0.9
V2 = 0.1
"""))
    message = str(info.value)
    assert "alpha" in message and "Q1" in message


def test_nonpositive_inhibition_rejected(tmp_path):
    with pytest.raises(ConfigError, match="strictly positive"):
        parse_config(write(tmp_path, """
[growth]
type = haldane
mu_bar = 12
K = 1
K_I = 0

[operating]
S_in = 1.4
D = 1
"""))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="K_i"):
        parse_config(write(tmp_path, """
[growth]
type = haldane
mu_bar = 12
K = 1
K_i = 0.08

[operating]
S_in = 1.4
D = 1
"""))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="plotting"):
        parse_config(write(tmp_path, BASE_INI + "\n[plotting]\ndpi = 300\n"))


def test_wrong_growth_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="K_s"):
        parse_config(write(tmp_path, """
[growth]
type = haldane
mu_bar = 12
K = 1
K_I = 0.08
K_s = 1

[operating]
S_in = 1.4
D = 1
"""))


def test_operating_requires_exactly_one_form(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, """
[growth]
type = monod
mu_max = 2
K_s = 1

[operating]
S_in = 2
D = 1
Q = 1
V = 1
"""))
    cfg = parse_config(write(tmp_path, """
[growth]
type = monod
mu_max = 2
K_s = 1

[operating]
S_in = 2
Q = 0.5
V = 0.25
"""))
    assert cfg.D == pytest.approx(2.0)


def test_yield_factor_rejected_as_unknown(tmp_path):
    with pytest.raises(ConfigError,
                       match=r"\[growth\] unknown key 'yield_factor'"):
        parse_config(write(tmp_path, """
[growth]
type = monod
mu_max = 2
K_s = 1
yield_factor = 0.5

[operating]
S_in = 2
D = 1

[initial]
state = 1.0 0.4
"""))


def test_initial_state_validation(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, BASE_INI + "\n[initial]\nstate = 1 2 3\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, BASE_INI + "\n[initial]\nstate = 1 -2\n"))


def test_sweep_section(tmp_path):
    cfg = parse_config(write(tmp_path, BASE_INI + """
[sweep]
alpha_min = 0.1
alpha_max = 0.5
points = 9
"""))
    assert cfg.sweep == (0.1, 0.5, 9)
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, BASE_INI + """
[sweep]
alpha_min = 0.5
alpha_max = 0.1
points = 9
"""))


def test_sweep_beyond_feasibility_bound_rejected(tmp_path):
    # mu(S_in)/D = 0.6245... for the base law: alpha_max = 100 starves
    # the buffer over most of the sweep
    with pytest.raises(ConfigError,
                       match=r"\[sweep\] alpha_max .* mu\(S_in\)/D = 0\.62"):
        parse_config(write(tmp_path, BASE_INI + """
[sweep]
alpha_min = 0.1
alpha_max = 100
points = 5
"""))


def test_audit_sections(tmp_path):
    cfg = parse_config(write(tmp_path, BASE_INI + """
[audit]
kind = serial
volume_fractions = 0.5 0.3 0.2
"""))
    assert isinstance(cfg.audit_topology, Serial)
    cfg = parse_config(write(tmp_path, BASE_INI + """
[audit]
kind = parallel
volume_fractions = 0.5 0.5
flow_fractions = 0.6 0.4
"""))
    assert isinstance(cfg.audit_topology, Parallel)
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, BASE_INI + """
[audit]
kind = serial
volume_fractions = 0.5 0.5
flow_fractions = 0.6 0.4
"""))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, BASE_INI + """
[audit]
kind = parallel
volume_fractions = 0.5 0.5
"""))


def test_run_section_rejected(tmp_path):
    # nothing in a run is random, so there is no [run] seed to set
    with pytest.raises(ConfigError, match=r"unknown section \[run\]"):
        parse_config(write(tmp_path, BASE_INI + "\n[run]\nseed = 42\n"))


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/run.ini")


def test_monod_model_built(tmp_path):
    cfg = parse_config(write(tmp_path, """
[growth]
type = monod
mu_max = 2
K_s = 0.7

[operating]
S_in = 2
D = 1
"""))
    assert isinstance(cfg.model, Monod)
    assert cfg.model.K_s == 0.7


def test_physical_quadruple_must_give_operating_dilution(tmp_path):
    # every system of one run works at the [operating] dilution rate
    with pytest.raises(ConfigError) as info:
        parse_config(write(tmp_path, BASE_INI.replace("D = 1", "D = 2") + """
[buffered]
Q1 = 0.6
Q2 = 0.4
V1 = 0.6
V2 = 0.4
"""))
    message = str(info.value)
    assert "= 1.0" in message and "[operating] D = 2.0" in message
    # within the tolerance, the [operating] D itself: (0.1 + 0.2) / 0.3
    # rounds to 1.0000000000000002
    cfg = parse_config(write(tmp_path, BASE_INI + """
[buffered]
Q1 = 0.1
Q2 = 0.2
V1 = 0.15
V2 = 0.15
"""))
    assert cfg.buffered.D == cfg.D == 1.0


def test_first_missing_growth_key_ignores_hash_seed(tmp_path):
    # the parameters are read in constructor order under every hash seed
    path = write(tmp_path, BASE_INI.replace("K = 1\nK_I = 0.08\n", ""))
    code = ("import sys\nfrom bufchem import ConfigError, parse_config\n"
            "try: parse_config(sys.argv[1])\n"
            "except ConfigError as exc: print(exc)")
    for seed in range(8):
        out = run_python("-c", code, path, env={"PYTHONHASHSEED": str(seed)})
        assert out.stdout.strip() == "[growth] missing required key 'K'", (
            seed, out.stderr)


def test_audit_fraction_sum_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config(write(tmp_path, BASE_INI + """
[audit]
kind = serial
volume_fractions = 0.5 0.6
"""))

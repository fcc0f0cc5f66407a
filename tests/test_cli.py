import numpy as np
import pytest

from dkf_admm.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

SMOKE_INI = (
    "[graph]\ntopology = ring\nn_nodes = 6\n"
    "[params]\nl_sub = 5\n"
    "[run]\nhorizon_steps = 5\nn_mc_runs = 1\n"
)


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_writes_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE_INI)
    out = tmp_path / "results"
    assert main(["run", cfg, "--output", str(out)]) == EXIT_OK
    for name in (
        "rmse_position.csv", "rmse_velocity.csv", "covariance_error.csv",
        "consensus_error.csv", "communication.csv",
    ):
        assert (out / name).exists()
    assert "results" in capsys.readouterr().out


def test_run_seed_override_changes_results(tmp_path):
    cfg = _write(tmp_path, SMOKE_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--output", str(out_a), "--seed", "1", "--quiet"]) == EXIT_OK
    assert main(["run", cfg, "--output", str(out_b), "--seed", "2", "--quiet"]) == EXIT_OK
    ra = (out_a / "rmse_position.csv").read_text()
    rb = (out_b / "rmse_position.csv").read_text()
    assert ra != rb


def test_validate_prints_report(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE_INI)
    assert main(["validate", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda_max" in out and "PASS" in out


def test_spectrum_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE_INI)
    assert main(["spectrum", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eigenvalues:" in out
    # ring of 6: lambda_max = 4
    assert "lambda_max = 4" in out


def test_dare_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE_INI)
    assert main(["dare", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("P* =")
    rows = [list(map(float, line.split())) for line in out.splitlines()[1:5]]
    p = np.array(rows)
    assert p.shape == (4, 4)
    np.linalg.cholesky(p)  # positive definite


def test_bad_config_exits_2(tmp_path, capsys):
    # an unknown key, then out-of-range values and unknown names that would
    # otherwise escape later as a numpy or ValueError traceback
    cases = (
        "[run]\nhorizon = 5\n",
        "[model]\ndt = 0\n",
        "[model]\nr_var = -1\n",
        "[model]\nq_intensity = -1\n",
        "[model]\nsensor_assignment = rand\n",
        "[graph]\nn_nodes = 1\n",
        "[graph]\nradius = 0\n",
        "[graph]\ntopology = rign\n",
        "[graph]\ntopology = explicit\n",
    )
    for k, text in enumerate(cases):
        cfg = _write(tmp_path, text, name=f"bad{k}.ini")
        for command in ("run", "validate"):
            code = main([command, cfg, "--quiet", "--output", str(tmp_path / "o")])
            assert code == EXIT_CONFIG, (command, text)
            assert "config rejected" in capsys.readouterr().err, (command, text)


def test_unstable_params_exit_2(tmp_path):
    cfg = _write(tmp_path, SMOKE_INI + "alpha_nu = 5.0\n")
    assert main(["run", cfg, "--quiet", "--output", str(tmp_path / "o")]) == EXIT_CONFIG


def test_divergent_override_exits_3(tmp_path, capsys):
    # deliberately unstable covariance step, guard overridden: the posterior
    # information matrix eventually fails to be positive definite
    text = (
        "[graph]\ntopology = ring\nn_nodes = 6\n"
        "[params]\nalpha_nu = 50.0\nl_sub = 1\n"
        "[run]\nhorizon_steps = 250\nn_mc_runs = 1\n"
        "override_stability_guard = true\n"
    )
    cfg = _write(tmp_path, text)
    with np.errstate(over="ignore", invalid="ignore"), pytest.warns(
        RuntimeWarning, match="theta floored"
    ):
        code = main(["run", cfg, "--quiet", "--output", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_disconnected_edge_list_exits_2(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n2 3\n")
    text = (
        "[graph]\ntopology = explicit\nn_nodes = 4\n"
        f"edge_list_path = {edges}\n"
        "[run]\nhorizon_steps = 2\nn_mc_runs = 1\n"
    )
    cfg = _write(tmp_path, text)
    assert main(["run", cfg, "--quiet"]) == EXIT_CONFIG

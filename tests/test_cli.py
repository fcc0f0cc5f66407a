import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import covariance_mode_matrix, dense_laplacian, state_mode_matrix

import dkf_admm
from dkf_admm import cli, exceptions, harness
from dkf_admm.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from dkf_admm.filtering import DkfParams
from dkf_admm.graphs import build_graph, spectral_summary
from dkf_admm.harness import build_scenario

SMOKE_INI = (
    "[graph]\ntopology = ring\nn_nodes = 6\n"
    "[params]\nl_sub = 5\n"
    "[run]\nhorizon_steps = 5\nn_mc_runs = 1\n"
)


def _write(tmp_path, text, name="scenario.ini"):
    """Write `text` (str as UTF-8, or raw bytes) and return the path."""
    p = tmp_path / name
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
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
    # one line per loop: its bound and worst radius (ring of 6: at
    # lambda_max = 4 for both), and no per-eigenvalue table after them
    assert out.splitlines()[-2:] == [
        "alpha_nu = 0.15  (bound 2/(3*lambda_max) = 0.166667)  worst radius = 0.881025  PASS",
        "alpha_lambda+2*mu = 0.45  (bound 2/lambda_max = 0.5)  worst radius = 0.804849  PASS",
    ]
    assert "per-mode" not in out and len(out.splitlines()) == 5


def test_spectrum_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE_INI)
    assert main(["spectrum", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eigenvalues:" in out
    # ring of 6: six edges, lambda_max = 4
    assert "edges=6" in out
    assert "lambda_max = 4" in out


def _no_convergence(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("eigvalsh, message", [
    (_no_convergence, "Eigenvalues did not converge"),
    (lambda a: np.linspace(-1e-9, 4.0, len(a)), "negative Laplacian eigenvalue -1e-09"),
], ids=["raises", "negative"])
def test_spectral_failure_exits_3(tmp_path, capsys, monkeypatch, eigvalsh, message):
    # numpy documents that eigvalsh raises LinAlgError when it does not
    # converge; that and an eigenvalue below -1e-10 are both SpectralFailure.
    # No real Laplacian here meets either, so a stand-in eigvalsh makes each
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(exceptions.SpectralFailure, match=message):
        spectral_summary(build_graph("ring", 6))
    assert main(["spectrum", _write(tmp_path, SMOKE_INI)]) == EXIT_NUMERICAL
    assert f"numerical failure: {message}" in capsys.readouterr().err


LARGE_INI = (
    "[graph]\ntopology = random_geometric\nn_nodes = 450\nradius = 0.12\n"
    "[params]\nl_sub = 5\n"
    "[run]\nhorizon_steps = 5\nn_mc_runs = 1\n"
)


def test_large_graph_spectrum_and_validate(tmp_path, capsys):
    # from DENSE_PRODUCT_NODES nodes on the step sizes use a certified bound
    # on lambda_max; both commands print the exact spectrum, computed on demand
    cfg = _write(tmp_path, LARGE_INI)
    graph, _, _, params = build_scenario(harness.load_config(cfg))
    exact = np.linalg.eigvalsh(dense_laplacian(graph))
    assert main(["spectrum", cfg]) == EXIT_OK
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                   if " = " in line)
    assert float(printed["lambda_2"]) == pytest.approx(exact[1], rel=1e-9)
    assert float(printed["lambda_max"]) == pytest.approx(exact[-1], rel=1e-9)
    assert exact[-1] <= float(printed["step-size lambda_max"]) <= exact[-1] * (1 + 1e-9)

    assert main(["validate", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"lambda_2      = {exact[1]:.6g}"
    assert float(lines[2].split(" = ")[1]) >= float(f"{exact[-1]:.6g}")
    for line, mode in zip(lines[3:], (
        lambda lam: covariance_mode_matrix(params.alpha_nu, lam),
        lambda lam: state_mode_matrix(params.alpha_lambda, params.mu, lam),
    )):
        worst = max(max(abs(np.linalg.eigvals(mode(lam)))) for lam in exact[1:])
        assert f"worst radius = {worst:.6g}  PASS" in line


def test_dare_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE_INI)
    assert main(["dare", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("P* =")
    rows = [list(map(float, line.split())) for line in out.splitlines()[1:5]]
    p = np.array(rows)
    assert p.shape == (4, 4)
    np.linalg.cholesky(p)  # positive definite


def _random_sensors_ini(assignment_seed):
    return SMOKE_INI + (
        f"[model]\nsensor_assignment = per_step_random\nassignment_seed = {assignment_seed}\n"
    )


def test_per_step_random_runs_without_an_observable_first_draw(tmp_path):
    # assignment seed 4 draws x2 at every node at construction, which no
    # filter step uses; the steps draw from both coordinates
    cfg = _write(tmp_path, _random_sensors_ini(4))
    assert main(["run", cfg, "--quiet", "--output", str(tmp_path / "o")]) == EXIT_OK


def test_dare_rejects_per_step_random(tmp_path, capsys):
    # redrawn sensors have no steady state, whichever draw comes first, and
    # that is the reason given when q_intensity = 0 would be one too
    for seed, extra in ((0, ""), (4, ""), (0, "q_intensity = 0\n")):
        cfg = _write(tmp_path, _random_sensors_ini(seed) + extra, name=f"s{seed}.ini")
        assert main(["dare", cfg]) == EXIT_CONFIG, (seed, extra)
        captured = capsys.readouterr()
        assert "no steady-state" in captured.err and captured.out == "", (seed, extra)
        assert "per_step_random sensors" in captured.err, (seed, extra)


def test_flags_that_act_on_nothing_are_rejected(tmp_path, capsys):
    # only run reads --output, --seed and --runs; validate and dare print
    # nothing but their report, so --quiet is not theirs either
    cfg = _write(tmp_path, SMOKE_INI)
    for args in (["validate", cfg, "--runs", "3"], ["dare", cfg, "--seed", "3"],
                 ["dare", cfg, "--quiet"], ["spectrum", cfg, "--output", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_CONFIG, args
        assert "unrecognized arguments" in capsys.readouterr().err, args
    assert main(["spectrum", cfg, "--quiet"]) == EXIT_OK
    assert "edges=" not in capsys.readouterr().out


def test_static_zero_process_noise_exits_2(tmp_path, capsys):
    # Q = 0 gives P* = 0, against which no covariance error is defined;
    # redrawn sensors measure against the time-varying recursion and run
    text = SMOKE_INI + "[model]\nq_intensity = 0\n"
    cfg = _write(tmp_path, text)
    for args in (["run", cfg, "--quiet", "--output", str(tmp_path / "o")], ["dare", cfg]):
        assert main(args) == EXIT_CONFIG, args[0]
        assert "q_intensity = 0" in capsys.readouterr().err, args[0]
    cfg = _write(tmp_path, text + "sensor_assignment = per_step_random\n", name="random.ini")
    assert main(["run", cfg, "--quiet", "--output", str(tmp_path / "o")]) == EXIT_OK


def test_overflowing_sensor_information_exits_3(tmp_path, capsys):
    # r_var = 5e-324 is positive and finite, but R^-1 H overflows; this used
    # to end in a LinAlgError traceback (exit 1). At 1e-308 R^-1 H is finite,
    # but the covariance-consensus target N H' R^-1 H of the 6 nodes is not:
    # the information rate overflowed (a RuntimeWarning) and dare_solve's
    # observability test raised "SVD did not converge" (exit 1).
    out = tmp_path / "o"
    for r_var in ("5e-324", "1e-308"):
        cfg = _write(tmp_path, SMOKE_INI + f"[model]\nr_var = {r_var}\n")
        for args in (["run", cfg, "--quiet", "--output", str(out)], ["dare", cfg]):
            assert main(args) == EXIT_NUMERICAL, (r_var, args[0])
            assert "node 0 is not finite" in capsys.readouterr().err, (r_var, args[0])
    assert not out.exists()


def test_precise_redrawn_sensors_exit_3_or_write_finite_csvs(tmp_path, capsys):
    # per-step-random sensors, Q = 0, 30 steps: both rows exited 0 with NaN
    # CSVs. At r_var = 1e-306 P^-1 x overflows at t=27 and the estimates
    # went NaN; at 1e-300 the reference covariance's Frobenius norm
    # underflowed to 0 (entries near 1e-178) and cov_error was 0/0.
    text = ("[graph]\ntopology = ring\nn_nodes = 6\n[run]\nhorizon_steps = 30\nn_mc_runs = 1\n"
            "[model]\nsensor_assignment = per_step_random\nq_intensity = 0\n")
    out = tmp_path / "o"
    cfg = _write(tmp_path, text + "r_var = 1e-306\n")
    assert main(["run", cfg, "--quiet", "--output", str(out)]) == EXIT_NUMERICAL
    assert "K b is not finite at t=27" in capsys.readouterr().err
    assert not out.exists()
    cfg = _write(tmp_path, text + "r_var = 1e-300\n")
    assert main(["run", cfg, "--quiet", "--output", str(out)]) == EXIT_OK
    for name in ("rmse_position.csv", "rmse_velocity.csv", "covariance_error.csv",
                 "consensus_error.csv"):
        values = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert np.isfinite(values).all(), name


PRECISE_REDRAWN_INI = (
    "[graph]\ntopology = ring\nn_nodes = 6\n[run]\nhorizon_steps = 30\nn_mc_runs = 1\n"
    "[model]\nsensor_assignment = per_step_random\nr_var = 1e-307\n"
)


@pytest.mark.parametrize("n_nodes, r_var, q_intensity, message", [
    # the covariance rounds overflow; on the 6- and 10-node rings at 1e-307
    # they stay finite and the run exits 0
    (60, "5e-307", 1, r"posterior information P\^-1 \+ Theta is not finite \(node 0, t=2\)"),
    # the reference's information matrix overflowed in sym (a RuntimeWarning)
    (6, "1e-307", 0, "posterior information matrix not finite at t=22"),
    # on the 3-ring the reference's prior fails first: its inverse, at t=3
    (3, "1e-300", 0, "^numerical failure: a prior covariance became singular at t=3$"),
], ids=["covariance_rounds", "reference", "reference_prior"])
def test_overflowing_redrawn_information_exits_3(tmp_path, capsys, n_nodes, r_var, q_intensity,
                                                 message):
    text = PRECISE_REDRAWN_INI.replace("n_nodes = 6", f"n_nodes = {n_nodes}")
    cfg = _write(tmp_path, text.replace("1e-307", r_var) + f"q_intensity = {q_intensity}\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--quiet", "--output", str(out)]) == EXIT_NUMERICAL
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_precise_redrawn_ten_node_ring_writes_finite_csvs(tmp_path):
    # r_var = 1e-307: the covariance loop, one product of its all-rounds
    # operator, stays finite (as on the 6-node ring)
    text = PRECISE_REDRAWN_INI.replace("n_nodes = 6", "n_nodes = 10")
    cfg = _write(tmp_path, text + "q_intensity = 1\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--quiet", "--output", str(out)]) == EXIT_OK
    paths = sorted(out.glob("*.csv"))
    assert len(paths) == 5
    for path in paths:  # all but communication.csv's phase column
        numeric = range(4) if path.name == "communication.csv" else None
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric)
        assert np.isfinite(values).all(), path.name


@pytest.mark.parametrize("r_var", ["1e-300", "1e-303", "1e-305", "1e-306", "1e-307", "1e-308",
                                   "5e-309"])
@pytest.mark.parametrize("q_intensity", [0, 1])
@pytest.mark.parametrize("assignment", ["static_split", "per_step_random"])
def test_precision_sweep_exits_cleanly(tmp_path, assignment, q_intensity, r_var):
    # R_i down to the subnormal range: every cell exits 0 with finite CSVs,
    # or 2 or 3 with none, and raises no RuntimeWarning (pytest makes it an error)
    text = PRECISE_REDRAWN_INI.replace("per_step_random", assignment).replace("1e-307", r_var)
    cfg = _write(tmp_path, text + f"q_intensity = {q_intensity}\n")
    out = tmp_path / "o"
    code = main(["run", cfg, "--quiet", "--output", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if code != EXIT_OK:
        assert not out.exists()
        return
    for path in out.glob("*.csv"):  # all but communication.csv's phase column
        numeric = range(4) if path.name == "communication.csv" else None
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric)
        assert np.isfinite(values).all(), path.name


def _library_errors():
    excluded = (exceptions.ConfigError, exceptions.NumericalError, exceptions.WireSchemaViolation)
    return [c for c in vars(exceptions).values()
            if isinstance(c, type) and issubclass(c, Exception) and c not in excluded]


@pytest.mark.parametrize("error", _library_errors(), ids=lambda c: c.__name__)
def test_every_library_error_exits_with_its_family_code(tmp_path, monkeypatch, capsys, error):
    # the family sets the exit code; DimensionError was in neither CLI list
    codes = {exceptions.ConfigError: EXIT_CONFIG, exceptions.NumericalError: EXIT_NUMERICAL}
    (family,) = [f for f in codes if issubclass(error, f)]
    assert issubclass(error, (ValueError, RuntimeError))  # the builtin base stays

    def fail(config):
        raise error("raised in the run")

    monkeypatch.setattr(cli, "run_scenario", fail)
    cfg = _write(tmp_path, SMOKE_INI)
    assert main(["run", cfg, "--quiet", "--output", str(tmp_path / "o")]) == codes[family]
    prefix = "config rejected" if family is exceptions.ConfigError else "numerical failure"
    assert capsys.readouterr().err == f"{prefix}: raised in the run\n"


def test_overflowing_dt_exits_3(tmp_path, capsys):
    # dt**3 in Q used to overflow as a Python OverflowError traceback (exit 1)
    cfg = _write(tmp_path, SMOKE_INI + "[model]\ndt = 1e300\n")
    out = tmp_path / "o"
    for args in (["run", cfg, "--quiet", "--output", str(out)], ["validate", cfg]):
        assert main(args) == EXIT_NUMERICAL, args[0]
        assert "Q must be positive definite" in capsys.readouterr().err, args[0]
    assert not out.exists()


def test_overflowing_q_exits_3_in_the_riccati_reference(tmp_path, capsys):
    # q_intensity = 1e308 on the default 10-node ring: the norms of the
    # steady-state reference's Riccati iteration overflow before the filter
    # runs (the filter itself stops at t=1, see test_filter.py); this used to
    # exit 0 with NaN CSVs. No RuntimeWarning escapes (pytest makes it an error).
    text = "[model]\nq_intensity = 1e308\n[run]\nhorizon_steps = 5\nn_mc_runs = 1\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", cfg, "--quiet", "--output", str(out)]) == EXIT_NUMERICAL
    assert "the Riccati iteration overflowed" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_q_dare_exits_3(tmp_path, capsys):
    # dare used to print a "P*" one Riccati step from Q and exit 0
    cfg = _write(tmp_path, "[model]\nq_intensity = 1e308\n")
    assert main(["dare", cfg]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "the Riccati iteration overflowed" in captured.err and "P*" not in captured.out


def test_validate_exits_2_on_a_failed_bound(tmp_path, capsys):
    # validate printed FAIL and exited 0 where run exited 2; it now prints
    # its report and then rejects the config, as run does. A config that
    # still sets the removed guard override is rejected before either
    # reads a bound. Ring of 6, lambda_max = 4.
    for params, message in (
        ("alpha_nu = 5.0\n", "alpha_nu=5.0 violates the bound"),
        ("alpha_lambda = 0.6\nmu = 0.1\n",
         "alpha_lambda+2*mu=0.8 violates the bound 2/lambda_max=0.5"),
        # alpha_lambda + mu = 0.35 would pass: the bound weighs mu twice
        ("alpha_lambda = 0.1\nmu = 0.25\n",
         "alpha_lambda+2*mu=0.6 violates the bound 2/lambda_max=0.5"),
        # exactly on the bounds (radius 1), where eigvalsh's lambda_max is an
        # ulp below 4: these printed "worst radius = 1  PASS" and exited 0
        ("alpha_nu = 0.16666666666666666\n",
         "alpha_nu=0.16666666666666666 violates the bound 2/(3*lambda_max)=0.166667"),
        ("alpha_lambda = 0.4\nmu = 0.05\n",
         "alpha_lambda+2*mu=0.5 violates the bound 2/lambda_max=0.5"),
    ):
        text = SMOKE_INI.replace("[params]\n", f"[params]\n{params}")
        cfg = _write(tmp_path, text)
        assert main(["validate", cfg]) == EXIT_CONFIG, params
        captured = capsys.readouterr()
        assert captured.out.count("FAIL") == 1, params
        assert f"config rejected: {message}" in captured.err, params
        assert main(["run", cfg, "--quiet", "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err, params
        cfg = _write(tmp_path, text + "override_stability_guard = true\n", name="override.ini")
        for args in (["run", cfg, "--quiet", "--output", str(tmp_path / "o")], ["validate", cfg]):
            assert main(args) == EXIT_CONFIG, (args[0], params)
            captured = capsys.readouterr()
            assert captured.out == "", (args[0], params)
            assert captured.err == ("config rejected: unknown key 'override_stability_guard' "
                                    "in [run]\n"), (args[0], params)


def test_stray_edge_list_exits_2(tmp_path, capsys):
    # a ring with an edge list used to run and ignore the file
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n")
    text = SMOKE_INI.replace("n_nodes = 6\n", f"n_nodes = 6\nedge_list_path = {edges}\n")
    cfg = _write(tmp_path, text)
    for args in (["run", cfg, "--quiet", "--output", str(tmp_path / "o")], ["validate", cfg]):
        assert main(args) == EXIT_CONFIG, args[0]
        err = capsys.readouterr().err
        assert "edge_list_path must be set if and only if topology = explicit" in err, args[0]


def test_unusable_output_location_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # under a regular file the run used to finish and then die in export_csv
    # with a NotADirectoryError traceback (exit 1)
    def no_run(config):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr("dkf_admm.cli.run_scenario", no_run)
    cfg = _write(tmp_path, SMOKE_INI)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    # a dangling link used to pass as absent, and export_csv then died with a
    # FileExistsError traceback (exit 1) after the run
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing")
    for out, base in ((blocker / "sub", blocker), (blocker, blocker), (link / "sub", link)):
        assert main(["run", cfg, "--quiet", "--output", str(out)]) == EXIT_CONFIG, out
        assert f"{base} is not a writable directory" in capsys.readouterr().err, out
    # nothing was created
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "link", "scenario.ini"]


def test_unwritable_csv_exits_2_and_names_the_file(tmp_path, capsys):
    # a directory in the place of a CSV passes the output_dir check; the
    # write used to die with an IsADirectoryError traceback (exit 1)
    cfg = _write(tmp_path, SMOKE_INI)
    target = tmp_path / "out" / "rmse_position.csv"
    target.mkdir(parents=True)
    assert main(["run", cfg, "--quiet", "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"config rejected: cannot write {target}: " in capsys.readouterr().err
    # export_csv's own mkdir under a regular file, which the CLI checks first
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    metrics = harness.run_scenario(harness.load_config(cfg))
    with pytest.raises(exceptions.ConfigRejected, match=re.escape(f"cannot write {blocker / 'sub'}: ")):
        harness.export_csv(metrics, blocker / "sub")


def test_readme_quotes_the_library_rejections(tmp_path, capsys):
    # each rejection the README quotes for `validate` is the text it prints
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text("utf-8").split())
    for edit, quoted in (
        (("[graph]\n", "[model]\ndt = 0\n[graph]\n"), "dt must be a real number > 0, got 0.0"),
        (("n_nodes = 6", "n_nodes = 1"),
         "a sensor network needs a whole number of at least 2 nodes, got 1"),
        (("topology = ring", "topology = rign"), "unknown topology 'rign'"),
        (("[params]\n", "[params]\nalpha_nu = 5.0\n"),
         "alpha_nu=5.0 violates the bound 2/(3*lambda_max)=0.166667"),
    ):
        assert quoted in readme, quoted
        assert main(["validate", _write(tmp_path, SMOKE_INI.replace(*edit))]) == EXIT_CONFIG, quoted
        assert quoted in capsys.readouterr().err, quoted


def test_config_flag_is_gone(tmp_path, capsys):
    # the config file is positional only; a second way to name it used to
    # drop the positional file silently
    cfg = _write(tmp_path, SMOKE_INI)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", cfg, "--config", cfg])
    assert exc.value.code == EXIT_CONFIG
    assert "--config" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    # an unknown key, then out-of-range values and unknown names that would
    # otherwise escape later as a numpy or ValueError traceback (negative
    # seeds, a negative init box and non-finite floats among them), then
    # `none` on a key without an automatic value (it used to run with the
    # default) and INI files with no section header, a duplicated key or
    # section, or a bare word; each prints one line naming the file once
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
        "[run]\nmaster_seed = -1\n",
        "[graph]\ngraph_seed = -3\n",
        "[model]\nsensor_assignment = per_step_random\nassignment_seed = -3\n",
        "[run]\ninit_box_halfwidth = -2\n",
        "[model]\ndt = inf\n",
        "[model]\nq_intensity = inf\n",
        "[model]\nr_var = inf\n",
        "[graph]\nradius = inf\n",
        "[run]\ninit_box_halfwidth = inf\n",
        "[graph]\nn_nodes = none\n",
        "n_nodes = 5\n",
        "[graph]\nn_nodes = 5\nn_nodes = 6\n",
        "[graph]\n[graph]\n",
        "[run]\nnoise_free\n",
        "[params]\nl_sub = 0\n",
        "[run]\nworkers = 2\n",
        "[run]\nsub_iterated_covariance = true\n",
        "[model]\nsensor_assignment = per_step_random\n[run]\nsub_iterated_covariance = false\n",
        "[DEFAULT]\n",
        "[DEFAULT]\nl_sub = 3\n[params]\nalpha_nu = 0.01\n",
        b"\xff[run]\nhorizon_steps = 5\n",
    )
    for k, text in enumerate(cases):
        cfg = _write(tmp_path, text, name=f"bad{k}.ini")
        for args in (["run", cfg, "--quiet", "--output", str(tmp_path / "o")], ["validate", cfg]):
            assert main(args) == EXIT_CONFIG, (args[0], text)
            err = capsys.readouterr().err
            assert err.startswith("config rejected") and err.count("\n") == 1, (args[0], err)
    cfg = _write(tmp_path, "n_nodes = 5\n", name="no_header.ini")
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config rejected: malformed config file {cfg}, "
                                       "line 1: a line before the first [section] header\n")
    # a negative seed on the command line
    cfg = _write(tmp_path, SMOKE_INI)
    code = main(["run", cfg, "--seed", "-1", "--quiet", "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "master_seed must be >= 0" in capsys.readouterr().err
    # `auto` leaves the covariance rounds to the sensor assignment
    cfg = _write(tmp_path, SMOKE_INI + "sub_iterated_covariance = auto\n", name="auto.ini")
    assert main(["validate", cfg]) == EXIT_OK
    # only a random geometric graph reads the radius
    cfg = _write(tmp_path, SMOKE_INI.replace("n_nodes = 6\n", "n_nodes = 6\nradius = 0\n"),
                 name="ring_radius.ini")
    assert main(["validate", cfg]) == EXIT_OK
    cfg = _write(tmp_path, SMOKE_INI.replace("n_nodes = 6\n", "n_nodes = 6\nradius = inf\n"),
                 name="ring_radius_inf.ini")
    assert main(["validate", cfg]) == EXIT_OK


def test_unstable_params_exit_2(tmp_path, capsys):
    # the key under [params]: an unknown key in [run] would exit 2 before the guard
    cfg = _write(tmp_path, SMOKE_INI.replace("[params]\n", "[params]\nalpha_nu = 5.0\n"))
    assert main(["run", cfg, "--quiet", "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "violates the bound 2/(3*lambda_max)" in capsys.readouterr().err


def test_validate_builds_the_scenario_once(tmp_path, monkeypatch, capsys):
    # ... and certifies it once: the rejection reads the printed reports
    calls, checks = [], []
    check = DkfParams.check

    def counted(config):
        calls.append(config)
        return build_scenario(config)

    def counted_check(params, spectrum):
        checks.append(params)
        return check(params, spectrum)

    monkeypatch.setattr(harness, "build_scenario", counted)
    monkeypatch.setattr(cli, "build_scenario", counted)
    monkeypatch.setattr(DkfParams, "check", counted_check)
    for extra, code in (("", EXIT_OK), ("alpha_nu = 5.0\n", EXIT_CONFIG)):
        cfg = _write(tmp_path, SMOKE_INI.replace("[params]\n", f"[params]\n{extra}"))
        calls.clear()
        checks.clear()
        assert main(["validate", cfg]) == code
        assert len(calls) == 1 and len(checks) == 1, extra
    assert "FAIL" in capsys.readouterr().out


def test_non_positive_step_sizes_exit_2(tmp_path, capsys):
    # NaN and inf used to run, with the stability guard overridden, and
    # write all-NaN CSVs
    for k, line in enumerate(("mu = -0.01", "alpha_nu = 0", "alpha_lambda = -1",
                              "alpha_lambda = nan", "mu = inf")):
        text = SMOKE_INI.replace("[params]\n", f"[params]\n{line}\n")
        cfg = _write(tmp_path, text, name=f"steps{k}.ini")
        for args in (["run", cfg, "--quiet", "--output", str(tmp_path / "o")], ["validate", cfg]):
            assert main(args) == EXIT_CONFIG, (args[0], line)
            err = capsys.readouterr().err
            assert "step sizes must be positive and finite" in err, (args[0], line)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="automatic steps with l_sub <= 3 diverge while validate passes")
def test_automatic_steps_with_few_rounds_are_rejected_or_converge(tmp_path):
    # a 100-ring with automatic step sizes: validate passes at l_sub = 1, 2
    # and 3, and the runs end at rmse_pos 3.8e26 / 3.1e16 / 8.4e6 (l_sub = 4:
    # 40.8). Either validate must reject such a config or the run converge.
    for l_sub in (1, 2, 3):
        cfg = _write(tmp_path, "[graph]\ntopology = ring\nn_nodes = 100\n"
                     f"[params]\nl_sub = {l_sub}\n[run]\nhorizon_steps = 100\nn_mc_runs = 1\n")
        if main(["validate", cfg]) != EXIT_CONFIG:
            final = harness.run_scenario(harness.load_config(cfg)).rmse_pos[-1].max()
            assert final < 1e3, (l_sub, final)


def test_disconnected_edge_list_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n2 3\n")
    text = (
        "[graph]\ntopology = explicit\nn_nodes = 4\n"
        f"edge_list_path = {edges}\n"
        "[run]\nhorizon_steps = 2\nn_mc_runs = 1\n"
    )
    cfg = _write(tmp_path, text)
    assert main(["run", cfg, "--quiet"]) == EXIT_CONFIG
    assert "the graph is not connected: node 0 reaches 2 of 4" in capsys.readouterr().err


def test_bad_edge_list_exits_2(tmp_path, capsys):
    # a missing file, a line that is not two integers, a self-loop, an
    # out-of-range index and a file that is not UTF-8: each names the file
    # and exits 2, not 1
    cases = {"missing.txt": None, "three.txt": "0 1\n0 1 2\n",
             "loop.txt": "0 1\n2 2\n", "range.txt": "0 1\n1 4\n",
             "latin1.txt": b"0 1\n\xff 2\n"}
    for name, text in cases.items():
        edges = tmp_path / name
        if text is not None:
            _write(tmp_path, text, name=name)
        cfg = _write(tmp_path, "[graph]\ntopology = explicit\nn_nodes = 4\n"
                     f"edge_list_path = {edges}\n[run]\nhorizon_steps = 2\n")
        assert main(["run", cfg, "--quiet", "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert name in capsys.readouterr().err, name


def test_run_reads_and_writes_files_as_utf8(tmp_path):
    # under -X warn_default_encoding every open that falls back on the
    # locale's encoding warns, here as an error (exit 1); the config, the
    # edge list and the CSV opens all did
    edges = _write(tmp_path, "0 1\n1 2\n2 3\n3 0\n", name="edges.txt")
    cfg = _write(tmp_path, "[graph]\ntopology = explicit\nn_nodes = 4\n"
                 f"edge_list_path = {edges}\n[run]\nhorizon_steps = 3\nn_mc_runs = 1\n")
    src = str(Path(dkf_admm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "dkf_admm.cli", "run", cfg, "--quiet", "--output", str(tmp_path / "o")],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == EXIT_OK, out.stderr
    assert len(list((tmp_path / "o").iterdir())) == 5

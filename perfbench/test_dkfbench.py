"""Tests of the benchmark script, at a tiny size of every workload."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dkfbench
from spantrace import SpanTracer

BENCH = json.loads((dkfbench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def prog():
    return dkfbench.load_program(dkfbench.ROOT)


def _run(prog, name, work, seed=1, trace=False):
    wl = dkfbench.WORKLOADS[name]
    result, _ = dkfbench.run_workload(prog, wl, seed, 0, trace, tiny=True, work=work)
    return result


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(dkfbench.WORKLOADS)


@pytest.mark.parametrize("name", list(dkfbench.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(prog, tmp_path, name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = _run(prog, name, tmp_path, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_static_ledger_equals_the_closed_form(prog, tmp_path):
    # Ring of 6, L = 10: degree 2 x (10 + 1) messages and
    # 2 x (10 * 4 + 10) scalars per node-step.
    metrics = _run(prog, "ring6-mc", tmp_path)["metrics"]
    assert metrics["msgs_per_node_step"]["value"] == 22.0
    assert metrics["scalars_per_node_step"]["value"] == 100.0


def test_corrupted_ledger_counts_as_failed(prog, tmp_path, monkeypatch):
    real = prog.harness.run_scenario

    def corrupted(config):
        metrics = real(config)
        metrics.comm.state_messages[0] += 1
        return metrics

    monkeypatch.setattr(prog.harness, "run_scenario", corrupted)
    result = _run(prog, "ring6-mc", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_missing_csv_counts_as_failed(prog, tmp_path, monkeypatch):
    real, calls = prog.cli.export_csv, []

    def export_losing_every_other_traffic_file(metrics, output_dir):
        paths = real(metrics, output_dir)
        calls.append(output_dir)
        if len(calls) % 2 == 0:
            (Path(output_dir) / "communication.csv").unlink()
        return paths

    monkeypatch.setattr(prog.cli, "export_csv", export_losing_every_other_traffic_file)
    result = _run(prog, "regular100-cli", tmp_path)
    assert not result["correct"]
    assert result["failed"] == len(calls) // 2 and result["attempted"] == len(calls)
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_check_flags_each_corrupted_output(prog, tmp_path):
    wl = dkfbench.WORKLOADS["ring6-mc"]
    config = dkfbench.scenario_config(prog, wl, 1, 0, True, tmp_path)
    expect = dkfbench.expectations(prog, config)
    _, out = dkfbench.run_one(prog, wl, config, tmp_path)
    assert dkfbench.check(out, expect, config) == []
    corruptions = {
        "non-finite": lambda o: o.rmse_vel.__setitem__((0, 0), np.nan),
        "ledger": lambda o: setattr(o, "scalars", o.scalars - 1),
        "last sub-iteration": lambda o: o.consensus.__setitem__((3, -1), o.consensus[3, 0] * 2),
        "second half": lambda o: o.cov_error.__setitem__((-1, 2), 1.0),
        "shape": lambda o: setattr(o, "rmse_pos", o.rmse_pos[1:]),
    }
    for word, corrupt in corruptions.items():
        bad = dataclasses.replace(
            out,
            rmse_pos=out.rmse_pos.copy(),
            rmse_vel=out.rmse_vel.copy(),
            consensus=out.consensus.copy(),
            cov_error=out.cov_error.copy(),
        )
        corrupt(bad)
        problems = dkfbench.check(bad, expect, config)
        assert len(problems) == 1 and word in problems[0], (word, problems)


def test_same_seed_reproduces_deterministic_metrics(prog, tmp_path):
    keys = ("rmse_pos", "rmse_ratio_vs_central", "msgs_per_node_step", "scalars_per_node_step")
    first, again, other = (
        _run(prog, "regular100-cli", tmp_path / str(i), seed=seed)["metrics"]
        for i, seed in enumerate((3, 3, 4))
    )
    assert all(first[k]["value"] == again[k]["value"] for k in keys)
    assert first["rmse_pos"]["value"] != other["rmse_pos"]["value"]


def test_centralized_reference_converges_to_the_dare_posterior(prog, tmp_path):
    from dkf_admm.linalg import dare_solve

    wl = dkfbench.WORKLOADS["ring6-mc"]
    config = dkfbench.scenario_config(prog, wl, 1, 0, True, tmp_path, horizon_steps=200)
    expect = dkfbench.expectations(prog, config)
    _, model, _, _ = prog.harness.build_scenario(config)
    h = np.vstack([s.h for s in model.sensors])
    r = np.diag([s.r[0, 0] for s in model.sensors])
    p_star = dare_solve(model.f, h, model.q, r)
    post = np.linalg.inv(np.linalg.inv(p_star) + h.T @ np.linalg.inv(r) @ h)
    assert expect.pos_var[-1] == pytest.approx(post[0, 0] + post[1, 1], rel=1e-9)


def test_random_regular_edges_are_regular_and_seeded():
    edges = dkfbench.random_regular_edges(20, 7, np.random.default_rng(5))
    degree = np.bincount(np.ravel(edges), minlength=20)
    assert np.all(degree == 7) and len(set(edges)) == 70
    assert edges == dkfbench.random_regular_edges(20, 7, np.random.default_rng(5))


def _inner():
    return 1


def _outer():
    return _inner() + _inner()


def test_tracer_counts_self_time_and_absent_bindings():
    tracer = SpanTracer({
        "outer": [f"{__name__}:_outer"],
        "inner": [f"{__name__}:_inner"],
        "gone": [f"{__name__}:_no_such_function", "no_such_module:f"],
    })
    original = _outer
    with tracer:
        assert _outer() == 2
    assert _outer is original
    stats = tracer.summary()
    assert (stats["outer"].calls, stats["inner"].calls, stats["gone"].calls) == (1, 2, 0)
    assert tracer.absent == [f"{__name__}:_no_such_function", "no_such_module:f"]
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].total_s - stats["inner"].total_s, abs=1e-12
    )


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(dkfbench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        dkfbench.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/dkfbench.py", "--workload", "ring6-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""

"""Golden outputs: a change meant to leave the numbers alone must reproduce
`tests/data/golden.npz` exactly.

The file holds the `run_scenario` arrays (RMSE, consensus and covariance
error, per-run squared position error, the four traffic ledger arrays) of
six scenario shapes at seeds 1 and 2: a 6-node ring, a 7-regular
20-node explicit graph with fixed step sizes, a 60-node geometric graph,
a 6-node geometric graph with sensors redrawn every step, a 400-node
ring, whose Laplacian product takes the neighbour table and whose inverses
take the sweep, and a 450-node geometric graph, whose irregular degrees
pin the order in which the table's products sum. It also holds the five CSVs, as bytes, of one CLI `run` on the
explicit graph.

Regenerate it, after a change that moves the numbers on purpose, with

    PYTHONPATH=src python tests/test_golden.py

which first prints each key's largest relative change against the
committed file. A failing test lists that line for every key that moved.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from dkf_admm.cli import main
from dkf_admm.harness import ScenarioConfig, run_scenario

GOLDEN = Path(__file__).parent / "data" / "golden.npz"
SEEDS = (1, 2)
SHAPES = {
    "ring6": dict(topology="ring", n_nodes=6, l_sub=10, horizon_steps=20, n_mc_runs=2),
    "regular20": dict(topology="explicit", n_nodes=20, alpha_lambda=0.10, mu=0.001,
                      alpha_nu=0.04, l_sub=20, horizon_steps=10, n_mc_runs=2),
    "geo60": dict(topology="random_geometric", n_nodes=60, radius=0.3, l_sub=20,
                  horizon_steps=10, n_mc_runs=1),
    "randsensor6": dict(topology="random_geometric", n_nodes=6, radius=1.0, l_sub=20,
                        horizon_steps=10, n_mc_runs=1, sensor_assignment="per_step_random",
                        sub_iterated_covariance=True),
    "ring400": dict(topology="ring", n_nodes=400, l_sub=3, horizon_steps=5, n_mc_runs=1),
    "geo450": dict(topology="random_geometric", n_nodes=450, radius=0.12, l_sub=5,
                   horizon_steps=5, n_mc_runs=1),
}
METRICS = ("rmse_pos", "rmse_vel", "consensus_error", "cov_error", "sq_pos_runs")
LEDGER = ("state_messages", "state_scalars", "cov_messages", "cov_scalars")
CSV_FILES = ("rmse_position.csv", "rmse_velocity.csv", "covariance_error.csv",
             "consensus_error.csv", "communication.csv")


def _regular_edges(work):
    """A 7-regular circulant graph on 20 nodes (offsets 1, 2, 3 and 10) as
    an edge-list file."""
    pairs = [(i, (i + k) % 20) for i in range(20) for k in (1, 2, 3)]
    pairs += [(i, i + 10) for i in range(10)]
    path = work / "edges.txt"
    path.write_text("".join(f"{i} {j}\n" for i, j in pairs))
    return str(path)


def golden_outputs(work) -> dict:
    """Every golden array, keyed `<shape>.<seed>.<name>` and `cli.<csv>`;
    `work` holds the edge list and the CLI's output directory."""
    edges = _regular_edges(work)
    out = {}
    for shape, fields in SHAPES.items():
        for seed in SEEDS:
            cfg = ScenarioConfig(**fields, graph_seed=seed, master_seed=seed * 1000,
                                 edge_list_path=edges if fields["topology"] == "explicit" else None)
            metrics = run_scenario(cfg)
            for name in METRICS:
                out[f"{shape}.{seed}.{name}"] = getattr(metrics, name)
            for name in LEDGER:
                out[f"{shape}.{seed}.{name}"] = getattr(metrics.comm, name)
    ini = work / "scenario.ini"
    ini.write_text(
        f"[graph]\ntopology = explicit\nn_nodes = 20\nedge_list_path = {edges}\n"
        "[params]\nalpha_lambda = 0.1\nmu = 0.001\nalpha_nu = 0.04\nl_sub = 20\n"
        "[run]\nhorizon_steps = 10\nn_mc_runs = 2\nmaster_seed = 1000\n"
    )
    assert main(["run", str(ini), "--output", str(work / "results"), "--quiet"]) == 0
    for name in CSV_FILES:
        out[f"cli.{name}"] = np.frombuffer((work / "results" / name).read_bytes(), np.uint8)
    return out


def test_outputs_match_the_golden_file(tmp_path):
    got = golden_outputs(tmp_path)
    with np.load(GOLDEN) as golden:
        assert sorted(golden.files) == sorted(got)
        changed = [_change(key, golden[key], value) for key, value in got.items()
                   if not np.array_equal(value, golden[key])]
    assert not changed, "\n".join(changed)


def _numbers(key, value) -> np.ndarray:
    """The array of a key; for a CSV, its fields below the header, in order,
    without communication.csv's phase names."""
    if not key.startswith("cli."):
        return np.asarray(value, dtype=float)
    rows = [line.split(",") for line in bytes(value).decode().splitlines()[1:]]
    return np.array([float(f) for row in rows for f in row if f not in ("state", "covariance")])


def _largest_relative_change(old, new) -> float:
    """max |new - old| / max |old| (inf if the shapes differ, or for a
    nonzero change of an all-zero array)."""
    if old.shape != new.shape:
        return math.inf
    diff, scale = np.max(np.abs(new - old), initial=0.0), np.max(np.abs(old), initial=0.0)
    return diff / scale if scale else (math.inf if diff else 0.0)


def _change(key, old, new) -> str:
    """The report line of one key: its largest relative change."""
    change = _largest_relative_change(_numbers(key, old), _numbers(key, new))
    return f"{key}: largest relative change {change:.3g}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        new = golden_outputs(Path(tmp))
    old = dict(np.load(GOLDEN)) if GOLDEN.exists() else {}
    for key in sorted(new.keys() | old.keys()):
        if key in old and key in new:
            print(_change(key, old[key], new[key]))
        else:
            print(f"{key}: {'added' if key in new else 'removed'}")
    np.savez_compressed(GOLDEN, **new)
    print(f"wrote {GOLDEN}")

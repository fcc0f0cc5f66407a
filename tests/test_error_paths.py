"""Every documented rejection of bad input or diverged numbers raises its
library exception with its message (none of these lines ran elsewhere).
A row may name the builtin base of the class it expects; the raised class
must still be one of the library's own."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dkf_admm
from dkf_admm.centralized import centralized_kf_step, initial_centralized_state
from dkf_admm.exceptions import (ConfigError, ConfigRejected, DimensionError,
                                 GraphGenerationFailed, GraphNotConnected, NotPositiveDefinite,
                                 NumericalError)
from dkf_admm.filtering import (CommLedger, DkfParams, _posterior_cov, auto_params, dkf_steps,
                                init_state)
from dkf_admm.graphs import SensorGraph, build_graph, spectral_summary
from dkf_admm.harness import ScenarioConfig, run_scenario
from dkf_admm.linalg import step_bounds
from dkf_admm.models import (
    SensorSpec,
    StateSpaceModel,
    build_constant_velocity_model,
    sensor_specs_at,
    simulate_runs,
)


def _indefinite_posterior():
    # P^-1 = -I: flooring Theta (here 0) cannot make P^-1 + Theta PD
    with pytest.warns(RuntimeWarning, match="theta floored at zero eigenvalues"):
        _posterior_cov(-np.broadcast_to(np.eye(4), (3, 4, 4)), np.zeros((3, 4, 4)), t=4)


def _redrawn_step_args():
    # the positional arguments of a one-step window on a 3-node ring with redrawn sensors
    model = build_constant_velocity_model(dt=0.1, n_nodes=3, sensor_assignment="per_step_random")
    graph = build_graph("ring", 3)
    state = init_state(model, np.tile(model.x0_mean, (3, 1)))
    return state, graph, model, np.zeros((1, 3, 1)), auto_params(spectral_summary(graph))


def _six_node_step_on_a_three_node_ring(**kwargs):
    # a 6-node model and state stepped on a 3-node graph used to run silently
    # (or, with a 6-node ledger, raise numpy's broadcast ValueError)
    model = build_constant_velocity_model(dt=0.1, n_nodes=6)
    graph = build_graph("ring", 3)
    state = init_state(model, np.tile(model.x0_mean, (6, 1)))
    list(dkf_steps(state, graph, model, np.zeros((1, 6, 1)), auto_params(spectral_summary(graph)),
                   t0=1, **kwargs))


_MODEL = build_constant_velocity_model(dt=0.1, n_nodes=6)
_GRAPH = build_graph("ring", 6)
_PARAMS = auto_params(spectral_summary(_GRAPH))


def _six_node_ring_step(x0=None, y=None, x_post=None, **kwargs):
    # a one-step window on a 6-node ring from init_state(model, x0), with
    # all-zero measurements unless the step's `y` is given; `x_post` replaces
    # the state's estimates
    state = init_state(_MODEL, np.tile(_MODEL.x0_mean, (6, 1)) if x0 is None else x0)
    if x_post is not None:
        state.x_post = x_post
    y = np.zeros(state.x_post.shape[:-1] + (1,)) if y is None else y
    list(dkf_steps(state, _GRAPH, _MODEL, y[..., None, :, :], _PARAMS, t0=1, **kwargs))


def _centralized_step(measurements):
    model = build_constant_velocity_model(dt=0.1, n_nodes=3)
    centralized_kf_step(initial_centralized_state(model), model, measurements, 1)


def _inconsistent_model(**kwargs):
    # a 2-node constant-velocity model with `kwargs` replacing its fields
    cv = build_constant_velocity_model(dt=0.1, n_nodes=2)
    StateSpaceModel(**{"f": cv.f, "q": cv.q, "sensors": cv.sensors, "x0_mean": cv.x0_mean,
                       "p0": cv.p0, **kwargs})


@pytest.mark.parametrize("call, error, message", [
    pytest.param(_indefinite_posterior, NotPositiveDefinite, "not PD even after flooring, t=4",
                 id="posterior_cov-still-indefinite-after-flooring"),
    # P^-1 + Theta overflows to inf: eigvalsh used to raise a raw LinAlgError
    pytest.param(lambda: _posterior_cov(np.full((2, 4, 4), 1e308) * np.eye(4),
                                        np.broadcast_to(1e308 * np.eye(4), (2, 4, 4)), t=2),
                 NotPositiveDefinite, r"P\^-1 \+ Theta is not finite \(node 0, t=2\)",
                 id="posterior_cov-overflow"),
    pytest.param(lambda: build_graph("ring", 1), ValueError, "at least 2 nodes",
                 id="build_graph-one-node"),
    # edge lists go to SensorGraph itself
    pytest.param(lambda: build_graph("explicit", 3), ConfigRejected, "unknown topology 'explicit'",
                 id="build_graph-explicit"),
    pytest.param(lambda: build_graph("random_geometric", 5), ValueError, "requires radius and seed",
                 id="build_graph-geometric-without-radius"),
    pytest.param(lambda: build_graph("random_geometric", 30, radius=1e-3, seed=0),
                 GraphGenerationFailed, "no connected geometric graph in 50 draws",
                 id="build_graph-geometric-no-connected-draw"),
    # rejected before any draw (it used to spend 50 and blame the draws)
    pytest.param(lambda: build_graph("random_geometric", 30, radius=0.0, seed=0),
                 ConfigRejected, r"radius > 0, got radius=0\.0", id="build_graph-radius-zero"),
    pytest.param(lambda: build_graph("star", 4), ValueError, "unknown topology 'star'",
                 id="build_graph-unknown-topology"),
    pytest.param(lambda: SensorGraph(3, [(0, 3)]), ValueError, r"join nodes in 0\.\.2",
                 id="SensorGraph-edge-out-of-range"),
    pytest.param(lambda: SensorGraph(3, [(1, 1)]), ConfigRejected, "not a self-loop",
                 id="SensorGraph-self-loop"),
    pytest.param(lambda: SensorSpec(np.eye(2, 4), [[1.0]]), ValueError, "R_i must match",
                 id="SensorSpec-r-rows"),
    pytest.param(lambda: _inconsistent_model(q=np.eye(3)), ValueError,
                 "inconsistent model dimensions", id="StateSpaceModel-q-size"),
    # non-square matrices used to be symmetrized by broadcasting: a made-up R,
    # a rejection as not positive definite (exit 3) or numpy's AxisError
    pytest.param(lambda: SensorSpec(np.eye(2, 4), [[1.0, 2.0]]), DimensionError,
                 re.escape("a matrix must be square, got shape (1, 2)"), id="SensorSpec-non-square-r"),
    pytest.param(lambda: _inconsistent_model(q=np.ones((4, 1))), DimensionError,
                 re.escape("a matrix must be square, got shape (4, 1)"), id="StateSpaceModel-column-q"),
    pytest.param(lambda: _inconsistent_model(p0=np.ones((1, 4))), DimensionError,
                 re.escape("a matrix must be square, got shape (1, 4)"), id="StateSpaceModel-row-p0"),
    pytest.param(lambda: _inconsistent_model(q=np.ones(4)), DimensionError,
                 re.escape("a matrix must be square, got shape (4,)"), id="StateSpaceModel-1-d-q"),
    pytest.param(lambda: build_constant_velocity_model(dt=0.1, n_nodes=1), ValueError, "at least 2 nodes",
                 id="cv_model-one-node"),
    pytest.param(lambda: build_constant_velocity_model(dt=0.1, sensor_assignment="rand"),
                 ValueError, "unknown sensor assignment 'rand'", id="cv_model-unknown-assignment"),
    pytest.param(lambda: simulate_runs(build_constant_velocity_model(dt=0.1), 0, [0]),
                 ValueError, "n_steps must be an integer >= 1, got 0",
                 id="simulate_runs-zero-steps"),
    # a non-finite radius, rejected where it is read (a ring ignores it)
    pytest.param(lambda: build_graph("random_geometric", 30, radius=np.inf, seed=0),
                 ConfigRejected, r"finite radius > 0, got radius=inf,",
                 id="build_graph-radius-inf"),
    pytest.param(lambda: build_graph("random_geometric", 30, radius=-np.inf, seed=0),
                 ConfigRejected, r"finite radius > 0, got radius=-inf,",
                 id="build_graph-radius-minus-inf"),
    pytest.param(lambda: build_graph("random_geometric", 30, radius=np.nan, seed=0),
                 ConfigRejected, r"finite radius > 0, got radius=nan,",
                 id="build_graph-radius-nan"),
    # the connectivity check used to meet the empty graph with a raw IndexError
    pytest.param(lambda: SensorGraph(0, []), ConfigRejected, "at least 2 nodes, got 0",
                 id="SensorGraph-zero-nodes"),
    pytest.param(lambda: SensorGraph(1, []), ConfigRejected, "at least 2 nodes, got 1",
                 id="SensorGraph-one-node"),
    # a graph without edges is not connected, below DENSE_PRODUCT_NODES and
    # above it; lambda_max = 0 used to raise ZeroDivisionError in the bounds
    pytest.param(lambda: SensorGraph(5, []), GraphNotConnected, "node 0 reaches 1 of 5",
                 id="SensorGraph-no-edges-small"),
    pytest.param(lambda: SensorGraph(450, []), GraphNotConnected, "node 0 reaches 1 of 450",
                 id="SensorGraph-no-edges-large"),
    pytest.param(lambda: step_bounds(0.0), ConfigRejected, r"lambda_max must be > 0 .*, got 0\.0",
                 id="step_bounds-lambda-max-zero"),
    # malformed edges used to be truncated, read as pairs or left to numpy
    pytest.param(lambda: SensorGraph(3, [(0.5, 2), (1.9, 2)]), ConfigRejected,
                 r"integer pairs, got float64 \(2, 2\)", id="SensorGraph-float-edges"),
    pytest.param(lambda: SensorGraph(4, [0, 1, 2, 3]), ConfigRejected, r"integer pairs, got int\d+ \(4,\)",
                 id="SensorGraph-flat-edges-even"),
    pytest.param(lambda: SensorGraph(4, [0, 1, 2]), ConfigRejected, r"integer pairs, got int\d+ \(3,\)",
                 id="SensorGraph-flat-edges-odd"),
    # ragged or unsized edges used to escape as numpy's ValueError or len's TypeError
    pytest.param(lambda: SensorGraph(3, [(0, 1), (2,)]), ConfigRejected, r"integer pairs, got list: ",
                 id="SensorGraph-ragged-edges"),
    pytest.param(lambda: SensorGraph(3, iter([(0, 1), (1, 2)])), ConfigRejected,
                 r"integer pairs, got list_iterator: ", id="SensorGraph-iterator-edges"),
    pytest.param(lambda: SensorGraph(3, 5), ConfigRejected, r"integer pairs, got int: ",
                 id="SensorGraph-scalar-edges"),
    # wrong-typed settings used to escape as builtin TypeErrors or run silently
    *[pytest.param(lambda kw=kw: run_scenario(ScenarioConfig(
        **{"n_nodes": 6, "horizon_steps": 3, "n_mc_runs": 1, **kw})),
       ConfigRejected, re.escape(message), id="ScenarioConfig-%s=%r" % [*kw.items()][-1])
      for kw, message in (
        ({"l_sub": 2.5}, "l_sub must be int, got 2.5"),
        ({"l_sub": 2.0}, "l_sub must be int, got 2.0"),
        ({"l_sub": True}, "l_sub must be int, got True"),
        ({"l_sub": "5"}, "l_sub must be int, got '5'"),
        ({"topology": "ring", "n_nodes": 6.0}, "n_nodes must be int, got 6.0"),
        ({"horizon_steps": 3.5}, "horizon_steps must be int, got 3.5"),
        ({"n_mc_runs": 1.5}, "n_mc_runs must be int, got 1.5"),
        ({"dt": "0.1"}, "dt must be float, got '0.1'"),
        ({"r_var": None}, "r_var must be float, got None"),
        ({"radius": "0.4"}, "radius must be float, got '0.4'"),
        ({"master_seed": 2.5}, "master_seed must be int, got 2.5"),
        ({"graph_seed": 1.5}, "graph_seed must be int, got 1.5"),
        ({"assignment_seed": 0.5}, "assignment_seed must be int, got 0.5"),
        ({"master_seed": True}, "master_seed must be int, got True"),
    )],
    pytest.param(lambda: DkfParams(0.1, 0.01, 0.05, 2.5), ConfigRejected, "l_sub must be int, got 2.5",
                 id="DkfParams-float-l_sub"),
    pytest.param(lambda: DkfParams(0.1, True, 0.05, 2), ConfigRejected, "mu must be float, got True",
                 id="DkfParams-bool-mu"),
    pytest.param(lambda: sensor_specs_at(build_constant_velocity_model(
        dt=0.1, sensor_assignment="per_step_random"), -1),
                 ConfigRejected, "t must be an integer >= 0, got -1",
                 id="sensor_specs_at-negative-t"),
    pytest.param(lambda: list(dkf_steps(*_redrawn_step_args(), t0=-1)), ConfigRejected,
                 "t must be an integer >= 0, got -1", id="dkf_steps-negative-t0"),
    # node counts and shapes that used to reach numpy as raw ValueErrors
    pytest.param(_six_node_step_on_a_three_node_ring, DimensionError,
                 "node counts differ: graph 3, model 6, state 6", id="dkf_steps-3-node-graph"),
    pytest.param(lambda: _six_node_step_on_a_three_node_ring(ledger=CommLedger(6)), DimensionError,
                 "node counts differ: graph 3, model 6, state 6",
                 id="dkf_steps-3-node-graph-6-node-ledger"),
    pytest.param(lambda: init_state(build_constant_velocity_model(dt=0.1, n_nodes=3),
                                    np.zeros((2, 4))), DimensionError,
                 re.escape("x0_estimates (2, 4) must be (3, 4) or (R, 3, 4), R >= 1"),
                 id="init_state-x0-shape"),
    # one estimate used to be shared by all nodes
    pytest.param(lambda: init_state(_MODEL, _MODEL.x0_mean), DimensionError,
                 re.escape("x0_estimates (4,) must be (6, 4) or (R, 6, 4), R >= 1"),
                 id="init_state-shared-x0"),
    pytest.param(lambda: _centralized_step(np.zeros((4, 1))), DimensionError,
                 re.escape("measurements (4, 1) must be (3, 1)"), id="centralized-4-rows"),
    pytest.param(lambda: _centralized_step(np.zeros((1, 3))), DimensionError,
                 re.escape("measurements (1, 3) must be (3, 1)"), id="centralized-m-3"),
    # the measurements of the first k < N nodes used to be fused alone
    pytest.param(lambda: _centralized_step(np.zeros((2, 1))), DimensionError,
                 re.escape("measurements (2, 1) must be (3, 1)"), id="centralized-2-of-3-rows"),
    # a scalar and ragged rows, which used to escape as TypeError and numpy's ValueError
    pytest.param(lambda: _centralized_step(1.0), DimensionError,
                 re.escape("measurements () must be (3, 1)"), id="centralized-scalar"),
    pytest.param(lambda: _centralized_step([[1.0], [2.0, 3.0]]), DimensionError,
                 re.escape("measurements must be one (3, 1) array"), id="centralized-ragged"),
    # a ledger of another node count used to fail in numpy's broadcast,
    # after the rounds had run
    pytest.param(lambda: _six_node_ring_step(ledger=CommLedger(3)), DimensionError,
                 "node counts differ: graph 6, model 6, state 6, ledger 3",
                 id="dkf_steps-3-node-ledger"),
    # an empty run axis used to pass init_state and fail in numpy's reshape
    pytest.param(lambda: init_state(_MODEL, np.zeros((0, 6, 4))), DimensionError,
                 re.escape("x0_estimates (0, 6, 4) must be (6, 4) or (R, 6, 4), R >= 1"),
                 id="init_state-no-run"),
    pytest.param(lambda: _six_node_ring_step(x_post=np.zeros((0, 6, 4))), DimensionError,
                 re.escape("the state holds no run: x_post has shape (0, 6, 4)"),
                 id="dkf_steps-no-run"),
    # non-finite inputs used to read as a non-finite K b or a singular prior
    # (exit 3), an inf estimate with numpy's RuntimeWarning first
    pytest.param(lambda: _six_node_ring_step(x0=np.full((6, 4), np.nan)), ConfigRejected,
                 "x0_estimates must be finite", id="init_state-x0-nan"),
    pytest.param(lambda: _six_node_ring_step(x0=np.full((6, 4), np.inf)), ConfigRejected,
                 "x0_estimates must be finite", id="init_state-x0-inf"),
    pytest.param(lambda: _six_node_ring_step(y=np.full((6, 1), np.nan)), ConfigRejected,
                 "measurements hold a non-finite value at t=1", id="dkf_steps-y-nan"),
    # strings used to fail in numpy's float conversion; complex entries
    # warned and lost their imaginary parts
    pytest.param(lambda: _six_node_ring_step(x0=np.full((6, 4), "1")), ConfigRejected,
                 "x0_estimates must hold real numbers, got dtype <U1", id="init_state-x0-str"),
    pytest.param(lambda: _six_node_ring_step(y=np.full((6, 1), "1")), ConfigRejected,
                 "measurements must hold real numbers, got dtype <U1", id="dkf_steps-y-str"),
    pytest.param(lambda: _six_node_ring_step(x0=np.ones((6, 4), complex)), ConfigRejected,
                 "x0_estimates must hold real numbers, got dtype complex128",
                 id="init_state-x0-complex"),
    pytest.param(lambda: _six_node_ring_step(y=np.ones((6, 1), complex)), ConfigRejected,
                 "measurements must hold real numbers, got dtype complex128",
                 id="dkf_steps-y-complex"),
    pytest.param(lambda: _centralized_step(np.full((3, 1), np.nan)), ConfigRejected,
                 "measurements hold a non-finite value at t=1", id="centralized-nan"),
    pytest.param(lambda: _centralized_step(np.ones((3, 1), complex)), ConfigRejected,
                 "measurements must hold real numbers, got dtype complex128",
                 id="centralized-complex"),
    # sizes that are not integers and seeds numpy refuses used to escape as
    # TypeError or ValueError, or blame the edges
    pytest.param(lambda: build_graph("random_geometric", 10.5, radius=0.5, seed=1), ConfigRejected,
                 "a sensor network needs a whole number of at least 2 nodes, got 10.5",
                 id="build_graph-fractional-size"),
    pytest.param(lambda: build_graph("random_geometric", 10, radius=0.5, seed=-1), ConfigRejected,
                 "unusable seed -1: ", id="build_graph-negative-seed"),
    pytest.param(lambda: build_graph("ring", 6.0), ConfigRejected, "whole number of at least 2 nodes, got 6.0",
                 id="build_graph-float-size"),
    # node counts whose edge keys i N + j overflow an index: 2**70 used to
    # raise numpy's "Maximum allowed size exceeded", 2**40 a MemoryError
    # (both fail here before any array is made)
    pytest.param(lambda: build_graph("ring", 2**70), ConfigRejected,
                 f"at most 3037000499 nodes .*, got {2**70}", id="build_graph-huge-size"),
    pytest.param(lambda: SensorGraph(2**40, [(0, 1)]), ConfigRejected, f"at most 3037000499 nodes .*, got {2**40}",
                 id="SensorGraph-huge-size"),
    pytest.param(lambda: simulate_runs(build_constant_velocity_model(dt=0.1), 5.5, [1]), ConfigRejected,
                 "n_steps must be an integer >= 1, got 5.5", id="simulate_runs-fractional-steps"),
    pytest.param(lambda: simulate_runs(build_constant_velocity_model(dt=0.1), 5, ["abc"]),
                 ConfigRejected, "unusable seed 'abc': ", id="simulate_runs-string-seed"),
    # seeds that are not iterable used to escape as TypeError; no seeds gave an
    # empty trajectory that init_state rejected later
    pytest.param(lambda: simulate_runs(build_constant_velocity_model(dt=0.1), 5, 3), ConfigRejected,
                 "seeds must be an iterable of seeds, got 3",
                 id="simulate_runs-seeds-not-iterable"),
    pytest.param(lambda: simulate_runs(build_constant_velocity_model(dt=0.1), 5, []), ConfigRejected,
                 "seeds must hold one seed per run, got none", id="simulate_runs-no-seeds"),
    # a float node count or dt used to escape as TypeError, a negative
    # assignment seed as numpy's ValueError at the first redrawn step
    pytest.param(lambda: build_constant_velocity_model(dt=0.1, n_nodes=6.0), ConfigRejected,
                 "whole number of at least 2 nodes, got 6.0", id="cv_model-float-nodes"),
    pytest.param(lambda: build_constant_velocity_model(dt="0.1"), ConfigRejected,
                 "dt must be a real number > 0, got '0.1'", id="cv_model-string-dt"),
    pytest.param(lambda: build_constant_velocity_model(dt=0.1, sensor_assignment="per_step_random",
                                           assignment_seed=-1),
                 ConfigRejected, "assignment_seed must be an integer >= 0, got -1",
                 id="cv_model-negative-assignment-seed"),
])
def test_error_path_raises_its_library_error(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value).__module__ == "dkf_admm.exceptions"


def test_library_raises_only_its_own_errors():
    # every `raise` in the library names a class of exceptions.py, re-raises,
    # or is caught by an enclosing `try` of the same function; the CLI's
    # `__main__` line may raise SystemExit
    src = Path(dkf_admm.__file__).parent
    library = {node.name for node in ast.walk(ast.parse((src / "exceptions.py").read_text("utf-8")))
               if isinstance(node, ast.ClassDef)}
    stray = []

    def visit(node, caught, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            caught = set()
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            if name not in library | caught and (where, name) != ("cli.py", "SystemExit"):
                stray.append(f"{where}:{node.lineno} raises {name}")
        if isinstance(node, ast.Try):
            types = [h.type for h in node.handlers]
            handled = caught | {getattr(name, "id", None) for t in types
                                for name in (t.elts if isinstance(t, ast.Tuple) else [t])}
            for child in node.body:
                visit(child, handled, where)
            for child in node.handlers + node.orelse + node.finalbody:
                visit(child, caught, where)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, caught, where)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), set(), path.name)
    assert not stray, stray


_BAD_ENTRIES = [np.nan, np.inf, -np.inf, "1", 1j, None]
_BAD_SIZES = [1, 0, -3, 2.5, 6.0, np.float64(6), np.nan, "6", None, True]
_BAD_SEEDS = [-1, 1.5, np.nan, "abc", [-1, 2], {}]


@st.composite
def _bad_arrays(draw, shape):
    """A (nested list or ndarray) input meant to be of `shape`: one bad entry,
    an empty leading axis, a ragged row or a wrong last axis."""
    kind = draw(st.sampled_from(["entry", "empty", "ragged", "last axis"]))
    if kind == "empty":
        return np.zeros((0, *shape))
    if kind == "last axis":
        return np.zeros(shape[:-1] + (shape[-1] + draw(st.integers(1, 2)),))
    rows = np.zeros(shape).tolist()
    row = draw(st.integers(0, shape[0] - 1))
    if kind == "ragged":
        rows[row] = rows[row] * 2
    else:
        rows[row][draw(st.integers(0, shape[1] - 1))] = draw(st.sampled_from(_BAD_ENTRIES))
    return np.array(rows) if kind == "entry" and draw(st.booleans()) else rows


def _fresh_state():
    return init_state(_MODEL, np.tile(_MODEL.x0_mean, (6, 1)))


_BAD_CALLS = {
    "init_state x0": lambda d: init_state(_MODEL, d.draw(_bad_arrays((6, 4)))),
    "dkf_steps y": lambda d: list(dkf_steps(_fresh_state(), _GRAPH, _MODEL,
                                            [d.draw(_bad_arrays((6, 1)))], _PARAMS, t0=1)),
    "dkf_steps ledger": lambda d: list(dkf_steps(
        _fresh_state(), _GRAPH, _MODEL, np.zeros((1, 6, 1)), _PARAMS, t0=1,
        ledger=CommLedger(d.draw(st.sampled_from([1, 2, 5, 7]))))),
    "SensorGraph n": lambda d: SensorGraph(d.draw(st.sampled_from(_BAD_SIZES)), [(0, 1)]),
    "SensorGraph edges": lambda d: SensorGraph(6, d.draw(_bad_arrays((5, 2)))),
    "build_graph n": lambda d: build_graph(
        d.draw(st.sampled_from(["ring", "path", "complete", "random_geometric"])),
        d.draw(st.sampled_from(_BAD_SIZES)), radius=0.5, seed=1),
    "build_graph seed": lambda d: build_graph("random_geometric", 6, radius=0.5,
                                              seed=d.draw(st.sampled_from(_BAD_SEEDS))),
    "build_graph radius": lambda d: build_graph(
        "random_geometric", 6, radius=d.draw(st.sampled_from(["0.5", [0.5], np.nan, -1.0])),
        seed=1),
    "simulate_runs n_steps": lambda d: simulate_runs(
        _MODEL, d.draw(st.sampled_from(_BAD_SIZES)), [1]),
    "simulate_runs seed": lambda d: simulate_runs(
        _MODEL, 3, [d.draw(st.sampled_from(_BAD_SEEDS))]),
    "build_constant_velocity_model n": lambda d: build_constant_velocity_model(
        dt=0.1, n_nodes=d.draw(st.sampled_from(_BAD_SIZES))),
    "centralized_kf_step": lambda d: centralized_kf_step(
        initial_centralized_state(_MODEL), _MODEL, d.draw(_bad_arrays((6, 1))), 1),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_BAD_CALLS)), data=st.data())
def test_bad_input_raises_only_library_errors(name, data):
    # bad values, shapes, sizes and seeds at the library's entry points: what
    # escapes is a ConfigError or a NumericalError (a non-finite measurement
    # of the centralized reference is a ConfigRejected), and no RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _BAD_CALLS[name](data)
        except (ConfigError, NumericalError):
            pass
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught

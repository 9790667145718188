"""The package's public surface and the benchmark worker built on it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import poptree
from poptree.engine import SimConfig

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


def test_public_names_are_the_cli_and_experiment_api():
    from poptree import SimConfig, run  # noqa: F401  (README's library use)

    assert sorted(poptree.__all__) == sorted(
        [
            "SimConfig",
            "Simulation",
            "run",
            "run_single",
            "ExperimentSpec",
            "ResultBundle",
            "run_experiment",
            "__version__",
        ]
    )
    for name in poptree.__all__:
        assert getattr(poptree, name) is not None


@pytest.mark.parametrize("mode", ["plain", "traced", "memory"])
def test_benchmark_worker_runs_a_tiny_experiment(tmp_path, mode):
    # the worker patches poptree functions by name, so deleting one it
    # wraps fails here and not only in a benchmark run
    experiment = tmp_path / "experiment.json"
    experiment.write_text(
        json.dumps(
            {
                "config": {"n_peers": 20, "t_max": 300, "realizations": 1},
                "snapshot_interval": 100,
                "emit_dot": False,
            }
        )
    )
    done = subprocess.run(
        [sys.executable, "-I", str(WORKER), mode, str(experiment), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["steps"] == 300
    if mode == "plain":
        # one clock mark per 32 Simulation.step calls and one per main-tree
        # extraction (t=0, 100, 200, 300): steps_per_s is cut at these marks,
        # so a run that stops stepping through Simulation.step fails here
        assert len(result["marks_s"]) == 300 // 32 + 4
    if mode == "traced":
        # the per-layer metrics count calls through the names the worker
        # wraps, so a hot path routed around one of them fails here instead
        # of reading 0 in a benchmark run
        boundaries = result["trace"]["boundaries"]
        for name in (
            "engine.step",
            "engine.apply_update",
            "directory.add_node",
            "directory.add_version",
            "peers.index.increment",
        ):
            assert boundaries[name]["calls"] > 0, name
    if mode == "memory":
        # the tracemalloc snapshot is taken when run_single calls
        # metrics.degree_histogram, so a run that stops calling it fails
        # here instead of with a KeyError in a benchmark run
        memory = result["memory"]
        assert memory["traced_bytes"]
        assert memory["versions"] >= 4  # the starting tree's four versions


def test_a_run_does_not_load_the_namespace_model():
    # the simulation core keeps no namespace bridge: the DHT model is built
    # from the preferences by poptree.namespace.view, never by a run
    script = (
        "import sys\n"
        "import poptree, poptree.cli\n"
        "poptree.run_single(poptree.SimConfig(t_max=50, realizations=1))\n"
        "assert 'poptree.namespace' not in sys.modules, sorted(sys.modules)\n"
    )
    src = Path(poptree.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n{script}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_a_one_realization_run_forks_nothing_and_imports_nothing_new():
    # one block of realizations runs the serial code: no fork, and none of
    # the modules the forked path needs (pickle, signal) gets loaded
    script = (
        "import os, sys\n"
        "import poptree, poptree.cli\n"
        "def no_fork():\n"
        "    raise AssertionError('forked')\n"
        "os.fork = no_fork\n"
        "poptree.run(poptree.SimConfig(t_max=50, realizations=1))\n"
        "poptree.run(poptree.SimConfig(t_max=50, realizations=2), jobs=1)\n"
        "assert 'pickle' not in sys.modules and 'signal' not in sys.modules, sorted(sys.modules)\n"
    )
    src = Path(poptree.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n{script}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_the_golden_check_finds_every_pinned_run(tmp_path, monkeypatch):
    # tools/check_golden.py reads the configs and digests of test_golden.py
    # by parsing it, and perfbench's from workloads.py; it must find all eight
    # runs with the pinned configs and digests.  None of them is run here,
    # and nothing is written under perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("check_golden", ROOT / "tools" / "check_golden.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    import test_golden
    import workloads

    runs = {name: (spec, golden) for name, spec, golden in tool.golden_runs(tmp_path)}
    assert sorted(runs) == [
        "perfbench/churn_crowd",
        "perfbench/control",
        "perfbench/dense_observe",
        "tests/churn",
        "tests/control",
        "tests/literal",
        "tests/n_peers_10",
        "tests/sweep",
    ]
    assert runs["tests/sweep"] == (test_golden.SWEEP, test_golden.SWEEP_GOLDEN)
    for name, config in test_golden.CONFIGS.items():
        assert runs[f"tests/{name}"][0].base == config
        assert runs[f"tests/{name}"][1] == test_golden.GOLDEN[name]
    for name in workloads.WORKLOADS:
        pinned = workloads.experiment_file(name, workloads.DEFAULT_SEED)["config"]
        assert runs[f"perfbench/{name}"][0].base == SimConfig(**pinned)
        assert runs[f"perfbench/{name}"][1] == workloads.GOLDEN[name]

"""The package's public surface and the benchmark worker built on it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import poptree

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_public_names_are_the_cli_and_experiment_api():
    from poptree import SimConfig, run  # noqa: F401  (README's library use)

    assert sorted(poptree.__all__) == sorted(
        [
            "SimConfig",
            "Simulation",
            "RunResult",
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

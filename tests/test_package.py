"""The package's public surface and the benchmark worker built on it."""

import copy
import importlib.util
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import poptree
from poptree.engine import SimConfig
from poptree.experiment import ExperimentSpec
from poptree.namespace import ValueRecord, digest

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
    # from the preferences by poptree.namespace.view, never by a run; and
    # set-up (import and parsing the command line) loads no writer
    script = (
        "import sys\n"
        "import poptree, poptree.cli\n"
        "poptree.cli.parse_config(['--steps', '50'])\n"
        "assert 'csv' not in sys.modules and 'poptree.export' not in sys.modules, sorted(sys.modules)\n"
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


def test_set_up_imports_neither_dataclasses_nor_inspect():
    # every record is a NamedTuple, so importing the package and parsing a
    # command line leave out dataclasses and what it pulls in
    script = (
        "import sys\n"
        "import poptree, poptree.cli, poptree.namespace\n"
        "poptree.cli.parse_config(['--steps', '50', '--sweep', 'p_update', '0.1,0.9'])\n"
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    src = Path(poptree.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n{script}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


# (record type, good field values, what they build to, a field, a bad value
# for it, the error that value raises)
RECORDS = [
    (
        SimConfig,
        {**SimConfig._field_defaults, "n_peers": 7, "s": 2},
        (7, 2, 0.5, 0.75, 0.5, 0.0, 100_000, 42, 10, False),
        "n_peers",
        0,
        ValueError("n_peers must be >= 1"),
    ),
    (
        SimConfig,
        SimConfig._field_defaults,
        tuple(SimConfig._field_defaults.values()),
        "s",
        True,
        TypeError("s must be a number, got True"),
    ),
    (
        SimConfig,
        SimConfig._field_defaults,
        tuple(SimConfig._field_defaults.values()),
        "literal_traversal",
        True,
        ValueError(
            "literal_traversal must be false: the literal walk was removed"
            " (see the README's 'Sensitivity to the walk variant')"
        ),
    ),
    (
        ExperimentSpec,
        {
            "base": SimConfig(t_max=10),
            "sweep": ["steps", ["5", 7]],
            "out_dir": "results",
            "snapshot_interval": 5,
            "emit_dot": True,
        },
        (SimConfig(t_max=10), ("t_max", (5, 7)), Path("results"), 5, True),
        "out_dir",
        "",
        ValueError("out_dir must not be empty"),
    ),
    (
        ExperimentSpec,
        {"base": SimConfig(), "sweep": None, "out_dir": None, "snapshot_interval": 1, "emit_dot": False},
        (SimConfig(), None, None, 1, False),
        "sweep",
        ("p_update", (0.5, 2.0)),
        ValueError("p_update must be in [0, 1]"),
    ),
    (
        ValueRecord,
        {"description": "node-1 v1", "content_ref": digest("node-1/v1")},
        ("node-1 v1", digest("node-1/v1")),
        "content_ref",
        b"",
        ValueError("content_ref must be non-empty"),
    ),
]

PATHS = ["positional", "keyword", "_make", "_replace", "pickle", "copy.replace"]


def build(path, cls, good, values):
    """A `cls` with field values `values` built through `path`, which for
    `_replace` and `copy.replace` starts from the record of `good`.  A
    pickle round trip pickles `values` unchecked."""
    if path == "positional":
        return cls(*values.values())
    if path == "keyword":
        return cls(**values)
    if path == "_make":
        return cls._make(values.values())
    if path == "_replace":
        return cls(**good)._replace(**values)
    if path == "pickle":
        return pickle.loads(pickle.dumps(tuple.__new__(cls, values.values())))
    if sys.version_info < (3, 13):
        pytest.skip("copy.replace needs Python 3.13")
    return copy.replace(cls(**good), **values)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "cls, good, built, field, bad, error",
    RECORDS,
    ids=[f"{cls.__name__}-{field}" for cls, _, _, field, _, _ in RECORDS],
)
def test_every_way_of_building_a_record_checks_it(path, cls, good, built, field, bad, error):
    record = build(path, cls, good, good)
    assert type(record) is cls
    assert record == built and record == cls(**good)
    with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
        build(path, cls, good, {**good, field: bad})


SELF_CHECKING = [SimConfig(), ExperimentSpec(), ValueRecord("v1", b"1")]


@pytest.mark.parametrize("record", SELF_CHECKING, ids=lambda r: type(r).__name__)
def test_a_record_cannot_be_changed(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.foo = 1


@pytest.mark.parametrize("record", SELF_CHECKING, ids=lambda r: type(r).__name__)
def test_an_unknown_field_is_a_type_error_naming_the_record(record):
    cls = type(record)
    message = f"{cls.__name__}.__new__() got an unexpected keyword argument 'foo'"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        cls(*record, foo=1)


def load_check_golden(monkeypatch):
    """tools/check_golden.py as a module, with perfbench/ on `sys.path` and
    no bytecode written under it until the test ends."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("check_golden", ROOT / "tools" / "check_golden.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_golden_check_finds_every_pinned_run(tmp_path, monkeypatch):
    # tools/check_golden.py imports the configs and digests of tests/golden.py,
    # and perfbench's from workloads.py; it must find all seven runs with the
    # pinned configs and digests.  None of them is run here, and nothing is
    # written under perfbench/.
    tool = load_check_golden(monkeypatch)
    import golden
    import workloads

    runs = {name: (spec, golden) for name, spec, golden in tool.golden_runs(tmp_path)}
    assert sorted(runs) == [
        "perfbench/churn_crowd",
        "perfbench/control",
        "perfbench/dense_observe",
        "tests/churn",
        "tests/control",
        "tests/n_peers_10",
        "tests/sweep",
    ]
    assert runs["tests/sweep"] == (golden.SWEEP, golden.SWEEP_GOLDEN)
    for name, config in golden.CONFIGS.items():
        assert runs[f"tests/{name}"][0].base == config
        assert runs[f"tests/{name}"][1] == golden.GOLDEN[name]
    for name in workloads.WORKLOADS:
        pinned = workloads.experiment_file(name, workloads.DEFAULT_SEED)["config"]
        assert runs[f"perfbench/{name}"][0].base == SimConfig(**pinned)
        assert runs[f"perfbench/{name}"][1] == workloads.GOLDEN[name]


def test_the_golden_check_reports_a_digest_that_differs(tmp_path, monkeypatch, capsys):
    # one tiny run stands in for the golden runs: with one of its two pinned
    # digests wrong the check names that file and fails; with both right it
    # passes.  The check chdirs and prepends to sys.path; monkeypatch puts
    # both back.
    from poptree.experiment import ExperimentSpec, run_experiment

    monkeypatch.chdir(tmp_path)
    tool = load_check_golden(monkeypatch)
    config = SimConfig(t_max=50, realizations=1)
    run_experiment(ExperimentSpec(base=config, out_dir=tmp_path / "expected"), jobs=1)
    right = {f: tool.digest(tmp_path / "expected" / f) for f in ("series.csv", "majority.csv")}
    pinned = {**right, "majority.csv": "0" * 64}

    def tiny_run(out):
        yield "tiny", ExperimentSpec(base=config, out_dir=out / "tiny"), pinned

    monkeypatch.setattr(tool, "golden_runs", tiny_run)
    assert tool.check_here() == 1
    assert capsys.readouterr().out.endswith(" tiny: differs: majority.csv\n")
    pinned.update(right)
    assert tool.check_here() == 0
    assert capsys.readouterr().out.endswith(" tiny: ok\n")


def test_the_golden_check_goes_on_past_an_interpreter_it_cannot_start(tmp_path, monkeypatch, capsys):
    # a missing interpreter is one failure line, not a traceback; no golden
    # run starts
    tool = load_check_golden(monkeypatch)
    missing = tmp_path / "missing" / "python3"
    assert tool.main([str(missing), str(missing)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{missing}: cannot run: [Errno 2] No such file or directory: '{missing}'"] * 2


def test_the_opcode_counter_prints_the_same_counts_twice():
    # tools/opcount.py counts instructions exactly, so two runs, each with
    # its own hash seed, print the same; both see the step and its walk
    command = [sys.executable, "-I", str(ROOT / "tools" / "opcount.py")]
    command += ["--warmup", "200", "--steps", "100", "--lines", "walk"]
    runs = [subprocess.run(command, capture_output=True, text=True, timeout=60) for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(sys.version + "\n")
        assert " Simulation.step (engine.py:" in done.stdout
        assert "walk (peers.py:" in done.stdout
        assert "walk:\n" in done.stdout.split("  per line of ", 1)[1]
    assert runs[0].stdout == runs[1].stdout

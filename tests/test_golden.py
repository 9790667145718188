"""Golden trace: output digests of four short runs, pinned across changes.

A run is a pure function of its config, and these digests pin that
function from one version of the code to the next.  A refactor or a speed-up
must leave them unchanged; a digest that moves means the trajectory (or the
output format) changed, which needs its own justification.  The realizations
run in one process (jobs=1) and split over a forked worker and the caller
(jobs=2); both must write the same bytes.  A two-point sweep pins the rest of
what a run writes: config.json, the param=value directories, the sweep value
in histograms.json and the DOT file.  The configs and digests live in
golden.py, which tools/check_golden.py also reads.
"""

import hashlib
from pathlib import Path

import pytest

from golden import CONFIGS, GOLDEN, SWEEP, SWEEP_GOLDEN
from poptree import engine
from poptree.experiment import ExperimentSpec, run_experiment


def assert_golden(name, jobs, out_dir):
    run_experiment(ExperimentSpec(base=CONFIGS[name], out_dir=out_dir), jobs=jobs)
    digests = {
        file: hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
        for file in GOLDEN[name]
    }
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "available_cpus", lambda: 2)  # so jobs=2 forks on any host
    assert_golden(name, 2, tmp_path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests_in_one_process(name, tmp_path):
    assert_golden(name, 1, tmp_path)


def sweep_digests(out_dir):
    """SHA-256 of every file under `out_dir`, by its path relative to it."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_outputs_match_golden_digests(jobs, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "available_cpus", lambda: 2)  # so jobs=2 forks on any host
    monkeypatch.chdir(tmp_path)
    run_experiment(SWEEP, jobs=jobs)
    assert sweep_digests(SWEEP.out_dir) == SWEEP_GOLDEN

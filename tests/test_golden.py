"""Golden trace: output digests of four short runs, pinned across changes.

A run is a pure function of its config, and these digests pin that
function from one version of the code to the next.  A refactor or a speed-up
must leave them unchanged; a digest that moves means the trajectory (or the
output format) changed, which needs its own justification.
"""

import hashlib
from dataclasses import replace

import pytest

from poptree.engine import SimConfig
from poptree.experiment import ExperimentSpec, run_experiment

BASE = SimConfig(t_max=20_000, realizations=2, seed=42)

CONFIGS = {
    "control": BASE,
    "churn": replace(BASE, n_peers=1000, p_leave=0.9),
    "n_peers_10": replace(BASE, n_peers=10),
    "literal": replace(BASE, literal_traversal=True),
}

GOLDEN = {
    "control": {
        "series.csv": "6e1a6b35496cf35b93ab6b3a4d3f54de2d36deb5fdcfec36093fe41e16d44cc7",
        "majority.csv": "5e7c9cde06c2dbb4c5798021e1c35bad97ecef60e851a95a9f512cbaa4d32fea",
        "histograms.json": "6b7cb5c38ad6016e73a1ad5a287b391fc6a32f649366a42d29e1cc2dd1582ce9",
    },
    "churn": {
        "series.csv": "2c23c1120f01d3ac07aeac126249dc94f5848eaef67d58c7c070fea5c2b05c8c",
        "majority.csv": "adbc87f443dac98b01cfc9ffd4b0f656fe1bd82895d65e41d93d2d6b630804df",
        "histograms.json": "a96815d70007cf13883f4347eb06fd9ed61948c81e617cb7de67746494d24132",
    },
    "n_peers_10": {
        "series.csv": "41ef56e3e514f17fe79fbdfbd5e764df431bec79067a54b47dd922d941660569",
        "majority.csv": "0d3f106a1aadac385ab07f77676a0a93c5fa76b9b491c0f39adbb77ce8810dad",
        "histograms.json": "99ac50e331f226c63221900f5945ba488ff6af232e8409aedff862e66fbc4aca",
    },
    "literal": {
        "series.csv": "2041456060d13b49a43996128c44564b130e742c0f03d251470d6e6a73c989ff",
        "majority.csv": "593f681150cf210de64b2c61a02e81e4bd6576cb906ad19a9601d59b9c2095b6",
        "histograms.json": "e2a9c519799d0c6c0af895f36ac473d1c5c5483a0dc9d008275fe6e1985591f2",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    run_experiment(ExperimentSpec(base=CONFIGS[name], out_dir=tmp_path))
    digests = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in GOLDEN[name]
    }
    assert digests == GOLDEN[name]

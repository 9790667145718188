"""The benchmark's workloads, each an experiment file for `poptree --config`,
and the digests their outputs must have at the default seed.

Why each workload exists (the layer it stresses, and which layer changes it
should bypass) is recorded in README.md next to this file.
"""

from __future__ import annotations

DEFAULT_SEED = 42

# Fields left out keep SimConfig's control defaults: s=1, p_update=0.5,
# p_add=0.75, p_file=0.5, p_leave=0.
WORKLOADS = {
    "control": {
        "config": {"n_peers": 100, "t_max": 30_000, "realizations": 2},
        "snapshot_interval": 1000,
        "emit_dot": False,
    },
    "churn_crowd": {
        "config": {"n_peers": 1000, "p_leave": 0.9, "t_max": 30_000, "realizations": 1},
        "snapshot_interval": 1000,
        "emit_dot": False,
    },
    "dense_observe": {
        "config": {"n_peers": 10, "t_max": 5_000, "realizations": 16},
        "snapshot_interval": 2,
        "emit_dot": True,
    },
}

GOLDEN_FILES = ("series.csv", "majority.csv", "histograms.json")

# SHA-256 of GOLDEN_FILES at DEFAULT_SEED.  A change here is a change of
# trajectory, which needs its own justification.
GOLDEN = {
    "control": {
        "series.csv": "01e11780b2b2d37c45f41fd03aff6d7310f86ccec76bfc53c8c2a1158b135bb6",
        "majority.csv": "cde6f921dd842bd91e45abe055dab7faf27a9e774946cb3c46ab7117accd71a5",
        "histograms.json": "ecfa27ca26d52c95d84479ca6a278a795a9ed91182602bff470ab1d79c9e6e5f",
    },
    "churn_crowd": {
        "series.csv": "bb1bf9ce60055218035312ba3465ba4148ab03ac565d72ff1a0c91765b50f073",
        "majority.csv": "6ef3513c803889e087f1bb85fc75d61e953342c71a317b8950a95c3c36270cfd",
        "histograms.json": "a65ab97a4a431acb15459a7c99646970ff620ae278a1d801a7458b426242e68a",
    },
    "dense_observe": {
        "series.csv": "ea708bb61ba251a7411f3b662c50835f1b036e0dda381cd05d07d8b86401b3ea",
        "majority.csv": "359454860c4e37c62a1776ba2a13cf3063b1ad8f487cbb85b8a5a99657609971",
        "histograms.json": "66a0ce2014aa611c220e280250c0746794a6e52401787b61b8d9947fcd984837",
    },
}


def experiment_file(name: str, seed: int) -> dict:
    """The JSON experiment file `poptree --config` reads for one workload."""
    workload = WORKLOADS[name]
    return {
        "config": {**workload["config"], "seed": seed},
        "snapshot_interval": workload["snapshot_interval"],
        "emit_dot": workload["emit_dot"],
    }

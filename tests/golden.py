"""The golden runs: three configs and a two-point sweep, with the SHA-256 of
every file each writes, pinned across changes.

tests/test_golden.py runs them under pytest and tools/check_golden.py under
any interpreter, so this module imports nothing but poptree.
"""

from poptree.engine import SimConfig
from poptree.experiment import ExperimentSpec

BASE = SimConfig(t_max=20_000, realizations=2, seed=42)

CONFIGS = {
    "control": BASE,
    "churn": BASE._replace(n_peers=1000, p_leave=0.9),
    "n_peers_10": BASE._replace(n_peers=10),
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
}

# run from the directory that holds "sweep", so config.json's out_dir stays
# relative and its bytes do not depend on where the check runs
SWEEP = ExperimentSpec(
    base=SimConfig(t_max=2_000, realizations=2),
    sweep=("p_update", (0.1, 0.9)),
    out_dir="sweep",
    snapshot_interval=500,
    emit_dot=True,
)

SWEEP_GOLDEN = {
    "config.json": "7a8790f23e3826102f1f06eb7181d4a2dfddaf16747311c35670f2325c9dd922",
    "p_update=0.1/histograms.json": "22bb894b18b727d36558a7591f483011ce42f3ce1fc68ca9aa44666bd9e74e40",
    "p_update=0.1/main_tree_2000.dot": "6ed4b6c9d3e604e1c1cad7c48daf264f5274f5d93b5299f3cc033c311345ead6",
    "p_update=0.1/majority.csv": "55a72cdcfdb51ce7ff3d6f93c73b47e95dc9018e097df1abd257dbd1b4b51277",
    "p_update=0.1/series.csv": "c82d0c1d6cb2573371b8817e8a34f3bac14d34a5afe7147c40727e99a135c8c6",
    "p_update=0.9/histograms.json": "7b642ce0aa1cf0a9e85ebcf57d33bfd06b18e52be846a96dc6fd4ed1f7d1ba66",
    "p_update=0.9/main_tree_2000.dot": "6b207a0b2766502d5c2340a7cb6f4930165a050dd3d853b3896f19ac80e6b64b",
    "p_update=0.9/majority.csv": "df59feaf53a628ce05fc669397a93a5c0700d82efc156b97f6091b557bd18c42",
    "p_update=0.9/series.csv": "608de4f4eff449c4347c489c7a87601f33b0be903a1e4f450c2bb2f705a333f3",
}

"""Seeded simulator of a popularity-governed, multi-version directory tree.

Peers browse and update a shared tree of directory and file nodes where
every node may carry versions from many writers; default browsing always
follows the most viewed version.  The package models the multi-writer
namespace, the browsing/updating peer population, and the metrics that
show popularity steering the commonly seen tree toward quality above the
update average.

The package exports what the command line and the experiment API need;
the building blocks live in their submodules (`poptree.directory`,
`poptree.peers`, `poptree.metrics`, ...).
"""

from .engine import ResultBundle, SimConfig, Simulation, run, run_single
from .experiment import ExperimentSpec, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "ResultBundle",
    "SimConfig",
    "Simulation",
    "run",
    "run_experiment",
    "run_single",
    "__version__",
]

"""Check the golden output digests under one or more Python interpreters.

    python3 tools/check_golden.py [INTERPRETER...]

Runs the four configs of tests/test_golden.py and the three workloads of
perfbench/workloads.py at their pinned seeds, in one process (jobs=1), and
compares the SHA-256 of series.csv, majority.csv and histograms.json with
the digests pinned in those two files.  With INTERPRETERs it runs itself
under each of them in turn; without, it checks the interpreter running it.

It needs only the standard library, so it runs under interpreters that have
no pytest: it takes the configs and digests from tests/test_golden.py
without importing pytest, and imports poptree from src/.  It edits nothing.
Prints one line per run and exits 1 if any digest differs.
"""

from __future__ import annotations

import ast
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def golden_test_constants() -> dict:
    """The imports and assignments of tests/test_golden.py, run without the
    rest of the module: CONFIGS and GOLDEN, among others."""
    source = ROOT / "tests" / "test_golden.py"
    module = ast.parse(source.read_text(), str(source))
    module.body = [node for node in module.body if isinstance(node, (ast.ImportFrom, ast.Assign))]
    namespace: dict = {}
    exec(compile(module, str(source), "exec"), namespace)
    return namespace


def golden_runs(out: Path):
    """(name, spec writing under `out`, pinned digests) for every golden run."""
    from poptree.experiment import ExperimentSpec, spec_from_dict
    from workloads import DEFAULT_SEED, GOLDEN, WORKLOADS, experiment_file

    tests = golden_test_constants()
    for name, config in tests["CONFIGS"].items():
        spec = ExperimentSpec(base=config, out_dir=out / "tests" / name)
        yield f"tests/{name}", spec, tests["GOLDEN"][name]
    for name in WORKLOADS:
        data = {**experiment_file(name, DEFAULT_SEED), "out_dir": str(out / "perfbench" / name)}
        yield f"perfbench/{name}", spec_from_dict(data), GOLDEN[name]


def check_here() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from poptree.experiment import run_experiment

    version = ".".join(map(str, sys.version_info[:3]))
    failed = 0
    with tempfile.TemporaryDirectory() as out:
        for name, spec, golden in golden_runs(Path(out)):
            run_experiment(spec, jobs=1)
            differ = [
                file
                for file, digest in golden.items()
                if hashlib.sha256((spec.out_dir / file).read_bytes()).hexdigest() != digest
            ]
            failed += bool(differ)
            result = "differs: " + ", ".join(differ) if differ else "ok"
            print(f"{version} {name}: {result}", flush=True)
    return 1 if failed else 0


def main(interpreters: list[str]) -> int:
    if not interpreters:
        return check_here()
    status = 0
    for interpreter in interpreters:
        status |= subprocess.run([interpreter, "-I", str(Path(__file__).resolve())]).returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

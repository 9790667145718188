"""Check the golden output digests under one or more Python interpreters.

    python3 tools/check_golden.py [INTERPRETER...]

Runs the four configs and the sweep of tests/golden.py and the three
workloads of perfbench/workloads.py at their pinned seeds, in one process
(jobs=1), and compares the SHA-256 of series.csv, majority.csv and
histograms.json (for the sweep, of every file it writes) with the digests
pinned in those two files; a missing file, or a file the sweep writes that
has no digest, differs.  The runs write under a temporary directory,
which is also the working directory, since the sweep's out_dir is relative.
With INTERPRETERs it runs itself under each of them in turn; without, it
checks the interpreter running it.  An interpreter it cannot start prints
one "<interpreter>: cannot run: <error>" line and counts as a failure; the
check goes on to the next one.

It needs only the standard library, so it runs under interpreters that have
no pytest: tests/golden.py imports nothing but dataclasses and poptree, which
it imports from src/.  It edits nothing.  Prints one line per run and exits 1
if any digest differs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def golden_runs(out: Path):
    """(name, spec, pinned digests) for every golden run.  Every spec writes
    under `out` but the sweep's, whose out_dir is relative to the working
    directory."""
    import golden
    from poptree.experiment import ExperimentSpec, spec_from_dict
    from workloads import DEFAULT_SEED, GOLDEN, WORKLOADS, experiment_file

    for name, config in golden.CONFIGS.items():
        spec = ExperimentSpec(base=config, out_dir=out / "tests" / name)
        yield f"tests/{name}", spec, golden.GOLDEN[name]
    yield "tests/sweep", golden.SWEEP, golden.SWEEP_GOLDEN
    for name in WORKLOADS:
        data = {**experiment_file(name, DEFAULT_SEED), "out_dir": str(out / "perfbench" / name)}
        yield f"perfbench/{name}", spec_from_dict(data), GOLDEN[name]


def digest(path: Path) -> str | None:
    """The SHA-256 of the file at `path`, or None if there is none."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def check_here() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    from poptree.experiment import run_experiment

    version = ".".join(map(str, sys.version_info[:3]))
    failed = 0
    with tempfile.TemporaryDirectory() as out:
        os.chdir(out)  # the sweep's relative out_dir lands here
        try:
            for name, spec, golden in golden_runs(Path(out)):
                run_experiment(spec, jobs=1)
                files = set(golden)
                if spec.sweep is not None:  # a sweep's digests pin every file it writes
                    written = (p for p in spec.out_dir.rglob("*") if p.is_file())
                    files |= {p.relative_to(spec.out_dir).as_posix() for p in written}
                differ = [f for f in sorted(files) if digest(spec.out_dir / f) != golden.get(f)]
                failed += bool(differ)
                result = "differs: " + ", ".join(differ) if differ else "ok"
                print(f"{version} {name}: {result}", flush=True)
        finally:
            os.chdir(ROOT)  # leave the temporary directory before it is removed
    return 1 if failed else 0


def main(interpreters: list[str]) -> int:
    if not interpreters:
        return check_here()
    status = 0
    for interpreter in interpreters:
        try:
            failed = subprocess.run([interpreter, "-I", str(Path(__file__).resolve())]).returncode != 0
        except OSError as error:  # missing, not executable, not a program
            print(f"{interpreter}: cannot run: {error}", flush=True)
            failed = True
        status |= failed
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

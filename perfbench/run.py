"""poptree benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload control [--seed 42] [--seconds 60] [--trace 0]

The load is one closed-loop client: the runner starts one workload process
(`worker.py`, which does what `poptree --config FILE --out DIR` does) and
starts the next only after it has exited.  It never runs two at once.

--trace 0 measures the end-to-end metrics.  It repeats the workload, and
set-up alone in fresh interpreters, until --seconds have passed.

--trace 1 measures the per-layer metrics: one untraced run, one run with
every layer boundary wrapped by the tracer, and one run under tracemalloc.
The trace is written to .perfbench-work/ in the checkout.

Every run's outputs are checked.  At the default seed the SHA-256 of
series.csv, majority.csv and histograms.json must equal the golden digests
in workloads.py.  At any other seed all runs of the invocation must write
identical bytes.  On control, the final averaged main-tree quality must also
exceed the mean update quality 1/(1+s), the paper's claim.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count realizations.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, GOLDEN, WORKLOADS, experiment_file  # noqa: E402

MIN_REPEATS = 2
DEADLINE_S = 170  # every child is stopped by then, so the runner ends within 180 s
MIB = 1 << 20

# The boundary whose self time is the largest when a workload does what it
# was built for.
PURPOSE = {"churn_crowd": "peers.viewing", "dense_observe": "directory.main_tree"}

COUNTED = (
    "engine.step", "engine.apply_update", "peers.viewing", "peers.select",
    "peers.set_preference", "peers.churn_reset", "namespace.put",
    "namespace.remove_peer", "directory.add_version", "directory.versions_of",
    "directory.main_tree", "metrics.observe",
)
TIMED = COUNTED + (
    "engine.choose_update_index", "peers.index.increment", "peers.index.decrement",
    "namespace.key_for", "directory.add_node", "metrics.snapshot", "metrics.histograms",
    "experiment.run_experiment", "experiment.average_snapshots", "export.write_outputs",
)


class Runner:
    """Starts worker processes one at a time, all before a shared deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.realizations = WORKLOADS[workload]["config"]["realizations"]
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.experiment = self.dir / "experiment.json"
        self.experiment.write_text(json.dumps(experiment_file(workload, seed)))
        self.launched = 0

    def spawn(self, mode: str) -> dict | None:
        """Run one worker; its result, or None if it failed or ran out of time."""
        out = self.dir / f"out-{self.launched}"
        self.launched += 1
        command = [sys.executable, "-I", str(HERE / "worker.py"), mode, str(self.experiment), str(out)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            # on timeout, subprocess.run kills the worker and waits for it
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{mode} worker stopped after {timeout:.0f} s", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])


def check(results: list[dict | None], workload: str, seed: int) -> list[bool]:
    """Whether each run's outputs are correct (see the module docstring)."""
    if seed == DEFAULT_SEED:
        reference = GOLDEN[workload]
    else:
        reference = next((r["digests"] for r in results if r is not None), None)
    verdicts = []
    for result in results:
        ok = result is not None and result["digests"] == reference
        if ok and workload == "control":
            ok = result["final_quality"] > result["mean_quality"]
        verdicts.append(ok)
    return verdicts


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def fastest_run_s(runs: list[dict]) -> float:
    """The run time of `run_experiment` with every piece at its fastest.

    Other tenants of the host only ever slow a process down, by up to 1.8
    times, in phases from a millisecond to minutes.  The repetitions run the
    same experiment, so the time between two clock marks (about 1 ms apart)
    is the same work in each of them; the fastest repetition of every piece
    is summed.
    """
    pieces = [
        [b - a for a, b in zip([0.0, *r["marks_s"]], [*r["marks_s"], r["run_s"]])]
        for r in runs
    ]
    if len({len(p) for p in pieces}) != 1:
        raise ValueError("repetitions of one experiment took different numbers of clock marks")
    return sum(min(column) for column in zip(*pieces))


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict | None]]:
    setups: list[dict | None] = []
    runs: list[dict | None] = []
    begin = time.monotonic()
    last = 0.0
    while len(runs) < MIN_REPEATS or time.monotonic() - begin + last <= seconds:
        started = time.monotonic()
        # set-up samples are spread over the run, so that they meet the
        # host's quiet and busy phases in the same share as the workload
        setups.append(runner.spawn("setup"))
        runs.append(runner.spawn("plain"))
        last = time.monotonic() - started
    good = [r for r in runs if r is not None]
    if not good:
        return {}, runs
    whole = [r["steps"] / r["run_s"] for r in good]
    print(f"steps_per_s of whole repetitions: median {statistics.median(whole):.6g} ({quartiles(whole)})")
    samples = {
        "setup_s": [r["setup_s"] for r in setups + runs if r is not None],
        "peak_rss_mib": [r["rss_peak_bytes"] / MIB for r in good],
        "bytes_per_version": [
            (r["rss_peak_bytes"] - r["rss_setup_bytes"]) / r["max_versions"] for r in good
        ],
    }
    for name, values in samples.items():
        print(f"{name}: median {statistics.median(values):.6g} ({quartiles(values)})")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["steps_per_s"] = good[0]["steps"] / fastest_run_s(good)
    return metrics, runs


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(runner: Runner, seed: int) -> tuple[dict, list[dict | None]]:
    plain, traced, memory = runs = [runner.spawn(mode) for mode in ("plain", "traced", "memory")]
    if traced is None or memory is None or plain is None:
        return {}, runs
    trace = traced["trace"]
    boundaries, counters = trace["boundaries"], trace["counters"]

    def calls(name):
        return boundaries[name]["calls"]

    metrics = {f"{name}.calls": calls(name) for name in COUNTED}
    metrics.update({f"{name}.self_s": boundaries[name]["self_s"] for name in TIMED})
    traced_bytes = memory["memory"]["traced_bytes"]
    metrics.update({
        "engine.path_len_mean": ratio(counters.get("path_len", 0), calls("engine.step")),
        "engine.update_ratio": ratio(counters.get("updates", 0), calls("engine.step")),
        "peers.viewing.first_view_ratio": ratio(counters.get("first_views", 0), calls("peers.viewing")),
        "peers.deviation_ratio": ratio(calls("peers.select"), calls("peers.viewing")),
        "peers.set_preference.noop_ratio": ratio(
            counters.get("noop_preferences", 0), calls("peers.set_preference")
        ),
        "peers.traced_bytes": traced_bytes.get("peers", 0),
        "namespace.reads_per_write": ratio(
            calls("namespace.get") + calls("namespace.resolve"), calls("namespace.put")
        ),
        "namespace.traced_bytes": traced_bytes.get("namespace", 0),
        "directory.traced_bytes_per_version": ratio(
            traced_bytes.get("directory", 0), memory["memory"]["versions"]
        ),
        "directory.main_tree.nodes_per_call": ratio(
            counters.get("main_tree_nodes", 0), calls("directory.main_tree")
        ),
        "metrics.majority_events": traced["majority_events"],
        "export.bytes_written": traced["bytes_written"],
        "cli.import_s": traced["import_s"],
        "cli.parse_config.self_s": traced["parse_config_s"],
        "trace.overhead_ratio": traced["run_s"] / plain["run_s"],
    })

    total = sum(b["self_s"] for b in boundaries.values())
    print(f"traced run {traced['run_s']:.3f} s, untraced {plain['run_s']:.3f} s; self time by boundary:")
    for name, b in sorted(boundaries.items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {name:32s} {b['calls']:>9d} calls {b['self_s']:8.3f} s {b['self_s'] / total:6.1%}")
    print("traced bytes by source file, last realization:", json.dumps(traced_bytes, sort_keys=True))
    largest = max(boundaries, key=lambda name: boundaries[name]["self_s"])
    expected = PURPOSE.get(runner.workload)
    if expected is not None:
        verdict = "confirmed" if largest == expected else "NOT confirmed"
        print(f"purpose: largest self time is {largest}, expected {expected}: {verdict}")

    trace_file = WORK / f"trace-{runner.workload}-{seed}.json"
    trace_file.write_text(json.dumps({**trace, "memory": memory["memory"]}, indent=1))
    return metrics, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one poptree benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "poptree" / "__init__.py").is_file():
        print(f"no poptree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args.workload, args.seed)
    if runner.spawn("setup") is None:  # also compiles the bytecode before timing
        print("poptree cannot be imported", file=sys.stderr)
        return 1

    if args.trace:
        metrics, runs = per_layer(runner, args.seed)
        wanted = declared["per_layer"]
    else:
        metrics, runs = end_to_end(runner, args.seconds)
        wanted = declared["end_to_end"]
    shutil.rmtree(runner.dir, ignore_errors=True)

    verdicts = check(runs, args.workload, args.seed)
    attempted = runner.realizations * len(runs)
    failed = runner.realizations * verdicts.count(False)
    print(f"failed_ratio: {failed / attempted:.6g} fraction ({failed} of {attempted} realizations)")
    if not metrics:
        print("no run finished, so there are no metrics", file=sys.stderr)
        return 1
    for item in wanted:
        print(f"{item['name']}: {metrics[item['name']]:.6g} {item['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            item["name"]: {"value": metrics[item["name"]], "unit": item["unit"]} for item in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

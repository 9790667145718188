"""One workload process: `poptree --config FILE --out DIR` through the
public API (`cli.parse_config`, then `experiment.run_experiment`), timed
from outside the package.

    python3 -I perfbench/worker.py MODE FILE DIR

MODE is one of
  setup   time `import poptree` and `cli.parse_config`, then exit;
  plain   also run the experiment, untraced but for one clock read per
          main-tree snapshot and one per MARK_EVERY steps;
  traced  run it with every layer boundary wrapped by the tracer;
  memory  run it with tracemalloc on during the last realization, and take
          a per-file snapshot while that realization's state is still live.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = SRC / "poptree"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import GOLDEN_FILES  # noqa: E402

MARK_EVERY = 32  # steps; about 1 ms on a 2-core VM


def max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux: KiB


def install_marks(marks: list[float]) -> None:
    """Read the clock every MARK_EVERY steps and each time a realization
    extracts its main tree (at its start and at every snapshot).  This cuts
    an untraced run into pieces of about a millisecond that are the same work
    in every process running the same experiment."""
    from poptree import engine

    clock = time.perf_counter
    main_tree = engine.main_tree
    step = engine.Simulation.step
    count = 0

    def marked(*args):
        marks.append(clock())
        return main_tree(*args)

    def stepped(self):
        nonlocal count
        count += 1
        if count % MARK_EVERY == 0:
            marks.append(clock())
        return step(self)

    engine.main_tree = marked
    engine.Simulation.step = stepped


def install_timing(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from poptree import directory, engine, experiment, export, metrics, namespace, peers

    def first_view(population, node, peer, rng):
        if population.preference(peer, node) is None:
            tracer.count("first_views")

    def noop_preference(population, peer, node, version):
        if population.preference(peer, node) == version:
            tracer.count("noop_preferences")

    def walked(record, sim):
        tracer.count("path_len", len(record.path))
        if record.updated is not None:
            tracer.count("updates")

    def extracted(tree, store, index, rng):
        tracer.count("main_tree_nodes", tree.size)

    patch = tracer.patch
    patch(experiment, "run_experiment", "experiment.run_experiment", span=True)
    patch(export, "write_outputs", "export.write_outputs", span=True)
    patch(engine, "run_single", "engine.run_single", span=True)
    patch(engine.Simulation, "step", "engine.step", after=walked)
    patch(engine.Simulation, "apply_update", "engine.apply_update")
    patch(engine, "choose_update_index", "engine.choose_update_index")
    patch(peers.PeerPopulation, "viewing", "peers.viewing", before=first_view)
    patch(peers.PeerPopulation, "select", "peers.select")
    patch(peers.PeerPopulation, "set_preference", "peers.set_preference", before=noop_preference)
    patch(peers.PeerPopulation, "churn_reset", "peers.churn_reset")
    patch(peers.PopularityIndex, "increment", "peers.index.increment")
    patch(peers.PopularityIndex, "decrement", "peers.index.decrement")
    for method in ("put", "remove_peer", "key_for", "get", "resolve"):
        patch(namespace.Namespace, method, f"namespace.{method}")
    for method in ("add_version", "add_node", "versions_of"):
        patch(directory.DirectoryStore, method, f"directory.{method}")
    patch(engine, "main_tree", "directory.main_tree", after=extracted)
    patch(metrics.MajorityTracker, "observe", "metrics.observe")
    patch(metrics, "snapshot", "metrics.snapshot")
    for function in ("degree_histogram", "viewers_histogram", "viewers_by_quality"):
        patch(metrics, function, "metrics.histograms")
    patch(metrics, "average_snapshots", "experiment.average_snapshots")


def install_memory(tracer: Tracer, memory: dict) -> None:
    """Trace allocations during the last realization only, and group them by
    source file when its end-of-run histograms start."""
    from poptree import engine, metrics

    def start(config, realization, *rest):
        if realization == config.realizations - 1:
            tracemalloc.start()

    def snapshot(store, index, rng):
        if not tracemalloc.is_tracing():
            return
        stats = tracemalloc.take_snapshot().statistics("filename")
        tracemalloc.stop()
        by_file: dict[str, int] = {}
        for stat in stats:
            path = Path(stat.traceback[0].filename)
            module = path.stem if path.parent == PACKAGE else "other"
            by_file[module] = by_file.get(module, 0) + stat.size
        memory["traced_bytes"] = by_file
        memory["versions"] = store.total_versions

    tracer.patch(engine, "run_single", "engine.run_single", before=start)
    tracer.patch(metrics, "degree_histogram", "metrics.histograms", before=snapshot)


def main(argv: list[str]) -> int:
    mode, experiment_file, out_dir = argv
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import poptree
    import poptree.cli
    import poptree.experiment

    imported = time.perf_counter()
    if Path(poptree.__file__).resolve().parent != PACKAGE:
        print(f"poptree was imported from {poptree.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    spec = poptree.cli.parse_config(["--config", experiment_file, "--out", out_dir])
    parsed = time.perf_counter()
    result = {"import_s": imported - started, "parse_config_s": parsed - imported}
    result["setup_s"] = parsed - started
    if mode == "setup":
        print(json.dumps(result))
        return 0

    rss_setup = max_rss_bytes()
    tracer = Tracer()
    memory: dict = {}
    marks: list[float] = []
    if mode == "plain":
        install_marks(marks)
    elif mode == "traced":
        install_timing(tracer)
    elif mode == "memory":
        install_memory(tracer, memory)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    begin = time.perf_counter()
    bundles = poptree.experiment.run_experiment(spec)
    result["run_s"] = time.perf_counter() - begin
    rss_peak = max_rss_bytes()

    (bundle,) = bundles  # workloads have no sweep
    series = bundle.series
    out = Path(out_dir)
    result.update(
        steps=bundle.config.t_max * len(series),
        max_versions=max(s.snapshots[-1].total_versions for s in series),
        rss_setup_bytes=rss_setup,
        rss_peak_bytes=rss_peak,
        final_quality=bundle.average[-1].main_tree_avg_quality,
        mean_quality=1.0 / (1.0 + bundle.config.s),
        majority_events=sum(len(s.majority_events) for s in series),
        bytes_written=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        digests={
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_FILES
        },
    )
    if mode == "plain":
        result["marks_s"] = [mark - begin for mark in marks]
    elif mode == "traced":
        result["trace"] = tracer.report()
    elif mode == "memory":
        result["memory"] = memory
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""File exporters: CSV time series, JSON histograms, DOT main trees.

All writers are deterministic: identical results serialize to identical
bytes, so reruns of the same spec can be diffed directly.
"""

from __future__ import annotations

import csv
import json
import os
from io import TextIOWrapper
from itertools import chain
from pathlib import Path

from .directory import MainTree
from .engine import ResultBundle
from .metrics import MajorityEvent, Snapshot

# a row is the realization followed by every field of its record, in order
SERIES_FIELDS = ("realization", *Snapshot._fields)
MAJORITY_FIELDS = ("realization", *MajorityEvent._fields)

# quartile fills, low quality (light) to high quality (dark)
_QUARTILE_FILLS = ("gray85", "gray70", "gray55", "gray38")


def export_dot(tree: MainTree) -> str:
    """Render a main tree as a DOT graph: ellipses for directories,
    diamonds for files, four grey levels by quality quartile."""
    lines = ["digraph main_tree {"]
    if tree.nodes:
        lines.append("  node [style=filled];")
        for node, v in tree.nodes.items():
            shape = "ellipse" if v.is_dir else "diamond"
            fill = _QUARTILE_FILLS[min(int(v.quality * 4), 3)]
            lines.append(
                f'  "{node}" [label="{node}:v{v.version} q={v.quality:.2f}" '
                f"shape={shape} fillcolor={fill}];"
            )
        for parent, child in tree.edges():
            lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def histograms_payload(bundle: ResultBundle) -> dict:
    """End-of-run histograms for every realization, with enough metadata
    (resolved config, counting conventions) to reproduce the run."""
    config = bundle.config._asdict()
    if bundle.sweep_value is not None:
        config["_sweep_value"] = bundle.sweep_value
    return {
        "config": config,
        "conventions": {
            "degree_histogram": (
                "one representative version per node: the most viewed, ties "
                "broken at random; nodes with no viewers excluded"
            ),
            "viewers_histogram": "per version, versions with at least one viewer",
            "viewers_by_quality": "per version over all versions, quality deciles",
        },
        "realizations": [
            {
                "realization": realization,
                "degree_histogram": {str(k): v for k, v in sorted(series.degree_histogram.items())},
                "viewers_histogram": {str(k): v for k, v in sorted(series.viewers_histogram.items())},
                "viewers_by_quality": [
                    {**bucket._asdict(), "mean_viewers": bucket.mean_viewers}
                    for bucket in series.viewers_by_quality
                ],
                "majority_events": len(series.majority_events),
            }
            for realization, series in enumerate(bundle.series)
        ],
    }


def _csv(handle, rows) -> None:
    """Write `rows` as CSV, each ended by "\\n", one row at a time."""
    csv.writer(handle, lineterminator="\n").writerows(rows)


def _write_whole(path: Path, write, content, newline: str | None = None) -> None:
    """Call write(handle, content) on a temp file next to `path`, opened
    with `newline`, then move it onto `path`: a reader, or a run that fails
    half-way, never sees a half-written file."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", newline=newline) as handle:
            write(handle, content)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json(path: Path, payload) -> None:
    """Write `payload` whole to `path` as JSON, indented, keys sorted, then
    "\\n": config.json and histograms.json."""
    _write_whole(path, TextIOWrapper.write, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_outputs(directory: Path, bundle: ResultBundle, emit_dot: bool) -> None:
    """Write one sweep point's files into `directory`: series.csv has one
    row per snapshot per realization, then the averaged series with
    realization "mean"; majority.csv one row per majority event; then
    histograms.json and, with `emit_dot`, realization 0's final main tree
    as DOT.  Each file is written whole to a temp file and renamed into
    place."""
    directory.mkdir(parents=True, exist_ok=True)
    runs = list(enumerate(bundle.series))
    series = chain(
        [SERIES_FIELDS],
        ((k, *snap) for k, s in runs for snap in s.snapshots),
        (("mean", *snap) for snap in bundle.average),
    )
    _write_whole(directory / "series.csv", _csv, series, newline="")
    majority = chain(
        [MAJORITY_FIELDS], ((k, *event) for k, s in runs for event in s.majority_events)
    )
    _write_whole(directory / "majority.csv", _csv, majority, newline="")
    write_json(directory / "histograms.json", histograms_payload(bundle))
    if emit_dot:
        tree = bundle.series[0].final_main_tree
        if tree is not None:
            dot_path = directory / f"main_tree_{bundle.config.t_max}.dot"
            _write_whole(dot_path, TextIOWrapper.write, export_dot(tree))

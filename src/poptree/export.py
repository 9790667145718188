"""File exporters: CSV time series, JSON histograms, DOT main trees.

All writers are deterministic: identical results serialize to identical
bytes, so reruns of the same spec can be diffed directly.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict
from pathlib import Path

from .directory import MainTree
from .experiment import ExperimentSpec, ResultBundle, spec_to_dict
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


def write_series_csv(path: Path, bundle: ResultBundle) -> None:
    """One row per snapshot per realization, then the averaged series with
    realization marked "mean"."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SERIES_FIELDS)
        for realization, series in enumerate(bundle.series):
            for snap in series.snapshots:
                writer.writerow((realization, *snap))
        for snap in bundle.average:
            writer.writerow(("mean", *snap))


def write_majority_csv(path: Path, bundle: ResultBundle) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(MAJORITY_FIELDS)
        for realization, series in enumerate(bundle.series):
            for event in series.majority_events:
                writer.writerow((realization, *event))


def histograms_payload(bundle: ResultBundle) -> dict:
    """End-of-run histograms for every realization, with enough metadata
    (resolved config, counting conventions) to reproduce the run."""
    return {
        "config": _config_dict(bundle),
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


def write_histograms_json(path: Path, bundle: ResultBundle) -> None:
    with open(path, "w") as handle:
        json.dump(histograms_payload(bundle), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _config_dict(bundle: ResultBundle) -> dict:
    resolved = asdict(bundle.config)
    if bundle.sweep_value is not None:
        resolved["_sweep_value"] = bundle.sweep_value
    return resolved


def bundle_dir(spec: ExperimentSpec, bundle: ResultBundle) -> Path:
    """Where one sweep point's files live: the out dir itself, or a
    param=value subdirectory when sweeping."""
    if spec.out_dir is None:
        raise ValueError("the experiment spec has no out_dir to write to")
    if bundle.sweep_value is None:
        return spec.out_dir
    param = spec.sweep[0]  # type: ignore[index]
    return spec.out_dir / f"{param}={bundle.sweep_value}"


def _write_whole(path: Path, write, *args) -> None:
    """Call write(temp, *args) on a temp file next to `path`, then move it
    onto `path`: a reader, or a run that fails half-way, never sees a
    half-written file."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(temp, *args)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_config_json(path: Path, spec: ExperimentSpec) -> None:
    with open(path, "w") as handle:
        json.dump(spec_to_dict(spec), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_outputs(spec: ExperimentSpec, bundles: list[ResultBundle], config: bool = True) -> None:
    """Write the resolved spec as config.json (unless `config` is false),
    then every given sweep point's files.  Each file is written whole to a
    temp file and renamed into place."""
    if spec.out_dir is None:
        raise ValueError("the experiment spec has no out_dir to write to")
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    if config:
        _write_whole(spec.out_dir / "config.json", _write_config_json, spec)
    for bundle in bundles:
        directory = bundle_dir(spec, bundle)
        directory.mkdir(parents=True, exist_ok=True)
        _write_whole(directory / "series.csv", write_series_csv, bundle)
        _write_whole(directory / "majority.csv", write_majority_csv, bundle)
        _write_whole(directory / "histograms.json", write_histograms_json, bundle)
        if spec.emit_dot:
            tree = bundle.series[0].final_main_tree
            if tree is not None:
                dot_path = directory / f"main_tree_{bundle.config.t_max}.dot"
                _write_whole(dot_path, Path.write_text, export_dot(tree))

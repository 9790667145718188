"""Experiment specs, sweeps, averaging, and file outputs."""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from poptree import engine, experiment, export
from poptree.directory import MainTree, NodeVersion
from poptree.engine import SimConfig
from poptree.experiment import (
    ExperimentSpec,
    normalize_param,
    parse_param_value,
    run_experiment,
    spec_from_dict,
    spec_to_dict,
)
from poptree.export import SERIES_FIELDS, export_dot

FAST = SimConfig(n_peers=10, t_max=300, realizations=2, seed=5)


def test_normalize_param_accepts_aliases():
    assert normalize_param("p-update") == "p_update"
    assert normalize_param("peers") == "n_peers"
    assert normalize_param("steps") == "t_max"
    with pytest.raises(ValueError):
        normalize_param("bogus")


def test_spec_rejects_out_of_domain_sweep_values():
    with pytest.raises(ValueError):
        ExperimentSpec(base=FAST, sweep=("p_update", (0.1, 2.0)))
    with pytest.raises(ValueError):
        ExperimentSpec(base=FAST, sweep=("p_update", ()))
    with pytest.raises(ValueError):
        ExperimentSpec(base=FAST, snapshot_interval=0)


def test_spec_round_trips_through_dict():
    spec = ExperimentSpec(
        base=replace(FAST, p_leave=0.2),
        sweep=("p_update", (0.1, 0.9)),
        out_dir=Path("somewhere/out"),
        snapshot_interval=50,
        emit_dot=True,
    )
    assert spec_from_dict(spec_to_dict(spec)) == spec
    # and through actual JSON text
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


@pytest.mark.parametrize(
    "data, key",
    [
        ({"config": {"n_peers": 10, "n_peer": 5}}, "'n_peer'"),
        ({"config": {}, "snapshot_intervall": 5}, "'snapshot_intervall'"),
        ({"sweep": {"param": "n_peers", "values": [10], "valuez": [20]}}, "sweep key.*'valuez'"),
    ],
)
def test_spec_from_dict_names_unknown_keys(data, key):
    with pytest.raises(ValueError, match=key):
        spec_from_dict(data)


@pytest.mark.parametrize("values", ["10,20", "3", 10])
def test_spec_from_dict_rejects_sweep_values_that_are_not_a_list(values):
    data = {"sweep": {"param": "n_peers", "values": values}}
    with pytest.raises(ValueError, match=f"sweep values.*{re.escape(repr(values))}"):
        spec_from_dict(data)


@pytest.mark.parametrize(
    "sweep, message",
    [
        ((5, (1,)), "sweep param must be a string, got 5"),
        ((None, [0.1]), "sweep param must be a string, got None"),
        (("n_peers", 5), "sweep values must be a list or tuple, got 5"),
        (("n_peers", "10,20"), "sweep values must be a list or tuple, got '10,20'"),
        (("n_peers", {10, 20}), "sweep values must be a list or tuple, got {10, 20}"),
        ("n_peers", "sweep must be a (param, values) pair, got 'n_peers'"),
        (("n_peers",), "sweep must be a (param, values) pair, got ('n_peers',)"),
    ],
    ids=repr,
)
def test_spec_built_directly_names_a_mistyped_sweep(sweep, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec(base=FAST, sweep=sweep)


def test_spec_built_directly_takes_sweep_values_as_a_list_or_tuple():
    from_list = ExperimentSpec(base=FAST, sweep=("peers", [10, "20"]))
    assert from_list.sweep == ("n_peers", (10, 20))
    assert from_list == ExperimentSpec(base=FAST, sweep=("n_peers", (10, 20)))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("base", {"n_peers": 10}, "base must be a SimConfig, got {'n_peers': 10}"),
        ("base", None, "base must be a SimConfig, got None"),
        ("emit_dot", "yes", "emit_dot must be true or false, got 'yes'"),
        ("emit_dot", 1, "emit_dot must be true or false, got 1"),
        ("out_dir", 3, "out_dir must be a string, got 3"),
        ("out_dir", b"results", "out_dir must be a string, got b'results'"),
        ("out_dir", "", "out_dir must not be empty"),
    ],
    ids=repr,
)
def test_spec_built_directly_checks_its_fields(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec(**{field: value})


def test_spec_built_directly_keeps_a_string_out_dir_as_a_path(tmp_path, monkeypatch):
    spec = ExperimentSpec(base=FAST, out_dir="results", snapshot_interval=100)
    assert spec.out_dir == Path("results")
    monkeypatch.chdir(tmp_path)
    run_experiment(spec, jobs=1)
    assert (tmp_path / "results" / "series.csv").exists()


@pytest.mark.parametrize("emit_dot", ["no", 1, None], ids=repr)
def test_spec_from_dict_rejects_a_non_bool_emit_dot(emit_dot):
    with pytest.raises(ValueError, match=f"emit_dot.*{re.escape(repr(emit_dot))}"):
        spec_from_dict({"emit_dot": emit_dot})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"sweep": {"values": [10, 20]}}, "sweep is missing key.*'param'"),
        ({"sweep": {"param": "n_peers"}}, "sweep is missing key.*'values'"),
        ({"sweep": {"param": 3, "values": [1]}}, "sweep param must be a string, got 3"),
        ({"out_dir": 3}, "out_dir must be a string, got 3"),
    ],
)
def test_spec_from_dict_names_a_missing_or_mistyped_key(data, message):
    with pytest.raises(ValueError, match=message):
        spec_from_dict(data)


@pytest.mark.parametrize(
    "param, values, repeated",
    [
        ("n_peers", [10, "10"], "10"),
        ("p_update", [0.5, 0.2, "0.50"], "0.5"),
        ("steps", [5, 5], "5"),
    ],
)
def test_spec_from_dict_rejects_a_repeated_sweep_value(param, values, repeated):
    # both runs would write the same output directory
    with pytest.raises(ValueError, match=f"sweep value {repeated} for .* is repeated"):
        spec_from_dict({"sweep": {"param": param, "values": values}})


@pytest.mark.parametrize("data", [[], {"config": [1, 2]}, {"sweep": ["n_peers", [10]]}])
def test_spec_from_dict_rejects_non_objects(data):
    with pytest.raises(ValueError, match="JSON object"):
        spec_from_dict(data)


def test_spec_from_dict_rejects_float_counts():
    with pytest.raises(TypeError, match="n_peers"):
        spec_from_dict({"config": {"n_peers": 10.5}})


@pytest.mark.parametrize("value", [10.5, 10.0, True, "10.5", "ten", None], ids=repr)
def test_spec_from_dict_rejects_non_integer_sweep_values_for_int_params(value):
    data = {"config": {}, "sweep": {"param": "n_peers", "values": [10, value]}}
    with pytest.raises(ValueError, match=f"n_peers.*{re.escape(repr(value))}"):
        spec_from_dict(data)


@pytest.mark.parametrize("value", [False, "x", None])
def test_parse_param_value_rejects_non_numbers_for_float_params(value):
    with pytest.raises(ValueError, match=f"p_update.*{re.escape(repr(value))}"):
        parse_param_value("p_update", value)


def test_parse_param_value_reads_ints_and_command_line_strings():
    assert parse_param_value("n_peers", 10) == 10
    for raw in ("10", " 10"):
        value = parse_param_value("n_peers", raw)
        assert value == 10 and isinstance(value, int)
    assert parse_param_value("p_update", "0.5") == 0.5
    assert parse_param_value("p_update", 1) == 1.0
    spec = spec_from_dict({"sweep": {"param": "n_peers", "values": ["20", 30]}})
    assert [cfg.n_peers for _, cfg in spec.configs()] == [20, 30]


def test_sweep_values_from_a_config_file_take_the_field_type(tmp_path):
    spec = spec_from_dict(
        {
            "config": {"t_max": 20, "realizations": 1},
            "sweep": {"param": "n_peers", "values": [" 20", 30]},
            "out_dir": str(tmp_path),
            "snapshot_interval": 10,
        }
    )
    assert spec.sweep == ("n_peers", (20, 30))
    bundles = run_experiment(spec)
    assert [b.sweep_value for b in bundles] == [20, 30]
    assert all(type(b.sweep_value) is int for b in bundles)
    for value in (20, 30):
        payload = json.loads((tmp_path / f"n_peers={value}" / "histograms.json").read_text())
        assert payload["config"]["_sweep_value"] == value
        assert type(payload["config"]["_sweep_value"]) is int
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
        "n_peers=20",
        "n_peers=30",
    ]


@pytest.mark.parametrize("interval", [2.5, 2.0, True, "2"])
def test_spec_rejects_non_int_snapshot_interval(interval):
    with pytest.raises(TypeError, match="snapshot_interval"):
        ExperimentSpec(base=FAST, snapshot_interval=interval)
    with pytest.raises(TypeError, match="snapshot_interval"):
        spec_from_dict({"snapshot_interval": interval})


def test_configs_of_a_sweep():
    spec = ExperimentSpec(base=FAST, sweep=("p_update", (0.1, 0.2, 0.5, 0.9)))
    configs = spec.configs()
    assert [value for value, _ in configs] == [0.1, 0.2, 0.5, 0.9]
    assert all(cfg.p_update == value for value, cfg in configs)
    assert all(cfg.n_peers == FAST.n_peers for _, cfg in configs)


def test_single_realization_average_equals_the_realization():
    spec = ExperimentSpec(base=replace(FAST, realizations=1), snapshot_interval=100)
    (bundle,) = run_experiment(spec)
    assert len(bundle.series) == 1
    snaps = bundle.series[0].snapshots
    assert len(bundle.average) == len(snaps)
    for avg, snap in zip(bundle.average, snaps):
        assert avg.t == snap.t
        assert avg.main_tree_size == snap.main_tree_size
        assert avg.main_tree_avg_quality == snap.main_tree_avg_quality
        assert avg.total_versions == snap.total_versions


def test_sweep_runs_every_point_and_realization():
    # four sweep values at ten realizations each: forty runs, four averages
    base = replace(FAST, t_max=50, realizations=10)
    spec = ExperimentSpec(
        base=base, sweep=("p_update", (0.1, 0.2, 0.5, 0.9)), snapshot_interval=50
    )
    bundles = run_experiment(spec)
    assert len(bundles) == 4
    assert [b.sweep_value for b in bundles] == [0.1, 0.2, 0.5, 0.9]
    assert sum(len(b.series) for b in bundles) == 40
    assert all(len(b.average) == len(b.series[0].snapshots) for b in bundles)


def test_outputs_written_per_sweep_point(tmp_path):
    spec = ExperimentSpec(
        base=replace(FAST, realizations=1),
        sweep=("p_update", (0.1, 0.9)),
        out_dir=tmp_path,
        snapshot_interval=100,
        emit_dot=True,
    )
    run_experiment(spec)
    assert (tmp_path / "config.json").exists()
    for value in (0.1, 0.9):
        point = tmp_path / f"p_update={value}"
        assert (point / "series.csv").exists()
        assert (point / "majority.csv").exists()
        assert (point / "histograms.json").exists()
        assert (point / f"main_tree_{FAST.t_max}.dot").exists()
    loaded = spec_from_dict(json.loads((tmp_path / "config.json").read_text()))
    assert loaded == spec


def test_series_csv_schema_and_shape(tmp_path):
    spec = ExperimentSpec(base=FAST, out_dir=tmp_path, snapshot_interval=100)
    (bundle,) = run_experiment(spec)
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[0] == ",".join(SERIES_FIELDS)
    snapshots = len(bundle.series[0].snapshots)
    # one row per snapshot per realization, then the averaged series
    assert len(lines) == 1 + snapshots * len(bundle.series) + snapshots
    assert lines[-1].startswith("mean,")


def test_histograms_json_embeds_resolved_config(tmp_path):
    spec = ExperimentSpec(base=FAST, out_dir=tmp_path, snapshot_interval=100)
    run_experiment(spec)
    payload = json.loads((tmp_path / "histograms.json").read_text())
    assert payload["config"]["n_peers"] == FAST.n_peers
    assert payload["config"]["seed"] == FAST.seed
    assert "conventions" in payload
    assert len(payload["realizations"]) == FAST.realizations


def test_reruns_are_byte_identical(tmp_path):
    spec_a = ExperimentSpec(base=FAST, out_dir=tmp_path / "a", snapshot_interval=100)
    spec_b = ExperimentSpec(base=FAST, out_dir=tmp_path / "b", snapshot_interval=100)
    run_experiment(spec_a)
    run_experiment(spec_b)
    for name in ("series.csv", "majority.csv", "histograms.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_a_failed_sweep_point_keeps_the_points_before_it(tmp_path, monkeypatch):
    spec = ExperimentSpec(
        base=replace(FAST, realizations=1),
        sweep=("p_update", (0.1, 0.5, 0.9)),
        out_dir=tmp_path / "sweep",
        snapshot_interval=100,
    )
    original = experiment.run

    def run(config, snapshot_interval, jobs):
        if config.p_update == 0.5:
            raise RuntimeError("point 2 failed")
        return original(config, snapshot_interval, jobs)

    monkeypatch.setattr(experiment, "run", run)
    with pytest.raises(RuntimeError, match="point 2 failed"):
        run_experiment(spec)
    out = tmp_path / "sweep"
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "p_update=0.1"]
    assert spec_from_dict(json.loads((out / "config.json").read_text())) == spec
    assert sorted(p.name for p in (out / "p_update=0.1").iterdir()) == [
        "histograms.json",
        "majority.csv",
        "series.csv",
    ]
    # the kept point is whole: the same bytes as running that point alone
    alone = ExperimentSpec(
        base=replace(FAST, realizations=1, p_update=0.1),
        out_dir=tmp_path / "alone",
        snapshot_interval=100,
    )
    monkeypatch.setattr(experiment, "run", original)
    run_experiment(alone)
    for name in ("series.csv", "majority.csv"):
        assert (out / "p_update=0.1" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_a_write_that_fails_half_way_leaves_no_file(tmp_path, monkeypatch):
    open_ = Path.open

    def half_written(path, *args, **kwargs):
        handle = open_(path, *args, **kwargs)
        if path.name.startswith(".majority.csv."):  # the temp file of majority.csv
            write = handle.write

            def write_then_fail(text):
                write(text[:16])
                handle.flush()
                raise OSError("disk full")

            handle.write = write_then_fail
        return handle

    monkeypatch.setattr(Path, "open", half_written)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(ExperimentSpec(base=FAST, out_dir=tmp_path, snapshot_interval=100))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "series.csv"]


@pytest.mark.parametrize(
    "write",
    [lambda spec: export.write_outputs(spec, []), lambda spec: export.bundle_dir(spec, None)],
    ids=["write_outputs", "bundle_dir"],
)
def test_writing_without_an_out_dir_is_a_value_error(write):
    # a check that raises, not an assert, so it holds under python -O too
    with pytest.raises(ValueError, match="out_dir"):
        write(ExperimentSpec())


def test_jobs_are_checked_before_anything_is_written(tmp_path):
    spec = ExperimentSpec(base=FAST, out_dir=tmp_path / "out", snapshot_interval=100)
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(spec, jobs=0)
    assert not (tmp_path / "out").exists()


def test_jobs_are_not_recorded_in_config_json(tmp_path):
    # how to run is not part of what ran: spec_from_dict refuses unknown keys
    spec = ExperimentSpec(base=FAST, out_dir=tmp_path, snapshot_interval=100)
    run_experiment(spec, jobs=2)
    assert spec_from_dict(json.loads((tmp_path / "config.json").read_text())) == spec


# --- DOT export ---------------------------------------------------------------


def test_export_dot_initial_tree(tmp_path):
    spec = ExperimentSpec(
        base=replace(FAST, t_max=0, realizations=1),
        out_dir=tmp_path,
        emit_dot=True,
    )
    (bundle,) = run_experiment(spec)
    text = export_dot(bundle.series[0].final_main_tree)
    assert text.count("shape=ellipse") == 4
    assert text.count("->") == 3
    assert text.count("gray55") == 4  # quality 0.5 sits in the third quartile
    assert text == (tmp_path / "main_tree_0.dot").read_text()


@pytest.mark.parametrize("jobs", [1, 2])
def test_only_realization_0_keeps_its_final_tree(tmp_path, monkeypatch, jobs):
    # the DOT file draws realization 0's tree, so no other realization keeps
    # one; the digest is the file this run wrote when every realization did
    monkeypatch.setattr(engine, "available_cpus", lambda: 2)  # so jobs=2 forks
    spec = ExperimentSpec(base=replace(FAST, t_max=2000), out_dir=tmp_path, emit_dot=True)
    (bundle,) = run_experiment(spec, jobs=jobs)
    assert bundle.series[0].final_main_tree is not None
    assert bundle.series[1].final_main_tree is None
    dot = (tmp_path / "main_tree_2000.dot").read_bytes()
    assert hashlib.sha256(dot).hexdigest() == (
        "9d8c52f77866c68430999439713e976ebf3eb3779897a0e839ff48eb47a71b0b"
    )


def test_export_dot_file_shading():
    root = NodeVersion(1, 1, 0.5, True, (2,), 0)
    leaf = NodeVersion(2, 1, 0.9, False, (), 0)
    text = export_dot(MainTree({1: root, 2: leaf}))
    assert 'shape=diamond fillcolor=gray38' in text
    assert '"1" -> "2";' in text


def test_export_dot_quartile_fills():
    fills = []
    for q in (0.1, 0.3, 0.6, 0.8):
        text = export_dot(MainTree({1: NodeVersion(1, 1, q, True, (), 0)}))
        fills.append(text.split("fillcolor=")[1].split("]")[0])
    assert fills == ["gray85", "gray70", "gray55", "gray38"]


def test_export_dot_empty_tree_is_a_valid_header_only_document():
    assert export_dot(MainTree({})) == "digraph main_tree {\n}\n"

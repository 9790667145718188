"""Command-line parsing and the end-to-end entry point."""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from poptree import cli, engine
from poptree.cli import main, parse_config
from poptree.engine import SimConfig
from poptree.experiment import ExperimentSpec, spec_to_dict


def test_no_arguments_yields_the_control_experiment():
    spec = parse_config([])
    assert spec.base == SimConfig()
    assert spec.sweep is None
    assert spec.out_dir is None
    assert spec.snapshot_interval == 1000
    assert not spec.emit_dot


def test_single_flag_overrides_one_field():
    spec = parse_config(["--p-update", "0.1"])
    assert spec.base.p_update == 0.1
    defaults = SimConfig()
    assert spec.base == SimConfig(p_update=0.1)
    assert spec.base.p_add == defaults.p_add


def test_sweep_flag():
    spec = parse_config(["--sweep", "p_update", "0.1,0.2,0.5,0.9"])
    assert spec.sweep == ("p_update", (0.1, 0.2, 0.5, 0.9))
    assert len(spec.configs()) == 4


def test_sweep_flag_with_alias_and_int_values():
    spec = parse_config(["--sweep", "peers", "10,1000"])
    assert spec.sweep == ("n_peers", (10, 1000))
    assert all(isinstance(v, int) for v in spec.sweep[1])


@pytest.mark.parametrize(
    "argv",
    [
        ["--no-such-flag"],
        ["--p-update", "1.5"],
        ["--peers", "0"],
        ["--sweep", "bogus", "1,2"],
        ["--sweep", "p_update", "0.1,2.0"],
        ["--sweep", "p_update", ""],
        ["--snapshot-interval", "0"],
    ],
)
def test_usage_errors_exit_with_a_message(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_config(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sweep", "n_peers", "10,10"], "sweep value 10 for n_peers is repeated"),
        (["--sweep", "p_update", "0.5,0.50"], "sweep value 0.5 for p_update is repeated"),
    ],
)
def test_a_repeated_sweep_value_is_a_usage_error(argv, message, capsys):
    # its run would overwrite the first run's output directory
    with pytest.raises(SystemExit) as excinfo:
        parse_config(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sweep", "bogus", ","], "unknown sweep parameter 'bogus'"),
        (["--sweep", "n_peers", ","], "sweep needs at least one value"),
        (["--sweep", "n_peers", "10,1.5"], "sweep value for n_peers must be an integer, got '1.5'"),
        (["--sweep", "t_max", "10,2147483648"], "t_max must be in [0, 2**31 - 1], got 2147483648"),
    ],
)
def test_a_sweep_usage_error_names_its_first_fault(argv, message, capsys):
    # the param is checked before the values, the values one by one
    with pytest.raises(SystemExit) as excinfo:
        parse_config(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_config_file_round_trip(tmp_path):
    spec = ExperimentSpec(
        base=SimConfig(n_peers=10, t_max=500, realizations=2, seed=9),
        sweep=("s", (0.5, 2.0)),
        out_dir=tmp_path / "results",
        snapshot_interval=250,
        emit_dot=True,
    )
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(spec_to_dict(spec)))
    assert parse_config(["--config", str(config_path)]) == spec


def test_flags_override_config_file(tmp_path):
    spec = ExperimentSpec(base=SimConfig(n_peers=10, t_max=500, p_update=0.2))
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(spec_to_dict(spec)))
    parsed = parse_config(["--config", str(config_path), "--p-update", "0.4"])
    assert parsed.base.p_update == 0.4
    assert parsed.base.t_max == 500


def test_broken_config_file_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit):
        parse_config(["--config", str(bad)])


@pytest.mark.parametrize(
    "config",
    [{"config": {"n_peer": 10}}, {"config": {"s": float("nan")}}, {"config": {"t_max": 2**31}}],
)
def test_invalid_config_file_is_a_usage_error(tmp_path, capsys, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    with pytest.raises(SystemExit):
        parse_config(["--config", str(bad)])
    assert next(iter(config["config"])) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "two", ""])
def test_a_bad_job_count_is_a_usage_error_naming_jobs(value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_config(["--jobs", value])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_flag_reaches_run_experiment_but_not_the_spec(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec, jobs: seen.append((spec, jobs)) or [])
    assert main(["--steps", "10", "--jobs", "3"]) == 0
    assert main(["--steps", "10"]) == 0
    assert seen == [(parse_config(["--steps", "10"]), 3), (parse_config(["--steps", "10"]), None)]


def test_literal_pseudocode_flag():
    spec = parse_config(["--literal-pseudocode"])
    assert spec.base.literal_traversal


@pytest.mark.parametrize("field", fields(SimConfig), ids=lambda f: f.name)
def test_every_config_field_has_a_flag_that_sets_it_alone(field):
    # the overrides are read by field name, so a field without a flag would
    # fail every parse, not only this one
    parser = cli.build_parser()
    flags = [action.option_strings[0] for action in parser._actions if action.dest == field.name]
    assert flags, f"no flag stores into {field.name}"
    default = field.default
    if isinstance(default, bool):
        argv, value = flags, not default
    elif isinstance(default, int):
        argv, value = [flags[0], str(default + 1)], default + 1
    else:
        value = default / 2 if default else 0.25
        argv = [flags[0], repr(value)]
    assert parse_config(argv).base == replace(SimConfig(), **{field.name: value})


def test_main_end_to_end(tmp_path, capsys):
    code = main(
        [
            "--peers", "10",
            "--steps", "200",
            "--realizations", "1",
            "--seed", "3",
            "--snapshot-interval", "100",
            "--out", str(tmp_path / "run"),
            "--dot",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "main tree" in out
    assert (tmp_path / "run" / "series.csv").exists()
    assert (tmp_path / "run" / "main_tree_200.dot").exists()


@pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["file", "under-a-file"])
def test_an_out_path_that_cannot_be_a_directory_is_a_usage_error(
    tmp_path, capsys, monkeypatch, out
):
    (tmp_path / "taken").write_text("")
    ran = []
    monkeypatch.setattr(engine, "run_single", lambda *args: ran.append(args))
    out_dir = tmp_path / out
    with pytest.raises(SystemExit) as excinfo:
        main(["--steps", "10", "--realizations", "1", "--jobs", "1", "--out", str(out_dir)])
    assert excinfo.value.code == 2
    (error,) = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert error.startswith(f"poptree: error: cannot write outputs to {out_dir}: ")
    assert ran == []


@pytest.mark.parametrize(
    "argv, config",
    [(["--out", ""], None), (["--out", ""], {"out_dir": "results"}), ([], {"out_dir": ""})],
    ids=["flag", "flag-over-a-file", "file"],
)
def test_an_empty_out_dir_is_a_usage_error(tmp_path, capsys, argv, config):
    # an empty path would name the working directory, or be taken as no
    # --out at all, so neither the flag nor a config file may give one
    if config is not None:
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    with pytest.raises(SystemExit) as excinfo:
        parse_config(argv)
    assert excinfo.value.code == 2
    assert "out_dir must not be empty" in capsys.readouterr().err


def test_main_prints_one_line_per_sweep_point(capsys):
    code = main(
        [
            "--peers", "10",
            "--steps", "100",
            "--realizations", "1",
            "--snapshot-interval", "100",
            "--sweep", "p_update", "0.1,0.9",
        ]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "main tree" in l]
    assert len(lines) == 2
    assert lines[0].startswith("p_update=0.1")

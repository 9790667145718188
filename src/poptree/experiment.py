"""Experiment orchestration: resolved configurations, one-parameter
sweeps, deterministic multi-realization runs, and output writing."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .engine import _INT_FIELDS, ResultBundle, SimConfig, check_jobs, check_snapshot_interval, run

SWEEPABLE_PARAMS = ("n_peers", "s", "p_update", "p_add", "p_file", "p_leave", "t_max")
PARAM_ALIASES = {"peers": "n_peers", "n": "n_peers", "steps": "t_max"}


def normalize_param(name: str) -> str:
    """Map a user-facing parameter name onto its SimConfig field."""
    cleaned = name.strip().replace("-", "_")
    cleaned = PARAM_ALIASES.get(cleaned, cleaned)
    if cleaned not in SWEEPABLE_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {name!r}; choose from {', '.join(SWEEPABLE_PARAMS)}"
        )
    return cleaned


def parse_param_value(param: str, raw: str | float | int):
    """A sweep value as its field's type.  An int parameter takes a non-bool
    int or an integer string, a float parameter a non-bool number or a
    numeric string; anything else is a ValueError naming both."""
    is_int = param in _INT_FIELDS
    if not isinstance(raw, bool) and isinstance(raw, (int, str) if is_int else (int, float, str)):
        try:
            return int(raw) if is_int else float(raw)
        except ValueError:
            pass
    kind = "an integer" if is_int else "a number"
    raise ValueError(f"sweep value for {param} must be {kind}, got {raw!r}")


class _ExperimentSpecFields(NamedTuple):
    base: SimConfig = SimConfig()
    sweep: tuple[str, tuple[float | int, ...]] | None = None
    out_dir: Path | None = None
    snapshot_interval: int = 1000
    emit_dot: bool = False


class ExperimentSpec(_ExperimentSpecFields):
    """A base configuration, an optional sweep over one of its fields, and
    where (if anywhere) to write the outputs.  `out_dir` may be given as a
    non-empty string or any path-like object and is kept as a `Path`.
    Every way of building one checks the fields, as `SimConfig` does."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        base, sweep, out_dir, snapshot_interval, emit_dot = super().__new__(cls, *args, **kwargs)
        if not isinstance(base, SimConfig):
            raise ValueError(f"base must be a SimConfig, got {base!r}")
        if out_dir == "":  # Path("") would be the working directory
            raise ValueError("out_dir must not be empty")
        if out_dir is not None:
            try:  # a str or a path-like object
                out_dir = Path(out_dir)
            except TypeError:
                raise ValueError(f"out_dir must be a string, got {out_dir!r}") from None
        if not isinstance(emit_dot, bool):
            raise ValueError(f"emit_dot must be true or false, got {emit_dot!r}")
        check_snapshot_interval(snapshot_interval)
        if sweep is not None:
            if not isinstance(sweep, (list, tuple)) or len(sweep) != 2:
                raise ValueError(f"sweep must be a (param, values) pair, got {sweep!r}")
            param, values = sweep
            if not isinstance(param, str):
                raise ValueError(f"sweep param must be a string, got {param!r}")
            param = normalize_param(param)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"sweep values must be a list or tuple, got {values!r}")
            if not values:
                raise ValueError("sweep needs at least one value")
            values = tuple(parse_param_value(param, value) for value in values)
            for i, value in enumerate(values):
                if value in values[:i]:  # its run would overwrite the first's outputs
                    raise ValueError(f"sweep value {value!r} for {param} is repeated")
            sweep = (param, values)
        self = super().__new__(cls, base, sweep, out_dir, snapshot_interval, emit_dot)
        self.configs()  # out-of-domain sweep values fail here, up front
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so `_replace` checks too
    _ExperimentSpecFields.__new__.__qualname__ = "ExperimentSpec.__new__"  # errors name the record

    def configs(self) -> list[tuple[float | int | None, SimConfig]]:
        """The configurations this experiment runs: (sweep value, config)
        pairs, or a single (None, base) without a sweep."""
        if self.sweep is None:
            return [(None, self.base)]
        param, values = self.sweep
        return [(value, self.base._replace(**{param: value})) for value in values]


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """JSON-ready form of a spec; parse_config reads the same shape back."""
    return {
        "config": spec.base._asdict(),
        "sweep": None
        if spec.sweep is None
        else {"param": spec.sweep[0], "values": list(spec.sweep[1])},
        "out_dir": None if spec.out_dir is None else str(spec.out_dir),
        "snapshot_interval": spec.snapshot_interval,
        "emit_dot": spec.emit_dot,
    }


_SPEC_KEYS = ("config", "sweep", "out_dir", "snapshot_interval", "emit_dot")


def _reject_unknown_keys(what: str, data, known: tuple[str, ...]) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(known)}"
        )


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Inverse of spec_to_dict.  Missing keys take their defaults; an
    unknown key or a sweep without its param or values is a ValueError that
    names it, and so is a value out of its range or one of the other fields
    `ExperimentSpec` refuses, such as a non-string out_dir, a non-bool
    emit_dot or a non-string sweep param.  A config value or a
    snapshot_interval of the wrong type, such as a float count, is a
    TypeError naming it."""
    _reject_unknown_keys("experiment", data, _SPEC_KEYS)
    config = data.get("config", {})
    _reject_unknown_keys("config", config, SimConfig._fields)
    base = SimConfig(**config)
    sweep_data = data.get("sweep")
    sweep = None
    if sweep_data is not None:
        _reject_unknown_keys("sweep", sweep_data, ("param", "values"))
        missing = [key for key in ("param", "values") if key not in sweep_data]
        if missing:
            raise ValueError(f"sweep is missing key(s) {', '.join(map(repr, missing))}")
        sweep = (sweep_data["param"], sweep_data["values"])
    return ExperimentSpec(
        base=base,
        sweep=sweep,
        out_dir=data.get("out_dir"),
        snapshot_interval=data.get("snapshot_interval", 1000),
        emit_dot=data.get("emit_dot", False),
    )


def run_experiment(spec: ExperimentSpec, jobs: int | None = None) -> list[ResultBundle]:
    """Run every sweep point of `spec` and, if an output directory is set,
    write its files (series.csv, histograms.json, majority.csv, config,
    and optionally the final main tree as DOT).

    config.json is written once, before the first point runs, and each
    point's files as soon as that point is done, so a failure at one point
    keeps the points before it.  `jobs` is passed on to `run`: how many
    processes run a point's realizations.  It never changes an output.
    """
    from . import export  # deferred: keeps csv out of `import poptree`

    check_jobs(jobs)
    out = spec.out_dir
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        export.write_json(out / "config.json", spec_to_dict(spec))
    bundles = []
    for value, config in spec.configs():
        bundle = run(config, spec.snapshot_interval, jobs)._replace(sweep_value=value)
        bundles.append(bundle)
        if out is not None:
            point = out if value is None else out / f"{spec.sweep[0]}={value}"
            export.write_outputs(point, bundle, spec.emit_dot)
    return bundles

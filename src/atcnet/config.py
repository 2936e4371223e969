"""Experiment configuration: a YAML file with nested sections.

Minimal structure-only config::

    name: my-network
    matrix:
      inline:
        - [1.0, 0.03]
        - [0.0, 0.97]
    run:
      seed: 1

Full simulation configs add ``models`` (one entry per agent), ``step_sizes``
and the run controls; matrices may alternatively point at a delimited text
file via ``matrix: {file: weights.csv}``.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .costs import (
    CostModel,
    EllipseSampler,
    LogisticCost,
    QuadraticCost,
    TwoClassGaussianSampler,
)
from .engine import DEFAULT_BURN_IN, DEFAULT_STRIDE, StepSizeProfile
from .errors import AtcnetError, ConfigError
from .topology import CombinationMatrix, validate

PRESET_NAMES = ("two-agent-logistic", "three-subnetwork-regression", "fully-connected")
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# Largest magnitude of a model, sampler or step-size number. A logistic
# model's Gram matrices multiply eight of them (an ellipse point is the
# product of two, its features square it and the Gram matrix squares the
# features), so this keeps each term near 1e240, far below float64's 1.8e308.
MAX_MAGNITUDE = 1e30


@dataclass(frozen=True)
class RunControls:
    seed: int
    iterations: int | None = None
    monte_carlo_runs: int = 20
    burn_in_fraction: float = DEFAULT_BURN_IN
    stride: int = DEFAULT_STRIDE


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    name: str
    matrix: CombinationMatrix
    models: tuple[CostModel, ...] | None
    step_sizes: StepSizeProfile | None
    run: RunControls
    output_dir: str | None

    @property
    def n(self) -> int:
        return self.matrix.n

    def require_models(self) -> tuple[CostModel, ...]:
        if self.models is None:
            raise ConfigError("this command needs per-agent models", field="models")
        return self.models

    def require_step_sizes(self) -> StepSizeProfile:
        if self.step_sizes is None:
            raise ConfigError("this command needs step sizes", field="step_sizes")
        return self.step_sizes

    def require_iterations(self) -> int:
        if self.run.iterations is None or self.run.iterations < 1:
            raise ConfigError("iterations must be >= 1", field="run.iterations")
        return self.run.iterations


# The default of a field that must be given.
_REQUIRED = object()
# Ranges: (what a value must be, a test of it); an array passes when every entry does.
_AT_LEAST_0 = (">= 0", lambda x: x >= 0)
_AT_LEAST_1 = (">= 1", lambda x: x >= 1)
_IN_UNIT = ("in [0, 1]", lambda x: 0 <= x <= 1)


def _value(section, where, key, kind=float, default=_REQUIRED, rule=None):
    """Field ``key`` of the mapping ``section`` at path ``where``, or ``default`` if absent.

    ``where`` is "" at the root of the config. ``kind`` float takes any int
    or float that is finite and at most ``MAX_MAGNITUDE`` in size, int an
    int; a boolean is neither, and None takes any value. ``rule`` is a range
    the value must lie in. A failure is a ConfigError on the field's path,
    or on ``where`` when ``section`` is not a mapping.
    """
    if not isinstance(section, dict):
        raise ConfigError("expected a mapping", field=where)
    path = f"{where}.{key}" if where else key
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError("missing required key", field=path)
        return default
    value = section[key]
    if kind is None:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        expected = "number" if kind is float else kind.__name__
        raise ConfigError(f"expected {expected}, got {type(value).__name__}", field=path)
    if kind is float and not abs(value) <= MAX_MAGNITUDE:
        raise ConfigError(f"expected a finite number at most {MAX_MAGNITUDE:g} in size", field=path)
    if rule is not None and not rule[1](value):
        raise ConfigError(f"{key} must be {rule[0]}", field=path)
    return value


def _numeric(value) -> bool:
    """Whether ``value`` is a number or a nested list of numbers.

    Booleans and numeric strings are not, although numpy turns them into floats.
    """
    if isinstance(value, (list, tuple)):
        return set(map(type, value)) <= {int, float} or all(map(_numeric, value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return isinstance(value, (int, float, np.number)) and not isinstance(value, bool)


def _numbers(
    section, where, key, default=_REQUIRED, length=None, flat=True, finite=True, rule=None
):
    """Field ``key`` of ``section`` at path ``where``, or ``default`` if absent, as a float array.

    With ``length`` it must be a list of that many numbers. Otherwise it is
    a number or a flat list of them, or with ``flat`` False numbers nested
    to any depth; an empty list is no numbers. With ``finite``, each entry is finite and at most
    ``MAX_MAGNITUDE`` in size. Each entry lies in the range ``rule``. A
    failure is a ConfigError on the field's path.
    """
    value = _value(section, where, key, None, default)
    path = f"{where}.{key}"
    if not _numeric(value):
        raise ConfigError("expected numbers", field=path)
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged lists, or an int beyond float
        raise ConfigError(f"bad numbers: {exc}", field=path)
    if array.size == 0:  # a model of dimension 0 would fail every command far from here
        raise ConfigError("expected at least one number", field=path)
    if length is not None and array.shape != (length,):
        raise ConfigError(f"expected a list of {length} numbers", field=path)
    if flat and array.ndim > 1:
        raise ConfigError("expected a number or a flat list of numbers", field=path)
    if finite and not np.all(np.abs(array) <= MAX_MAGNITUDE):
        raise ConfigError(f"expected finite numbers at most {MAX_MAGNITUDE:g} in size", field=path)
    if rule is not None and not np.all(rule[1](array)):
        raise ConfigError(f"{key} must be {rule[0]}", field=path)
    return array


def _spd(section, where, key, m, default=_REQUIRED):
    """Field ``key`` of ``section`` at path ``where``, or ``default``, as an (m, m) matrix.

    It is given as a number (times the identity), a diagonal of m numbers
    or the whole matrix, with finite entries at most ``MAX_MAGNITUDE`` in
    size, and must be symmetric and positive definite. A failure is a
    ConfigError on the field's path.
    """
    matrix = _numbers(section, where, key, default, flat=False)
    path = f"{where}.{key}"
    if matrix.ndim == 0:
        matrix = matrix * np.eye(m)
    elif matrix.shape == (m,):
        matrix = np.diag(matrix)
    if matrix.shape != (m, m):
        raise ConfigError(f"expected a number, {m} diagonal entries or {m} x {m}", field=path)
    if not np.array_equal(matrix, matrix.T):
        raise ConfigError(f"{key} must be a symmetric matrix", field=path)
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ConfigError(f"{key} must be positive definite", field=path)
    return matrix


def check_seed(seed: int) -> int:
    """``seed`` if it is >= 0, as numpy's generators need; else a ConfigError on run.seed."""
    if seed < 0:
        raise ConfigError("seed must be an integer >= 0", field="run.seed")
    return seed


def _load_matrix(section, base_dir: Path) -> CombinationMatrix:
    if ("inline" in section) == ("file" in section):
        raise ConfigError("give exactly one of 'inline' or 'file'", field="matrix")
    if "inline" in section:
        # entries that are not finite are left to validate, which names the matrix
        raw = _numbers(section, "matrix", "inline", flat=False, finite=False)
    else:
        path = base_dir / str(section["file"])
        if not path.exists():
            raise ConfigError(f"matrix file not found: {path}", field="matrix.file")
        try:
            with path.open() as fh:  # the first line with data, as np.loadtxt sees lines
                first = next((line for line in fh if line.partition("#")[0].strip()), "")
            if not first:
                raise ConfigError(f"matrix file is empty: {path}", field="matrix.file")
            raw = np.loadtxt(path, delimiter="," if "," in first else None)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad matrix file {path}: {exc}", field="matrix.file")
    try:
        return validate(np.atleast_2d(raw))
    except AtcnetError as exc:
        raise ConfigError(str(exc), field="matrix")


def _build_sampler(spec, where):
    kind = _value(spec, where, "kind", str)
    p_pos = _value(spec, where, "p_pos", float, 0.5, _IN_UNIT)
    if kind == "two_class_gaussian":
        mean_pos = _numbers(spec, where, "mean_pos")
        mean_neg = _numbers(spec, where, "mean_neg")
        if mean_neg.size != mean_pos.size:
            raise ConfigError("mean_neg and mean_pos differ in length", field=f"{where}.mean_neg")
        return TwoClassGaussianSampler(
            mean_pos=mean_pos,
            mean_neg=mean_neg,
            cov=_spd(spec, where, "cov", mean_pos.size, 1.0),
            p_pos=p_pos,
        )
    if kind == "ellipse":
        semi_axes = _numbers(spec, where, "semi_axes", (2.0, 1.0), 2, rule=("> 0", lambda a: a > 0))
        outside_band = _numbers(
            spec, where, "outside_band", (1.3, 2.2), 2,
            rule=("0 <= low <= high", lambda band: 0 <= band[0] <= band[1]),
        )
        fraction = _value(spec, where, "outlier_fraction", float, 0.0, _IN_UNIT)
        outlier_std = _value(spec, where, "outlier_std", float, 0.5, _AT_LEAST_0)
        outlier_center = _numbers(spec, where, "outlier_center", (6.0, 6.0), 2)
        return EllipseSampler(
            semi_axes=tuple(semi_axes.tolist()),
            outside_band=tuple(outside_band.tolist()),
            p_pos=p_pos,
            outlier_fraction=fraction,
            outlier_center=tuple(outlier_center.tolist()),
            outlier_std=outlier_std,
        )
    raise ConfigError(f"unknown sampler kind '{kind}'", field=f"{where}.kind")


def _build_model(spec, index: int) -> CostModel:
    where = f"models[{index}]"
    kind = _value(spec, where, "kind", str)
    try:
        if kind == "quadratic":
            w_o = _numbers(spec, where, "w_o")
            return QuadraticCost(
                r_u=_spd(spec, where, "r_u", w_o.size),
                sigma_v2=_value(spec, where, "sigma_v2", rule=_AT_LEAST_0),
                w_o=w_o,
            )
        if kind == "logistic":
            return LogisticCost(
                eval_samples=_value(spec, where, "eval_samples", int, 200000, _AT_LEAST_1),
                eval_seed=_value(spec, where, "eval_seed", int, 0, _AT_LEAST_0),
                rho=_value(spec, where, "rho", rule=_AT_LEAST_0),
                sampler=_build_sampler(_value(spec, where, "sampler", dict), f"{where}.sampler"),
            )
    except ConfigError:
        raise
    except (AtcnetError, ValueError, TypeError) as exc:  # a check that only a constructor makes
        raise ConfigError(str(exc), field=where)
    raise ConfigError(f"unknown model kind '{kind}'", field=f"{where}.kind")


def parse_config(data: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed YAML mapping."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    matrix = _load_matrix(_value(data, "", "matrix", dict), Path(base_dir))
    n = matrix.n

    models = None
    specs = _value(data, "", "models", list, None)
    if specs is not None:
        if len(specs) != n:
            raise ConfigError(f"{len(specs)} model entries for {n} agents", field="models")
        models = tuple(_build_model(spec, i) for i, spec in enumerate(specs))
        dims = {m.dimension for m in models}
        if len(dims) != 1:
            raise ConfigError(f"models disagree on dimension: {sorted(dims)}", field="models")

    step_sizes = None
    section = _value(data, "", "step_sizes", dict, None)
    if section is not None:
        step_sizes = StepSizeProfile(
            mu_max=_value(section, "step_sizes", "mu_max", rule=("> 0", lambda x: x > 0)),
            tau=_numbers(
                section, "step_sizes", "tau", [1.0] * n, n,
                rule=("in (0, 1]", lambda tau: (tau > 0) & (tau <= 1)),
            ),
        )

    run = _value(data, "", "run", dict)
    seed = check_seed(_value(run, "run", "seed", int))
    iterations = _value(run, "run", "iterations", int, None, _AT_LEAST_1)
    burn_in = _value(
        run, "run", "burn_in_fraction", float, DEFAULT_BURN_IN, ("in [0, 1)", lambda x: 0 <= x < 1)
    )
    stride = _value(run, "run", "stride", int, DEFAULT_STRIDE, _AT_LEAST_1)
    if iterations is not None and stride > iterations:
        raise ConfigError("stride must not exceed iterations", field="run.stride")
    runs = _value(run, "run", "monte_carlo_runs", int, 20, _AT_LEAST_1)
    return ExperimentConfig(
        name=str(data.get("name", "unnamed")),
        matrix=matrix,
        models=models,
        step_sizes=step_sizes,
        run=RunControls(
            seed=seed,
            iterations=iterations,
            monte_carlo_runs=runs,
            burn_in_fraction=float(burn_in),
            stride=stride,
        ),
        output_dir=_value(data, "", "output_dir", str, None),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML config file; bundled preset names are accepted too."""
    name = str(path)
    if name in PRESET_NAMES or name.removeprefix("preset-") in PRESET_NAMES:
        return load_preset(name.removeprefix("preset-"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    return parse_config(data, base_dir=path.parent)


def load_preset(name: str) -> ExperimentConfig:
    """Load one of the bundled experiment presets by name."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")
    text = resources.files("atcnet").joinpath(f"presets/{name}.yaml").read_text()
    return parse_config(yaml.load(text, Loader=_YAML_LOADER), base_dir=".")

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


def _expect(mapping, key, field, kind=None, required=True, default=None):
    if not isinstance(mapping, dict):
        raise ConfigError("expected a mapping", field=field.rsplit(".", 1)[0])
    if key not in mapping:
        if required:
            raise ConfigError("missing required key", field=field)
        return default
    value = mapping[key]
    if kind is None:
        return value
    kinds = kind if isinstance(kind, tuple) else (kind,)
    # bool is an int subclass, but `true` is not a number here
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        expected = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(f"expected {expected}, got {type(value).__name__}", field=field)
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


def _numbers(value, field):
    """``value`` if it is a number or a nested list of numbers; else a ConfigError on ``field``."""
    if not _numeric(value):
        raise ConfigError("expected numbers", field=field)
    return value


def _finite(value, field):
    """``value`` if it is a number or nested list of them, each finite and at most
    ``MAX_MAGNITUDE`` in size; else a ConfigError on ``field``."""
    try:
        finite = _numeric(value) and np.all(np.abs(np.asarray(value, dtype=float)) <= MAX_MAGNITUDE)
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError(f"expected finite numbers of magnitude at most {MAX_MAGNITUDE:g}", field=field)
    return value


def _finite_vector(value, field):
    """``value`` if it is a finite number or a flat list of them; else a ConfigError on ``field``."""
    if np.ndim(_finite(value, field)) > 1:
        raise ConfigError("expected a number or a list of numbers", field=field)
    return value


def _number_pair(spec, key, field, default):
    """``spec[key]`` (or ``default``) as two finite floats; else a ConfigError on ``field``."""
    value = spec.get(key, default)
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ConfigError("expected a list of two numbers", field=field)
    return tuple(float(v) for v in _finite(value, field))


def _check_spd(matrix: np.ndarray, field: str, name: str) -> None:
    """A ConfigError on ``field`` unless ``matrix`` is finite, symmetric and positive definite."""
    if not (np.all(np.isfinite(matrix)) and np.array_equal(matrix, matrix.T)):
        raise ConfigError(f"{name} must be a finite symmetric matrix", field=field)
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ConfigError(f"{name} must be positive definite", field=field)


def check_seed(seed: int) -> int:
    """``seed`` if it is >= 0, as numpy's generators need; else a ConfigError on run.seed."""
    if seed < 0:
        raise ConfigError("seed must be an integer >= 0", field="run.seed")
    return seed


def _load_matrix(section, base_dir: Path) -> CombinationMatrix:
    if not isinstance(section, dict):
        raise ConfigError("expected a mapping with 'inline' or 'file'", field="matrix")
    if ("inline" in section) == ("file" in section):
        raise ConfigError("give exactly one of 'inline' or 'file'", field="matrix")
    if "inline" in section:
        rows = _numbers(section["inline"], "matrix.inline")
        try:
            raw = np.array(rows, dtype=float)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad inline matrix: {exc}", field="matrix.inline")
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


def _build_sampler(spec, field):
    kind = _expect(spec, "kind", f"{field}.kind", str)
    p_pos = _expect(spec, "p_pos", f"{field}.p_pos", (int, float), False, 0.5)
    if not 0.0 <= p_pos <= 1.0:
        raise ConfigError("p_pos must lie in [0, 1]", field=f"{field}.p_pos")
    if kind == "two_class_gaussian":
        sampler = TwoClassGaussianSampler(
            mean_pos=_finite_vector(_expect(spec, "mean_pos", f"{field}.mean_pos"), f"{field}.mean_pos"),
            mean_neg=_finite_vector(_expect(spec, "mean_neg", f"{field}.mean_neg"), f"{field}.mean_neg"),
            cov=_finite(spec.get("cov", 1.0), f"{field}.cov"),
            p_pos=p_pos,
        )
        _check_spd(sampler.cov, f"{field}.cov", "cov")
        return sampler
    if kind == "ellipse":
        semi_axes = _number_pair(spec, "semi_axes", f"{field}.semi_axes", (2.0, 1.0))
        if not min(semi_axes) > 0.0:
            raise ConfigError("semi_axes must be > 0", field=f"{field}.semi_axes")
        outside_band = _number_pair(spec, "outside_band", f"{field}.outside_band", (1.3, 2.2))
        if not 0.0 <= outside_band[0] <= outside_band[1]:
            raise ConfigError("outside_band must satisfy 0 <= low <= high", field=f"{field}.outside_band")
        fraction = _expect(
            spec, "outlier_fraction", f"{field}.outlier_fraction", (int, float), False, 0.0
        )
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError("outlier_fraction must lie in [0, 1]", field=f"{field}.outlier_fraction")
        outlier_std = _finite(
            _expect(spec, "outlier_std", f"{field}.outlier_std", (int, float), False, 0.5),
            f"{field}.outlier_std",
        )
        if outlier_std < 0.0:
            raise ConfigError("outlier_std must be >= 0", field=f"{field}.outlier_std")
        return EllipseSampler(
            semi_axes=semi_axes,
            outside_band=outside_band,
            p_pos=p_pos,
            outlier_fraction=fraction,
            outlier_center=_number_pair(spec, "outlier_center", f"{field}.outlier_center", (6.0, 6.0)),
            outlier_std=outlier_std,
        )
    raise ConfigError(f"unknown sampler kind '{kind}'", field=f"{field}.kind")


def _build_model(spec, index: int) -> CostModel:
    field = f"models[{index}]"
    kind = _expect(spec, "kind", f"{field}.kind", str)
    try:
        if kind == "quadratic":
            model = QuadraticCost(
                r_u=_finite(_expect(spec, "r_u", f"{field}.r_u"), f"{field}.r_u"),
                sigma_v2=_finite(
                    _expect(spec, "sigma_v2", f"{field}.sigma_v2", (int, float)), f"{field}.sigma_v2"
                ),
                w_o=_finite_vector(_expect(spec, "w_o", f"{field}.w_o"), f"{field}.w_o"),
            )
            _check_spd(model.r_u, f"{field}.r_u", "r_u")
            return model
        if kind == "logistic":
            eval_samples = _expect(spec, "eval_samples", f"{field}.eval_samples", int, False, 200000)
            if eval_samples < 1:
                raise ConfigError("eval_samples must be >= 1", field=f"{field}.eval_samples")
            eval_seed = _expect(spec, "eval_seed", f"{field}.eval_seed", int, False, 0)
            if eval_seed < 0:
                raise ConfigError("eval_seed must be >= 0", field=f"{field}.eval_seed")
            rho = _finite(_expect(spec, "rho", f"{field}.rho", (int, float)), f"{field}.rho")
            if rho < 0:
                raise ConfigError("rho must be >= 0", field=f"{field}.rho")
            return LogisticCost(
                rho=rho,
                sampler=_build_sampler(_expect(spec, "sampler", f"{field}.sampler", dict), f"{field}.sampler"),
                eval_samples=eval_samples,
                eval_seed=eval_seed,
            )
    except ConfigError:
        raise
    except (AtcnetError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=field)
    raise ConfigError(f"unknown model kind '{kind}'", field=f"{field}.kind")


def parse_config(data: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed YAML mapping."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    base_dir = Path(base_dir)
    name = str(data.get("name", "unnamed"))
    matrix = _load_matrix(_expect(data, "matrix", "matrix", dict), base_dir)
    n = matrix.n

    models = None
    if "models" in data:
        specs = data["models"]
        if not isinstance(specs, list):
            raise ConfigError("expected a list, one entry per agent", field="models")
        if len(specs) != n:
            raise ConfigError(f"{len(specs)} model entries for {n} agents", field="models")
        models = tuple(_build_model(spec, i) for i, spec in enumerate(specs))
        dims = {m.dimension for m in models}
        if len(dims) != 1:
            raise ConfigError(f"models disagree on dimension: {sorted(dims)}", field="models")

    step_sizes = None
    if "step_sizes" in data:
        section = data["step_sizes"]
        mu_max = _finite(
            _expect(section, "mu_max", "step_sizes.mu_max", (int, float)), "step_sizes.mu_max"
        )
        tau = _expect(section, "tau", "step_sizes.tau", list, required=False, default=[1.0] * n)
        if len(tau) != n:
            raise ConfigError(f"tau has {len(tau)} entries for {n} agents", field="step_sizes.tau")
        if any(isinstance(t, (bool, str)) for t in tau):
            raise ConfigError(
                "tau entries must be numbers, not booleans or strings", field="step_sizes.tau"
            )
        try:
            step_sizes = StepSizeProfile(mu_max=mu_max, tau=tau)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), field="step_sizes")

    run_section = _expect(data, "run", "run", dict)
    seed = check_seed(_expect(run_section, "seed", "run.seed", int))
    iterations = _expect(run_section, "iterations", "run.iterations", int, required=False)
    if iterations is not None and iterations < 1:
        raise ConfigError("iterations must be an integer >= 1", field="run.iterations")
    burn_in = _expect(
        run_section, "burn_in_fraction", "run.burn_in_fraction", (int, float),
        required=False, default=DEFAULT_BURN_IN,
    )
    if not 0.0 <= burn_in < 1.0:
        raise ConfigError("burn_in_fraction must lie in [0, 1)", field="run.burn_in_fraction")
    stride = _expect(
        run_section, "stride", "run.stride", int, required=False, default=DEFAULT_STRIDE
    )
    if stride < 1:
        raise ConfigError("stride must be an integer >= 1", field="run.stride")
    if iterations is not None and stride > iterations:
        raise ConfigError("stride must not exceed iterations", field="run.stride")
    runs = _expect(
        run_section, "monte_carlo_runs", "run.monte_carlo_runs", int, required=False, default=20
    )
    if runs < 1:
        raise ConfigError("monte_carlo_runs must be an integer >= 1", field="run.monte_carlo_runs")
    run = RunControls(
        seed=seed,
        iterations=iterations,
        monte_carlo_runs=runs,
        burn_in_fraction=float(burn_in),
        stride=stride,
    )
    return ExperimentConfig(
        name=name,
        matrix=matrix,
        models=models,
        step_sizes=step_sizes,
        run=run,
        output_dir=_expect(data, "output_dir", "output_dir", str, required=False),
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

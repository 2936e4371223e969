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


@dataclass(frozen=True)
class RunControls:
    seed: int
    iterations: int | None = None
    monte_carlo_runs: int = 20
    burn_in_fraction: float = DEFAULT_BURN_IN
    stride: int = DEFAULT_STRIDE
    record_iterates: bool = True


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


def _load_matrix(section, base_dir: Path) -> CombinationMatrix:
    if not isinstance(section, dict):
        raise ConfigError("expected a mapping with 'inline' or 'file'", field="matrix")
    if ("inline" in section) == ("file" in section):
        raise ConfigError("give exactly one of 'inline' or 'file'", field="matrix")
    if "inline" in section:
        rows = section["inline"]
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
    if kind == "two_class_gaussian":
        return TwoClassGaussianSampler(
            mean_pos=_expect(spec, "mean_pos", f"{field}.mean_pos"),
            mean_neg=_expect(spec, "mean_neg", f"{field}.mean_neg"),
            cov=spec.get("cov", 1.0),
            p_pos=spec.get("p_pos", 0.5),
        )
    if kind == "ellipse":
        return EllipseSampler(
            semi_axes=tuple(spec.get("semi_axes", (2.0, 1.0))),
            outside_band=tuple(spec.get("outside_band", (1.3, 2.2))),
            p_pos=spec.get("p_pos", 0.5),
            outlier_fraction=spec.get("outlier_fraction", 0.0),
            outlier_center=tuple(spec.get("outlier_center", (6.0, 6.0))),
            outlier_std=spec.get("outlier_std", 0.5),
        )
    raise ConfigError(f"unknown sampler kind '{kind}'", field=f"{field}.kind")


def _build_model(spec, index: int) -> CostModel:
    field = f"models[{index}]"
    kind = _expect(spec, "kind", f"{field}.kind", str)
    try:
        if kind == "quadratic":
            model = QuadraticCost(
                r_u=_expect(spec, "r_u", f"{field}.r_u"),
                sigma_v2=_expect(spec, "sigma_v2", f"{field}.sigma_v2", (int, float)),
                w_o=_expect(spec, "w_o", f"{field}.w_o"),
            )
            r = model.r_u
            if not (np.all(np.isfinite(r)) and np.array_equal(r, r.T)):
                raise ConfigError("r_u must be a finite symmetric matrix", field=f"{field}.r_u")
            try:
                np.linalg.cholesky(r)
            except np.linalg.LinAlgError:
                raise ConfigError("r_u must be positive definite", field=f"{field}.r_u")
            return model
        if kind == "logistic":
            eval_samples = _expect(spec, "eval_samples", f"{field}.eval_samples", int, False, 200000)
            if eval_samples < 1:
                raise ConfigError("eval_samples must be >= 1", field=f"{field}.eval_samples")
            eval_seed = _expect(spec, "eval_seed", f"{field}.eval_seed", int, False, 0)
            if eval_seed < 0:
                raise ConfigError("eval_seed must be >= 0", field=f"{field}.eval_seed")
            return LogisticCost(
                rho=_expect(spec, "rho", f"{field}.rho", (int, float)),
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
        mu_max = _expect(section, "mu_max", "step_sizes.mu_max", (int, float))
        tau = _expect(section, "tau", "step_sizes.tau", list, required=False, default=[1.0] * n)
        if len(tau) != n:
            raise ConfigError(f"tau has {len(tau)} entries for {n} agents", field="step_sizes.tau")
        try:
            step_sizes = StepSizeProfile(mu_max=mu_max, tau=tau)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), field="step_sizes")

    run_section = _expect(data, "run", "run", dict)
    seed = _expect(run_section, "seed", "run.seed", int)
    iterations = run_section.get("iterations")
    if iterations is not None and (not isinstance(iterations, int) or iterations < 1):
        raise ConfigError("iterations must be an integer >= 1", field="run.iterations")
    burn_in = _expect(
        run_section, "burn_in_fraction", "run.burn_in_fraction", (int, float),
        required=False, default=DEFAULT_BURN_IN,
    )
    if not 0.0 <= burn_in < 1.0:
        raise ConfigError("burn_in_fraction must lie in [0, 1)", field="run.burn_in_fraction")
    stride = run_section.get("stride", DEFAULT_STRIDE)
    if not isinstance(stride, int) or stride < 1:
        raise ConfigError("stride must be an integer >= 1", field="run.stride")
    runs = run_section.get("monte_carlo_runs", 20)
    if not isinstance(runs, int) or runs < 1:
        raise ConfigError("monte_carlo_runs must be an integer >= 1", field="run.monte_carlo_runs")
    run = RunControls(
        seed=seed,
        iterations=iterations,
        monte_carlo_runs=runs,
        burn_in_fraction=float(burn_in),
        stride=stride,
        record_iterates=bool(run_section.get("record_iterates", True)),
    )
    return ExperimentConfig(
        name=name,
        matrix=matrix,
        models=models,
        step_sizes=step_sizes,
        run=run,
        output_dir=data.get("output_dir"),
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

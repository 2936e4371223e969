import contextlib
import copy
import dataclasses
import functools
import hashlib
import importlib
import json
import operator
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import atcnet as an
from atcnet import child, cli, workflows
from atcnet.config import PRESET_NAMES, _YAML_LOADER, load_config, load_preset, parse_config
from atcnet.errors import ConfigError

from conftest import EIGHT_AGENT
from test_analysis_output import count_calls
from test_influence import W_REFERENCE

RUN_0_CSV = """iteration,agent_id,sq_error
10,0,0.0
10,1,1e-300
20,0,0.0
20,1,0.1
30,0,0.0
30,1,12345.678
"""
LEARNING_CURVE_CSV = """iteration,agent_id,mean_sq_error_db
10,0,-inf
10,1,-7.781512503836437
20,0,-inf
20,1,-13.009214356129464
30,0,-inf
30,1,37.90731125052567
"""

LOGISTIC_1D = {
    "kind": "logistic",
    "rho": 0.1,
    "sampler": {"kind": "two_class_gaussian", "mean_pos": [1.0], "mean_neg": [-1.0]},
}

QUADRATIC_1D = {"kind": "quadratic", "w_o": 1.0, "sigma_v2": 0.01}
QUADRATIC_2D = {"kind": "quadratic", "w_o": [1.0, 1.0], "sigma_v2": 0.01}


def logistic_sampler(**sampler):
    """LOGISTIC_1D with some of its sampler's fields replaced."""
    return {**LOGISTIC_1D, "sampler": {**LOGISTIC_1D["sampler"], **sampler}}


def ellipse_sampler(**sampler):
    """A logistic model on an ellipse sampler with the given fields."""
    return {**LOGISTIC_1D, "sampler": {"kind": "ellipse", **sampler}}


def eight_agent_config(**run_overrides):
    run = {"seed": 5, "iterations": 2000, "monte_carlo_runs": 2, "stride": 10}
    run.update(run_overrides)
    w_os = [1.0, 1.0, 1.0, 1.5, 1.5, 1.25, 1.25, 1.25]
    return {
        "name": "eight",
        "matrix": {"inline": EIGHT_AGENT.tolist()},
        "models": [
            {"kind": "quadratic", "w_o": w, "sigma_v2": 0.01, "r_u": 1.0} for w in w_os
        ],
        "step_sizes": {"mu_max": 0.0005},
        "run": run,
    }


class TestParseConfig:
    def test_full_config(self):
        config = parse_config(eight_agent_config())
        assert config.n == 8
        assert len(config.models) == 8
        assert config.step_sizes.mu_max == 0.0005
        assert config.run.seed == 5

    def test_matrix_from_comma_file(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("1.0,0.03\n0.0,0.97\n")
        data = {"name": "t", "matrix": {"file": "weights.csv"}, "run": {"seed": 1}}
        config = parse_config(data, base_dir=tmp_path)
        assert config.matrix.weights[0, 1] == pytest.approx(0.03)

    def test_matrix_from_whitespace_file(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("1.0 0.03\n0.0 0.97\n")
        config = parse_config(
            {"name": "t", "matrix": {"file": "weights.txt"}, "run": {"seed": 1}},
            base_dir=tmp_path,
        )
        assert config.matrix.n == 2

    def test_seed_is_mandatory(self):
        data = eight_agent_config()
        del data["run"]["seed"]
        with pytest.raises(ConfigError, match="run.seed"):
            parse_config(data)

    def test_model_count_must_match_agents(self):
        data = eight_agent_config()
        data["models"] = data["models"][:3]
        with pytest.raises(ConfigError, match="8 agents"):
            parse_config(data)

    def test_unknown_model_kind(self):
        data = eight_agent_config()
        data["models"][0] = {"kind": "cubic"}
        with pytest.raises(ConfigError, match="models\\[0\\]"):
            parse_config(data)

    def test_tau_length_checked(self):
        data = eight_agent_config()
        data["step_sizes"]["tau"] = [1.0, 1.0]
        with pytest.raises(ConfigError, match="tau"):
            parse_config(data)

    def test_invalid_matrix_reported_with_field(self):
        data = {"name": "t", "matrix": {"inline": [[0.5, 0.6], [0.5, 0.6]]}, "run": {"seed": 1}}
        with pytest.raises(ConfigError, match="matrix"):
            parse_config(data)

    def test_zero_iterations_rejected(self):
        data = eight_agent_config(iterations=0)
        with pytest.raises(ConfigError, match="iterations"):
            parse_config(data)

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("step_sizes", "tau", 1.0, "step_sizes.tau"),
            ("step_sizes", "tau", [None] * 8, "step_sizes.tau"),
            ("step_sizes", "mu_max", "x", "step_sizes.mu_max"),
            ("run", "burn_in_fraction", "a", "run.burn_in_fraction"),
            ("run", "burn_in_fraction", None, "run.burn_in_fraction"),
            ("run", "seed", True, "run.seed"),
            ("models", 2, {**LOGISTIC_1D, "eval_samples": "x"}, "models[2].eval_samples"),
            ("models", 2, {**LOGISTIC_1D, "eval_samples": 0}, "models[2].eval_samples"),
            ("models", 2, {**LOGISTIC_1D, "eval_samples": 1000.0}, "models[2].eval_samples"),
            ("models", 2, {**LOGISTIC_1D, "eval_seed": True}, "models[2].eval_seed"),
            ("models", 2, {**LOGISTIC_1D, "eval_seed": -1}, "models[2].eval_seed"),
            ("models", 2, {**QUADRATIC_1D, "r_u": -1.0}, "models[2].r_u"),
            ("models", 2, {**QUADRATIC_1D, "r_u": 0.0}, "models[2].r_u"),
            ("models", 2, {**QUADRATIC_1D, "r_u": float("nan")}, "models[2].r_u"),
            ("models", 2, {**QUADRATIC_2D, "r_u": [[1.0, 2.0], [2.0, 1.0]]}, "models[2].r_u"),
            ("models", 2, {**QUADRATIC_2D, "r_u": [[1.0, 0.5], [0.2, 1.0]]}, "models[2].r_u"),
            ("step_sizes", "mu_max", float("inf"), "step_sizes.mu_max"),
            ("run", "iterations", True, "run.iterations"),
            ("run", "stride", True, "run.stride"),
            ("run", "monte_carlo_runs", True, "run.monte_carlo_runs"),
            ("models", 2, {**QUADRATIC_1D, "r_u": 1.0, "sigma_v2": float("nan")}, "models[2].sigma_v2"),
            ("models", 2, {**QUADRATIC_1D, "r_u": 1.0, "w_o": [float("nan")]}, "models[2].w_o"),
            ("run", "seed", -1, "run.seed"),
            ("run", "stride", 10**9, "run.stride"),
            ("models", 2, logistic_sampler(mean_pos=[float("nan")]), "models[2].sampler.mean_pos"),
            ("models", 2, logistic_sampler(p_pos=2.0), "models[2].sampler.p_pos"),
            ("models", 2, logistic_sampler(p_pos=True), "models[2].sampler.p_pos"),
            (
                "models", 2,
                logistic_sampler(mean_pos=[1.0, 0.5], mean_neg=[-1.0, -0.5], cov=[[1, 2], [2, 1]]),
                "models[2].sampler.cov",
            ),
            ("step_sizes", "tau", [True] * 8, "step_sizes.tau"),
            ("models", 2, ellipse_sampler(semi_axes=[1, 1, 1]), "models[2].sampler.semi_axes"),
            ("models", 2, ellipse_sampler(semi_axes="ab"), "models[2].sampler.semi_axes"),
            ("models", 2, ellipse_sampler(semi_axes=[float("nan"), 1]), "models[2].sampler.semi_axes"),
            ("models", 2, ellipse_sampler(semi_axes=[-2, 1]), "models[2].sampler.semi_axes"),
            ("models", 2, ellipse_sampler(outside_band=[2.2, 1.3]), "models[2].sampler.outside_band"),
            ("models", 2, ellipse_sampler(outside_band=[2.0]), "models[2].sampler.outside_band"),
            ("models", 2, ellipse_sampler(outlier_fraction=2.0), "models[2].sampler.outlier_fraction"),
            ("models", 2, ellipse_sampler(outlier_fraction=True), "models[2].sampler.outlier_fraction"),
            ("models", 2, ellipse_sampler(outlier_center=[1, 2, 3]), "models[2].sampler.outlier_center"),
            (
                "models", 2,
                ellipse_sampler(outlier_std="x", outlier_fraction=0.1),
                "models[2].sampler.outlier_std",
            ),
            ("models", 2, ellipse_sampler(outlier_std="x"), "models[2].sampler.outlier_std"),
            ("models", 2, ellipse_sampler(outlier_std=float("nan")), "models[2].sampler.outlier_std"),
            # numpy would parse numeric strings and turn booleans into 1.0
            ("models", 2, {**QUADRATIC_1D, "r_u": 1.0, "w_o": "1.5"}, "models[2].w_o"),
            ("models", 2, {**QUADRATIC_1D, "r_u": "2"}, "models[2].r_u"),
            ("models", 2, logistic_sampler(mean_pos=["1"]), "models[2].sampler.mean_pos"),
            ("models", 2, logistic_sampler(mean_neg="-1"), "models[2].sampler.mean_neg"),
            ("models", 2, logistic_sampler(cov="1"), "models[2].sampler.cov"),
            ("matrix", "inline", [["1.0"]], "matrix.inline"),
            ("step_sizes", "tau", ["1"] * 8, "step_sizes.tau"),
            ("models", 2, {**QUADRATIC_1D, "r_u": 1.0, "w_o": [True]}, "models[2].w_o"),
            ("models", 2, {**QUADRATIC_1D, "r_u": True}, "models[2].r_u"),
            ("matrix", "inline", [[True]], "matrix.inline"),
            ("models", 2, logistic_sampler(mean_pos=[True]), "models[2].sampler.mean_pos"),
            ("models", 2, logistic_sampler(cov=True), "models[2].sampler.cov"),
            # a nested list once passed, and a 1 x 2 w_o ended analyze with a traceback
            ("models", 2, {**QUADRATIC_1D, "r_u": 1.0, "w_o": [[1.0, 2.0]]}, "models[2].w_o"),
            ("models", 2, logistic_sampler(mean_pos=[[1.0]]), "models[2].sampler.mean_pos"),
            ("models", 2, logistic_sampler(mean_neg=[[-1.0]]), "models[2].sampler.mean_neg"),
            # finite, but the model's products would overflow
            ("models", 2, logistic_sampler(mean_pos=[1.0e308]), "models[2].sampler.mean_pos"),
            ("models", 2, logistic_sampler(cov=1.0e308), "models[2].sampler.cov"),
            ("models", 2, {**QUADRATIC_1D, "r_u": -1.0e308}, "models[2].r_u"),
            ("models", 2, ellipse_sampler(semi_axes=[1.0e31, 1.0]), "models[2].sampler.semi_axes"),
            # ranges and shapes that the model and step-size constructors once checked,
            # naming only the section
            ("step_sizes", "mu_max", -1, "step_sizes.mu_max"),
            ("step_sizes", "tau", [2.0] * 8, "step_sizes.tau"),
            ("models", 2, {**QUADRATIC_1D, "r_u": 1.0, "sigma_v2": -1}, "models[2].sigma_v2"),
            ("models", 2, logistic_sampler(mean_neg=[-1.0, -1.0]), "models[2].sampler.mean_neg"),
            ("models", 2, {**QUADRATIC_2D, "r_u": [1.0, 2.0, 3.0]}, "models[2].r_u"),
            ("models", 2, logistic_sampler(cov=[[1.0, 0.0], [0.0, 1.0]]), "models[2].sampler.cov"),
            # a nested tau once parsed, and analyze then ended with a traceback
            ("step_sizes", "tau", [[1.0]] * 8, "step_sizes.tau"),
            # an empty w_o or pair of class means once parsed, and every command then
            # ended with a traceback
            ("models", 2, {**QUADRATIC_1D, "r_u": 1.0, "w_o": []}, "models[2].w_o"),
            ("models", 2, logistic_sampler(mean_pos=[], mean_neg=[]), "models[2].sampler.mean_pos"),
            # a zero step size once parsed, and every command then failed naming no field
            ("step_sizes", "mu_max", 0, "step_sizes.mu_max"),
        ],
    )
    def test_bad_field_rejected_by_name(self, tmp_path, capsys, section, key, value, field):
        data = eight_agent_config()
        data[section][key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.field == field
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["analyze", "--config", str(path)]) == 1
        assert f"{field}:" in capsys.readouterr().err

    def test_output_dir_must_be_a_string(self, tmp_path, capsys):
        data = {**eight_agent_config(), "output_dir": 5}
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.field == "output_dir"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["analyze", "--config", str(path)]) == 1
        assert "output_dir: expected str, got int" in capsys.readouterr().err

    def test_logistic_eval_fields_accepted(self):
        data = eight_agent_config()
        data["models"][2] = {**LOGISTIC_1D, "eval_samples": 1000, "eval_seed": 3}
        model = parse_config(data).models[2]
        assert (model.eval_samples, model.eval_seed) == (1000, 3)

    def test_ellipse_fields_accepted(self):
        fields = {
            "semi_axes": [3, 0.5],
            "outside_band": [0, 0],
            "outlier_fraction": 1,
            "outlier_center": [-1.5, 2],
            "outlier_std": 0,
        }
        data = {
            "name": "one",
            "matrix": {"inline": [[1.0]]},
            "models": [ellipse_sampler(**fields)],
            "run": {"seed": 1},
        }
        sampler = parse_config(data).models[0].sampler
        assert sampler.semi_axes == (3.0, 0.5)
        assert sampler.outside_band == (0.0, 0.0)
        assert (sampler.outlier_fraction, sampler.outlier_std) == (1, 0)
        assert sampler.outlier_center == (-1.5, 2.0)

    def test_empty_matrix_file_rejected(self, tmp_path, capsys):
        (tmp_path / "weights.csv").write_text("")
        data = {"name": "t", "matrix": {"file": "weights.csv"}, "run": {"seed": 1}}
        with pytest.raises(ConfigError) as exc:
            parse_config(data, base_dir=tmp_path)
        assert exc.value.field == "matrix.file"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "matrix.file:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["\n\n", "  \n# no data, only a comment\n\t\n"])
    def test_blank_matrix_file_rejected(self, tmp_path, capsys, text):
        # numpy would warn "input contained no data" and return an empty array
        (tmp_path / "weights.csv").write_text(text)
        data = {"name": "t", "matrix": {"file": "weights.csv"}, "run": {"seed": 1}}
        with pytest.raises(ConfigError) as exc:
            parse_config(data, base_dir=tmp_path)
        assert exc.value.field == "matrix.file"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "matrix.file: matrix file is empty" in capsys.readouterr().err

    def test_structure_only_config(self):
        config = parse_config(
            {"name": "s", "matrix": {"inline": [[1.0]]}, "run": {"seed": 2}}
        )
        assert config.models is None
        with pytest.raises(ConfigError):
            config.require_models()


class TestPresets:
    @pytest.mark.parametrize(
        "name", ["two-agent-logistic", "three-subnetwork-regression", "fully-connected"]
    )
    def test_presets_load_consistently(self, name):
        config = load_preset(name)
        assert len(config.models) == config.n
        assert config.step_sizes.n == config.n
        assert config.run.iterations >= 1

    def test_preset_prefix_accepted(self):
        config = load_config("preset-two-agent-logistic")
        assert config.n == 2

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("nonexistent")

    def test_yaml_loader_matches_python_safe_loader(self, tmp_path, monkeypatch):
        # the presets and the configs the benchmark workloads write
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        texts = [
            resources.files("atcnet").joinpath(f"presets/{name}.yaml").read_text()
            for name in PRESET_NAMES
        ]
        for name, workload in workloads.WORKLOADS.items():
            work = tmp_path / name
            work.mkdir()
            texts.append(workload.generate(1, work).config.read_text())
        for text in texts:
            assert yaml.load(text, Loader=_YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


def _preset_data(name):
    data = yaml.safe_load(resources.files("atcnet").joinpath(f"presets/{name}.yaml").read_text())
    for model in data["models"]:
        if model["kind"] == "logistic":
            model["eval_samples"] = 2000  # keeps each example fast
    return data


FUZZ_BASES = {name: _preset_data(name) for name in PRESET_NAMES}
# the logistic preset with every optional field set, so that each is mutated too; both
# samplers give 6-d features
FUZZ_BASES["every-optional-field"] = {
    **FUZZ_BASES["two-agent-logistic"],
    "models": [
        {
            **logistic_sampler(
                mean_pos=[1.0] * 6, mean_neg=[-1.0] * 6, cov=[1.0, 0.5] * 3, p_pos=0.4
            ),
            "eval_samples": 2000,
            "eval_seed": 3,
        },
        {
            **ellipse_sampler(
                semi_axes=[2.0, 1.0], outside_band=[1.3, 2.2], p_pos=0.6,
                outlier_fraction=0.1, outlier_center=[6.0, 6.0], outlier_std=0.5,
            ),
            "eval_samples": 2000,
            "eval_seed": 1,
        },
    ],
    "step_sizes": {"mu_max": 0.002, "tau": [1.0, 0.5]},
    "output_dir": "out/every-optional-field",
}
# wrong types, strings where numbers go, non-finite, huge and negative numbers
BAD_VALUES = [
    None, True, "x", "0.5", float("nan"), float("inf"), -1, -0.25, [], {}, ["1.0"],
    [[1.0], [1.0, 2.0]], [[1.0, 2.0]], 1e308, -1e308,
]


def _locations(value, path=()):
    """The path of every dict entry and list item nested in ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _locations(child, path + (key,))


@st.composite
def mutated_presets(draw):
    """A fuzz base's YAML mapping with one to three entries dropped, negated or replaced."""
    data = copy.deepcopy(FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(list(_locations(data))))
        parent = functools.reduce(operator.getitem, parents, data)
        action = draw(st.sampled_from(["drop", "negate", "replace"]))
        value = parent[key]
        if action == "drop":
            del parent[key]
        elif action == "negate" and type(value) in (int, float):
            parent[key] = -value
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return data


@settings(max_examples=150)
@given(mutated_presets())
def test_mutated_presets_fail_only_with_config_errors(data):
    try:
        parse_config(data)
    except ConfigError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        code = cli.main(["analyze", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)


class TestAnalyzeWorkflow:
    def test_w_block_matches_reference(self):
        payload = workflows.analyze(parse_config(eight_agent_config()))
        w = np.array(payload["w"]["values"])
        assert np.abs(w - W_REFERENCE).max() < 5e-4
        assert payload["w"]["rows"] == [0, 1, 2, 3, 4]
        assert payload["w"]["cols"] == [5, 6, 7]

    def test_limit_points_included_with_models(self):
        payload = workflows.analyze(parse_config(eight_agent_config()))
        stars = [entry["value"] for entry in payload["limit_points"]["w_star"]]
        assert stars == [[1.0], [1.5]]
        bullets = [entry["value"][0] for entry in payload["limit_points"]["w_bullet"]]
        assert bullets == pytest.approx([1.2233, 1.1775, 1.1088], abs=1e-3)
        assert payload["limit_points"]["fixed_point_residual"] < 1e-9

    def test_strongly_connected_reported(self):
        data = {
            "name": "full",
            "matrix": {"inline": np.full((8, 8), 0.125).tolist()},
            "run": {"seed": 1},
        }
        payload = workflows.analyze(parse_config(data))
        assert payload["strongly_connected"] is True
        assert "w" not in payload
        assert payload["subnetworks"][0]["perron"] == pytest.approx([0.125] * 8)

    def test_single_agent_trivial_report(self):
        payload = workflows.analyze(
            parse_config({"name": "one", "matrix": {"inline": [[1.0]]}, "run": {"seed": 1}})
        )
        assert payload["sccs"] == [{"id": 0, "agents": [0], "type": "S"}]
        assert "w" not in payload

    def test_round_trips_losslessly(self):
        payload = workflows.analyze(parse_config(eight_agent_config()))
        assert json.loads(json.dumps(payload)) == payload

    def test_deterministic_modulo_timestamp(self):
        config = parse_config(eight_agent_config())
        a = workflows.comparison_payload(workflows.analyze(config))
        b = workflows.comparison_payload(workflows.analyze(config))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_permuted_agents_give_permuted_w(self):
        perm = [5, 0, 7, 2, 4, 1, 6, 3]
        permuted = EIGHT_AGENT[np.ix_(perm, perm)]
        base = workflows.analyze(parse_config(eight_agent_config()))
        data = {"name": "p", "matrix": {"inline": permuted.tolist()}, "run": {"seed": 5}}
        other = workflows.analyze(parse_config(data))
        new_id = {orig: i for i, orig in enumerate(perm)}

        def entries(payload):
            rows, cols = payload["w"]["rows"], payload["w"]["cols"]
            values = np.array(payload["w"]["values"])
            return {
                (r, c): values[i, j]
                for i, r in enumerate(rows)
                for j, c in enumerate(cols)
            }

        base_entries = entries(base)
        other_entries = entries(other)
        for (r, c), value in base_entries.items():
            assert other_entries[(new_id[r], new_id[c])] == pytest.approx(value, abs=1e-12)


class TestSimulateWorkflow:
    def test_outputs_and_determinism(self, tmp_path):
        config = parse_config(eight_agent_config())
        result = workflows.simulate(config, tmp_path / "a")
        assert len(result.trajectories) == 2
        first = result.written
        again = workflows.simulate(config, tmp_path / "b").written
        assert len(first) == len(again) == 4
        for p1, p2 in zip(first, again):
            if p1.suffix == ".csv":
                assert p1.read_bytes() == p2.read_bytes()

    def test_csv_headers(self, tmp_path):
        config = parse_config(eight_agent_config())
        workflows.simulate(config, tmp_path)
        run0 = (tmp_path / "runs" / "run_0.csv").read_text().splitlines()
        assert run0[0] == "iteration,agent_id,sq_error"
        curve = (tmp_path / "learning_curve.csv").read_text().splitlines()
        assert curve[0] == "iteration,agent_id,mean_sq_error_db"
        assert len(run0) == 1 + 200 * 8  # 2000 iterations, stride 10, 8 agents

    def test_csv_bytes_pinned(self, tmp_path):
        # agent 0 averages to exactly 0, which the learning curve writes as -inf dB
        sq_error = [
            np.array([[0.0, 1e-300], [0.0, 0.1], [0.0, 12345.678]]),
            np.array([[0.0, 1.0 / 3.0], [0.0, 2.5e-05], [0.0, 7.0]]),
        ]
        child._CsvWriter(tmp_path, n_runs=2, stride=10).write(sq_error)
        assert (tmp_path / "runs" / "run_0.csv").read_text() == RUN_0_CSV
        assert (tmp_path / "learning_curve.csv").read_text() == LEARNING_CURVE_CSV

    def test_requires_full_config(self):
        config = parse_config(
            {"name": "s", "matrix": {"inline": [[1.0]]}, "run": {"seed": 2}}
        )
        with pytest.raises(ConfigError):
            workflows.simulate(config)

    def test_writer_exits_when_its_parent_dies(self, tmp_path):
        # the parent starts a writer, sends one block and is killed before commit
        out = tmp_path / "out"
        script = (
            "import os, signal, numpy as np\n"
            "from atcnet import workflows\n"
            "if __name__ == '__main__':\n"
            f"    w = workflows._OutputWriter(__import__('pathlib').Path({str(out)!r}), 2, 3, 1)\n"
            "    w.send(np.ones((2, 4, 3)))\n"
            "    print(w.process.pid, flush=True)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == -signal.SIGKILL
        writer = int(proc.stdout)
        deadline = time.monotonic() + 60
        while _running(writer) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(writer)
        assert not out.exists()


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _group(pgid: int) -> list[int]:
    """The processes of group ``pgid`` that exist and are not zombies."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process exited while we looked
            continue
        if state != "Z" and int(group) == pgid:
            members.append(int(stat.parent.name))
    return members


def _no_child() -> bool:
    """Whether this process has no child: none running, and none exited but not reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _workers(pgid: int) -> list[int]:
    """The ``atcnet.child`` processes in process group ``pgid``."""
    workers = []
    for pid in _group(pgid):
        try:
            if b"atcnet.child" in Path(f"/proc/{pid}/cmdline").read_bytes():
                workers.append(pid)
        except OSError:  # the process exited while we looked
            continue
    return workers


def _interrupt(proc) -> str:
    """Press Ctrl-C on ``proc``, a command started in a new session, and return its standard
    error once it has exited and, within a few seconds, left no process in its group.

    The command is waited on, not its pipes: a child that outlived it would hold them
    open, so a wait on the pipes would let the child go before its group is looked at.
    """
    os.killpg(proc.pid, signal.SIGINT)
    proc.wait(timeout=120)
    deadline = time.monotonic() + 5
    while _group(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _group(proc.pid) == []
    return proc.communicate()[1]


def _kill_group(proc) -> None:
    """Kill whatever is left of ``proc``'s process group, then reap ``proc`` and close its pipes."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def _cpu_seconds(pid: int) -> float:
    """User and system CPU time process ``pid`` has used; 0 once it is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def started_workers(monkeypatch) -> list:
    """A list to which every ``_EnsembleWorker`` started from now on is appended."""
    workers = []
    init = workflows._EnsembleWorker.__init__

    def start(self, *args):
        workers.append(self)
        init(self, *args)

    monkeypatch.setattr(workflows._EnsembleWorker, "__init__", start)
    return workers


def _tree(root: Path) -> dict:
    """Every file (with its bytes) and directory under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


# SHA-256 of the JSON of ``comparison_payload(msd(config, with_sim=True))``.
# two-agent-logistic was taken again when its noise covariance became the
# closed form over the model's evaluation design, again when its Newton
# solve began to start from a prefix of the design, and again when its sums
# began to run over blocks of design rows, which round differently (theory
# moved by 2.2e-14 dB, the simulated MSDs by at most 1.6e-13 dB).
MSD_WITH_SIM_SHA256 = {
    "eight-agent": "4dae226561507dd71635ebfdda9a1f14e71f986df07ef4ceb04537bbd18105e0",
    "two-agent-logistic": "aca9d121410c3ea7cef73b988cdef9ca822b5278e29981be79e23c2c960d386d",
}


def with_sim_config(name):
    """The config behind each of MSD_WITH_SIM_SHA256's digests."""
    if name == "eight-agent":
        return parse_config(eight_agent_config(iterations=4000, monte_carlo_runs=3))
    preset = load_preset(name)
    return dataclasses.replace(
        preset, run=dataclasses.replace(preset.run, iterations=3000, monte_carlo_runs=3)
    )


class TestMsdWorkflow:
    def test_schema(self):
        payload = workflows.msd(parse_config(eight_agent_config()))
        assert {s["id"] for s in payload["subnetworks"]} == {0, 1}
        for sub in payload["subnetworks"]:
            assert set(sub) >= {"id", "agents", "msd_linear", "msd_db"}
            assert sub["msd_db"] == pytest.approx(10 * np.log10(sub["msd_linear"]))
        for entry in payload["r_agents"]:
            assert set(entry) >= {"id", "c", "msd_linear", "msd_db"}
            assert sum(entry["c"]) == pytest.approx(1.0, abs=1e-10)

    def test_receiving_identity_holds_in_payload(self):
        payload = workflows.msd(parse_config(eight_agent_config()))
        msds = [s["msd_linear"] for s in payload["subnetworks"]]
        for entry in payload["r_agents"]:
            expected = sum(c**2 * m for c, m in zip(entry["c"], msds))
            assert entry["msd_linear"] == pytest.approx(expected, rel=1e-12)

    def test_with_sim_attaches_comparison(self):
        config = parse_config(eight_agent_config(iterations=4000, monte_carlo_runs=3))
        payload = workflows.msd(config, with_sim=True)
        assert len(payload["comparison"]) == 8
        for entry in payload["r_agents"]:
            assert "sim_db" in entry and "delta_db" in entry

    def test_with_sim_solves_for_w_once(self, monkeypatch):
        from atcnet import influence

        influence_matrix = count_calls(monkeypatch, influence, "influence_matrix")
        payload = workflows.msd(parse_config(eight_agent_config()), with_sim=True)
        assert "comparison" in payload
        assert len(influence_matrix) == 1

    @pytest.mark.parametrize("name", sorted(MSD_WITH_SIM_SHA256))
    def test_with_sim_payload_pinned(self, name):
        payload = workflows.comparison_payload(workflows.msd(with_sim_config(name), with_sim=True))
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == MSD_WITH_SIM_SHA256[name]
        assert _no_child()

    @pytest.mark.parametrize("key, value", [("monte_carlo_runs", 1), ("iterations", None)])
    def test_with_sim_checks_run_controls_before_the_theory(self, monkeypatch, key, value):
        config = parse_config(eight_agent_config())
        config = dataclasses.replace(config, run=dataclasses.replace(config.run, **{key: value}))
        solves = count_calls(monkeypatch, an.performance, "pareto_solve")
        with pytest.raises(ConfigError) as exc:
            workflows.msd(config, with_sim=True)
        assert exc.value.field == f"run.{key}"
        assert solves == []

    @pytest.mark.parametrize("error", [an.errors.NoConvergence(1), KeyboardInterrupt()])
    def test_failed_theory_stops_the_ensemble(self, monkeypatch, error):
        # the ensemble starts before the theory; a failing theory stops it instead of
        # waiting for its 10**6 rounds
        workers = started_workers(monkeypatch)

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(workflows.performance, "theoretical_msd", failing)
        config = parse_config(eight_agent_config(iterations=10**6, stride=100))
        with pytest.raises(type(error)):
            workflows.msd(config, with_sim=True)
        [worker] = workers
        assert worker.process.returncode == -signal.SIGTERM
        assert _no_child()

    def test_worker_gets_the_config_without_a_design(self, monkeypatch):
        # the worker is handed the config before the theory draws any design; the two
        # 200 000-row designs of two-agent-logistic would pickle to 6.4 MB
        sent = []
        send = workflows._Child._send
        monkeypatch.setattr(workflows._Child, "_send",
                            lambda self, data: sent.append(len(data)) or send(self, data))
        preset = load_preset("two-agent-logistic")
        config = dataclasses.replace(
            preset, run=dataclasses.replace(preset.run, iterations=300, monte_carlo_runs=2)
        )
        workflows.msd(config, with_sim=True)
        assert len(sent) == 2 and max(sent) < 10_000

    @pytest.mark.parametrize("points", [False, True], ids=["before-points", "after-points"])
    def test_ensemble_worker_exits_when_its_parent_dies(self, points):
        # the parent starts a worker on a long run, may hand it limit points, and is killed
        data = eight_agent_config(iterations=10**7, stride=1000)
        script = (
            "import os, pickle, signal, numpy as np\n"
            "from atcnet import workflows\n"
            "from atcnet.config import parse_config\n"
            "if __name__ == '__main__':\n"
            f"    c = parse_config({data!r})\n"
            "    w = workflows._EnsembleWorker(c.matrix, list(c.models), c.step_sizes,\n"
            "                                  workflows._run_controls(c))\n"
            f"    if {points}:\n"
            "        w._send(pickle.dumps(np.ones((8, 1))))\n"
            "    print(w.process.pid, flush=True)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        # the worker keeps the stdout pipe open while it lives, so it is read a line at a time
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        with proc.stdout:
            worker = int(proc.stdout.readline())
        assert proc.wait(timeout=120) == -signal.SIGKILL
        # it has only to start and finish one sample block of 2 runs x 8 agents
        deadline = time.monotonic() + 20
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = _running(worker)
        if alive:
            os.kill(worker, signal.SIGKILL)
        assert not alive

    def test_zero_noise_guarded(self):
        data = eight_agent_config()
        for model in data["models"]:
            model["sigma_v2"] = 0.0
        payload = workflows.msd(parse_config(data))
        assert all(s["msd_db"] is None and s["msd_linear"] == 0.0 for s in payload["subnetworks"])
        summary = workflows.human_summary(payload)
        assert "0 (linear)" in summary


def three_agent_config(iterations):
    """Two sending agents and one receiver; two runs that record every round."""
    return parse_config({
        "name": "three",
        "matrix": {"inline": [[0.6, 0.4, 0.1], [0.4, 0.6, 0.1], [0.0, 0.0, 0.8]]},
        "models": [
            {"kind": "quadratic", "w_o": w, "sigma_v2": 0.01, "r_u": 1.0} for w in (1.0, 1.5, 1.2)
        ],
        "step_sizes": {"mu_max": 0.01},
        "run": {"seed": 3, "iterations": iterations, "monte_carlo_runs": 2, "stride": 1},
    })


def traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedRecords:
    @pytest.mark.parametrize("command", ["simulate", "simulate without out_dir", "msd --with-sim"])
    def test_memory_does_not_grow_with_the_run(self, tmp_path, command):
        # the longer run's history would take 2 runs x 4000 records x 3 agents x 8 bytes;
        # what does grow is the (records,) iteration array the trajectories share
        def run(iterations):
            config = three_agent_config(iterations)
            if command == "simulate":
                return lambda: workflows.simulate(config, tmp_path / str(iterations))
            if command == "simulate without out_dir":
                return lambda: workflows.simulate(config)
            return lambda: workflows.msd(config, with_sim=True)

        run(4000)()  # fills the interpreter's free lists, which tracemalloc counts as in use
        short, long = traced_peak(run(400)), traced_peak(run(4000))
        history = 2 * 4000 * 3 * 8
        assert long - short < history / 4

    def test_streamed_simulate_keeps_no_history(self, tmp_path):
        config = three_agent_config(1500)
        streamed = workflows.simulate(config, tmp_path)
        kept = workflows.simulate(config)
        assert all(traj.sq_error is None for traj in streamed.trajectories)
        assert workflows.comparison_payload(streamed.payload) == workflows.comparison_payload(
            kept.payload
        )


class TestCli:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        return str(path)

    def test_analyze_command(self, tmp_path, capsys):
        path = self.write_config(tmp_path, eight_agent_config())
        code = cli.main(["analyze", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["s_agents"] == [0, 1, 2, 3, 4]
        assert "scc 0 [S]" in capsys.readouterr().out

    def test_simulate_command(self, tmp_path):
        path = self.write_config(tmp_path, eight_agent_config())
        code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "runs" / "run_1.csv").exists()
        assert (tmp_path / "out" / "learning_curve.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_msd_command(self, tmp_path):
        path = self.write_config(tmp_path, eight_agent_config())
        code = cli.main(["msd", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "msd_report.json").read_text())
        assert "subnetworks" in payload and "r_agents" in payload

    def test_msd_with_sim_flag(self, tmp_path):
        path = self.write_config(
            tmp_path, eight_agent_config(iterations=4000, monte_carlo_runs=3)
        )
        code = cli.main(
            ["msd", "--config", path, "--with-sim", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        payload = json.loads((tmp_path / "out" / "msd_report.json").read_text())
        assert len(payload["comparison"]) == 8
        assert _no_child()

    def test_msd_with_sim_divergence_exit_code(self, tmp_path, capsys):
        data = eight_agent_config(iterations=4000, stride=7, monte_carlo_runs=3)
        data["step_sizes"]["mu_max"] = 1.05
        path = self.write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["msd", "--config", path, "--with-sim", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "divergence: iterates diverged: agent 4 at iteration 1082 (run 2)\n" in err
        assert _no_child()
        assert not out.exists()

    def test_interrupted_simulate_exit_code(self, tmp_path):
        # Ctrl-C in a terminal sends SIGINT to the whole process group: the CLI and its writer
        path = self.write_config(tmp_path, eight_agent_config(iterations=10**7, stride=1000))
        out = tmp_path / "out"
        proc = subprocess.Popen(
            [sys.executable, "-m", "atcnet.cli", "simulate", "--config", path, "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            deadline = time.monotonic() + 60
            while not any(out.glob(".staging-*")) and proc.poll() is None:
                assert time.monotonic() < deadline, "the writer never staged its files"
                time.sleep(0.02)
            err = _interrupt(proc)
        finally:
            _kill_group(proc)
        assert proc.returncode == 130
        assert err == "interrupted\n"
        assert not out.exists()

    def test_analyze_logistic_preset(self, tmp_path):
        # limit points via Newton on the sampled aggregate gradient
        code = cli.main(
            ["analyze", "--config", "two-agent-logistic", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        star = payload["limit_points"]["w_star"][0]["value"]
        bullet = payload["limit_points"]["w_bullet"][0]["value"]
        assert bullet == pytest.approx(star, abs=1e-10)  # W = [1]: receiver follows

    def test_analyze_logistic_huge_step_size(self, tmp_path):
        # Newton once stopped on the absolute size of the q-weighted gradient,
        # so a step size of 1e10 ended in NoConvergence
        data = yaml.safe_load(resources.files("atcnet").joinpath(
            "presets/two-agent-logistic.yaml").read_text())
        data["step_sizes"]["mu_max"] = 1e10
        path, out = self.write_config(tmp_path, data), tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        (star,) = payload["limit_points"]["w_star"]
        preset = workflows.analyze(load_preset("two-agent-logistic"))
        (preset_star,) = preset["limit_points"]["w_star"]
        assert np.abs(np.subtract(star["value"], preset_star["value"])).max() <= 1e-12

    @staticmethod
    def ellipse_pair(**sampler):
        """The two-agent-logistic preset with both models on 2000-row ellipse designs."""
        data = yaml.safe_load(resources.files("atcnet").joinpath(
            "presets/two-agent-logistic.yaml").read_text())
        for model in data["models"]:
            model.update(sampler={"kind": "ellipse", **sampler}, eval_samples=2000)
        return data

    @pytest.mark.parametrize(
        "sampler",
        [
            {"semi_axes": [1e4, 1e4], "outside_band": [1e4, 1e4]},
            {"outlier_center": [1e4, 1e4], "outlier_std": 1e4, "outlier_fraction": 0.5},
        ],
        ids=["axes-1e4", "outliers-1e4"],
    )
    def test_analyze_logistic_features_at_scale_1e4(self, tmp_path, sampler):
        # Newton once stopped on the absolute size of the gradient and fell back
        # on gradient descent, and both designs ended in NoConvergence
        path, out = self.write_config(tmp_path, self.ellipse_pair(**sampler)), tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        (star,) = payload["limit_points"]["w_star"]
        _, grad, hess = load_config(path).models[0].gradient_and_hessian(star["value"])
        scale = 1.0 / np.sqrt(np.diag(hess))  # cond(H) reaches 1e25 unscaled
        step = scale * np.linalg.solve(hess * np.outer(scale, scale), scale * grad)
        assert grad @ step <= 1e-20  # the Newton decrement

    @pytest.mark.parametrize("command", ["analyze", "msd"])
    def test_separable_unregularized_sender_exit_code(self, tmp_path, capsys, command):
        # the sender is agent 1; an ellipse design without rho has no minimizer,
        # and its solve once returned a point far out as the limit point
        data = self.ellipse_pair()
        data["matrix"]["inline"] = [[0.97, 0.0], [0.03, 1.0]]
        data["models"][1]["rho"] = 0.0
        path = self.write_config(tmp_path, data)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: models[1].rho: ") and "no minimizer" in err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        data = eight_agent_config()
        del data["run"]["seed"]
        path = self.write_config(tmp_path, data)
        assert cli.main(["analyze", "--config", path]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_non_finite_matrix_exit_code(self, tmp_path, capsys):
        data = eight_agent_config()
        data["matrix"]["inline"][6][2] = float("nan")
        path = self.write_config(tmp_path, data)
        assert cli.main(["analyze", "--config", path]) == 1
        assert "matrix: weight from agent 6 to agent 2 is not finite" in capsys.readouterr().err

    def test_periodic_source_names_matrix(self, tmp_path, capsys):
        # a periodic sending sub-network once ended as NonPrimitiveSource, naming no field
        data = {"name": "swap", "matrix": {"inline": [[0, 1], [1, 0]]}, "run": {"seed": 1}}
        path = self.write_config(tmp_path, data)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "configuration error: matrix: source sub-network 0 (agents [0, 1]) is periodic; "
            "a sending sub-network must be primitive\n"
        )

    @pytest.mark.parametrize("rho", [-1, float("nan")])
    def test_bad_rho_exit_code(self, tmp_path, capsys, rho):
        # a negative or NaN regularizer once ended the Pareto solve with a traceback
        data = yaml.safe_load(resources.files("atcnet").joinpath(
            "presets/two-agent-logistic.yaml").read_text())
        data["models"][0]["rho"] = rho
        path = self.write_config(tmp_path, data)
        assert cli.main(["msd", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "models[0].rho:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["analyze"], ["simulate", "--config", "fully-connected", "--seed", "x"]]
    )
    def test_usage_error_exit_code(self, capsys, argv):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage: atcnet")

    def test_help_exit_code(self, capsys):
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: atcnet")

    def test_allocation_failure_exit_code(self, tmp_path, capsys):
        # the worker's first allocation, its runs' tail sums, asks for 10**15 x 8 floats
        path = self.write_config(tmp_path, eight_agent_config(monte_carlo_runs=10**15))
        argv = ["msd", "--with-sim", "--config", path, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        message = ("Unable to allocate 56.8 PiB for an array with shape (1000000000000000, 8) "
                   "and data type float64")
        assert capsys.readouterr().err.splitlines() == [f"out of memory: {message}"]
        assert _no_child()

    @pytest.mark.parametrize("when", ["theory", "hand-over"])
    def test_killed_worker_exit_code(self, tmp_path, capsys, monkeypatch, when):
        # the worker is killed while the theory runs, or once it has the limit points
        workers = started_workers(monkeypatch)

        def kill_worker():
            [worker] = workers
            worker.process.kill()
            worker.process.wait()

        if when == "theory":
            theory = workflows.performance.theoretical_msd
            monkeypatch.setattr(workflows.performance, "theoretical_msd",
                                lambda *args: kill_worker() or theory(*args))
        else:
            reply = workflows._EnsembleWorker._reply
            monkeypatch.setattr(workflows._EnsembleWorker, "_reply",
                                lambda self: kill_worker() or reply(self))
        path = self.write_config(tmp_path, eight_agent_config(iterations=10**6, stride=100))
        argv = ["msd", "--with-sim", "--config", path, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"I/O error: atcnet-ensemble exited with code {-signal.SIGKILL}\n"
        assert _no_child()
        assert not (tmp_path / "out").exists()

    def test_interrupted_msd_with_sim_exit_code(self, tmp_path):
        # Ctrl-C in a terminal sends SIGINT to the whole process group: the CLI and its worker
        path = self.write_config(tmp_path, eight_agent_config(iterations=10**7, stride=1000))
        out = tmp_path / "out"
        proc = subprocess.Popen(
            [sys.executable, "-m", "atcnet.cli", "msd", "--with-sim", "--config", path,
             "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            # the worker is in its runs once it has used a second of CPU time
            deadline = time.monotonic() + 60
            while not any(_cpu_seconds(pid) > 1.0 for pid in _workers(proc.pid)):
                assert proc.poll() is None and time.monotonic() < deadline, "no worker ran"
                time.sleep(0.05)
            err = _interrupt(proc)
        finally:
            _kill_group(proc)
        assert proc.returncode == 130
        assert err == "interrupted\n"
        assert not out.exists()

    def test_other_package_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_convergence(models, q, return_hessians=False):
            raise an.errors.NoConvergence(100, what="Pareto solve")

        monkeypatch.setattr(an.performance, "pareto_solve", no_convergence)
        path = self.write_config(tmp_path, eight_agent_config())
        assert cli.main(["msd", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "NoConvergence: Pareto solve did not converge within 100 iterations" in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["simulate", "--config", "two-agent-logistic", "--seed", "-1", "--out", str(out)]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "run.seed:" in err and "Traceback" not in err
        assert not out.exists()

    def test_stride_beyond_iterations_writes_nothing(self, tmp_path, capsys):
        # no sample would be recorded: the summary was once all NaN
        path = self.write_config(tmp_path, eight_agent_config(stride=10**9))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 1
        assert "run.stride:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["analyze", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_divergence_exit_code(self, tmp_path, capsys):
        data = eight_agent_config(iterations=5000)
        for model in data["models"]:
            model["r_u"] = 100.0
        data["step_sizes"]["mu_max"] = 1.0
        path = self.write_config(tmp_path, data)
        code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "divergence" in capsys.readouterr().err

    def test_streamed_outputs_match_in_process_writer(self, tmp_path, capsys):
        # 2500 iterations with stride 7: neither the last sample block nor the
        # last stride is complete, so the writer gets uneven blocks
        data = eight_agent_config(iterations=2500, stride=7, monte_carlo_runs=3)
        path = self.write_config(tmp_path, data)
        streamed, direct = tmp_path / "streamed", tmp_path / "direct"
        assert cli.main(["simulate", "--config", path, "--out", str(streamed)]) == 0
        assert f"wrote 5 files under {streamed}" in capsys.readouterr().out
        assert _tree(streamed).keys() == {
            "runs", "runs/run_0.csv", "runs/run_1.csv", "runs/run_2.csv",
            "learning_curve.csv", "summary.json",
        }
        # the same runs with their records kept, written in one block
        config = parse_config(data)
        result = workflows.simulate(config)
        kept = an.run_ensemble(
            config.matrix, list(config.models), config.step_sizes, result.limit_points,
            iterations=2500, n_runs=3, master_seed=config.run.seed, stride=7,
        )
        writer = child._CsvWriter(direct, n_runs=3, stride=7)
        writer.write([traj.sq_error for traj in kept])
        for p in writer.paths:
            name = p.relative_to(direct)
            assert (streamed / name).read_bytes() == p.read_bytes(), name
        summary = json.loads((streamed / "summary.json").read_text())
        assert workflows.comparison_payload(summary) == workflows.comparison_payload(
            result.payload
        )
        assert len((streamed / "runs" / "run_0.csv").read_text().splitlines()) == 1 + 357 * 8
        assert _no_child()

    def test_failed_simulate_leaves_outputs_as_they_were(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = self.write_config(tmp_path, eight_agent_config(monte_carlo_runs=3))
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        before = _tree(out)

        data = eight_agent_config(iterations=4000, stride=7, monte_carlo_runs=3)
        data["step_sizes"]["mu_max"] = 1.05
        with pytest.raises(an.errors.Diverged) as exc:
            workflows.simulate(parse_config(data))
        assert exc.value.iteration > 1024  # after the writer got its first block
        path = self.write_config(tmp_path, data)
        capsys.readouterr()
        fresh = tmp_path / "fresh" / "deeper"
        for target in (out, fresh):
            assert cli.main(["simulate", "--config", path, "--out", str(target)]) == 2
            assert f"divergence: {exc.value}\n" in capsys.readouterr().err
            assert _no_child()
        assert _tree(out) == before
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_unwritable_output_path_exit_code(self, tmp_path, capsys, command):
        (tmp_path / "some_file").write_text("")
        path = self.write_config(tmp_path, eight_agent_config())
        out = tmp_path / "some_file" / "x"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "I/O error" in err and "Not a directory" in err
        assert "Traceback" not in err
        assert _no_child()

    def test_seed_override(self, tmp_path):
        path = self.write_config(tmp_path, eight_agent_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["simulate", "--config", path, "--out", str(out1), "--seed", "99"]) == 0
        assert cli.main(["simulate", "--config", path, "--out", str(out2)]) == 0
        csv1 = (out1 / "runs" / "run_0.csv").read_bytes()
        csv2 = (out2 / "runs" / "run_0.csv").read_bytes()
        assert csv1 != csv2

    def test_verify_structure_filter(self, capsys):
        code = cli.main(["verify", "--filter", "structure"])
        out = capsys.readouterr().out
        assert code == 0
        assert "influence-matrix" in out
        assert "msd-theory-vs-sim" not in out

    def test_verify_negative_control(self, capsys, monkeypatch):
        # an off-by-transpose solve must make the reference criterion fail
        from atcnet import influence as influence_module

        def tampered(partition):
            t_rr, t_sr = partition.t_rr, partition.t_sr
            return np.linalg.solve(np.eye(t_rr.shape[0]) - t_rr, t_sr.T).T

        monkeypatch.setattr(influence_module, "influence_matrix", tampered)
        code = cli.main(["verify", "--filter", "influence-matrix"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

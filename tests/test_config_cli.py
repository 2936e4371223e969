import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import atcnet as an
from atcnet import cli, workflows
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
            ("step_sizes", "tau", [None] * 8, "step_sizes"),
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
        result = workflows.simulate(config)
        assert len(result.trajectories) == 2
        first = workflows.write_simulation_outputs(result, tmp_path / "a")
        again = workflows.write_simulation_outputs(workflows.simulate(config), tmp_path / "b")
        for p1, p2 in zip(first, again):
            if p1.suffix == ".csv":
                assert p1.read_bytes() == p2.read_bytes()

    def test_csv_headers(self, tmp_path):
        config = parse_config(eight_agent_config())
        workflows.write_simulation_outputs(workflows.simulate(config), tmp_path)
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
        trajectories = [
            an.Trajectory(iterations=np.array([10, 20, 30]), sq_error=values, iterates=None)
            for values in sq_error
        ]
        result = workflows.SimulationResult(
            partition=None, limit_points=None, trajectories=trajectories, estimate=None,
            payload={},
        )
        workflows.write_simulation_outputs(result, tmp_path)
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
            f"    w = workflows._OutputWriter(__import__('pathlib').Path({str(out)!r}), 2, 3, 10, 1)\n"
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


def _tree(root: Path) -> dict:
    """Every file (with its bytes) and directory under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


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

    def test_zero_noise_guarded(self):
        data = eight_agent_config()
        for model in data["models"]:
            model["sigma_v2"] = 0.0
        payload = workflows.msd(parse_config(data))
        assert all(s["msd_db"] is None and s["msd_linear"] == 0.0 for s in payload["subnetworks"])
        summary = workflows.human_summary(payload)
        assert "0 (linear)" in summary


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

    def test_other_package_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_convergence(models, q):
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
        written = workflows.write_simulation_outputs(
            workflows.simulate(parse_config(data)), direct
        )
        assert _tree(streamed).keys() == _tree(direct).keys() == {
            "runs", "runs/run_0.csv", "runs/run_1.csv", "runs/run_2.csv",
            "learning_curve.csv", "summary.json",
        }
        for p in written:
            name = p.relative_to(direct)
            if p.suffix == ".csv":
                assert (streamed / name).read_bytes() == p.read_bytes(), name
        summaries = [json.loads((d / "summary.json").read_text()) for d in (streamed, direct)]
        assert workflows.comparison_payload(summaries[0]) == workflows.comparison_payload(
            summaries[1]
        )
        assert len((streamed / "runs" / "run_0.csv").read_text().splitlines()) == 1 + 357 * 8
        assert multiprocessing.active_children() == []

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
            assert multiprocessing.active_children() == []
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
        assert multiprocessing.active_children() == []

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

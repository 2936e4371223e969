"""Frozen analysis.json bytes, the JSON writer, and structure derived once.

The digests were computed with the analyze workflow that re-derived the
partition, the Perron vectors and W at every use and wrote JSON with
``json.dumps(payload, indent=2, sort_keys=True)``. ``spectral_radius_t_rr`` is
checked apart: it is now the largest spectral radius of the receiving
blocks, which the repeated-squaring estimate resolves to about 1e-10.
"""
import hashlib
import json
import math
import sys

import numpy as np
import pytest

import atcnet as an
from atcnet import workflows
from atcnet.config import ExperimentConfig, RunControls, load_preset
from atcnet.costs import QuadraticCost

from conftest import random_weak_matrix

ANALYSIS_SHA256 = {
    "two-agent-logistic": "e6dc99b960bc9c213d22e7899e17d50469b926797206278dd0ec51f7724bb761",
    "three-subnetwork-regression": "b9dfc95bf6187d642556d27a0adac0663446b7b2f5fb6d915c97315e471d56d0",
    "fully-connected": "d2c345fed4b4e4c84753df29c4b4a67ee30e2cd34b56d9fac7e0e349c1ddecb1",
    "weak": "b1abe94325acaa6184a7c51c6c67a9a2a13408c2ceee20af499851e0f7cdd892",
}
SPECTRAL_RADIUS_T_RR = {
    "two-agent-logistic": 0.97,
    "three-subnetwork-regression": 0.711753167006783,
    "weak": 0.30524924770193845,
}


def weak_config():
    """Three sending and two receiving sub-networks with quadratic models."""
    rng = np.random.default_rng(21)
    raw, _, _ = random_weak_matrix(rng, s_sizes=(3, 2, 2), r_sizes=(3, 2))
    n = raw.shape[0]
    models = tuple(
        QuadraticCost(r_u=float(r), sigma_v2=0.01, w_o=float(w))
        for r, w in zip(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 1.5, n))
    )
    return ExperimentConfig(
        name="weak",
        matrix=an.validate(raw),
        models=models,
        step_sizes=an.StepSizeProfile(0.01, rng.uniform(0.5, 1.0, n)),
        run=RunControls(seed=1),
        output_dir=None,
    )


@pytest.mark.parametrize("name", sorted(ANALYSIS_SHA256))
def test_analysis_bytes_frozen(name, tmp_path):
    config = weak_config() if name == "weak" else load_preset(name)
    payload = workflows.comparison_payload(workflows.analyze(config))
    rho = payload.pop("spectral_radius_t_rr", None)
    workflows.write_json(payload, tmp_path / "analysis.json")
    digest = hashlib.sha256((tmp_path / "analysis.json").read_bytes()).hexdigest()
    assert digest == ANALYSIS_SHA256[name]
    if name in SPECTRAL_RADIUS_T_RR:
        assert rho == pytest.approx(SPECTRAL_RADIUS_T_RR[name], rel=1e-10, abs=0)
    else:
        assert rho is None


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"empty_list": [], "empty_dict": {}, "nested": {"a": {}, "b": [[]]}},
        [[1.0, 2.0], [3.0], []],
        [[[0.5]], [[1, 2], [3]]],
        [1, 2.5, -3, 1e300, 5e-324, -0.0, 10**20],
        [True, False, None],
        [math.nan, math.inf, -math.inf],
        {"ü": "ñ", "emoji": "\U0001F600", "quote": 'a "b"\n\\c', "list": ["é", "x"]},
        {1: "int", 2.5: "float", 0: [1, 2]},
        {None: 1},
        {True: "t", -1: "f"},
        [{"b": [1, 2], "a": 1.5}, 3, "s", [None, {"k": []}]],
        ({"tuple": (1, 2.0)}, (), ((3,), 4)),
        1.25,
        "top",
    ],
)
def test_write_json_matches_indented_dumps(payload, tmp_path):
    path = tmp_path / "out" / "payload.json"
    workflows.write_json(payload, path)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` under every name atcnet bound it to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "atcnet" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_analyze_derives_structure_once(monkeypatch):
    from atcnet import influence, topology

    config = weak_config()
    classify = count_calls(monkeypatch, topology, "classify")
    influence_matrix = count_calls(monkeypatch, influence, "influence_matrix")
    perron = count_calls(monkeypatch, topology, "perron")
    payload = workflows.analyze(config)
    assert "limit_points" in payload
    assert len(classify) == 1
    assert len(influence_matrix) == 1
    assert len(perron) == len(payload["subnetworks"]) == 3

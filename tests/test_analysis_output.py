"""Frozen analysis.json bytes, the JSON writer, and structure derived once.

The digests were computed with Perron vectors and W from direct solves whose
diagonals are rebuilt from each column's off-diagonal mass, and JSON written
as ``json.dumps(payload, indent=2, sort_keys=True)`` would write it.
``spectral_radius_t_rr`` is checked apart, to 1e-10 relative: it is the
largest eigenvalue magnitude over the receiving blocks, which LAPACK may
round differently from one build to another.
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
    "two-agent-logistic": "b86990897c8e9e20a55b8bce17a86deef28bad99d826af572eed1244d45196d8",
    "three-subnetwork-regression": "b43a156e920e9ab065ba34d987a8e257cc77d0525fb79f78e52c4049a658109a",
    "fully-connected": "d2c345fed4b4e4c84753df29c4b4a67ee30e2cd34b56d9fac7e0e349c1ddecb1",
    "weak": "68b620099ac0e20a5dbd775ad3ff418768fb61a704a4d74ca3340c17e9f1f46e",
}
SPECTRAL_RADIUS_T_RR = {
    "two-agent-logistic": 0.97,
    "three-subnetwork-regression": 0.7117531669289094,
    "weak": 0.3052492476293172,
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

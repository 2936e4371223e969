"""Frozen analysis.json bytes, its keys, the JSON writer, and structure derived once.

The digests were computed with Perron vectors and W from direct solves whose
diagonals are rebuilt from each column's off-diagonal mass, and JSON written
as ``json.dumps(payload, indent=2, sort_keys=True)`` would write it. The
payload holds the factors of A^∞ (Perron vectors and influence vectors),
not the n x n product. two-agent-logistic's limit points come from a
Newton solve warm-started on a prefix of the design, which stops on the
gradient weighted by q / sum(q); its digest was taken again when the
logistic sums began to run over blocks of design rows, which round
differently (the limit points moved by at most 2.4e-15).
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
    "two-agent-logistic": "3c1c852c8f98b8316da8cf3a9c7575b56b9e139a2baea474f1aae6de648982e9",
    "three-subnetwork-regression": "e398a1b62916fe5b071149d891fa4ac1afac68d9cb19e2255a67b6a234920ded",
    "fully-connected": "02afd89e8a312f8382a6757f56a456155927ba18adeee2dacacf4e61b55eb085",
    "weak": "c2239cd4850e3284f86a634faef64a57273fd30df20d3cbcbebd871848fcdee0",
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


def limiting_power_from(payload: dict) -> np.ndarray:
    """A^∞ rebuilt from analysis.json alone: its Perron and influence vectors."""
    a_inf = np.zeros((payload["agents"], payload["agents"]))
    for s, sub in enumerate(payload["subnetworks"]):
        rows, p = sub["agents"], np.array(sub["perron"])
        a_inf[np.ix_(rows, rows)] = p[:, None]
        for agent, entry in zip(payload["r_agents"], payload.get("influence", [])):
            a_inf[rows, agent] = p * entry["c"][s]
    return a_inf


@pytest.mark.parametrize("name", sorted(ANALYSIS_SHA256))
def test_payload_factors_rebuild_limiting_power(name, tmp_path):
    config = weak_config() if name == "weak" else load_preset(name)
    workflows.write_json(workflows.analyze(config), tmp_path / "analysis.json")
    payload = json.loads((tmp_path / "analysis.json").read_text())
    expected = an.limiting_power(an.classify(config.matrix))
    assert np.abs(limiting_power_from(payload) - expected).max() <= 1e-15


COMMON_KEYS = {
    "name", "generated_at", "agents", "strongly_connected", "sccs", "s_agents", "r_agents",
    "subnetworks", "limit_points",
}


@pytest.mark.parametrize(
    "name, keys",
    [
        ("fully-connected", COMMON_KEYS),
        ("weak", COMMON_KEYS | {"spectral_radius_t_rr", "w", "influence"}),
    ],
)
def test_payload_keys_pinned(name, keys):
    config = weak_config() if name == "weak" else load_preset(name)
    payload = workflows.analyze(config)
    assert set(payload) == keys
    receiving = [scc for scc in payload["sccs"] if scc["type"] == "R"]
    assert all(set(scc) == {"id", "agents", "type", "outside_weight"} for scc in receiving)
    assert len(receiving) == (0 if name == "fully-connected" else 2)


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

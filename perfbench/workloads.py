"""Seeded inputs and output checks for the three benchmark workloads.

Every workload turns the benchmark seed into the files one ``atcnet``
command reads, and knows how to check what that command wrote. The
generators plant the sending/receiving structure themselves, so the checks
compare the program's output against what was planted, not against a
second run of the program.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

# Largest |sim - theory| gap, in dB, that atcnet's own comparison accepts.
COMPARE_THRESHOLD_DB = 1.5
# Round-off level for W column sums and the limit-point fixed-point residual.
ROUND_OFF = 1e-9

# The network and models of atcnet's three-subnetwork-regression preset,
# copied so a change to the bundled preset does not change the workload.
REGRESSION_MATRIX = [
    [0.2, 0.2, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.5, 0.4, 0.1, 0.0, 0.0, 0.2, 0.0, 0.4],
    [0.3, 0.4, 0.1, 0.0, 0.0, 0.1, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.4, 0.3, 0.3, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.6, 0.7, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.3, 0.2],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.5, 0.3],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.1],
]
REGRESSION_W_O = [1.0, 1.0, 1.0, 1.5, 1.5, 1.25, 1.25, 1.25]


@dataclass
class Prepared:
    """Generated inputs of one workload and what its checks need."""

    argv: list[str]                 # atcnet arguments, without --out
    config: Path
    runs: int = 0
    agents: int = 0
    iterations: int = 0
    stride: int = 1
    s_groups: set = field(default_factory=set)
    r_groups: set = field(default_factory=set)
    theory: object = None           # atcnet MsdReport, for simulate checks

    @property
    def agent_iters(self) -> int:
        return self.runs * self.agents * self.iterations


@dataclass
class Check:
    ok: bool
    reason: str = ""
    msd_gap_db: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, Path], Prepared]
    check: Callable[[Prepared, Path], Check]


def _write_yaml(data: dict, path: Path) -> None:
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    path.write_text(yaml.dump(data, Dumper=dumper, sort_keys=False))


def weak_matrix(rng, s_sizes, r_sizes):
    """Random weakly-connected left-stochastic matrix with planted groups.

    Each block is dense and positive (so primitive); every receiving block
    listens to every earlier block. Labels are shuffled. Returns the matrix
    and the planted sending and receiving groups as sets of frozensets.
    """
    sizes = list(s_sizes) + list(r_sizes)
    n = sum(sizes)
    starts = np.cumsum([0] + sizes)
    a = np.zeros((n, n))
    for b, size in enumerate(sizes):
        lo, hi = starts[b], starts[b + 1]
        a[lo:hi, lo:hi] = 0.2 + rng.random((size, size))
        if b >= len(s_sizes):
            a[:lo, lo:hi] = 0.1 + rng.random((lo, size))
    a /= a.sum(axis=0)
    perm = rng.permutation(n)
    shuffled = a[np.ix_(perm, perm)]
    new_id = np.empty(n, dtype=int)
    new_id[perm] = np.arange(n)
    groups = [
        frozenset(int(i) for i in new_id[starts[b] : starts[b + 1]])
        for b in range(len(sizes))
    ]
    return shuffled, set(groups[: len(s_sizes)]), set(groups[len(s_sizes) :])


def _theory(config_path: Path):
    """Closed-form MSD report of a config, from atcnet itself."""
    from atcnet import workflows
    from atcnet.config import load_config
    from atcnet.performance import theoretical_msd
    from atcnet.topology import classify

    config = load_config(config_path)
    models = list(config.require_models())
    partition = classify(config.matrix)
    stars = workflows.pareto_points(partition, models, config.require_step_sizes())
    return theoretical_msd(partition, models, config.require_step_sizes(), w_stars=stars)


# --- regression-simulate ----------------------------------------------------

REGRESSION_ITERATIONS = 100000
REGRESSION_RUNS = 20
REGRESSION_STRIDE = 10


def generate_regression(seed: int, work: Path) -> Prepared:
    config = work / "regression.yaml"
    _write_yaml(
        {
            "name": "regression-simulate",
            "matrix": {"inline": REGRESSION_MATRIX},
            "models": [
                {"kind": "quadratic", "w_o": w, "sigma_v2": 0.01, "r_u": 1.0}
                for w in REGRESSION_W_O
            ],
            "step_sizes": {"mu_max": 0.0005},
            "run": {
                "seed": seed,
                "iterations": REGRESSION_ITERATIONS,
                "monte_carlo_runs": REGRESSION_RUNS,
                "burn_in_fraction": 0.5,
                "stride": REGRESSION_STRIDE,
            },
        },
        config,
    )
    return Prepared(
        argv=["simulate", "--config", str(config)],
        config=config,
        runs=REGRESSION_RUNS,
        agents=len(REGRESSION_W_O),
        iterations=REGRESSION_ITERATIONS,
        stride=REGRESSION_STRIDE,
        theory=_theory(config),
    )


def _count_rows(path: Path) -> int:
    with path.open() as fh:
        return sum(1 for _ in fh) - 1  # minus the header


def check_regression(prep: Prepared, out: Path) -> Check:
    from atcnet.engine import MsdEstimate
    from atcnet.performance import compare

    rows = prep.iterations // prep.stride * prep.agents
    for k in range(prep.runs):
        path = out / "runs" / f"run_{k}.csv"
        if not path.exists():
            return Check(False, f"missing {path.name}")
        got = _count_rows(path)
        if got != rows:
            return Check(False, f"{path.name} has {got} rows, expected {rows}")
    summary = json.loads((out / "summary.json").read_text())
    est = summary["msd_estimate"]
    estimate = MsdEstimate(
        per_agent=np.asarray(est["per_agent"]),
        halfwidth=np.asarray(est["halfwidth"]),
        n_runs=prep.runs,
    )
    table = compare(prep.theory, estimate, threshold_db=COMPARE_THRESHOLD_DB)
    gap = max(abs(row.delta_db) for row in table if row.delta_db is not None)
    flagged = [row.agent_id for row in table if row.flagged]
    if flagged:
        return Check(False, f"agents {flagged} flagged by compare", gap)
    return Check(True, msd_gap_db=gap)


# --- logistic-msd ---------------------------------------------------------------

LOGISTIC_S_SIZES = (4, 3)
LOGISTIC_R_SIZES = (5,)
LOGISTIC_ITERATIONS = 20000
LOGISTIC_RUNS = 4


def generate_logistic(seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 2])
    a, s_groups, r_groups = weak_matrix(rng, LOGISTIC_S_SIZES, LOGISTIC_R_SIZES)
    models = [
        {
            "kind": "logistic",
            "rho": 0.1,
            "sampler": {
                "kind": "ellipse",
                "semi_axes": [float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.8, 1.2))],
                "p_pos": float(rng.uniform(0.4, 0.6)),
            },
        }
        for _ in range(a.shape[0])
    ]
    config = work / "logistic.yaml"
    _write_yaml(
        {
            "name": "logistic-msd",
            "matrix": {"inline": a.tolist()},
            "models": models,
            "step_sizes": {"mu_max": 0.01},
            "run": {
                "seed": seed,
                "iterations": LOGISTIC_ITERATIONS,
                "monte_carlo_runs": LOGISTIC_RUNS,
                "burn_in_fraction": 0.5,
                "stride": 10,
            },
        },
        config,
    )
    return Prepared(
        argv=["msd", "--with-sim", "--config", str(config)],
        config=config,
        runs=LOGISTIC_RUNS,
        agents=a.shape[0],
        iterations=LOGISTIC_ITERATIONS,
        s_groups=s_groups,
        r_groups=r_groups,
    )


def check_logistic(prep: Prepared, out: Path) -> Check:
    report = json.loads((out / "msd_report.json").read_text())
    rows = report.get("comparison", [])
    if sorted(row["agent"] for row in rows) != list(range(prep.agents)):
        return Check(False, "comparison does not cover every agent")
    gap = max(abs(row["delta_db"]) for row in rows)
    flagged = [row["agent"] for row in rows if row["flagged"]]
    if flagged:
        return Check(False, f"agents {flagged} flagged in comparison", gap)
    return Check(True, msd_gap_db=gap)


# --- weak-network-analyze ---------------------------------------------------------

WEAK_S_SIZES = (150, 120, 100)
WEAK_R_SIZES = (250, 200, 180)


def generate_weak(seed: int, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 3])
    a, s_groups, r_groups = weak_matrix(rng, WEAK_S_SIZES, WEAK_R_SIZES)
    n = a.shape[0]
    with (work / "weights.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(a.tolist())
    config = work / "weak.yaml"
    _write_yaml(
        {
            "name": "weak-network-analyze",
            "matrix": {"file": "weights.csv"},
            "models": [
                {
                    "kind": "quadratic",
                    "w_o": float(w_o),
                    "sigma_v2": 0.01,
                    "r_u": float(r_u),
                }
                for w_o, r_u in zip(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 2.0, n))
            ],
            "step_sizes": {"mu_max": 0.001},
            "run": {"seed": seed},
        },
        config,
    )
    return Prepared(
        argv=["analyze", "--config", str(config)],
        config=config,
        agents=n,
        s_groups=s_groups,
        r_groups=r_groups,
    )


def check_weak(prep: Prepared, out: Path) -> Check:
    payload = json.loads((out / "analysis.json").read_text())
    sccs = payload["sccs"]
    s_found = {frozenset(s["agents"]) for s in sccs if s["type"] == "S"}
    r_found = {frozenset(s["agents"]) for s in sccs if s["type"] == "R"}
    if s_found != prep.s_groups:
        return Check(False, "sending SCCs differ from the planted groups")
    if r_found != prep.r_groups:
        return Check(False, "receiving SCCs differ from the planted groups")
    w = np.asarray(payload["w"]["values"])
    col_err = float(np.abs(w.sum(axis=0) - 1.0).max())
    if col_err > ROUND_OFF:
        return Check(False, f"W columns sum to 1 only within {col_err:.3g}")
    residual = payload["limit_points"]["fixed_point_residual"]
    if not residual <= ROUND_OFF:
        return Check(False, f"fixed-point residual {residual:.3g}")
    return Check(True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "regression-simulate",
            "8 quadratic agents, 20 runs: the Python-bound diffusion kernel and per-run CSV writing "
            "dominate; structure and theory are negligible",
            generate_regression,
            check_regression,
        ),
        Workload(
            "logistic-msd",
            "12 logistic agents with 6-d ellipse features: 1M-sample noise covariances and Newton "
            "Pareto solves dominate, the kernel runs at M=6 with no CSV",
            generate_logistic,
            check_logistic,
        ),
        Workload(
            "weak-network-analyze",
            "1000-agent weak network from CSV: config parsing, classify, W and a 20+ MB "
            "analysis.json dominate; kernel and theory are idle",
            generate_weak,
            check_weak,
        ),
    )
}

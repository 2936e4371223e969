"""Experiment orchestration shared by the CLI and the test suite.

Produces plain-dict payloads (JSON-ready, lossless round-trip) and CSV
artifacts, keeping file layout and schemas in one place:

* ``analysis.json``    network structure, W, limit points, influence vectors
* ``runs/run_<k>.csv`` per-run squared errors (iteration, agent_id, sq_error)
* ``learning_curve.csv`` across-run mean error in dB per agent
* ``msd_report.json``  theoretical MSD per sub-network / receiving agent
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import engine, influence, performance
from .config import ExperimentConfig
from .errors import ConfigError
from .topology import NetworkPartition, classify

_CSV_CHUNK_ROWS = 1 << 16


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def comparison_payload(payload: dict) -> dict:
    """Copy of a payload with volatile fields removed, for byte comparisons."""
    return {k: v for k, v in payload.items() if k != "generated_at"}


def pareto_points(
    partition: NetworkPartition, models, step_sizes
) -> list[np.ndarray]:
    """One Pareto solution per sending sub-network."""
    qw = performance.q_weights(partition, step_sizes)
    return [
        performance.pareto_solve([models[k] for k in partition.order[sl].tolist()], q)
        for sl, q in zip(partition.s_slices, qw.per_subnetwork)
    ]


def _limit_points(partition: NetworkPartition, stars):
    w = influence.influence_matrix(partition).w
    return influence.receiving_limit_points(w, stars, partition)


def limit_points_for(config: ExperimentConfig):
    """Partition, limit points and Pareto solutions for a full config."""
    partition = classify(config.matrix)
    stars = pareto_points(partition, config.require_models(), config.require_step_sizes())
    return partition, _limit_points(partition, stars), stars


def analyze(config: ExperimentConfig) -> dict:
    """Structure report: partition, W, limiting power, influence, limit points.

    Limit points are included only when the config carries models and step
    sizes; everything else needs the combination matrix alone.
    """
    partition = classify(config.matrix)
    im = influence.influence_matrix(partition)
    payload: dict = {
        "name": config.name,
        "generated_at": _timestamp(),
        "agents": config.n,
        "strongly_connected": partition.n_gr == 0,
        "sccs": [
            {
                "id": i,
                "agents": list(members),
                "type": "S" if i in partition.s_type_ids else "R",
            }
            for i, members in enumerate(partition.scc_list)
        ],
        "s_agents": list(partition.s_agents),
        "r_agents": list(partition.r_agents),
        "subnetworks": [],
    }
    for s, (sl, p) in enumerate(zip(partition.s_slices, partition.perron_vectors)):
        members = partition.order[sl].tolist()
        entry = {"id": s, "agents": members, "perron": p}
        if config.step_sizes is not None:
            entry["q"] = config.step_sizes.mu[members] * p
        payload["subnetworks"].append(entry)

    payload["a_infinity"] = influence.limiting_power(partition, im).original

    if partition.n_gr:
        payload["spectral_radius_t_rr"] = partition.rho_t_rr
        payload["condition_i_minus_t_rr"] = im.cond
        payload["w"] = {
            "rows": list(partition.s_agents),
            "cols": list(partition.r_agents),
            "values": im.w,
        }
        payload["influence"] = [
            {
                "agent": agent,
                "c": influence.influence_vector(im.w, partition, agent).entries,
            }
            for agent in partition.r_agents
        ]

    if config.models is not None and config.step_sizes is not None:
        stars = pareto_points(partition, config.models, config.step_sizes)
        points = influence.receiving_limit_points(im.w, stars, partition)
        payload["limit_points"] = {
            "w_star": [
                {"subnetwork": s, "value": star} for s, star in enumerate(stars)
            ],
            "w_bullet": [
                {"agent": agent, "value": points.w_bullet[i]}
                for i, agent in enumerate(partition.r_agents)
            ],
            "by_agent": points.by_original_agent(),
            "fixed_point_residual": influence.fixed_point_residual(config.matrix, points),
        }
    return _jsonable(payload)


@dataclass
class SimulationResult:
    partition: NetworkPartition
    limit_points: np.ndarray            # (N, M), original order
    trajectories: list[engine.Trajectory]
    estimate: engine.MsdEstimate | None
    payload: dict


def simulate(config: ExperimentConfig) -> SimulationResult:
    """Monte-Carlo diffusion per the config's run controls."""
    config.require_iterations()
    models = config.require_models()
    step_sizes = config.require_step_sizes()
    if step_sizes.n != config.n:
        raise ConfigError("step sizes and matrix disagree on agent count")
    partition = classify(config.matrix)
    return _simulate(config, partition, pareto_points(partition, models, step_sizes))


def _simulate(config: ExperimentConfig, partition: NetworkPartition, stars) -> SimulationResult:
    """Monte-Carlo diffusion on the partition and Pareto solutions of ``config``."""
    iterations = config.require_iterations()
    step_sizes = config.require_step_sizes()
    lp = _limit_points(partition, stars).by_original_agent()
    trajectories = engine.run_ensemble(
        config.matrix,
        list(config.require_models()),
        step_sizes,
        lp,
        iterations=iterations,
        n_runs=config.run.monte_carlo_runs,
        master_seed=config.run.seed,
        stride=config.run.stride,
        burn_in_fraction=config.run.burn_in_fraction if config.run.record_iterates else None,
    )
    estimate = (
        engine.estimate_msd(trajectories, config.run.burn_in_fraction)
        if len(trajectories) >= 2
        else None
    )
    payload: dict = {
        "name": config.name,
        "generated_at": _timestamp(),
        "seed": config.run.seed,
        "iterations": iterations,
        "monte_carlo_runs": config.run.monte_carlo_runs,
        "mu_max": step_sizes.mu_max,
        "limit_points": _jsonable(lp),
        "s_agents": list(partition.s_agents),
        "r_agents": list(partition.r_agents),
    }
    if estimate is not None:
        payload["msd_estimate"] = {
            "per_agent": _jsonable(estimate.per_agent),
            "halfwidth": _jsonable(estimate.halfwidth),
            "burn_in_fraction": config.run.burn_in_fraction,
        }
    if config.run.record_iterates:
        tails = [traj.mean_iterate_tail for traj in trajectories]
        payload["mean_iterate_tail"] = _jsonable(np.mean(tails, axis=0))
    return SimulationResult(
        partition=partition,
        limit_points=lp,
        trajectories=trajectories,
        estimate=estimate,
        payload=_jsonable(payload),
    )


def learning_curve(trajectories: list[engine.Trajectory]) -> tuple[np.ndarray, np.ndarray]:
    """Across-run mean squared error per recorded iteration; (iters, (T, N))."""
    mean = np.mean([traj.sq_error for traj in trajectories], axis=0)
    return trajectories[0].iterations, mean


def msd(config: ExperimentConfig, with_sim: bool = False) -> dict:
    """Theoretical MSD report; optionally attach Monte-Carlo comparisons."""
    models = config.require_models()
    step_sizes = config.require_step_sizes()
    partition = classify(config.matrix)
    stars = pareto_points(partition, list(models), step_sizes)
    report = performance.theoretical_msd(
        partition, list(models), step_sizes, w_stars=stars
    )
    payload: dict = {
        "name": config.name,
        "generated_at": _timestamp(),
        "subnetworks": [
            {
                "id": sub.subnetwork,
                "agents": list(sub.agents),
                "msd_linear": sub.msd_linear,
                "msd_db": sub.msd_db,
            }
            for sub in report.subnetworks
        ],
        "r_agents": [
            {
                "id": entry.agent_id,
                "c": entry.c,
                "msd_linear": entry.msd_linear,
                "msd_db": entry.msd_db,
            }
            for entry in report.r_agents
        ],
    }
    if with_sim:
        result = _simulate(config, partition, stars)
        if result.estimate is None:
            raise ConfigError("comparison needs monte_carlo_runs >= 2", field="run.monte_carlo_runs")
        rows = performance.compare(report, result.estimate)
        by_agent = {row.agent_id: row for row in rows}
        payload["comparison"] = [
            {
                "agent": row.agent_id,
                "theory_db": row.theory_db,
                "sim_db": row.sim_db,
                "delta_db": row.delta_db,
                "halfwidth_db": row.halfwidth_db,
                "flagged": row.flagged,
            }
            for row in rows
        ]
        for entry in payload["r_agents"]:
            row = by_agent[entry["id"]]
            entry["sim_db"] = row.sim_db
            entry["delta_db"] = row.delta_db
    return _jsonable(payload)


def _json_key(key) -> str:
    """A dict key as ``json`` turns it into a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value indented by ``pad``.

    That call encodes every number in Python. Here each list without a nested
    list or dict goes through the C encoder in one call, its items separated
    by a newline and the next indentation, which gives the same text.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = (
            f"{json.dumps(_json_key(k))}: {_encode(v, inner)}" for k, v in sorted(value.items())
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if any(issubclass(t, (list, tuple, dict)) for t in set(map(type, value))):
            body = (",\n" + inner).join(_encode(v, inner) for v in value)
        else:
            body = json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(value)


def write_json(payload: dict, path: Path) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_encode(payload, "") + "\n")


def _write_rows(path: Path, header: str, prefixes: list[str], flat: list[float]) -> None:
    """Write ``header``, then one row ``prefix + repr(value)`` per value.

    ``prefixes`` holds the ``iteration,agent_id,`` of each row, in the
    row-major order of ``flat``; rows are joined and written in bounded chunks.
    """
    with path.open("w") as fh:
        fh.write(header + "\n")
        for at in range(0, len(flat), _CSV_CHUNK_ROWS):
            chunk = slice(at, at + _CSV_CHUNK_ROWS)
            fh.write("".join(map("{}{!r}\n".format, prefixes[chunk], flat[chunk])))


def write_simulation_outputs(result: SimulationResult, out_dir: Path) -> list[Path]:
    """Write per-run CSVs, the aggregate learning curve and summary.json."""
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    iters, mean = learning_curve(result.trajectories)
    prefixes = [f"{it},{k}," for it in iters.tolist() for k in range(mean.shape[1])]
    written = []
    for traj in result.trajectories:
        path = runs_dir / f"run_{traj.run_index}.csv"
        _write_rows(path, "iteration,agent_id,sq_error", prefixes, traj.sq_error.ravel().tolist())
        written.append(path)

    db = [10.0 * math.log10(v) if v > 0 else -math.inf for v in mean.ravel().tolist()]
    curve_path = out_dir / "learning_curve.csv"
    _write_rows(curve_path, "iteration,agent_id,mean_sq_error_db", prefixes, db)
    written.append(curve_path)

    summary_path = out_dir / "summary.json"
    write_json(result.payload, summary_path)
    written.append(summary_path)
    return written


def human_summary(payload: dict) -> str:
    """Short console rendering of an analysis or MSD payload (dB to 2 dp)."""
    lines = [f"network: {payload.get('name', '?')}"]
    if "sccs" in payload:
        for scc in payload["sccs"]:
            lines.append(f"  scc {scc['id']} [{scc['type']}]: agents {scc['agents']}")
        if payload.get("strongly_connected"):
            lines.append("  strongly connected: receiving group is empty")
        else:
            lines.append(
                f"  spectral radius of receiving block: {payload['spectral_radius_t_rr']:.6f}"
            )
            for entry in payload.get("influence", []):
                c = ", ".join(f"{v:.4f}" for v in entry["c"])
                lines.append(f"  agent {entry['agent']}: influence c = [{c}]")
    if "subnetworks" in payload and payload["subnetworks"] and "msd_db" in payload["subnetworks"][0]:
        for sub in payload["subnetworks"]:
            db = "0 (linear)" if sub["msd_db"] is None else f"{sub['msd_db']:.2f} dB"
            lines.append(f"  subnetwork {sub['id']} agents {sub['agents']}: MSD {db}")
        for entry in payload["r_agents"]:
            db = "0 (linear)" if entry["msd_db"] is None else f"{entry['msd_db']:.2f} dB"
            extra = ""
            if entry.get("sim_db") is not None:
                extra = f" (sim {entry['sim_db']:.2f} dB, delta {entry['delta_db']:+.2f} dB)"
            lines.append(f"  agent {entry['id']}: MSD {db}{extra}")
    return "\n".join(lines)

"""Experiment orchestration shared by the CLI and the test suite.

Produces plain-dict payloads (JSON-ready, lossless round-trip) and CSV
artifacts, keeping file layout and schemas in one place:

* ``analysis.json``    network structure, W, limit points, influence vectors
* ``runs/run_<k>.csv`` per-run squared errors (iteration, agent_id, sq_error)
* ``learning_curve.csv`` across-run mean error in dB per agent
* ``msd_report.json``  theoretical MSD per sub-network / receiving agent
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
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
    written: list[Path] = field(default_factory=list)  # files ``simulate`` wrote


def simulate(config: ExperimentConfig, out_dir: Path | None = None) -> SimulationResult:
    """Monte-Carlo diffusion per the config's run controls.

    With ``out_dir``, the files of ``write_simulation_outputs`` are written
    too: the run CSVs and the learning curve by a spawned writer process
    while the runs go on (see ``_OutputWriter``), then summary.json. If the
    simulation fails, ``out_dir`` is left as it was. The writer is started
    with ``spawn``, so a script calling this with ``out_dir`` needs the
    ``if __name__ == "__main__":`` guard.
    """
    iterations = config.require_iterations()
    models = config.require_models()
    step_sizes = config.require_step_sizes()
    if step_sizes.n != config.n:
        raise ConfigError("step sizes and matrix disagree on agent count")
    if out_dir is None:
        return _simulate_config(config, models, step_sizes)
    out_dir = Path(out_dir)
    sizes = (config.run.monte_carlo_runs, config.n, iterations, config.run.stride)
    with _OutputWriter(out_dir, *sizes) as writer:
        result = _simulate_config(config, models, step_sizes, records=writer.send)
        result.written = writer.commit()
    summary_path = out_dir / "summary.json"
    write_json(result.payload, summary_path)
    result.written.append(summary_path)
    return result


def _simulate_config(config, models, step_sizes, records=None) -> SimulationResult:
    """Structure, Pareto solutions and W of ``config``, then ``_simulate``."""
    partition = classify(config.matrix)
    stars = pareto_points(partition, models, step_sizes)
    w = influence.influence_matrix(partition).w
    return _simulate(config, partition, stars, w, records=records)


def _simulate(
    config: ExperimentConfig, partition: NetworkPartition, stars, w: np.ndarray, records=None
) -> SimulationResult:
    """Monte-Carlo diffusion on the partition, Pareto solutions and W of ``config``.

    ``records`` is handed to ``engine.run_ensemble``.
    """
    iterations = config.require_iterations()
    step_sizes = config.require_step_sizes()
    lp = influence.receiving_limit_points(w, stars, partition).by_original_agent()
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
        records=records,
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


def msd(config: ExperimentConfig, with_sim: bool = False) -> dict:
    """Theoretical MSD report; optionally attach Monte-Carlo comparisons."""
    models = config.require_models()
    step_sizes = config.require_step_sizes()
    partition = classify(config.matrix)
    stars = pareto_points(partition, list(models), step_sizes)
    im = influence.influence_matrix(partition)
    report = performance.theoretical_msd(
        partition, list(models), step_sizes, w_stars=stars, im=im
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
        result = _simulate(config, partition, stars, im.w)
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


def _chunks(value, pad: str):
    """Pieces of ``json.dumps(value, indent=2, sort_keys=True)`` for a value indented by ``pad``.

    That call encodes every number in Python. Here each list without a nested
    list or dict goes through the C encoder in one call, its items separated
    by a newline and the next indentation, which gives the same text.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in sorted(value.items()):
            yield f"{sep}{json.dumps(_json_key(k))}: "
            yield from _chunks(v, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = pad + "  "
        if any(issubclass(t, (list, tuple, dict)) for t in set(map(type, value))):
            sep = "[\n" + inner
            for v in value:
                yield sep
                yield from _chunks(v, inner)
                sep = ",\n" + inner
        else:
            yield "[\n" + inner + json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]
        yield "\n" + pad + "]"
    else:
        yield json.dumps(value)


def write_json(payload: dict, path: Path) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.

    The text is written as it is encoded, so it is never held whole.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.writelines(_chunks(payload, ""))
        fh.write("\n")


def _append_rows(path: Path, prefixes: list[str], flat: list[float]) -> None:
    """Append one row ``prefix + repr(value)`` per value to ``path``.

    ``prefixes`` holds the ``iteration,agent_id,`` of each row, in the
    row-major order of ``flat``; rows are joined and written in bounded chunks.
    """
    with path.open("a") as fh:
        for at in range(0, len(flat), _CSV_CHUNK_ROWS):
            chunk = slice(at, at + _CSV_CHUNK_ROWS)
            fh.write("".join([f"{p}{v!r}\n" for p, v in zip(prefixes[chunk], flat[chunk])]))


class _CsvWriter:
    """Writes ``runs/run_<r>.csv`` and ``learning_curve.csv`` under ``out_dir``, a block at a time.

    Each ``write`` appends the next records of every run and their across-run
    mean in dB. The mean adds the runs in order and divides by their count,
    as ``np.mean(..., axis=0)`` does, so blocks of any size give the same bytes.
    """

    def __init__(self, out_dir: Path, n_runs: int, iterations: np.ndarray):
        (out_dir / "runs").mkdir(parents=True, exist_ok=True)
        self.runs = [out_dir / "runs" / f"run_{r}.csv" for r in range(n_runs)]
        self.curve = out_dir / "learning_curve.csv"
        self.iterations = iterations.tolist()
        self.done = 0
        for path in self.runs:
            path.write_text("iteration,agent_id,sq_error\n")
        self.curve.write_text("iteration,agent_id,mean_sq_error_db\n")

    @property
    def paths(self) -> list[Path]:
        return [*self.runs, self.curve]

    def write(self, rows) -> None:
        """Append the next records: one (records, N) array per run."""
        count, n = rows[0].shape
        iters = self.iterations[self.done : self.done + count]
        self.done += count
        prefixes = [f"{it},{k}," for it in iters for k in range(n)]
        for path, values in zip(self.runs, rows):
            _append_rows(path, prefixes, values.ravel().tolist())
        mean = rows[0].copy()
        for values in rows[1:]:
            mean += values
        mean /= len(rows)
        db = [10.0 * math.log10(v) if v > 0 else -math.inf for v in mean.ravel().tolist()]
        _append_rows(self.curve, prefixes, db)


def write_simulation_outputs(result: SimulationResult, out_dir: Path) -> list[Path]:
    """Write per-run CSVs, the aggregate learning curve and summary.json."""
    out_dir = Path(out_dir)
    writer = _CsvWriter(out_dir, len(result.trajectories), result.trajectories[0].iterations)
    writer.write([traj.sq_error for traj in result.trajectories])
    summary_path = out_dir / "summary.json"
    write_json(result.payload, summary_path)
    return [*writer.paths, summary_path]


def _write_streamed(conn, out_dir: str, n_runs: int, n_agents: int, iterations: int, stride: int):
    """Body of ``_OutputWriter``'s process.

    Stages the CSVs in a new directory under ``out_dir`` from the record
    blocks received on ``conn``. An empty message moves them into place and
    answers with their paths; an error is answered with the exception. If
    the pipe closes first, everything this process created is removed.
    """
    out = Path(out_dir)
    runs_dir = out / "runs"
    created = [d for d in (runs_dir, *runs_dir.parents) if not d.exists()]
    staging, reply = None, None
    try:
        runs_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        writer = _CsvWriter(staging, n_runs, engine.recorded_iterations(iterations, stride))
        while data := conn.recv_bytes():
            writer.write(np.frombuffer(data).reshape(n_runs, -1, n_agents))
        reply = [out / path.relative_to(staging) for path in writer.paths]
        for path, target in zip(writer.paths, reply):
            os.replace(path, target)
    except EOFError:
        pass
    except Exception as exc:
        reply = exc
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        if not isinstance(reply, list):
            for d in created:  # deepest first; a directory that is not empty stays
                with contextlib.suppress(OSError):
                    d.rmdir()
    if reply is not None:
        with contextlib.suppress(OSError):
            conn.send(reply)


class _OutputWriter:
    """A spawned process that writes a simulation's CSVs while its runs go on.

    ``send`` is the ``records`` callback of ``engine.run_ensemble``: it sends
    each block of squared errors as raw float64 bytes. ``commit`` moves the
    files into ``out_dir`` and returns their paths. Leaving the ``with``
    block closes the pipe and waits for the process; before ``commit`` that
    makes the writer remove what it wrote. An error in the writer is raised
    here at the next ``send`` or at ``commit``.
    """

    def __init__(self, out_dir: Path, n_runs: int, n_agents: int, iterations: int, stride: int):
        import multiprocessing  # imported here: it would add ~8 ms to every command's start-up

        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        # Only sizes go as arguments: once pickled arguments outgrow the OS pipe
        # buffer, ``start`` blocks until the new process has imported atcnet.
        self.process = ctx.Process(
            target=_write_streamed,
            args=(child, str(out_dir), n_runs, n_agents, iterations, stride),
            name="atcnet-writer", daemon=True,
        )
        self.process.start()
        child.close()

    def __enter__(self) -> "_OutputWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.conn.close()
        self.process.join()

    def _reply(self):
        """The writer's answer: its paths, its error, or an error saying it exited."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self.process.join()
            return OSError(f"output writer exited with code {self.process.exitcode}")

    def send(self, rows: np.ndarray) -> None:
        if self.conn.poll():  # before commit, the writer only speaks to report a failure
            raise self._reply()
        try:
            self.conn.send_bytes(rows.tobytes())
        except OSError:
            raise self._reply() from None

    def commit(self) -> list[Path]:
        self.send(np.empty(0))  # an empty message: the writer moves its files into place
        reply = self._reply()
        if isinstance(reply, BaseException):
            raise reply
        return reply


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

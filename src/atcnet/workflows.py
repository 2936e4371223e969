"""Experiment orchestration shared by the CLI and the test suite.

Produces plain-dict payloads (JSON-ready, lossless round-trip) and CSV
artifacts (written by the process ``child`` runs), with this file layout:

* ``analysis.json``    network structure, W, limit points, influence vectors
* ``runs/run_<k>.csv`` per-run squared errors (iteration, agent_id, sq_error)
* ``learning_curve.csv`` across-run mean error in dB per agent
* ``msd_report.json``  theoretical MSD per sub-network / receiving agent
"""
from __future__ import annotations

import contextlib
import json
import os
import pickle
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import engine, influence, performance
from .config import ExperimentConfig
from .errors import ConfigError
from .topology import NetworkPartition, classify


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


def pareto_points(partition: NetworkPartition, models, step_sizes) -> list[np.ndarray]:
    """One Pareto solution per sending sub-network."""
    return [
        performance.solve_members(models, partition.order[sl].tolist(), q)[0]
        for sl, q in zip(partition.s_slices, performance.q_weights(partition, step_sizes))
    ]


def analyze(config: ExperimentConfig) -> dict:
    """Structure report: partition, W, influence vectors, limit points.

    A^∞ is not written, only its factors: a sending agent i of sub-network
    s has A^∞[i, j] = perron_i for j in s and A^∞[i, r] = perron_i * c_{r,s}
    for a receiver r; every other entry is 0. ``limiting_power`` builds it
    from a partition. Each receiving SCC carries ``outside_weight``, the
    smallest and largest weight one of its agents gives outside it.
    Limit points are included only when the config carries models and step
    sizes; everything else needs the combination matrix alone.
    """
    partition = classify(config.matrix)
    sccs = [
        {"id": i, "agents": list(members), "type": "S"}
        for i, members in enumerate(partition.scc_list)
    ]
    for i, pair in zip(partition.r_type_ids, partition.outside_weight):
        sccs[i].update(type="R", outside_weight=pair)
    payload: dict = {
        "name": config.name,
        "generated_at": _timestamp(),
        "agents": config.n,
        "strongly_connected": partition.n_gr == 0,
        "sccs": sccs,
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

    if partition.n_gr:
        payload["spectral_radius_t_rr"] = partition.rho_t_rr
        payload["w"] = {
            "rows": list(partition.s_agents),
            "cols": list(partition.r_agents),
            "values": partition.w,
        }
        payload["influence"] = [
            {
                "agent": agent,
                "c": influence.influence_vector(partition, agent),
            }
            for agent in partition.r_agents
        ]

    if config.models is not None and config.step_sizes is not None:
        stars = pareto_points(partition, config.models, config.step_sizes)
        points = influence.receiving_limit_points(stars, partition)
        payload["limit_points"] = {
            "w_star": [
                {"subnetwork": s, "value": star} for s, star in enumerate(stars)
            ],
            "w_bullet": [
                {"agent": agent, "value": points[agent]} for agent in partition.r_agents
            ],
            "by_agent": points,
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

    The runs stream their squared errors and keep no history: the
    trajectories carry no ``sq_error``, only each run's tail means, and
    memory does not grow with the run length (``engine.run_ensemble`` keeps
    the records when a caller needs them). With ``out_dir``, a writer
    process (``python -m atcnet.child``, see ``_OutputWriter``) writes the
    run CSVs and the learning curve while the runs go on, then summary.json
    is written. If the simulation fails, ``out_dir`` is left as it was.
    """
    config.require_iterations()
    config.require_models()
    if config.require_step_sizes().n != config.n:
        raise ConfigError("step sizes and matrix disagree on agent count")
    if out_dir is None:
        return _simulate(config, _discard)
    out_dir = Path(out_dir)
    sizes = (config.run.monte_carlo_runs, config.n, config.run.stride)
    with _OutputWriter(out_dir, *sizes) as writer:
        result = _simulate(config, writer.send)
        result.written = writer.commit()
    summary_path = out_dir / "summary.json"
    write_json(result.payload, summary_path)
    result.written.append(summary_path)
    return result


def _simulate(config: ExperimentConfig, records) -> SimulationResult:
    """Structure, Pareto solutions and limit points of ``config``, then its Monte-Carlo runs.

    ``records`` is handed to ``engine.run_ensemble``. The MSD estimate comes
    from the runs' tail means, and is None with fewer than two runs.
    """
    models = list(config.require_models())
    step_sizes = config.require_step_sizes()
    partition = classify(config.matrix)
    lp = influence.receiving_limit_points(pareto_points(partition, models, step_sizes), partition)
    trajectories = engine.run_ensemble(
        config.matrix, models, step_sizes, lp, **_run_controls(config), records=records
    )
    estimate = (
        engine.msd_from_tails([traj.mean_sq_error_tail for traj in trajectories])
        if len(trajectories) >= 2
        else None
    )
    payload: dict = {
        "name": config.name,
        "generated_at": _timestamp(),
        "seed": config.run.seed,
        "iterations": config.run.iterations,
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
    tails = [traj.mean_iterate_tail for traj in trajectories]
    payload["mean_iterate_tail"] = _jsonable(np.mean(tails, axis=0))
    return SimulationResult(
        partition=partition,
        limit_points=lp,
        trajectories=trajectories,
        estimate=estimate,
        payload=_jsonable(payload),
    )


def _run_controls(config: ExperimentConfig) -> dict:
    """The run controls of ``config``, as keyword arguments of ``engine``'s ensemble runs."""
    return {
        "iterations": config.require_iterations(),
        "n_runs": config.run.monte_carlo_runs,
        "master_seed": config.run.seed,
        "stride": config.run.stride,
        "burn_in_fraction": config.run.burn_in_fraction,
    }


def _discard(rows) -> None:
    """A ``records`` callback for runs whose squared errors are needed only as tail means."""


def msd(config: ExperimentConfig, with_sim: bool = False) -> dict:
    """Theoretical MSD report; optionally attach Monte-Carlo comparisons.

    With ``with_sim``, the run controls are checked first; then a worker
    process (``python -m atcnet.child``, see ``_EnsembleWorker``) starts the
    Monte-Carlo ensemble of ``simulate`` while this process computes the
    theory: its ``engine.run_ensemble`` takes the limit points late, once
    the theory gives them, and keeps only the runs' tail means.
    """
    models = list(config.require_models())
    step_sizes = config.require_step_sizes()
    if with_sim:
        config.require_iterations()
        if config.run.monte_carlo_runs < 2:
            raise ConfigError(
                "comparison needs monte_carlo_runs >= 2", field="run.monte_carlo_runs"
            )
    with (
        _EnsembleWorker(config.matrix, models, step_sizes, _run_controls(config))
        if with_sim
        else contextlib.nullcontext()
    ) as worker:
        partition = classify(config.matrix)
        report = performance.theoretical_msd(partition, models, step_sizes)
        if worker is not None:
            stars = [sub.w_star for sub in report.subnetworks]
            estimate = worker.estimate(influence.receiving_limit_points(stars, partition))
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
        rows = performance.compare(report, estimate)
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


class _Child:
    """A process running ``python -m atcnet.child`` on ``body`` (see ``child._serve``), and
    this end ``conn`` of the socket pair they talk over.

    The process is sent ``args`` first. It inherits its end of the pair (through
    ``pass_fds``, so on POSIX only), this process's standard output and error,
    and its ``sys.path`` as ``PYTHONPATH``; it sees the pair close when this
    process dies. Leaving the ``with`` block closes the pair and reaps the process.
    """

    def __init__(self, body: str, name: str, *args):
        # imported here: multiprocessing would add ~8 ms to every command's start-up
        import socket
        import subprocess
        from multiprocessing.connection import Connection

        self.name = name
        ours, theirs = socket.socketpair()
        with ours, theirs:
            self.process = subprocess.Popen(
                [sys.executable, "-m", f"{__package__}.child", str(theirs.fileno()), body],
                stdin=subprocess.DEVNULL, pass_fds=[theirs.fileno()],
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            self.conn = Connection(ours.detach())
        try:
            self._send(pickle.dumps(args))
        except BaseException:  # a failed send, or Ctrl-C while it waits: no ``with`` reaps it
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.conn.close()
        try:
            self.process.wait()
        except BaseException:  # Ctrl-C while it waits: the process is not left running
            self.process.kill()
            self.process.wait()
            raise

    def _reply(self):
        """The process's answer: its result, its error, or an error saying it exited."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return ChildProcessError(f"{self.name} exited with code {self.process.wait()}")

    def _result(self):
        """The process's result; its error, or one saying it exited, is raised."""
        reply = self._reply()
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def _send(self, data) -> None:
        """Send the bytes ``data``; an error the process has already answered with is raised."""
        if self.conn.poll():  # before its result, the process only speaks to report a failure
            raise self._reply()
        try:
            self.conn.send_bytes(data)
        except OSError:
            raise self._reply() from None


class _OutputWriter(_Child):
    """A process that writes a simulation's CSVs while its runs go on.

    ``send`` is the ``records`` callback of ``engine.run_ensemble``: it sends
    each block of squared errors as raw float64 bytes, records first, which
    is how the kernel lays out its block, so the block goes without a copy.
    ``commit`` moves the files into ``out_dir`` and returns their paths. Leaving the ``with``
    block closes the connection and waits for the process; before ``commit`` that
    makes the writer remove what it wrote. An error in the writer is raised
    here at the next ``send`` or at ``commit``.
    """

    def __init__(self, out_dir: Path, n_runs: int, n_agents: int, stride: int):
        super().__init__(
            "_write_streamed", "atcnet-writer", str(out_dir), n_runs, n_agents, stride
        )

    def send(self, rows: np.ndarray) -> None:
        self._send(np.ascontiguousarray(rows.transpose(1, 0, 2)))

    def commit(self) -> list[Path]:
        self._send(b"")  # an empty message: the writer moves its files into place
        return self._result()


class _EnsembleWorker(_Child):
    """A process that runs ``msd``'s Monte-Carlo ensemble while the theory is computed.

    It is handed the matrix, models, step sizes and run controls before the
    theory runs, and the theory draws its logistic designs on copies of the
    models, so the models go without them. ``estimate`` hands it the limit
    points, which its ``engine.run_ensemble`` takes late, and returns the
    ``MsdEstimate`` of the runs' tail means, or raises the error the runs
    raised. Leaving the ``with`` block before ``estimate`` has answered stops
    the process, so a failure here never waits for the runs.
    """

    def __init__(self, a, models, step_sizes, controls: dict):
        self.answered = False
        super().__init__("_ensemble_msd", "atcnet-ensemble", a, models, step_sizes, controls)

    def __exit__(self, *exc_info) -> None:
        if not self.answered:
            self.process.terminate()
        super().__exit__(*exc_info)

    def estimate(self, lp: np.ndarray) -> engine.MsdEstimate:
        self._send(pickle.dumps(lp))
        estimate = self._result()
        self.answered = True
        return estimate


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

"""The processes a command starts beside it: ``simulate``'s CSV writer and ``msd``'s worker.

``workflows._Child`` runs ``python -m atcnet.child FD BODY``: the process serves
the function named ``BODY`` (``_write_streamed`` or ``_ensemble_msd``) on
the connection over the socket at file descriptor ``FD`` (see ``_serve``). It
imports numpy and what its body reads, and nothing only the command needs:
the writer imports no other atcnet module, and the worker only ``engine`` and
what ``engine`` imports (``costs``, ``topology``, ``errors``), never the config
parser, PyYAML or the theory.
"""
from __future__ import annotations

import contextlib
import math
import os
import shutil
import sys
import uuid
from pathlib import Path

import numpy as np

_CSV_CHUNK_ROWS = 1 << 16


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

    def __init__(self, out_dir: Path, n_runs: int, stride: int):
        (out_dir / "runs").mkdir(parents=True, exist_ok=True)
        self.runs = [out_dir / "runs" / f"run_{r}.csv" for r in range(n_runs)]
        self.curve = out_dir / "learning_curve.csv"
        self.stride = stride
        self.done = 0  # records written so far; record d was taken after (d + 1) * stride rounds
        for path in self.runs:
            path.write_text("iteration,agent_id,sq_error\n")
        self.curve.write_text("iteration,agent_id,mean_sq_error_db\n")

    @property
    def paths(self) -> list[Path]:
        return [*self.runs, self.curve]

    def write(self, rows) -> None:
        """Append the next records: one (records, N) array per run."""
        count, n = rows[0].shape
        first = (self.done + 1) * self.stride
        iters = range(first, first + count * self.stride, self.stride)
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


def _write_streamed(conn, out_dir: str, n_runs: int, n_agents: int, stride: int) -> list[Path]:
    """Body of ``workflows._OutputWriter``'s process.

    Stages the CSVs in a new directory under ``out_dir`` from the record
    blocks received on ``conn``. An empty message moves them into place and
    returns their paths. Unless they were moved, everything this process
    created is removed: on an error, when the connection closes first, or
    on an interrupt (Ctrl-C).
    """
    out = Path(out_dir)
    runs_dir = out / "runs"
    created = [d for d in (runs_dir, *runs_dir.parents) if not d.exists()]
    staging, moved = None, None
    try:
        runs_dir.mkdir(parents=True, exist_ok=True)
        # named before it is made, so an interrupt just after mkdir still finds it
        staging = out / f".staging-{uuid.uuid4().hex}"
        staging.mkdir()
        writer = _CsvWriter(staging, n_runs, stride)
        while data := conn.recv_bytes():
            writer.write(np.frombuffer(data).reshape(-1, n_runs, n_agents).transpose(1, 0, 2))
        targets = [out / path.relative_to(staging) for path in writer.paths]
        for path, target in zip(writer.paths, targets):
            os.replace(path, target)
        moved = targets
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        if moved is None:
            for d in created:  # deepest first; a directory that is not empty stays
                with contextlib.suppress(OSError):
                    d.rmdir()
    return moved


def _ensemble_msd(conn, a, models, step_sizes, controls: dict):
    """Body of ``workflows._EnsembleWorker``'s process.

    Starts the Monte-Carlo runs of ``a``, ``models`` and ``step_sizes`` under
    the run controls ``controls`` at once; the limit points follow on
    ``conn`` (``engine.run_ensemble`` says how runs wait for late limit
    points), and the ``MsdEstimate`` of the runs' tail means is returned.
    The runs look at ``conn`` every sample block, so they stop at the next
    one once it closes, as when the parent dies.
    """
    from . import engine

    runs = engine.run_ensemble(
        a,
        models,
        step_sizes,
        # after the limit points the parent sends nothing: the socket is readable once it closes
        lambda wait: conn.recv() if wait or conn.poll() else None,
        **controls,
    )
    return engine.msd_from_tails([run.mean_sq_error_tail for run in runs])


def _serve(conn, body) -> None:
    """Run ``body(conn, *args)`` on the arguments first received on ``conn``, and answer on it.

    The answer is the body's return value or the exception it raised. When
    the connection closes first (``EOFError``), as when the parent dies, or
    on an interrupt (Ctrl-C), the process returns without an answer; an
    answer the parent can no longer receive is dropped.
    """
    try:
        reply = body(conn, *conn.recv())
    except (EOFError, KeyboardInterrupt):
        return
    except Exception as exc:
        reply = exc
    with contextlib.suppress(OSError):
        conn.send(reply)


if __name__ == "__main__":
    from multiprocessing.connection import Connection

    _serve(Connection(int(sys.argv[1])), globals()[sys.argv[2]])

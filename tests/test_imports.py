"""Every name a module of the package imports is used in it, and every private name it
defines is used in the package (no linter runs on the package); importing the CLI
starts no process, and the processes a command starts import only what they run; the
names the benchmark reads from the package exist."""
import ast
import dataclasses
import inspect
import json
import os
import pickle
import socket
import subprocess
import sys
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "atcnet"
PERFBENCH = Path(__file__).parents[1] / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# What the package exported before its names were imported on first use; ``estimate_msd``
# has since moved into the tests.
EXPORTS = """
    ExperimentConfig load_config load_preset CostModel EllipseSampler LogisticCost QuadraticCost
    TwoClassGaussianSampler ZeroedObservations finite_difference_gradient MsdEstimate
    StepSizeProfile Trajectory long_term_state run_ensemble run_paired_long_term
    fixed_point_residual influence_matrix influence_vector limiting_power neumann_w
    receiving_limit_points MsdReport compare msd_receiving msd_subnetwork pareto_solve q_weights
    theoretical_msd to_db CombinationMatrix Condensation NetworkPartition classify condense
    perron spectral_radius validate
""".split()
# Modules only the command needs: a child that imports one pays for it at every start.
PARENT_ONLY = {
    "yaml", "atcnet.config", "atcnet.workflows", "atcnet.performance", "atcnet.influence",
    "multiprocessing.resource_tracker",
}


def python(script: str) -> list[str]:
    """The lines ``script`` prints in a fresh interpreter on this ``sys.path``."""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    imported, used = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    assert imported <= used, f"imported but never used: {sorted(imported - used)}"


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_every_private_name_is_used():
    """Each private function, class, method and module constant is read somewhere in the
    package: as a name, an attribute, an imported name or a string such as a ``__dict__`` key."""
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and is_private(name.id):
                            defined.setdefault(name.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if is_private(node.name):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unused = {name: where for name, where in defined.items() if name not in read}
    assert not unused, f"private names defined but never used: {unused}"


def test_cli_import_starts_no_process():
    """``import atcnet.cli`` loads no ``multiprocessing`` and starts no worker: every
    command's start-up pays for neither."""
    script = (
        "import os, sys\n"
        "import atcnet.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing'))\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    print('a child')\n"
        "except ChildProcessError:\n"
        "    print('no child')\n"
    )
    assert python(script) == ["[]", "no child"]


def test_bare_import_loads_no_module():
    script = "import sys, atcnet\nprint(sorted(m for m in sys.modules if m.startswith('atcnet.')))"
    assert python(script) == ["[]"]


@pytest.mark.parametrize("name", EXPORTS)
def test_exported_name_resolves(name):
    namespace = {}
    exec(f"from atcnet import {name}", namespace)
    assert getattr(namespace[name], "__name__", name) == name


def serve_in_child(body: str, *messages: bytes):
    """Run ``body`` in ``python -X importtime -m atcnet.child``, send it ``messages`` (its
    pickled arguments first), and return its answer and the modules it imported."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        proc = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "atcnet.child", str(theirs.fileno()), body],
            stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            pass_fds=[theirs.fileno()], env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        conn = Connection(ours.detach())
    with conn:
        for message in messages:
            conn.send_bytes(message)
        reply = conn.recv()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return reply, {line.rpartition("|")[2].strip() for line in err.splitlines()}


def test_writer_imports_only_what_it_runs(tmp_path):
    rows = np.ones((4, 2, 3))  # records x runs x agents, as the command sends them
    args = pickle.dumps((str(tmp_path), 2, 3, 1))
    written, imported = serve_in_child("_write_streamed", args, rows.tobytes(), b"")
    assert [path.name for path in written] == ["run_0.csv", "run_1.csv", "learning_curve.csv"]
    assert "numpy" in imported
    assert not {m for m in imported if m.startswith("atcnet.")}
    assert not imported & PARENT_ONLY


def test_ensemble_worker_imports_only_what_it_runs():
    from atcnet import workflows
    from atcnet.config import load_preset

    config = load_preset("fully-connected")
    controls = {**workflows._run_controls(config), "iterations": 2000}
    args = pickle.dumps((config.matrix, list(config.models), config.step_sizes, controls))
    points = pickle.dumps(np.zeros((config.n, 1)))
    estimate, imported = serve_in_child("_ensemble_msd", args, points)
    assert estimate.per_agent.shape == (config.n,)
    assert "atcnet.engine" in imported
    assert not imported & PARENT_ONLY


def test_msd_with_sim_starts_one_child(tmp_path):
    """One preset ``msd --with-sim`` starts its worker and nothing else, such as the
    resource tracker ``multiprocessing`` starts beside a spawned process."""
    script = (
        "import json, os, sys, _posixsubprocess\n"
        "started, fork_exec = [], _posixsubprocess.fork_exec\n"
        "def counting(*args):\n"
        "    started.append(' '.join(map(os.fsdecode, args[0][1:])))\n"
        "    return fork_exec(*args)\n"
        "_posixsubprocess.fork_exec = counting\n"
        "from atcnet import cli\n"
        f"print(cli.main(['msd', '--config', 'fully-connected', '--with-sim', '--out', {str(tmp_path)!r}]))\n"
        "print(json.dumps(started))\n"
        "print('multiprocessing.resource_tracker' in sys.modules)\n"
    )
    code, started, tracker = python(script)[-3:]
    assert code == "0"
    [argv] = json.loads(started)
    assert argv.startswith("-m atcnet.child ") and argv.endswith(" _ensemble_msd")
    assert tracker == "False"


def test_names_the_benchmark_reads_exist():
    """``perfbench/`` is kept fixed while the package changes, so what it reads must stay:
    each name it imports from atcnet, the ``Trajectory`` fields its tracer sizes, and the
    parameters it passes or reads by name."""
    statements = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(module.partition(".")[0] == "atcnet" for module in modules):
                statements.append(ast.unparse(node))
    assert len(statements) >= 8, statements
    for statement in statements:
        exec(statement, {})

    from atcnet import cli, engine, performance, workflows

    assert {"iterations", "sq_error", "iterates"} <= {
        f.name for f in dataclasses.fields(engine.Trajectory)
    }
    for fn, name in [
        (engine.run_ensemble, "iterations"),
        (performance.theoretical_msd, "w_stars"),
        (workflows.write_json, "path"),
    ]:
        assert name in inspect.signature(fn).parameters, (fn.__name__, name)
    assert callable(workflows.pareto_points) and callable(cli.load_config) and callable(cli.main)

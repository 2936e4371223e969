"""Every name a module of the package imports is used in it, and every private name it
defines is used in the package (no linter runs on the package); importing the CLI
starts no process; the names the benchmark reads from the package exist."""
import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "atcnet"
PERFBENCH = Path(__file__).parents[1] / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.splitlines() == ["[]", "no child"]


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

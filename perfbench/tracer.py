"""Per-layer tracing of atcnet from outside the package.

``Tracer.install`` wraps the public functions and methods of each layer
module and rebinds every name that imported them directly (``from .x import
f`` in ``workflows``, ``performance``, ``cli`` and the package root), so
calls are seen whichever way they are made. Each timed call becomes a span
(id, name, start, end, parent) kept in memory; calls made every iteration
are only counted, since timing them would dominate the kernel. A span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("config", "topology", "influence", "performance", "costs", "engine", "workflows")

# Called once per agent per iteration (or from such a call): counted, not timed.
COUNT_ONLY = frozenset(
    {
        "costs.gradient_rows",
        "costs.inv_one_plus_exp",
        "costs.stochastic_gradient",
        "costs.logistic_stochastic_gradient",
    }
)


def _trajectory_bytes(trajectories) -> int:
    total = 0
    for traj in trajectories:
        for arr in (traj.iterations, traj.sq_error, traj.iterates):
            if arr is not None:
                total += arr.nbytes
    return total


class Tracer:
    def __init__(self):
        self.stack: list[list] = []       # open frames: [span id, name, start, child time]
        self.spans: list[tuple] = []      # closed spans: (id, name, start, end, parent id)
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)   # inclusive seconds per name
        self.self_time: defaultdict = defaultdict(float)
        self.extra: defaultdict = defaultdict(float)   # sizes and iteration counts
        self.setup_self: dict[str, float] = {}
        self._next_id = 0

    # -- wrappers -------------------------------------------------------------

    def timed(self, name, fn, after=None):
        stack, clock = self.stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[3]
                self.spans.append(
                    (span_id, name, frame[2], end, parent[0] if parent else None)
                )
            if after is not None:
                after(self, fn, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self.counted(name, fn)
        return self.timed(name, fn, after=AFTER.get(name))

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and methods; atcnet must be imported."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"atcnet.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if (
                            inspect.isfunction(meth)
                            and not meth_name.startswith("_")
                            and not getattr(meth, "__isabstractmethod__", False)
                        ):
                            setattr(obj, meth_name, self.wrap(f"{layer}.{meth_name}", meth))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "atcnet" and not mod_name.startswith("atcnet."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    # -- results ----------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(("cli",) + LAYERS, 0.0)
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out

    def mark_setup(self) -> None:
        """Remember each layer's self time so far; later reports exclude it."""
        now = time.monotonic()
        self.setup_self = self.layer_self()
        for _, name, start, child in self.stack:
            self.setup_self[name.split(".", 1)[0]] += (now - start) - child

    def summary(self) -> dict:
        after_setup = {
            layer: value - self.setup_self.get(layer, 0.0)
            for layer, value in self.layer_self().items()
        }
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_after_setup": after_setup,
            "extra": dict(self.extra),
        }

    def write_spans(self, path: Path) -> None:
        with Path(path).open("w") as fh:
            fh.write("id,name,start,end,parent\n")
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(f"{span_id},{name},{start!r},{end!r},{'' if parent is None else parent}\n")


def _after_run_ensemble(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    tracer.extra["engine.iterations"] += bound.arguments["iterations"]
    tracer.extra["engine.record_bytes"] += _trajectory_bytes(result)


def _after_write_json(tracer, fn, args, kwargs, result):
    path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
    tracer.extra["workflows.json_bytes"] += Path(path).stat().st_size


def _after_write_outputs(tracer, fn, args, kwargs, result):
    tracer.extra["workflows.csv_bytes"] += sum(
        p.stat().st_size for p in result if p.suffix == ".csv"
    )


AFTER = {
    "engine.run_ensemble": _after_run_ensemble,
    "workflows.write_json": _after_write_json,
    "workflows.write_simulation_outputs": _after_write_outputs,
}

"""Benchmark of the atcnet CLI: end-to-end and per-layer metrics.

One run of one workload (the form the contract in BENCHMARK.json uses)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, runs the atcnet command
repeatedly in a closed loop (one process at a time) for about S seconds,
checks every output outside the timed region, prints a human-readable
report and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced commands and reports the per-layer metrics.

Other modes::

    python3 perfbench/run.py                        # every workload once, seed 1
    python3 perfbench/run.py --steadiness [--runs 10] [--workload NAME ...] [--record]

The steadiness mode repeats each workload over consecutive seeds, each run
in its own process, and prints every metric's median, quartiles and spread
against its bound; ``--record`` appends the result to trajectory.json.
"""
from __future__ import annotations

import os

# One BLAS thread (at most nproc) for this process and every measured one.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRAJECTORY = BENCH_DIR / "trajectory.json"

import workloads  # noqa: E402  (this directory is on sys.path when run as a script)

SETUP_PROBES = 3          # set-up-only processes before the commands; one more precedes each
MIN_COMMANDS = 2          # per run (pairs, with --trace 1), whatever --seconds says
COMMAND_TIMEOUT = 150.0   # seconds before a hung command is killed
LAYERS = ("cli", "config", "topology", "influence", "performance", "costs", "engine", "workflows")


@dataclass
class Sample:
    """One measured process."""

    ok: bool
    setup_s: float
    wall_s: float
    rss_mb: float
    reason: str = ""
    msd_gap_db: float | None = None
    record: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "envinfo.py")],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
    )
    info = json.loads(out.stdout) if out.returncode == 0 else {"error": out.stderr[-500:]}
    info["commit"] = git_commit()
    return info


def launch(args: list[str], work: Path) -> tuple[int, float, float, float, str]:
    """Run child.py with ``args``; return exit code, start, end, peak RSS (MB), stderr tail."""
    err_path = work / "stderr.txt"
    with err_path.open("w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=work,
        )
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0, err_path.read_text()[-2000:]


def measure_setup(prep, work: Path) -> Sample:
    record_path = work / "setup.json"
    code, start, end, rss, err = launch(
        ["--record", str(record_path), "--setup-only", "--", *prep.argv], work
    )
    if code != 0:
        return Sample(False, end - start, end - start, rss, f"set-up exited {code}: {err}")
    loaded = json.loads(record_path.read_text())["loaded"]
    return Sample(True, loaded - start, end - start, rss)


def measure_command(workload, prep, work: Path, trace: bool) -> Sample:
    out = work / "out"
    record_path = work / "record.json"
    shutil.rmtree(out, ignore_errors=True)
    args = ["--record", str(record_path)] + (["--trace"] if trace else [])
    code, start, end, rss, err = launch(args + ["--", *prep.argv, "--out", str(out)], work)
    if code != 0:
        return Sample(False, end - start, end - start, rss, f"exited {code}: {err}")
    record = json.loads(record_path.read_text())
    record["end"] = end
    sample = Sample(True, record["loaded"] - start, end - start, rss, record=record)
    try:
        check = workload.check(prep, out)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        check = workloads.Check(False, f"check raised {type(exc).__name__}: {exc}")
    sample.ok, sample.reason, sample.msd_gap_db = check.ok, check.reason, check.msd_gap_db
    if trace:
        spans = record_path.with_suffix(".spans.csv")
        if spans.exists():
            spans.replace(work / "last.spans.csv")
    shutil.rmtree(out, ignore_errors=True)
    return sample


def tail_percentile(values: list[float]):
    """Highest of a few percentiles that has at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = -(-int(p * n) // 100)  # samples at or below the percentile
        if n - k >= 10:
            return p, ordered[max(k - 1, 0)]
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    line = f"  {name:<18} median {statistics.median(values):.6g} {unit}  (n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return line + "; no percentile has ten samples beyond it)"
    return line + f"; p{tail[0]:g} {tail[1]:.6g} {unit})"


def layer_metrics(traced: list[Sample], untraced: list[Sample]) -> dict:
    """Per-layer metrics: medians over the traced commands."""
    def per_command(sample: Sample) -> dict:
        rec = sample.record
        tr = rec["trace"]
        calls, total, extra = tr["calls"], tr["total"], tr["extra"]

        def t(name):
            return total.get(name, 0.0)

        iterations = extra.get("engine.iterations", 0.0)
        csv_bytes = extra.get("workflows.csv_bytes", 0.0)
        write_s = t("workflows.write_simulation_outputs")
        values = {
            "config.load_config_s": t("config.load_config"),
            "topology.classify_s": t("topology.classify"),
            "topology.classify_calls": calls.get("topology.classify", 0),
            "topology.spectral_radius_s": t("topology.spectral_radius"),
            "topology.perron_calls": calls.get("topology.perron", 0),
            "influence.influence_matrix_s": t("influence.influence_matrix"),
            "influence.influence_matrix_calls": calls.get("influence.influence_matrix", 0),
            "influence.influence_vector_s": t("influence.influence_vector"),
            "influence.limiting_power_s": t("influence.limiting_power"),
            "performance.pareto_solve_s": t("performance.pareto_solve"),
            "performance.pareto_solve_calls": calls.get("performance.pareto_solve", 0),
            "performance.theoretical_msd_s": t("performance.theoretical_msd"),
            "costs.noise_covariance_at_s": t("costs.noise_covariance_at"),
            "costs.gradient_calls_per_iter": (
                calls.get("costs.gradient_rows", 0) / iterations if iterations else 0.0
            ),
            "costs.draw_batch_s": t("costs.draw_batch"),
            "engine.run_ensemble_s": t("engine.run_ensemble"),
            "engine.us_per_iter": (
                1e6 * t("engine.run_ensemble") / iterations if iterations else 0.0
            ),
            "engine.estimate_msd_s": t("engine.estimate_msd"),
            "engine.record_bytes": extra.get("engine.record_bytes", 0.0),
            "workflows.write_simulation_outputs_s": write_s,
            "workflows.csv_bytes": csv_bytes,
            "workflows.csv_mb_per_s": csv_bytes / 1e6 / write_s if write_s else 0.0,
            "workflows.analyze_s": t("workflows.analyze"),
            "workflows.write_json_s": t("workflows.write_json"),
            "workflows.json_bytes": extra.get("workflows.json_bytes", 0.0),
            "workflows.simulate_s": t("workflows.simulate"),
            "workflows.msd_s": t("workflows.msd"),
            "process.exit_s": rec["end"] - rec["main_end"],
            "trace.wall_s": sample.wall_s,
            "trace.setup_s": sample.setup_s,
        }
        layer_self = tr["self_after_setup"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        accounted = sum(layer_self.values()) + values["process.exit_s"]
        values["trace.unaccounted_s"] = sample.wall_s - sample.setup_s - accounted
        return values

    rows = [per_command(s) for s in traced]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(s.wall_s for s in untraced)
    return out


def run_once(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> int:
    workload = workloads.WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment()
        prep = workload.generate(seed, work)
        measure_setup(prep, work)  # warm-up: bytecode and file caches, not reported
        begin = time.monotonic()
        probes = [measure_setup(prep, work) for _ in range(SETUP_PROBES)]
        untraced: list[Sample] = []
        traced: list[Sample] = []
        units = 0
        while True:
            unit_start = time.monotonic()
            probes.append(measure_setup(prep, work))
            untraced.append(measure_command(workload, prep, work, trace=False))
            if trace:
                traced.append(measure_command(workload, prep, work, trace=True))
            units += 1
            elapsed = time.monotonic() - begin
            if units >= MIN_COMMANDS and elapsed + (time.monotonic() - unit_start) > seconds:
                break
        spans_file = work / "last.spans.csv"
        if spans_file.exists():
            kept = WORK / "spans" / f"{name}-seed{seed}.csv"
            kept.parent.mkdir(parents=True, exist_ok=True)
            spans_file.replace(kept)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = untraced + traced
    measured = probes + commands
    failures = [s for s in measured if not s.ok]
    walls = [s.wall_s for s in untraced]
    setups = [s.setup_s for s in probes + untraced]
    gaps = [s.msd_gap_db for s in commands if s.msd_gap_db is not None]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s.rss_mb for s in untraced),
    }
    extras = {"fail_rate": len(failures) / len(measured)}
    if prep.agent_iters:
        extras["agent_iters_per_s"] = prep.agent_iters / wall
    if gaps:
        extras["msd_gap_db"] = max(gaps)
    if trace:
        ok_traced = [s for s in traced if s.ok]
        if not ok_traced:
            print(f"no traced command succeeded: {traced[0].reason}", file=sys.stderr)
            return 1
        values.update(layer_metrics(ok_traced, untraced))

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"processes: {len(probes)} set-up probes, {len(untraced)} untraced"
          + (f" and {len(traced)} traced" if trace else "") + " commands")
    print(describe("wall_s", "s", walls))
    print(describe("setup_s", "s", setups))
    print(describe("peak_rss_mb", "MB", [s.rss_mb for s in untraced]))
    for key, unit in (("agent_iters_per_s", "1/s"), ("msd_gap_db", "dB"), ("fail_rate", "ratio")):
        if key in extras:
            print(f"  {key:<18} {extras[key]:.6g} {unit}")
    for s in failures:
        print(f"  FAILED: {s.reason}")
    section = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[section]
    }
    if trace:
        for name_, m in metrics.items():
            print(f"  {name_:<38} {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps({
        "workload": name, "seed": seed, "env": env, "extras": extras,
        "wall_samples": walls, "setup_samples": setups,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(measured),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_many(names: list[str], seeds: list[int], seconds: float, trace: bool,
             bench: dict, record: bool) -> int:
    """Each (workload, seed) in its own process, seeds interleaved across workloads."""
    results = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
            result = json.loads(lines[-1])
            results[name].append((result, report))
            flag = "" if result["correct"] else "  INCORRECT"
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]
            ) + flag, flush=True)

    raw = WORK / f"steadiness-{datetime.now(timezone.utc):%Y%m%dT%H%M%S}.json"
    raw.parent.mkdir(parents=True, exist_ok=True)
    raw.write_text(json.dumps(results))
    section = "per_layer" if trace else "end_to_end"
    summary = {}
    steady = True
    for name in names:
        print(f"\n{name}  ({len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, {seconds:g} s each)")
        rows = {}
        for m in bench[section]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in results[name]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            status = ""
            if bound is not None and len(values) > 1:
                status = "UNSTEADY" if spread > bound else (
                    "steady" if spread <= bound / 3 else "within bound")
                steady &= spread <= bound or m["name"] == "setup_s"
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound, "n": len(values)}
            if len(values) == 1:
                print(f"  {m['name']:<38} {med:.5g} {m['unit']}")
                continue
            print(f"  {m['name']:<38} median {med:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g} "
                  f"{m['unit']:<6} spread {spread:6.3f}"
                  + (f" bound {bound:g} {status}" if bound is not None else ""))
        failed = sum(r["failed"] for r, _ in results[name])
        attempted = sum(r["attempted"] for r, _ in results[name])
        rows["fail_rate"] = {"unit": "ratio", "value": failed / attempted, "failed": failed,
                             "attempted": attempted}
        print(f"  {'fail_rate':<38} {failed}/{attempted} = {failed / attempted:.3g}")
        for key, unit in (("agent_iters_per_s", "1/s"), ("msd_gap_db", "dB")):
            vals = [rep["extras"][key] for _, rep in results[name] if key in rep["extras"]]
            if vals:
                rows[key] = {"unit": unit, "median": statistics.median(vals),
                             "max": max(vals), "n": len(vals)}
                print(f"  {key:<38} median {statistics.median(vals):.5g} {unit}, max {max(vals):.5g}")
        if not trace:
            for key, unit in (("wall_samples", "s"), ("setup_samples", "s")):
                pooled = [v for _, rep in results[name] for v in rep[key]]
                print("  pooled " + describe(key.replace("_samples", "_s"), unit, pooled).strip())
        summary[name] = rows
    print("\nsteady: every bounded spread within its bound" if steady
          else "\nUNSTEADY: some spread exceeds its bound")

    if record:
        point = {
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "env": results[names[0]][0][1]["env"],
            "run_seconds": seconds, "seeds": seeds, "trace": int(trace),
            "workloads": summary,
        }
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended a trajectory point to {TRAJECTORY.relative_to(ROOT)}")
    return 0 if steady else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="repeat each workload over --runs consecutive seeds")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", action="store_true",
                        help="with --steadiness: append the summary to trajectory.json")
    args = parser.parse_args(argv)

    if not (SRC / "atcnet" / "__init__.py").is_file():
        print(f"atcnet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks use atcnet's own comparison
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(workloads.WORKLOADS)}")
    if len(args.workload) == 1 and not args.steadiness:
        return run_once(names[0], args.seed, seconds, bool(args.trace), bench)
    runs = args.runs if args.steadiness else 1
    seeds = list(range(args.seed, args.seed + runs))
    return run_many(names, seeds, seconds, bool(args.trace), bench, args.record and args.steadiness)


if __name__ == "__main__":
    sys.exit(main())

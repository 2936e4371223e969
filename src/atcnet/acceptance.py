"""Built-in verification suite.

Each criterion is a self-contained check with frozen expected values and
tolerances; ``run_criteria`` executes them and reports one pass/fail line
per criterion. Structural checks are closed-form and fast; Monte-Carlo
checks replay the bundled presets with fixed seeds.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import engine, influence, performance, workflows
from .config import load_preset
from .costs import (
    LogisticCost,
    QuadraticCost,
    TwoClassGaussianSampler,
    ZeroedObservations,
    finite_difference_gradient,
)
from .topology import classify, validate

# Influence matrix of the three-subnetwork preset, rounded to 4 decimals.
W_REFERENCE = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.4046, 0.5267, 0.7099],
        [0.1489, 0.1183, 0.0725],
        [0.4466, 0.3550, 0.2176],
        [0.0, 0.0, 0.0],
    ]
)
# Receiving-agent limit points for sending solutions 1.0 and 1.5.
W_BULLET_REFERENCE = np.array([1.2233, 1.1775, 1.1088])
# Influence vector of receiving agent 6 (second receiver).
C_AGENT6_REFERENCE = np.array([0.6450, 0.3550])


@dataclass
class CriterionResult:
    cid: str
    name: str
    tag: str  # "structure" or "monte-carlo"
    passed: bool
    detail: str
    seconds: float


def _three_subnetwork():
    config = load_preset("three-subnetwork-regression")
    partition = classify(config.matrix)
    return config, partition


@lru_cache(maxsize=None)
def _regression_run(mu_scale: float):
    """Monte-Carlo estimate and theory for the regression preset (cached)."""
    config = load_preset("three-subnetwork-regression")
    config = replace(config, step_sizes=config.step_sizes.scaled(mu_scale))
    result = workflows.simulate(config)
    return result.estimate, performance.theoretical_msd(
        result.partition, config.models, config.step_sizes
    )


def _check_influence_matrix() -> tuple[bool, str]:
    _, partition = _three_subnetwork()
    err = np.abs(partition.w - W_REFERENCE).max()
    return err <= 5e-4, f"max |W - reference| = {err:.2e} (tol 5e-4)"


def _check_limit_points() -> tuple[bool, str]:
    _, partition = _three_subnetwork()
    points = influence.receiving_limit_points([np.array([1.0]), np.array([1.5])], partition)
    got = points[list(partition.r_agents), 0]
    err = np.abs(got - W_BULLET_REFERENCE).max()
    return err <= 5e-4, (
        f"receiving limit points {np.round(got, 4).tolist()} vs "
        f"{W_BULLET_REFERENCE.tolist()}, max err {err:.2e} (tol 5e-4)"
    )


def _check_influence_vectors() -> tuple[bool, str]:
    _, partition = _three_subnetwork()
    c = influence.influence_vector(partition, 6)
    err = np.abs(c - C_AGENT6_REFERENCE).max()
    return err <= 5e-4, (
        f"c(agent 6) = {np.round(c, 4).tolist()} vs {C_AGENT6_REFERENCE.tolist()}, "
        f"max err {err:.2e} (tol 5e-4)"
    )


def _check_two_agent_collapse() -> tuple[bool, str]:
    a = validate([[1.0, 0.03], [0.0, 0.97]])
    w = float(classify(a).w[0, 0])
    err = abs(w - 1.0)
    return err <= 1e-12, f"W = {w!r}, |W - 1| = {err:.2e} (tol 1e-12)"


def _check_structural_properties() -> tuple[bool, str]:
    config, partition = _three_subnetwork()
    checks = []

    col_err = np.abs(partition.w.sum(axis=0) - 1.0).max()
    checks.append(("W column sums", col_err <= 1e-10, f"{col_err:.2e} <= 1e-10"))

    points = influence.receiving_limit_points([np.array([1.0]), np.array([1.5])], partition)
    residual = influence.fixed_point_residual(config.matrix, points)
    checks.append(("fixed-point residual", residual < 1e-9, f"{residual:.2e} < 1e-9"))

    lim = influence.limiting_power(partition)
    a2000 = np.linalg.matrix_power(config.matrix.weights, 2000)
    power_err = np.abs(a2000 - lim).max()
    checks.append(("limiting power", power_err < 1e-8, f"{power_err:.2e} < 1e-8"))

    rho = partition.rho_t_rr
    errors = [
        np.abs(influence.neumann_w(partition, n) - partition.w).max() for n in range(30, 47)
    ]
    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    ratio_ok = max(ratios) <= rho + 0.05
    checks.append(
        ("Neumann ratio", ratio_ok, f"max {max(ratios):.4f} <= rho+0.05 = {rho + 0.05:.4f}")
    )

    passed = all(ok for _, ok, _ in checks)
    detail = "; ".join(f"{name}: {msg}" for name, ok, msg in checks)
    return passed, detail


def _check_msd_theory_vs_sim() -> tuple[bool, str]:
    estimate, report = _regression_run(1.0)
    rows = performance.compare(report, estimate, threshold_db=1.5)
    worst = max(abs(row.delta_db) for row in rows)
    return all(not row.flagged for row in rows), (
        f"max |theory - sim| = {worst:.3f} dB over {len(rows)} agents (tol 1.5 dB)"
    )


def _check_step_size_scaling() -> tuple[bool, str]:
    full, _ = _regression_run(1.0)
    half, _ = _regression_run(0.5)
    shift = 10.0 * np.log10(half.per_agent / full.per_agent)
    err = np.abs(shift + 3.0).max()
    return err <= 0.8, (
        f"per-agent MSD shift for halved step size: "
        f"{np.round(shift, 3).tolist()} dB (target -3 +/- 0.8)"
    )


def _check_leader_follower() -> tuple[bool, str]:
    config = load_preset("two-agent-logistic")
    result = workflows.simulate(config)
    sender = result.limit_points[result.partition.s_agents[0]]
    tol = 10.0 * np.sqrt(config.step_sizes.mu_max)
    mean_r = np.mean([traj.mean_iterate_tail for traj in result.trajectories], axis=0)[1]
    dist = float(np.linalg.norm(mean_r - sender))

    # The receiver's own data must prefer a visibly different solution.
    own = performance.pareto_solve([config.models[1]], np.array([1.0]))
    own_dist = float(np.linalg.norm(own - sender))
    passed = dist <= tol and own_dist > tol
    return passed, (
        f"|mean iterate(R) - sender solution| = {dist:.4f} <= {tol:.4f}; "
        f"receiver's own minimizer sits {own_dist:.3f} away"
    )


def _check_long_term_model() -> tuple[bool, str]:
    config, partition = _three_subnetwork()
    models = list(config.models)
    stars = workflows.pareto_points(partition, models, config.step_sizes)
    [paired] = engine.run_paired_long_term(
        config.matrix,
        models,
        config.step_sizes,
        influence.receiving_limit_points(stars, partition),
        iterations=2000,
        seed=19,
        noise_at="iterate",
    )
    exact_ok = paired.max_state_gap < 1e-10

    logi = load_preset("two-agent-logistic")
    lpartition = classify(logi.matrix)
    lmodels = list(logi.models)
    gaps = []
    for mu_max, iterations in ((1e-3, 20000), (5e-4, 40000), (2.5e-4, 80000)):
        steps = engine.StepSizeProfile(mu_max, logi.step_sizes.tau)
        lstars = workflows.pareto_points(lpartition, lmodels, steps)
        lpoints = influence.receiving_limit_points(lstars, lpartition)
        gap_runs = []
        for pr in engine.run_paired_long_term(
            logi.matrix,
            lmodels,
            steps,
            lpoints,
            iterations=iterations,
            seed=23,
            n_runs=4,
            noise_at="limit_point",
            w_init=lpoints,
        ):
            half = pr.sq_error.shape[0] // 2
            nl = pr.sq_error[half:].sum(axis=1).mean()
            lt = pr.sq_error_model[half:].sum(axis=1).mean()
            gap_runs.append(abs(nl - lt))
        gaps.append(float(np.mean(gap_runs)))
    trend_ok = gaps[1] < gaps[0] and gaps[2] < gaps[1]
    return exact_ok and trend_ok, (
        f"quadratic max state gap {paired.max_state_gap:.2e} (tol 1e-10); "
        f"logistic model gaps {['%.3e' % g for g in gaps]} decreasing: {trend_ok}"
    )


def _check_gradient_oracles() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    quad = QuadraticCost(r_u=[[1.0, 0.2], [0.2, 0.8]], sigma_v2=0.05, w_o=[1.0, -0.5])
    logi = LogisticCost(
        rho=0.1,
        sampler=TwoClassGaussianSampler(mean_pos=[1.0, 0.5], mean_neg=[-1.0, -0.5]),
    )
    worst = 0.0
    for _ in range(20):
        point = rng.normal(0.0, 2.0, 2)
        qs = tuple(f[0] for f in quad.draw_batch(rng, 1))
        ls = tuple(f[0] for f in logi.draw_batch(rng, 1))
        for model, sample in ((quad, qs), (logi, ls)):
            analytic = model.gradient_rows(point, sample)
            numeric = finite_difference_gradient(
                lambda v: model.sample_loss(v, sample), point
            )
            rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
            worst = max(worst, rel)
    fd_ok = worst <= 1e-5

    details = [f"max FD relative error {worst:.2e} (tol 1e-5)"]
    mean_ok = True
    n = 100000
    for model, point in ((quad, np.array([0.4, 0.1])), (logi, np.array([0.3, 0.3]))):
        batch = model.draw_batch(np.random.default_rng(17), n)
        noise = model.gradient_rows(point, batch) - model.true_gradient(point)
        g = model.noise_covariance(point)
        bound = 4.0 * np.sqrt(np.trace(g) / n)
        norm = float(np.linalg.norm(noise.mean(axis=0)))
        mean_ok = mean_ok and norm <= bound
        details.append(f"{type(model).__name__} noise mean {norm:.2e} <= {bound:.2e}")
    return fd_ok and mean_ok, "; ".join(details)


def _check_structural_isolation() -> tuple[bool, str]:
    config, partition = _three_subnetwork()
    models = list(config.models)
    stars = workflows.pareto_points(partition, models, config.step_sizes)
    lp = influence.receiving_limit_points(stars, partition)
    zeroed = [
        ZeroedObservations(m) if k in partition.r_agents else m
        for k, m in enumerate(models)
    ]
    kwargs = dict(
        step_sizes=config.step_sizes,
        limit_points=lp,
        iterations=2000,
        n_runs=2,
        master_seed=29,
        stride=10,
        record_iterates=True,
    )
    base = engine.run_ensemble(config.matrix, models, **kwargs)
    blank = engine.run_ensemble(config.matrix, zeroed, **kwargs)
    s = list(partition.s_agents)
    same = all(
        np.array_equal(b.iterates[:, s, :], z.iterates[:, s, :])
        and np.array_equal(b.sq_error[:, s], z.sq_error[:, s])
        for b, z in zip(base, blank)
    )
    changed = any(
        not np.array_equal(b.iterates[:, list(partition.r_agents), :], z.iterates[:, list(partition.r_agents), :])
        for b, z in zip(base, blank)
    )
    return same and changed, (
        f"sending-agent trajectories bitwise identical: {same}; "
        f"receiving trajectories actually differ: {changed}"
    )


CRITERIA = (
    ("1", "influence-matrix", "structure", _check_influence_matrix, 1.0),
    ("2", "limit-points", "structure", _check_limit_points, 1.0),
    ("3", "influence-vectors", "structure", _check_influence_vectors, 1.0),
    ("4", "two-agent-collapse", "structure", _check_two_agent_collapse, None),
    ("5", "structural-properties", "structure", _check_structural_properties, None),
    ("6", "msd-theory-vs-sim", "monte-carlo", _check_msd_theory_vs_sim, 150.0),
    ("7", "step-size-scaling", "monte-carlo", _check_step_size_scaling, None),
    ("8", "leader-follower-logistic", "monte-carlo", _check_leader_follower, None),
    ("9", "long-term-model", "monte-carlo", _check_long_term_model, None),
    ("10", "gradient-oracles", "structure", _check_gradient_oracles, None),
    ("11", "structural-isolation", "monte-carlo", _check_structural_isolation, None),
)


def run_criterion(cid: str) -> CriterionResult:
    for num, name, tag, fn, budget in CRITERIA:
        if num == cid or name == cid:
            start = time.perf_counter()
            passed, detail = fn()
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed > budget:
                passed = False
                detail += f"; exceeded runtime budget ({elapsed:.1f} s > {budget:.0f} s)"
            return CriterionResult(num, name, tag, passed, detail, elapsed)
    raise KeyError(cid)


def run_criteria(filter_text: str | None = None) -> list[CriterionResult]:
    """Run all (or name/tag-filtered) criteria in order."""
    results = []
    for num, name, tag, _, _ in CRITERIA:
        if filter_text and filter_text not in name and filter_text != tag and filter_text != num:
            continue
        results.append(run_criterion(num))
    return results

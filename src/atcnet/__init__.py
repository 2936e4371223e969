"""Diffusion learning over weakly-connected directed networks.

Validate a combination matrix, split it into sending/receiving sub-networks,
compute the influence matrix and every agent's limit point and theoretical
mean-square deviation, and check those predictions against Monte-Carlo
simulation of the adapt-then-combine recursion.

The names below are imported from their modules on first use (PEP 562), so
``import atcnet`` alone, as in the processes a command starts, loads none.
"""
import importlib

_EXPORTS = {
    name: module
    for module, names in [
        ("config", "ExperimentConfig load_config load_preset"),
        ("costs", "CostModel EllipseSampler LogisticCost QuadraticCost TwoClassGaussianSampler "
                  "ZeroedObservations finite_difference_gradient"),
        ("engine", "MsdEstimate StepSizeProfile Trajectory long_term_state run_ensemble "
                   "run_paired_long_term"),
        ("influence", "fixed_point_residual influence_matrix influence_vector limiting_power "
                      "neumann_w receiving_limit_points"),
        ("performance", "MsdReport compare msd_receiving msd_subnetwork pareto_solve q_weights "
                        "theoretical_msd to_db"),
        ("topology", "CombinationMatrix Condensation NetworkPartition classify condense perron "
                     "spectral_radius validate"),
    ]
    for name in names.split()
}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)

"""Diffusion learning over weakly-connected directed networks.

Validate a combination matrix, split it into sending/receiving sub-networks,
compute the influence matrix and every agent's limit point and theoretical
mean-square deviation, and check those predictions against Monte-Carlo
simulation of the adapt-then-combine recursion.
"""
from .config import ExperimentConfig, load_config, load_preset
from .costs import (
    CostModel,
    EllipseSampler,
    LogisticCost,
    QuadraticCost,
    TwoClassGaussianSampler,
    ZeroedObservations,
    finite_difference_gradient,
)
from .engine import (
    MsdEstimate,
    StepSizeProfile,
    Trajectory,
    estimate_msd,
    long_term_state,
    run_ensemble,
    run_paired_long_term,
)
from .influence import (
    fixed_point_residual,
    influence_matrix,
    influence_vector,
    limiting_power,
    neumann_w,
    receiving_limit_points,
)
from .performance import (
    MsdReport,
    compare,
    msd_receiving,
    msd_subnetwork,
    pareto_solve,
    q_weights,
    theoretical_msd,
    to_db,
)
from .topology import (
    CombinationMatrix,
    Condensation,
    NetworkPartition,
    classify,
    condense,
    perron,
    spectral_radius,
    validate,
)

__version__ = "0.1.0"

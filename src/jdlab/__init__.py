"""jdlab: discrete jump-diffusion laboratory.

Spaces with symmetric jump kernels and discretized diffusion parts,
volume/omega sufficient tests for conservativeness and recurrence, the
example kernel families, variational capacity, and Monte-Carlo simulation
of the associated jump process.
"""

__version__ = "0.1.0"

from .space import (
    DiscreteMMSpace,
    GraphData,
    metric_ball,
    support_sets,
)
from .forms import (
    JumpKernel,
    KernelOperator,
    LocalPart,
    MConstants,
    RateTable,
    StencilKernel,
    derivation_residual,
    energy,
    gamma_jump,
    jump_rates,
    local_chain,
    m_constants,
)
from .criteria import (
    CriterionReport,
    davies_constant,
    omega,
    recurrence_report,
    theta_test_function,
    volume_growth_report,
)
from .kernels import (
    BuiltInstance,
    build_graph_space,
    lattice_nn,
    mixed_graph,
    model_manifold,
    stable_like,
    stack_space,
    weighted_line,
)
from .capacity import PotentialSolve, SolverFailure, capacity_scan, equilibrium_potential, green_growth
from .simulate import (
    SimConfig,
    Trajectory,
    explosion_diagnostic,
    gillespie_path,
    sample_estimates,
)

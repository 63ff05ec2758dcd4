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
    ball_volumes,
    metric_ball,
)
from .forms import (
    BuiltInstance,
    JumpKernel,
    KernelOperator,
    LocalPart,
    MConstants,
    RateTable,
    StencilKernel,
    energy,
    gamma_jump,
    jump_rates,
    local_chain,
    m_constants,
    support_sets,
)
from .criteria import (
    CriterionReport,
    davies_constant,
    recurrence_report,
    volume_growth_report,
)
from .kernels import (
    lattice_nn,
    mixed_graph,
    model_manifold,
    stable_like,
    stack_space,
    weighted_line,
)
from .capacity import PotentialSolve, SolverFailure, capacity_scan, equilibrium_potential
from .simulate import (
    SimConfig,
    explosion_diagnostic,
    sample_estimates,
)

"""Exact tensor product decompositions for simple Lie algebras and the
asymptotics of their multiplicity and character measures."""

from .charalg import (
    Branching,
    CharacterLogs,
    CharacterPlan,
    DecompositionTable,
    WeightSystem,
    character_value,
    klimyk_tensor_step,
    log_characters,
    naive_tensor_decompose,
    second_casimir,
    tensor_power_decompose,
    weight_multiplicities,
    weyl_dimension,
)
from .errors import (
    ConvergenceError,
    DenominatorVanishesError,
    DomainError,
    EntryCapExceededError,
    GridCoverageError,
    InternalConsistencyError,
    InvalidAlgebraError,
    LegendreDomainError,
    NonRegularError,
    TensorstatError,
    WeylGroupTooLargeError,
)
from .legendre import (
    RatePoint,
    TensorProblem,
    asymptotic_log_multiplicity,
    f_eval,
    f_grad_hess,
    forward_dual,
    hessian_at_origin,
    legendre_dual,
    limit_density,
    rate_point,
    tensor_problem,
)
from .markov import (
    Trajectory,
    TransitionKernel,
    TransitionRow,
    evolve_exact,
    sample_paths,
    trajectories_to_jsonl,
    transition_row,
)
from .measures import (
    MeasureRow,
    MeasureTable,
    Scaling,
    WeakConvergenceReport,
    asymptotic_log_probability,
    bulk_scaling,
    character_measure,
    character_probabilities,
    gaussian_scaling,
    lattice_aligned_edges,
    plancherel_measure,
    weak_convergence_distance,
)
from .pde import DerivativeReport, PdeReport, derivative_check, pde_residual
from .rootsys import (
    AlgebraSpec,
    RootSystem,
    WeylElement,
    build_root_system,
    cartan_matrix,
    dominant_reflect,
    enumerate_weyl_group,
    weyl_group_order,
)
from .slnhook import (
    SlnClosedForm,
    hook_multiplicity,
    kerov_density,
    kerov_fluctuations,
    partition_from_weight,
    sigma_from_xi,
    sln_legendre_closed_form,
    sln_rate,
    weight_from_partition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

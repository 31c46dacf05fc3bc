"""The package's public names, and the names the benchmark's tracer hooks."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import tensorstat

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

PUBLIC = [
    "AlgebraSpec", "Branching", "CharacterLogs", "CharacterPlan", "ConvergenceError",
    "DecompositionTable", "DerivativeReport", "DomainError", "EntryCapExceededError",
    "GridCoverageError", "InternalConsistencyError", "InvalidAlgebraError",
    "LegendreDomainError", "MeasureRow", "MeasureTable", "NonRegularError", "PdeReport",
    "RatePoint", "RootSystem", "Scaling", "SlnClosedForm", "TensorProblem", "TensorstatError",
    "Trajectory", "TransitionKernel", "TransitionRow", "WeakConvergenceReport", "WeightSystem",
    "WeylGroupTooLargeError", "asymptotic_log_multiplicity",
    "asymptotic_log_probability", "build_root_system", "bulk_scaling", "cartan_matrix",
    "character_measure", "character_probabilities", "character_value", "charalg",
    "dominant_reflect", "enumerate_weyl_group", "errors", "evolve_exact", "f_eval",
    "f_grad_hess", "forward_dual", "gaussian_scaling", "hessian_at_origin",
    "hook_multiplicity", "klimyk_tensor_step",
    "lattice_aligned_edges", "legendre", "legendre_dual", "limit_density", "markov",
    "measures", "naive_tensor_decompose", "numerics", "partition_from_weight", "pde",
    "pde_residual", "plancherel_measure", "rate_point", "rootsys", "sample_paths",
    "second_casimir", "sigma_from_xi", "sln_legendre_closed_form", "sln_rate", "slnhook",
    "tensor_power_decompose", "tensor_problem", "trajectories_to_jsonl",
    "weak_convergence_distance", "weight_multiplicities",
    "weyl_dimension", "weyl_group_order",
]

# arguments the tracer binds by name to size its counts
BOUND = {
    ("charalg", "klimyk_tensor_step"): ("rs", "table", "nu"),
    ("markov", "sample_paths"): ("N", "chains"),
}


def _tracing():
    # tracing.py imports only the standard library, so it loads outside perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_are_pinned():
    assert sorted(tensorstat.__all__) == PUBLIC


def test_traced_functions_and_methods_resolve():
    tracing = _tracing()
    for mod_name, fn_name, _ in tracing.FUNCTIONS:
        fn = getattr(importlib.import_module(f"tensorstat.{mod_name}"), fn_name)
        assert callable(fn), f"{mod_name}.{fn_name}"
    for mod_name, cls_name, meth_name in tracing.METHODS:
        cls = getattr(importlib.import_module(f"tensorstat.{mod_name}"), cls_name)
        assert meth_name in vars(cls), f"{mod_name}.{cls_name}.{meth_name}"
    for (mod_name, fn_name), names in BOUND.items():
        params = inspect.signature(getattr(importlib.import_module(f"tensorstat.{mod_name}"), fn_name)).parameters
        assert set(names) <= set(params), f"{mod_name}.{fn_name}"

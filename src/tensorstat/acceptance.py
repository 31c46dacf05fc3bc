"""Runnable acceptance suite: one callable per shipped numerical claim.

Each criterion function re-derives its expected values from an
independent code path (naive character arithmetic, closed forms, exact
rational measures, quadrature) and compares against the production
pipeline at fixed tolerances, and returns (passed, detail); `_criterion`
registers it in ALL_CRITERIA under its number and name, timed.  `run`
executes a subset and prints one PASS/FAIL line per criterion; the CLI
`selftest` subcommand and the test suite both call into this module so
there is a single source of truth.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .charalg import (
    naive_tensor_decompose,
    tensor_power_decompose,
    weyl_dimension,
)
from .legendre import (
    asymptotic_log_multiplicity,
    f_grad_hess,
    forward_dual,
    hessian_at_origin,
    limit_density,
    precision_matrix,
    rate_point,
    tensor_problem,
)
from .markov import evolve_exact, sample_paths
from .measures import (
    asymptotic_log_probability,
    character_measure,
    character_probabilities,
    plancherel_measure,
    weak_convergence_distance,
)
from .numerics import box_quadrature
from .pde import _pde_rows
from .rootsys import AlgebraSpec, build_root_system
from .slnhook import hook_sweep, sln_legendre_closed_form


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index:2d} [{self.seconds:6.1f}s] {self.name}: {self.detail}"


# index -> criterion; each call runs it and returns its CriterionResult
ALL_CRITERIA = {}


def _criterion(index: int, name: str):
    """Register a check returning (passed, detail) as criterion index; the registered callable times it."""

    def register(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            start = time.time()
            passed, detail = check()
            return CriterionResult(index, name, passed, detail, time.time() - start)

        ALL_CRITERIA[index] = criterion
        return criterion

    return register


def _rs(name: str):
    return build_root_system(AlgebraSpec.parse(name))


def _small_reps(rs, max_dim: int = 14):
    """Nontrivial dominant weights of dimension <= max_dim, by (dim, coords)."""
    bound = max_dim if rs.rank == 1 else 3
    reps = []
    for coords in itertools.product(range(bound + 1), repeat=rs.rank):
        if not any(coords):
            continue
        if weyl_dimension(rs, coords) <= max_dim:
            reps.append(coords)
    return sorted(reps, key=lambda w: (weyl_dimension(rs, w), w))


@_criterion(1, "Klimyk vs naive decomposition")
def criterion_1() -> tuple[bool, str]:
    """Klimyk pipeline equals naive character multiplication, exactly."""
    checked = 0
    worst = ""
    for name in ("A1", "A2", "B2", "G2"):
        rs = _rs(name)
        reps = _small_reps(rs)
        problems = [[(nu, n)] for nu in reps for n in range(1, 7)]
        problems += [[(a, 1), (b, 1)] for a, b in itertools.combinations(reps, 2)]
        if len(reps) >= 3:
            problems.append([(reps[0], 2), (reps[1], 1), (reps[2], 1)])
        else:
            problems.append([(reps[0], 2), (reps[1], 2)])
        for factors in problems:
            fast = tensor_power_decompose(rs, factors)
            slow = naive_tensor_decompose(rs, factors)
            checked += 1
            if fast.entries != slow.entries:
                worst = f"{name} {factors} disagrees"
                break
        if worst:
            break
    return not worst, worst or f"{checked} problems, exact equality"


@_criterion(2, "Schur-Weyl hook multiplicities")
def criterion_2() -> tuple[bool, str]:
    """Tensor powers of the A_n vector rep match hook-length multiplicities."""
    checked = 0
    for name, big_n, lam, matches in hook_sweep(12):
        if not matches:
            return False, f"{name} N={big_n} lambda={lam}"
        checked += 1
    return True, f"{checked} multiplicities, exact"


@_criterion(3, "multiplicity asymptotics convergence")
def criterion_3() -> tuple[bool, str]:
    """Multiplicity asymptotics converge to exact values along growing N.

    A1 holds xi = 0.1 fixed; A2 uses the closest xi to (0.1, 0.05) whose
    weight N*xi is on the weight lattice at both N (second coordinate
    1/15, since (0.1, 0.05) itself maps to a non-integral wall weight).
    """
    errors = []
    rs = _rs("A1")
    for n_power in (50, 100, 200, 400):
        table = tensor_power_decompose(rs, [((1,), n_power)])
        lam = (n_power // 5,)
        problem = tensor_problem(rs, table.problem)
        est = asymptotic_log_multiplicity(problem, lam)
        exact = table.entries[lam]
        errors.append(abs(math.exp(est - math.log(exact)) - 1.0))
    a1_ok = all(b < a for a, b in zip(errors, errors[1:])) and errors[-1] <= 0.1

    rs2 = _rs("A2")
    errors2 = []
    for n_power, lam in ((30, (4, 1)), (60, (8, 2))):
        table = tensor_power_decompose(rs2, [((1, 0), n_power)])
        problem = tensor_problem(rs2, table.problem)
        est = asymptotic_log_multiplicity(problem, lam)
        errors2.append(abs(math.exp(est - math.log(table.entries[lam])) - 1.0))
    a2_ok = errors2[1] < errors2[0]

    return a1_ok and a2_ok, f"A1 errors {['%.4f' % e for e in errors]}, A2 errors {['%.4f' % e for e in errors2]}"


@_criterion(4, "closed-form Legendre match (A_n)")
def criterion_4() -> tuple[bool, str]:
    """Generic Legendre pipeline matches type-A closed forms."""
    rng = np.random.default_rng(20240401)
    worst = dict(S=0.0, x=0.0, detK=0.0, pref=0.0)
    for n in (1, 2, 3):
        rs = _rs(f"A{n}")
        rep = (1,) + (0,) * (n - 1)
        for _ in range(50):
            tau = rng.uniform(0.5, 2.0)
            problem = tensor_problem(rs, [(rep, 10)], epsilon=tau / 10)
            xi = forward_dual(problem, rng.uniform(-1.0, 1.0, size=n))
            rp = rate_point(problem, xi)
            cf = sln_legendre_closed_form(n, tau, xi)
            worst["S"] = max(worst["S"], abs(rp.S - cf.S))
            worst["x"] = max(worst["x"], float(np.max(np.abs(np.array(rp.x) - np.array(cf.x)))))
            worst["detK"] = max(worst["detK"], abs(float(np.linalg.det(np.array(rp.K))) - cf.det_K))
            worst["pref"] = max(worst["pref"], abs(rp.log_prefactor - cf.log_prefactor))
    passed = worst["S"] <= 1e-9 and worst["detK"] <= 1e-8 and worst["x"] <= 1e-10 and worst["pref"] <= 1e-6
    return passed, ", ".join(f"{k}={v:.2e}" for k, v in worst.items())


@_criterion(5, "isotropic Hessian at the origin")
def criterion_5() -> tuple[bool, str]:
    """Hessian of ln chi at the origin is the scalar x times B."""
    worst = 0.0
    pairs = []
    for name in ("A1", "A2", "A3", "B2", "C3", "G2"):
        rs = _rs(name)
        if rs.rank == 1:
            reps = [(1,), (2,)]
        else:
            reps = [
                tuple(1 if i == k else 0 for i in range(rs.rank)) for k in range(2)
            ]
        for rep in reps:
            problem = tensor_problem(rs, [(rep, 10)])
            _, resid = hessian_at_origin(problem)
            worst = max(worst, resid)
            pairs.append((name, rep))
    return worst <= 1e-10, f"{len(pairs)} pairs, max residual {worst:.2e}"


@_criterion(6, "rate-function PDE residual")
def criterion_6() -> tuple[bool, str]:
    """Rate function solves its PDE on interior grids; FD partials agree."""
    worst_res, worst_dev = 0.0, 0.0
    grid = np.linspace(-1.0, 1.0, 10)
    for name, rep in (("A1", (1,)), ("A2", (1, 0)), ("B2", (0, 1))):
        rs = _rs(name)
        # rank 1 scans tau too; every grid of one problem is one batch
        for tau in np.linspace(0.5, 2.0, 10) if rs.rank == 1 else [1.0]:
            problem = tensor_problem(rs, [(rep, 10)], epsilon=tau / 10)
            xis = [forward_dual(problem, np.array(y)) for y in itertools.product(grid, repeat=rs.rank)]
            for report in _pde_rows(problem, np.array(xis)):
                worst_res = max(worst_res, report.residual)
                worst_dev = max(worst_dev, report.derivatives.max_deviation)
    return worst_res <= 1e-9 and worst_dev <= 1e-6, f"max residual {worst_res:.2e}, max FD deviation {worst_dev:.2e}"


@_criterion(7, "limit-density normalizations")
def criterion_7() -> tuple[bool, str]:
    """Limit densities integrate to one by quadrature (rank <= 2)."""
    deviations = []

    # gaussian: precision matrices from three problems at regular t
    for name, rep, t in (("A1", (1,), [0.3]), ("A2", (1, 0), [0.3, 0.1]), ("B2", (0, 1), [0.2, 0.1])):
        rs = _rs(name)
        problem = tensor_problem(rs, [(rep, 40)])
        K = precision_matrix(rs, f_grad_hess(problem, np.asarray(t, dtype=float))[2], sum(problem.tau))
        cov = np.linalg.inv(K)
        bounds = [(-8 * math.sqrt(cov[a, a]), 8 * math.sqrt(cov[a, a])) for a in range(rs.rank)]
        pts, wts = box_quadrature(bounds, 120 if rs.rank == 1 else 80)
        total = float(limit_density(rs, "gaussian", pts, K=K) @ wts)
        deviations.append(abs(total - 1.0))

    # chamber-supported kinds: integrate in weight coordinates, where the
    # chamber is the positive orthant and the integrand is smooth, so
    # Gauss-Legendre converges spectrally
    def chamber_integral(rs, kind, u=None, hi_b=9.0):
        hi_w = float(np.max(np.sum(np.abs(rs.cartan_f), axis=1))) * hi_b
        pts_w, wts = box_quadrature([(0.0, hi_w)] * rs.rank, 140 if rs.rank == 1 else 110)
        pts_b = pts_w @ rs.cartan_inv_f.T
        jac = abs(float(np.linalg.det(rs.cartan_inv_f)))
        return float(limit_density(rs, kind, pts_b, u=u) @ wts) * jac

    # plancherel: three algebras
    for name in ("A1", "A2", "B2"):
        deviations.append(abs(chamber_integral(_rs(name), "plancherel") - 1.0))

    # intermediate: three (algebra, u) parameter sets
    for name, u in (("A1", [0.5]), ("A1", [1.2]), ("A2", [0.4, 0.3])):
        u_arr = np.asarray(u, dtype=float)
        total = chamber_integral(_rs(name), "intermediate", u=u_arr, hi_b=9.0 + 2.0 * float(np.max(u_arr)))
        deviations.append(abs(total - 1.0))

    worst = max(deviations)
    return worst <= 1e-6, f"9 integrals, worst |1-I| = {worst:.2e}"


def _chambered_tv(rs, rep, n_power, kind, t=None) -> float:
    table = tensor_power_decompose(rs, [(rep, n_power)])
    m = character_measure(table, t=t)
    return weak_convergence_distance(m, kind).tv


@_criterion(8, "Plancherel weak convergence")
def criterion_8() -> tuple[bool, str]:
    """Scaled Plancherel measures converge to the chambered limit density."""
    a1 = [_chambered_tv(_rs("A1"), (1,), n, "plancherel") for n in (100, 200, 400)]
    a2 = [_chambered_tv(_rs("A2"), (1, 0), n, "plancherel") for n in (30, 60)]
    a1_ok = a1[0] > a1[1] > a1[2] and a1[2] <= 0.05
    a2_ok = a2[1] < a2[0] and a2[1] <= 0.12
    detail = f"A1 TV {['%.4f' % v for v in a1]}, A2 TV {['%.4f' % v for v in a2]}"
    return a1_ok and a2_ok, detail


@_criterion(9, "Gaussian weak convergence")
def criterion_9() -> tuple[bool, str]:
    """Character measure at regular t converges to its Gaussian fluctuation law."""
    rs = _rs("A1")
    t = [0.5]
    tvs, mode_ok = [], True
    for n_power in (100, 200, 400):
        table = tensor_power_decompose(rs, [((1,), n_power)])
        m = character_measure(table, t=t)
        tvs.append(weak_convergence_distance(m, "gaussian").tv)

        best = max(m.rows, key=lambda row: row.probability)
        problem = tensor_problem(rs, table.problem)
        eta = forward_dual(problem, np.asarray(t))
        xi_mode = problem.epsilon * rs.root_points([best.weight])[0]
        if float(np.max(np.abs(xi_mode - eta))) > 2.0 / n_power:
            mode_ok = False
    trend = tvs[0] > tvs[1] > tvs[2] and tvs[2] <= 0.05
    detail = f"TV {['%.4f' % v for v in tvs]}, mode within 2/N: {mode_ok}"
    return trend and mode_ok, detail


@_criterion(10, "intermediate-regime weak convergence")
def criterion_10() -> tuple[bool, str]:
    """Intermediate scaling t = sqrt(eps/x) u: TV decay plus the u -> 0 limit."""
    rs = _rs("A1")
    u = 0.7
    tvs = []
    for n_power in (100, 200, 400):
        problem = tensor_problem(rs, [((1,), n_power)])
        x_scalar, _ = hessian_at_origin(problem)
        t = [math.sqrt(problem.epsilon / x_scalar) * u]
        tvs.append(_chambered_tv(rs, (1,), n_power, "intermediate", t=t))
    trend = tvs[0] > tvs[1] > tvs[2] and tvs[2] <= 0.07

    grid = np.linspace(0.05, 4.0, 40).reshape(-1, 1)
    gap = float(
        np.max(
            np.abs(
                limit_density(rs, "intermediate", grid, u=np.array([1e-4]))
                - limit_density(rs, "plancherel", grid)
            )
        )
    )
    return trend and gap <= 1e-6, f"TV {['%.4f' % v for v in tvs]}, u->0 gap {gap:.2e}"


@_criterion(11, "Markov chain exactness and sampling")
def criterion_11() -> tuple[bool, str]:
    """Markov evolution: exactness, Monte Carlo error decay, determinism."""
    worst = 0.0
    for name, rep, t_list in (("A1", (1,), [None, [0.4]]), ("A2", (1, 0), [None, [0.3, 0.1]])):
        rs = _rs(name)
        for t in t_list:
            for n_power in (1, 7, 20):
                ev = evolve_exact(rs, rep, t, n_power)
                cm = character_measure(tensor_power_decompose(rs, [(rep, n_power)]), t=t)
                pe, pc = ev.probabilities(), cm.probabilities()
                worst = max(worst, max(abs(pe[w] - pc.get(w, 0.0)) for w in pe))
    exact_ok = worst <= 1e-12

    rs = _rs("A1")
    exact = evolve_exact(rs, (1,), None, 50).probabilities()
    tvs = []
    for chains in (1000, 10000, 100000):
        emp, _ = sample_paths(rs, (1,), None, 50, chains, seed=11, keep_paths=False)
        pe = emp.probabilities()
        tvs.append(0.5 * sum(abs(pe.get(w, 0.0) - exact.get(w, 0.0)) for w in set(pe) | set(exact)))
    # each tenfold chain increase should shrink TV by ~sqrt(10), within factor 2
    ratio_ok = all(math.sqrt(10) / 2 <= tvs[i] / tvs[i + 1] <= 2 * math.sqrt(10) for i in range(2))
    mc_ok = tvs[-1] <= 0.02 and ratio_ok

    # chain c reads only the stream keyed (seed, c): a 9000-chain run crosses
    # the 8192-chain block boundary and must start with the 5000-chain run
    _, long_paths = sample_paths(rs, (1,), None, 30, 9000, seed=42)
    runs = [sample_paths(rs, (1,), None, 30, 5000, seed=42) for _ in range(2)]
    prefix_ok = long_paths[:5000] == runs[0][1]
    repeat_ok = runs[1][0].probabilities() == runs[0][0].probabilities() and runs[1][1] == runs[0][1]
    passed = exact_ok and mc_ok and prefix_ok and repeat_ok
    detail = (
        f"evolve gap {worst:.1e}, TV by chains {['%.4f' % v for v in tvs]}, "
        f"9000-chain prefix identical: {prefix_ok}, same-seed repeat identical: {repeat_ok}"
    )
    return passed, detail


@_criterion(12, "conservation laws")
def criterion_12() -> tuple[bool, str]:
    """Measures sum to one; decompositions preserve dimension and stay in the support cone."""
    worst = 0.0
    count = 0
    cases = [
        ("A1", [((1,), 12)], [None, [0.5]]),
        ("A2", [((1, 0), 6), ((0, 1), 2)], [None, [0.3, 0.1]]),
        ("B2", [((0, 1), 4)], [None, [0.2, 0.4]]),
        ("G2", [((0, 1), 3)], [None, [0.1, 0.2]]),
    ]
    for name, factors, t_values in cases:
        rs = _rs(name)
        table = tensor_power_decompose(rs, factors)
        if not (table.check_dimension_identity() and table.check_support_in_cone()):
            return False, f"{name} dimension identity or support cone"
        exact = plancherel_measure(table)
        if sum(exact.values()) != Fraction(1):
            return False, f"{name} exact sum"
        for t in t_values:
            probs = character_probabilities(table, t)
            worst = max(worst, abs(sum(probs.values()) - 1.0))
            count += 1
    detail = f"{count} measures, worst |1-sum| = {worst:.1e}; dimension identities exact, support in cone"
    return worst <= 1e-12, detail


@_criterion(13, "wall-t weak and pointwise convergence")
def criterion_13() -> tuple[bool, str]:
    """At t on the alpha_2 wall: TV to the wall law and the pointwise error at the mode fall with N."""
    parts, passed = [], True
    for name, rep, t, tv_bound, mode_powers, mode_bound in (
        ("A2", (1, 0), [1.0, 0.5], 0.07, (40, 80, 160), 0.2),
        ("B2", (0, 1), [1.0, 1.0], 0.15, (20, 80, 160), 0.17),
    ):
        rs = _rs(name)
        ms = {n: character_measure(tensor_power_decompose(rs, [(rep, n)]), t=t) for n in {20, 80, 160, *mode_powers}}
        tvs = [weak_convergence_distance(ms[n], "gaussian").tv for n in (20, 80, 160)]
        errors = []
        for n in mode_powers:
            probs = ms[n].probabilities()
            mode = max(probs, key=probs.get)
            est = asymptotic_log_probability(tensor_problem(rs, [(rep, n)]), mode, t)
            errors.append(abs(est - math.log(probs[mode])))
        passed &= tvs[0] > tvs[1] > tvs[2] and tvs[2] <= tv_bound and errors[0] > errors[1] > errors[2] < mode_bound
        parts.append(f"{name} TV {['%.4f' % v for v in tvs]}, mode errors {['%.4f' % v for v in errors]}")
    return passed, "; ".join(parts)


def run(indices=None, stream=None) -> list[CriterionResult]:
    """Run the requested criteria (all by default), one report line each."""
    stream = stream or sys.stdout
    results = []
    for index in sorted(indices or ALL_CRITERIA):
        result = ALL_CRITERIA[index]()
        results.append(result)
        print(result.line(), file=stream, flush=True)
    return results

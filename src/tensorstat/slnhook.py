"""Type-A closed forms: hook multiplicities and the explicit rate function.

For sl(n+1) and the vector representation everything the generic modules
compute numerically has a closed form through the variables

    sigma_i = tau/(n+1) + xi_i - xi_{i-1},   i = 1..n+1,  xi_0 = xi_{n+1} = 0,

which are the scaled row lengths of the underlying partition.  These
functions are kept deliberately independent of the generic code paths
(no Legendre solves, no Weyl sums) so they can serve as oracles.
hook_sweep is where the oracle meets the generic Klimyk fold; the CLI's
hook-check runs it without loading the acceptance suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .charalg import Branching
from .errors import DomainError, LegendreDomainError
from .rootsys import build_root_system


def partition_from_weight(n: int, weight, total: int) -> tuple[int, ...]:
    """The partition of `total` with <= n+1 rows mapping to an A_n weight.

    Row differences determine the partition up to adding a constant
    column; `total` pins it down.  Errors if no representative of that
    size exists (the weight then does not occur in the total-th power of
    the vector representation).
    """
    weight = tuple(int(c) for c in weight)
    if len(weight) != n or any(c < 0 for c in weight):
        raise DomainError(f"{weight} is not a dominant A_{n} weight")
    minimal = [sum(weight[i:]) for i in range(n)] + [0]
    excess = total - sum(minimal)
    if excess < 0 or excess % (n + 1):
        raise DomainError(f"weight {weight} has no partition representative of size {total}")
    c = excess // (n + 1)
    return tuple(p + c for p in minimal)


def _validated_parts(n: int, parts) -> tuple[int, ...]:
    p = tuple(int(v) for v in parts)
    if len(p) > n + 1:
        raise DomainError(f"partition {p} has more than {n + 1} parts")
    p = p + (0,) * (n + 1 - len(p))
    if any(a < b for a, b in zip(p, p[1:])) or p[-1] < 0:
        raise DomainError(f"{parts} is not a partition")
    return p


def hook_multiplicity(n: int, parts) -> int:
    """Multiplicity of the module of a partition of N inside the N-th power
    of the A_n vector representation, as an exact integer.

    Evaluated via the factorial form of the hook length formula on the
    shifted rows l_i + (n+1) - i, as one exact integer quotient.
    """
    p = _validated_parts(n, parts)
    shifted = [p[i] + n - i for i in range(n + 1)]
    num = math.factorial(sum(p))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            num *= shifted[i] - shifted[j]
    value, rem = divmod(num, math.prod(map(math.factorial, shifted)))
    if rem:
        raise DomainError(f"hook formula is not integral on {parts}")
    return value


def hook_sweep(max_power: int):
    """Check each multiplicity of the A1-A3 vector rep's powers 1..max_power.

    Yields (algebra, N, lambda, matches) per highest weight, where matches
    says whether the Klimyk multiplicity equals the hook-length formula.
    Each algebra folds one chain: power N is power N - 1 times V, one
    fold per power, its highest weights in the sorted order of the fold.
    """
    for n in (1, 2, 3):
        branching = Branching(build_root_system(f"A{n}"), (1,) + (0,) * (n - 1))
        keys, values = np.zeros((1, n), dtype=np.int64), np.array([1], dtype=object)
        for big_n in range(1, max_power + 1):
            _, keys, values = branching.fold(keys, values)
            for lam, mult in zip(map(tuple, keys.tolist()), values.tolist()):
                yield f"A{n}", big_n, lam, hook_multiplicity(n, partition_from_weight(n, lam, big_n)) == mult


def sigma_from_xi(n: int, tau: float, xi) -> np.ndarray:
    """Scaled row lengths sigma_i = tau/(n+1) + xi_i - xi_{i-1} (xi in root coords)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise DomainError(f"xi must have shape ({n},)")
    padded = np.concatenate(([0.0], xi, [0.0]))
    return tau / (n + 1) + padded[1:] - padded[:-1]


def sln_rate(tau: float, sigma) -> float:
    """Rate function tau ln tau - sum sigma_i ln sigma_i."""
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise DomainError("sigma must be strictly positive")
    if abs(float(sigma.sum()) - tau) > 1e-9 * max(1.0, abs(tau)):
        raise DomainError(f"sigma sums to {sigma.sum()}, expected tau = {tau}")
    return float(tau * math.log(tau) - np.sum(sigma * np.log(sigma)))


class SlnClosedForm(NamedTuple):
    """Closed-form Legendre data for the A_n vector representation at (tau, xi)."""

    n: int
    tau: float
    xi: tuple[float, ...]
    sigma: tuple[float, ...]
    S: float
    x: tuple[float, ...]
    log_chi: float
    det_K: float
    log_prefactor: float


def sln_legendre_closed_form(n: int, tau: float, xi) -> SlnClosedForm:
    """All Legendre-transform quantities for A_n / vector rep in closed form.

    The dual point, character value, Hessian determinant, and the full
    log-prefactor of the multiplicity asymptotics are rational-log
    expressions in the sigma_i.  The prefactor uses ln|sigma_i - sigma_j|,
    matching the generic code's ln|Delta(x)|; it is -inf when two sigma
    coincide (xi on a chamber wall).
    """
    xi = np.asarray(xi, dtype=float)
    sigma = sigma_from_xi(n, tau, xi)
    if np.any(sigma <= 0):
        raise LegendreDomainError(f"sigma {tuple(sigma)} leaves the positive simplex")
    log_sigma = np.log(sigma)
    total_log = float(log_sigma.sum())

    S = sln_rate(tau, sigma)
    x = tuple(
        float(np.sum(log_sigma[: k + 1]) - (k + 1) / (n + 1) * total_log) for k in range(n)
    )
    log_chi = math.log(tau) - total_log / (n + 1)
    det_K = float(tau / np.prod(sigma))

    vandermonde = 0.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            diff = abs(sigma[i] - sigma[j])
            vandermonde += math.log(diff) if diff > 0 else -math.inf
    weighted = float(np.sum([(-n + i - 1.5) * log_sigma[i - 1] for i in range(1, n + 2)]))
    log_prefactor = (
        -0.5 * n * math.log(2 * math.pi) + 0.5 * math.log(tau) + vandermonde + weighted
    )
    return SlnClosedForm(
        n=n,
        tau=float(tau),
        xi=tuple(float(v) for v in xi),
        sigma=tuple(float(s) for s in sigma),
        S=S,
        x=x,
        log_chi=float(log_chi),
        det_K=det_K,
        log_prefactor=float(log_prefactor),
    )

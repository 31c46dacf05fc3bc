#!/usr/bin/env python3
"""Sweep N and watch the exact log-multiplicity approach its asymptotic form.

For a fixed direction xi the exact eps * ln m(lambda_N) should converge to
S(xi) with the predicted power-law corrections; this prints the error table
used to eyeball that convergence, for a type A1 and a type A2 example.
"""

import argparse
import math
from dataclasses import dataclass

from tensorstat import (
    AlgebraSpec,
    asymptotic_log_multiplicity,
    build_root_system,
    rate_point,
    tensor_power_decompose,
    tensor_problem,
)


@dataclass(frozen=True)
class SweepCase:
    algebra: str
    rep: tuple[int, ...]
    lam_of_n: callable
    powers: tuple[int, ...]


CASES = [
    SweepCase("A1", (1,), lambda n: (2 * n // 10,), (50, 100, 200, 400, 800)),
    SweepCase("A2", (1, 0), lambda n: (4 * n // 30, n // 30), (30, 60, 120, 240)),
]


def run_case(case: SweepCase) -> None:
    rs = build_root_system(AlgebraSpec.parse(case.algebra))
    print(f"\n{case.algebra}, V = V({case.rep}):")
    print(f"{'N':>6} {'lambda':>12} {'eps ln m':>12} {'S(xi)':>12} {'|rel err|':>12}")
    prev = None
    for n in case.powers:
        lam = case.lam_of_n(n)
        table = tensor_power_decompose(rs, [(case.rep, n)])
        if lam not in table.entries:
            print(f"{n:>6} {str(lam):>12} {'absent':>12}")
            continue
        problem = tensor_problem(rs, [(case.rep, n)])
        xi = rs.root_points([lam])[0] * problem.epsilon
        exact = problem.epsilon * math.log(table.entries[lam])
        s_val = rate_point(problem, xi).S
        # full asymptotic including the prefactor, on the raw log scale
        full = asymptotic_log_multiplicity(problem, lam)
        rel = abs(full - math.log(table.entries[lam])) / abs(math.log(table.entries[lam]))
        marker = "" if prev is None or rel < prev else "  <- not decreasing"
        print(f"{n:>6} {str(lam):>12} {exact:>12.6f} {s_val:>12.6f} {rel:>12.3e}{marker}")
        prev = rel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", choices=("A1", "A2", "all"), default="all")
    args = parser.parse_args()
    for case in CASES:
        if args.case in ("all", case.algebra):
            run_case(case)


if __name__ == "__main__":
    main()

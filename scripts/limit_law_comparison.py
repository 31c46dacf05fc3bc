#!/usr/bin/env python3
"""Total-variation distance between rescaled character measures and their limits.

Three regimes on A1 (one per limit law) plus the A2 chambered law, each on
the default comparison grid of weak_convergence_distance: aligned with the
rescaled weight lattice, so the numbers measure weak convergence rather
than binning artifacts.
"""

import argparse

import numpy as np

from tensorstat import (
    AlgebraSpec,
    build_root_system,
    character_measure,
    hessian_at_origin,
    tensor_power_decompose,
    tensor_problem,
    weak_convergence_distance,
)


def limit_tv(rs, rep, n, kind, t=None):
    table = tensor_power_decompose(rs, [(rep, n)])
    m = character_measure(table, t=t, with_asymptotics=False)
    return weak_convergence_distance(m, kind).tv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--powers", default="50,100,200,400", help="comma-separated N values")
    parser.add_argument("--u", type=float, default=0.7, help="intermediate-regime parameter")
    args = parser.parse_args()
    powers = [int(v) for v in args.powers.split(",")]

    a1 = build_root_system(AlgebraSpec.parse("A1"))
    a2 = build_root_system(AlgebraSpec.parse("A2"))

    print(f"{'law':>22} {'algebra':>8} " + " ".join(f"N={n:<6}" for n in powers))

    rows = []
    rows.append(("plancherel (t = 0)", "A1", [limit_tv(a1, (1,), n, "plancherel") for n in powers]))
    rows.append(
        (
            "gaussian (fixed t)",
            "A1",
            [limit_tv(a1, (1,), n, "gaussian", t=np.array([0.5])) for n in powers],
        )
    )
    inter = []
    for n in powers:
        # t shrinks like sqrt(eps): the chamber law deforms but never freezes
        problem = tensor_problem(a1, [((1,), n)])
        x, _ = hessian_at_origin(problem)
        t = np.array([args.u * np.sqrt(problem.epsilon / x)])
        inter.append(limit_tv(a1, (1,), n, "intermediate", t=t))
    rows.append((f"intermediate (u = {args.u})", "A1", inter))
    rows.append(("plancherel (t = 0)", "A2", [limit_tv(a2, (1, 0), n, "plancherel") for n in powers if n <= 200]))

    for name, algebra, tvs in rows:
        cells = " ".join(f"{tv:<8.4f}" for tv in tvs)
        print(f"{name:>22} {algebra:>8} {cells}")


if __name__ == "__main__":
    main()

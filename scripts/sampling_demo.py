#!/usr/bin/env python3
"""Monte Carlo random walk on dominant weights versus the exact evolution.

Prints the empirical endpoint law next to the exact one, the 1/sqrt(chains)
error scaling, and a determinism check (the same seed run twice gives
bit-identical trajectories).
"""

import argparse

import numpy as np

from tensorstat import (
    AlgebraSpec,
    build_root_system,
    evolve_exact,
    sample_paths,
    trajectories_to_jsonl,
)


def tv(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="A2")
    parser.add_argument("--rep", default="1,0", help="fundamental-weight coordinates")
    parser.add_argument("--t", default="0.1,0.2", help="root-basis temperature, empty for t = 0")
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20240819)
    args = parser.parse_args()

    rs = build_root_system(AlgebraSpec.parse(args.algebra))
    rep = tuple(int(c) for c in args.rep.split(","))
    t = np.array([float(c) for c in args.t.split(",")]) if args.t else None

    exact = evolve_exact(rs, rep, t, args.steps).probabilities()
    print(f"{args.algebra}, V = V({rep}), {args.steps} steps, t = {args.t or '0'}")
    print(f"exact support: {len(exact)} states")

    print("\nerror scaling:")
    print(f"{'chains':>10} {'TV':>10} {'TV * sqrt(chains)':>20}")
    for chains in (1_000, 10_000, 100_000):
        m, _ = sample_paths(rs, rep, t, args.steps, chains, args.seed, keep_paths=False)
        d = tv(m.probabilities(), exact)
        print(f"{chains:>10} {d:>10.5f} {d * np.sqrt(chains):>20.3f}")

    print("\ntop states, 100k chains vs exact:")
    m, _ = sample_paths(rs, rep, t, args.steps, 100_000, args.seed, keep_paths=False)
    emp = m.probabilities()
    top = sorted(exact, key=exact.get, reverse=True)[:8]
    print(f"{'state':>14} {'exact':>10} {'empirical':>10}")
    for lam in top:
        print(f"{str(lam):>14} {exact[lam]:>10.5f} {emp.get(lam, 0.0):>10.5f}")

    blobs = [trajectories_to_jsonl(sample_paths(rs, rep, t, 6, 2_000, args.seed)[1]) for _ in range(2)]
    same = blobs[0] == blobs[1]
    print(f"\nsame-seed repeat (2000 chains): {'identical' if same else 'MISMATCH'}")


if __name__ == "__main__":
    main()

"""Time the segment composition kernel on its own.

The composition kernel dominates two real workloads: the brute-force
completeness oracle for the equation solvers (millions of candidate
compositions) and the randomized algebraic-law audits.  Run:

    python benchmarks/bench_kernels.py [--n 200000]
"""

import argparse
import random
import time

from cofinj import _kernel
from cofinj.core import random_element


def bench(fn, pairs, n):
    t0 = time.perf_counter()
    i = 0
    while i < n:
        for a, b in pairs:
            fn(a, b)
        i += len(pairs)
    dt = time.perf_counter() - t0
    return dt / n * 1e9


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=200_000, help="compositions per workload")
    args = ap.parse_args()

    rng = random.Random(0)
    small = [
        (random_element(rng, 2, 2).segments, random_element(rng, 2, 2).segments)
        for _ in range(200)
    ]
    wide = [
        (random_element(rng, 6, 4).segments, random_element(rng, 6, 4).segments)
        for _ in range(200)
    ]

    for label, pairs in [("small (<=2 gaps)", small), ("wide (<=6 gaps)", wide)]:
        ns = bench(_kernel.compose_segments, pairs, args.n)
        print(f"{label:18s} {ns:9.1f} ns/op")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Eigenvalue scan of h = f^* * f over random f on small finite groups.

For every twist angle in the scan the bicharacter values are roots of
unity, the left-convolution matrix of h is similar to A^H A, and all
eigenvalues should be real and nonnegative up to rounding.  Prints the
worst scaled excursions seen.
"""

import argparse
import math

import numpy as np

from torlicz import (
    AlgebraContext,
    FunctionBatch,
    bicharacter_cocycle,
    cyclic_group,
    cyclic_product_group,
    finite_symmetry_check,
    parse_pair,
    random_supported_function,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pair", default="Lp:2")
    args = ap.parse_args()

    pair = parse_pair(args.pair)
    cases = []
    for n in (3, 4, 6, 8):
        cases.append((cyclic_group(n), None))
    cases.append((cyclic_product_group((2, 2)), math.pi))
    worst_overall = 0.0
    for group, theta in cases:
        om = bicharacter_cocycle(group, theta)
        ctx = AlgebraContext(cocycle=om, pair=pair)
        rng = np.random.default_rng(args.seed)
        fs = [random_supported_function(group, rng) for _ in range(args.trials)]
        rep = finite_symmetry_check(FunctionBatch.of(group, fs), ctx)
        worst_real = min(0.0, float((rep.min_real / rep.scale).min()))
        worst_imag = max(0.0, float((rep.max_imag / rep.scale).max()))
        print(
            f"{group.name}: worst min(Re)/|h| = {worst_real:.3e}, "
            f"worst |Im|/|h| = {worst_imag:.3e} over {args.trials} trials"
        )
        worst_overall = max(worst_overall, abs(worst_real), worst_imag)
    print(f"overall worst excursion: {worst_overall:.3e}")
    return 0 if worst_overall <= 1e-8 else 1


if __name__ == "__main__":
    raise SystemExit(main())

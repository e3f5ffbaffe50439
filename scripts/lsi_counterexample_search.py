#!/usr/bin/env python3
"""Search for matrix-valued cube functions violating the tight scalar
log-Sobolev constant, and confirm scalar tightness.

Runs the hill-climbing search at d = 2 over cube dimensions 1..3, prints
the best objective Ent(f^2) - 2 E(f) per dimension, saves the best
witness, and repeats at d = 1 where the objective must stay nonpositive.
"""

import argparse
import json
from pathlib import Path

from matphi.formats import witness_payload
from matphi.fourier import search_lsi_counterexample


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--scalar-restarts", type=int, default=2000)
    parser.add_argument("--out", default="lsi_witness.json")
    args = parser.parse_args()

    best = None
    for n in (1, 2, 3):
        result = search_lsi_counterexample(
            d=2, n=n, restarts=args.restarts, seed=args.seed
        )
        status = "violation" if result.found else "none"
        print(
            f"d=2 n={n}: {status}  Ent={result.entropy:.6f} "
            f"2E={2 * result.energy:.6f} objective={result.objective:.3e}"
        )
        if best is None or result.objective > best.objective:
            best = result

    if best is not None and best.found:
        Path(args.out).write_text(json.dumps(witness_payload(best), indent=1))
        print(f"best witness saved to {args.out}")

    scalar = search_lsi_counterexample(
        d=1, n=1, restarts=args.scalar_restarts, seed=args.seed
    )
    print(
        f"d=1 control over {args.scalar_restarts} restarts: "
        f"max objective = {scalar.objective:.3e} (tight bound, expected <= 0)"
    )


if __name__ == "__main__":
    main()

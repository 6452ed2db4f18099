"""Reproduce the reference operating-characteristic tables.

Runs the open-ended step-down procedure over the correlated count-data
benchmark (J = 10 streams, Toeplitz rho = -0.6 copula, q1 = 0.25,
q2 = 0.15) for the Binomial and Poisson families at m0 in {0, 5, 10},
then matches a fixed-sample BH comparator to the achieved FNR of the
mixed Binomial row and the all-signal Poisson row.  With the default
seed and 10^4 replicates per cell this takes a couple of minutes and
prints the two tables plus the benchmark rows.
"""

from __future__ import annotations

import argparse
import time

from seqfdr.cli import SimulationConfig, run_simulation
from seqfdr.datagen import CopulaConfig, Toeplitz
from seqfdr.fixed_sample import find_matching_fss
from seqfdr.sprt import SimpleModel

FAMILIES = {
    "bernoulli": (0.05, 0.15),
    "poisson": (1.5, 2.0),
}
J = 10
Q1, Q2 = 0.25, 0.15
RHO = -0.6
FSS_ROWS = (("bernoulli", 5), ("poisson", 0))


def run_family(family: str, args) -> dict[int, object]:
    null, alt = FAMILIES[family]
    out = {}
    print(f"\n{family} ({null} vs {alt}), rho={RHO}, {args.reps} reps/cell")
    print(f"{'m0':>4} {'fdr':>8} {'fnr':>8} {'pfdr':>8} {'EN_seq':>8}")
    for m0 in (0, 5, 10):
        cfg = SimulationConfig(
            family=family, null_param=null, alt_param=alt, j=J, m0=m0,
            rho=RHO, q1=Q1, q2=Q2, mode="open", reps=args.reps, seed=args.seed,
        )
        summary, _ = run_simulation(cfg, workers=args.workers)
        pfdr = f"{summary.pfdr:8.3f}" if summary.pfdr is not None else "       -"
        print(f"{m0:>4} {summary.fdr:8.3f} {summary.fnr:8.3f} {pfdr}"
              f" {summary.mean_stream_n:8.1f}")
        out[m0] = summary
    return out


def run_benchmark(summaries, args) -> None:
    print("\nfixed-sample BH benchmark (matched to the achieved FNR)")
    print(f"{'family':>10} {'m0':>4} {'n_fss':>6} {'fnr_fss':>8} {'fnr_se':>8} {'savings':>8}")
    for family, m0 in FSS_ROWS:
        null, alt = FAMILIES[family]
        s = summaries[family][m0]
        res = find_matching_fss(
            SimpleModel(family, null, alt),
            CopulaConfig(j=J, structure=Toeplitz(RHO), seed=args.seed),
            [True] * m0 + [False] * (J - m0),
            Q1, s.fnr, args.reps, n_max=400,
        )
        savings = 1.0 - s.mean_stream_n / res.n_fss
        print(f"{family:>10} {m0:>4} {res.n_fss:>6} {res.achieved_fnr:8.3f}"
              f" {res.fnr_se:8.4f} {savings:8.1%}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=positive_int, default=10_000,
                        help="Monte Carlo replicates per cell (default 10000)")
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="cap on the pool that runs each cell's trial batches "
                             "(default 1: in process)")
    args = parser.parse_args()

    t0 = time.time()
    summaries = {family: run_family(family, args) for family in FAMILIES}
    run_benchmark(summaries, args)
    print(f"\ntotal {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""MSE-vs-accuracy study: adaptive estimator error against its query budget.

Runs Monte-Carlo trials of every QGE method over an epsilon grid on the
N=4, eta=2, k=2 benchmark (66 observables), and writes one CSV row per
(method, epsilon) with the worst-case and mean MSE, total queries, and the
violation-run fraction.  The MSE contract says max MSE <= eps^2 throughout.

Usage:
    python3 scripts/run_mse_study.py --trials 200 --out mse_study.csv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from qgelab import cost, engine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--N", type=int, default=4)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--eta", type=int, default=2)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.05, 0.02])
    parser.add_argument("--out", default="mse_study.csv")
    args = parser.parse_args(argv)

    problem = engine.krdm_problem(args.N, args.k, args.eta, np.random.default_rng(args.seed))
    exact = problem.exact
    print(f"benchmark: N={args.N} k={args.k} eta={args.eta} M={problem.M}")

    rows = []
    for method in cost.QGE_METHODS:
        for eps in args.eps:
            config = engine.ScheduleConfig(epsilon=eps, method=method)
            runs = engine.run_many(problem, config, args.seed, args.trials, args.jobs)
            mse = engine.mse_per_observable(runs, exact)
            row = (
                method, eps, float(mse.max()), float(mse.mean()),
                runs.ledger.total, engine.violation_run_fraction(runs, exact),
            )
            rows.append(row)
            verdict = "ok" if row[2] <= eps**2 else "EXCEEDS eps^2"
            print(
                f"{method:>10} eps={eps:<6g} max_mse={row[2]:.3e} mean_mse={row[3]:.3e} "
                f"queries={row[4]:.4g} violations={row[5]:.3g}  [{verdict}]"
            )

    with open(args.out, "w") as fh:
        fh.write("method,epsilon,max_mse,mean_mse,total_queries_oracle_calls,violation_run_fraction\n")
        for row in rows:
            fh.write("%s,%.12g,%.12g,%.12g,%.12g,%.12g\n" % row)
        fh.write(f"# provenance,qgelab-mse-study,seed={args.seed},trials={args.trials}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

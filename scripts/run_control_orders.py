#!/usr/bin/env python3
"""Reproduce the scenario-2 study: node-wise control error of the fully
coupled discrete optimization vs step count on the stiff Dirichlet benchmark.

Writes report.csv / report.txt / report.gp into the output directory."""

import argparse

from heatoc import ExperimentConfig, emit_report, render_table, run_scenario2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out_scenario2")
    ap.add_argument("--m", type=int, nargs="+", default=[250])
    ap.add_argument("--methods", nargs="+", default=["gauss2", "lobatto3"])
    ap.add_argument("--kmax", type=int, default=9, help="largest N is 2^kmax")
    ap.add_argument("--grad-tol", type=float, default=1e-10)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    cfg = ExperimentConfig(
        m_values=tuple(args.m),
        methods=tuple(args.methods),
        N_values=tuple(2**k for k in range(4, args.kmax + 1)),
        scenario=2,
        grad_tol=args.grad_tol,
        jobs=args.jobs,
    )
    report = run_scenario2(cfg)
    print(render_table(report))
    paths = emit_report(report, args.out)
    for fmt, path in paths.items():
        print(f"wrote {fmt}: {path}")


if __name__ == "__main__":
    main()

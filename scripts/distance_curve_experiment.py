"""Recover a planted inverted-U impact curve from a synthetic cohort.

Generates a covariate table whose outcome peaks at a known topic distance,
fits the nested model ladder plus a standalone quadratic, and prints the
recovered coefficients next to the planted values.

Usage:
    python3 scripts/distance_curve_experiment.py [--seed 42] [--n 2000] [--bins 20]
"""

import argparse

from cocite.stats import equal_count_bins, fit_model_ladder, fit_quadratic
from cocite.synth import planted_regression_cohort


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--bins", type=int, default=20)
    args = ap.parse_args()

    table, truth = planted_regression_cohort(seed=args.seed, n=args.n)
    ladder = fit_model_ladder(table)

    print(f"cohort: n={args.n} seed={args.seed} planted peak={truth['peak']}")
    print("\nmodel ladder (R^2):")
    for name, fit in ladder:
        print(f"  {name:12s} r2={fit.r2:.4f} adj_r2={fit.adj_r2:.4f} n={fit.n}")

    full = dict(ladder)["m6_full"]
    print("\nfull model coefficients (planted value in brackets):")
    for name in full.names:
        beta, se, _, p = full.coef(name)
        target = truth.get(name)
        bracket = f" [{target:+.3f}]" if target is not None else ""
        print(f"  {name:20s} {beta:+.4f} (se {se:.4f}, p {p:.2e}){bracket}")

    quad = fit_quadratic(table["ave_distance"], table["mentee_total_impact"])
    shape = "inverted U" if quad.inverted_u else "not inverted U"
    print(f"\nraw quadratic: peak at {quad.peak_x:.3f} ({shape}, p {quad.p_curvature:.2e})")

    curve = equal_count_bins(table["ave_distance"], table["mentee_total_impact"], n_bins=args.bins)
    top = max(range(len(curve.mean_y)), key=lambda i: curve.mean_y[i])
    print(f"binned curve:  {args.bins} bins, highest mean outcome near x={curve.mean_x[top]:.3f}")


if __name__ == "__main__":
    main()

"""Compare the two cures for feed-induced washout, tank by tank.

A bistable chemostat can be rescued either by enlarging the main vessel
until the washout state loses stability, or by running a small buffered
side tank.  For feeds across the bistable range this script computes the
minimal extra volume fraction of the enlargement cure (delta_v_inf) and
the minimal buffer fraction (v2_inf), plus the dilution d2_star the
buffer should run at.

Writes <out>/volume_comparison.csv with one row per feed level.
"""
from __future__ import annotations

import argparse
import os

from bufchem import Haldane, buffer_design, min_enlargement_ratio
from bufchem.io import ensure_out_dir, write_csv


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dilution", type=float, default=1.0)
    p.add_argument("--mu-bar", type=float, default=12.0)
    p.add_argument("--k", type=float, default=1.0, help="half-saturation")
    p.add_argument("--k-i", type=float, default=0.08, help="inhibition")
    p.add_argument("--max-feed", type=float, default=3.0)
    p.add_argument("--points", type=int, default=30)
    p.add_argument("--out", default="results")
    args = p.parse_args(argv)
    if args.points < 1:
        p.error("--points must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    model = Haldane(args.mu_bar, args.k, args.k_i)
    window = model.break_even(args.dilution)
    if window is None or not window.has_finite_upper:
        raise SystemExit("this comparison needs inhibited kinetics with a "
                         "finite upper break-even at the given dilution")
    lam_plus = window.upper
    feeds = [lam_plus + k * (args.max_feed - lam_plus) / args.points
             for k in range(1, args.points + 1)]

    rows = []
    for s_in in feeds:
        delta = min_enlargement_ratio(model, s_in, args.dilution)
        report = buffer_design(model, s_in, args.dilution)
        rows.append((s_in, delta, report.v2_inf, report.v2_inf / delta,
                     report.d2_star))

    ensure_out_dir(args.out)
    write_csv(os.path.join(args.out, "volume_comparison.csv"),
              ["S_in", "delta_v_inf", "v2_inf", "ratio", "d2_star"], rows)

    worst = max(r[3] for r in rows)
    print(f"{len(rows)} feeds in ({lam_plus:.4f}, {args.max_feed}]; the "
          f"buffer never needs more than {100.0 * worst:.1f}% of the "
          "volume the enlargement cure needs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Map the basins of a bistable single-vessel chemostat.

Probes an n-by-n grid of initial states over (0, S_in)^2, integrating
each one until it settles on the surviving equilibrium or on washout.
The labels matter because they quantify the operational risk: every grid
point in the washout basin is a start-up condition from which the
reactor dies even though a healthy steady state exists.

Writes <out>/basin_map.csv with rows (S0, X0, basin), where basin is
"survival", "washout", or "unresolved".
"""
from __future__ import annotations

import argparse
import os

from bufchem import SingleParams, Haldane, basin_probe, classify_portrait
from bufchem.io import ensure_out_dir, write_csv
from bufchem.single import TAG_POSITIVE_ATTRACTING, TAG_WASHOUT_ATTRACTING

_NAMES = {0: "survival", 1: "washout", None: "unresolved"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--s-in", type=float, default=1.4, help="feed level")
    p.add_argument("--dilution", type=float, default=1.0)
    p.add_argument("--mu-bar", type=float, default=12.0)
    p.add_argument("--k", type=float, default=1.0, help="half-saturation")
    p.add_argument("--k-i", type=float, default=0.08, help="inhibition")
    p.add_argument("--grid", type=int, default=20, help="points per axis")
    p.add_argument("--out", default="results")
    args = p.parse_args(argv)
    if args.grid < 1:
        p.error("--grid must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    model = Haldane(args.mu_bar, args.k, args.k_i)
    params = SingleParams(model, args.s_in, args.dilution)
    portrait = classify_portrait(params)
    survivors = [e for e in portrait.equilibria
                 if e.tag == TAG_POSITIVE_ATTRACTING]
    sinks = [e for e in portrait.equilibria
             if e.tag == TAG_WASHOUT_ATTRACTING]
    if not survivors or not sinks:
        raise SystemExit(f"scenario is {portrait.case}, not bistable: "
                         "no basin boundary to map")

    n = args.grid
    grid = [(args.s_in * (i + 0.5) / n, args.s_in * (j + 0.5) / n)
            for i in range(n) for j in range(n)]
    labels = basin_probe(params, grid, None,
                         (survivors[0], sinks[0]), eps=1e-6)

    ensure_out_dir(args.out)
    write_csv(os.path.join(args.out, "basin_map.csv"),
              ["S0", "X0", "basin"],
              [(s, x, _NAMES[lab]) for (s, x), lab in zip(grid, labels)])

    total = len(grid)
    died = labels.count(1)
    print(f"{total} starts: {labels.count(0)} survive, {died} wash out "
          f"({100.0 * died / total:.1f}% of the operating square)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

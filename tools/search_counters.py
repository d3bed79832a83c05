"""Print the plan search's counters on fixed instances, per solver seed.

The counters of a search (conflicts, decisions, propagations) are a
fixed function of the instance and the solver seed, so they compare
searches without timing noise.  For `plan` on `build_toh(D)` for each
disk count given (3, 4 and 5 by default) and on the two-robot 5x5 open
grid of test_search_counters_on_mapp_5x5_are_pinned, at solver seeds
0 to --seeds - 1, this prints the plan's horizon and the counters of the
one growing solver, with each instance's sums over the seeds.

With --against PATH, each row also shows the numbers of the checkout at
PATH, and each sum the ratio of this checkout's conflicts, decisions
and propagations to the other's.  Each checkout runs once, in a fresh
interpreter, against its own src/.  No number is checked: the script
only reports.

    python tools/search_counters.py                        # toh 3-5 and mapp 5x5, seeds 0-5
    python tools/search_counters.py --against ../parent
    python tools/search_counters.py --disks 6 --seeds 3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from time_setup import at_least_one, checkouts, run_child

COLUMNS = ("horizon", "conflicts", "decisions", "propagations")


def child(root: str, seeds: str, *disks: str) -> None:
    """One run, in this fresh process, with the package from root; prints
    [instance, seed, horizon, conflicts, decisions, propagations] rows as
    JSON."""
    sys.path.insert(0, str(Path(root, "src")))
    from causalplan import PlanFound, parse_world, plan, planner
    from causalplan.domains import build_mapp, build_toh
    made = []

    class Counted(planner.Solver):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    planner.Solver = Counted
    bundles = [(f"toh {d}", build_toh(int(d))) for d in disks]
    bundles.append(("mapp 5x5", build_mapp(parse_world("\n".join(["....."] * 5)), 2,
                                           [(0, 0), (4, 4)], [(4, 4), (0, 0)])))
    rows = []
    for name, b in bundles:
        for seed in range(int(seeds)):
            made.clear()
            out = plan(b.domain, b.problem, b.registry, seed=seed)
            if not isinstance(out, PlanFound):
                sys.exit(f"{name} seed {seed}: no plan found: {out}")
            st = made[0].stats
            rows.append([name, seed, out.horizon, st.conflicts, st.decisions, st.propagations])
    print(json.dumps(rows))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--disks", type=at_least_one, nargs="+", default=[3, 4, 5],
                    help="the Hanoi disk counts (default 3 4 5)")
    ap.add_argument("--seeds", type=at_least_one, default=6,
                    help="solver seeds 0 to SEEDS - 1 (default 6)")
    ap.add_argument("--against", type=Path, help="another checkout to compare with")
    ap.add_argument("--child", nargs="+", metavar="ARG", help=argparse.SUPPRESS)
    a = ap.parse_args(argv)
    if a.child:
        child(*a.child)
        return 0
    sides = checkouts(ap, a.against)
    rows = {name: run_child(__file__, root, a.seeds, *a.disks) for name, root in sides.items()}

    for name, root in sides.items():
        print(f"{name}: {root}")
    cols = "".join(f"{c:>13}" for c in COLUMNS)
    print(f"{'instance':10}{'seed':>5}{cols}" + (f"   against:{cols}" if a.against else ""))
    gap = " " * 10
    for i, row in enumerate(rows["this"]):
        print(f"{row[0]:10}{row[1]:5}" + gap.join(
            "".join(f"{x:13,}" for x in got[i][2:]) for got in rows.values()))
    # the sums leave the horizon out
    for name in dict.fromkeys(row[0] for row in rows["this"]):
        sums = [[sum(row[k] for row in got if row[0] == name) for k in (3, 4, 5)]
                for got in rows.values()]
        line = f"{name:10}{'sum':>5}" + gap.join(
            " " * 13 + "".join(f"{x:13,}" for x in total) for total in sums)
        if len(sums) == 2:
            line += "   this/against: " + " ".join(
                f"{t / o:.3f}" if o else "-" for t, o in zip(*sums))
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

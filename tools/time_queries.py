"""Time whole passes of one benchmark workload's queries, in fresh processes.

Each run is a fresh interpreter that sets up the instances of one
workload and seed (bench/instances.py generates the texts, and
bench/workloads.py turns them into sessions of library calls, as the
benchmark does), runs one pass untimed so that every domain's caches are
filled, then runs whole passes for about --seconds.  Only the library
calls are timed, each after a gc.collect(); every answer is checked as
the benchmark checks it, and a wrong one stops the script.  A run
reports the median time of its passes.

With --against PATH, runs alternate between this checkout and the one at
PATH, starting with a different side in each pair.  Both sides run the
same texts, from this checkout's bench/, against their own src/.  The
report gives each side's median pass time and queries per second with
their quartiles over the runs, and the speed-up of this checkout (the
other side's pass time over this one's) per pair, as a median with its
quartiles.  No number is checked: the script only measures.

    python tools/time_queries.py --workload toh-deepen        # 10 runs, seed 1
    python tools/time_queries.py --workload mapp-wide --seed 7 --runs 20 --against ../parent
    python tools/time_queries.py --workload boxes-session --runs 1 --seconds 1
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from time_setup import alternated, at_least_one, checkouts, quartiles, run_child

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("toh-deepen", "mapp-wide", "boxes-session")


def child(root: str, workload: str, seed: int, seconds: float) -> None:
    """One run, in this fresh process, with the package from root; prints
    the number of calls per pass and each timed pass's time as JSON."""
    sys.path.insert(0, str(Path(root, "src")))
    sys.path.insert(1, str(BENCH))
    import workloads
    w = workloads.WORKLOADS[workload](seed)
    ready = [w.setup_one(i) for i in range(len(w.items))]

    def run_pass() -> tuple[int, float]:
        calls, spent = 0, 0.0
        for _, session in w.sessions(ready):
            for op in session:
                gc.collect()
                t0 = time.perf_counter()
                answer = op.call()
                spent += time.perf_counter() - t0
                bad = op.check(answer)
                if bad is not None:
                    sys.exit(f"{workload} seed {seed}, {op.kind}: {bad}")
                calls += 1
        return calls, spent

    calls, _ = run_pass()  # warm-up
    passes: list[float] = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(run_pass()[1])
    print(json.dumps({"calls": calls, "passes": passes}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="toh-deepen",
                    help="the benchmark workload whose queries to time (default toh-deepen)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--runs", type=at_least_one, default=10,
                    help="runs per checkout (default 10)")
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="timed passes per run last about this long (default 5)")
    ap.add_argument("--against", type=Path, help="another checkout to alternate with")
    ap.add_argument("--child", nargs=4, metavar=("ROOT", "WORKLOAD", "SEED", "SECONDS"),
                    help=argparse.SUPPRESS)
    a = ap.parse_args(argv)
    if a.child:
        root, workload, seed, seconds = a.child
        child(root, workload, int(seed), float(seconds))
        return 0
    sides = checkouts(ap, a.against)
    runs = alternated(sides, a.runs,
                      lambda root: run_child(__file__, root, a.workload, a.seed, a.seconds))

    calls = runs["this"][0]["calls"]
    print(f"{a.workload} seed {a.seed}: {a.runs} fresh-process run(s) per checkout, "
          f"{calls} calls per pass; median [q1, q3] over the runs of each run's median pass")
    pass_s = {name: [statistics.median(r["passes"]) for r in rs] for name, rs in runs.items()}
    for name, root in sides.items():
        n_passes = sum(len(r["passes"]) for r in runs[name])
        q1, q2, q3 = quartiles([t * 1e3 for t in pass_s[name]])
        qps = quartiles([calls / t for t in pass_s[name]])
        print(f"  {name:8} pass {q2:9.1f} ms [{q1:.1f}, {q3:.1f}]   "
              f"queries/s {qps[1]:8.2f} [{qps[0]:.2f}, {qps[2]:.2f}]   "
              f"{n_passes} timed passes   {root}")
    if len(sides) == 2:
        ratios = [b / t for t, b in zip(pass_s["this"], pass_s["against"])]
        q1, q2, q3 = quartiles(ratios)
        wins = sum(x > 1 for x in ratios)
        print(f"  speed-up of this over against: {q2:.3f} [{q1:.3f}, {q3:.3f}]; "
              f"this is faster in {wins} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

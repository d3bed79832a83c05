"""Steadiness check: run each workload repeatedly and report the spread.

    python3 bench/steady.py                      # every workload, 10 runs each
    python3 bench/steady.py --workloads mapp-wide --runs 5
    python3 bench/steady.py --against bench/out/steady-A.json

Run from the root of the checkout.  Each run is a fresh process of
run.py with its own seed (seed-base, seed-base + 1, ...) and the run
length from BENCHMARK.json.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound, plus the share of failed
operations, the speed probe that each run times before and after its
workload, and the spread of the unscaled wall-clock figures and of the
in-run probe tick.  With --against, it also prints how far each median moved from
an earlier result file, as a share of that earlier median.  Results go
to bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = next(l for l in lines if l.startswith("speed probe:")).split()
    result["probe_s"] = [float(probe[2]), float(probe[5])]
    wall = next(l for l in lines if l.startswith("wall clock, unscaled:")).split()[3:]
    result["wall"] = {k: float(v) for k, v in (kv.split("=") for kv in wall)}
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--against", help="an earlier steady-*.json to compare medians with")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            r = one_run(workload, args.seed_base + i, spec["run_seconds"])
            runs.append(r)
            print(f"{workload} seed {args.seed_base + i}: attempted {r['attempted']}, "
                  f"failed {r['failed']}, correct {r['correct']}, " + ", ".join(
                      f"{k} {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()),
                  flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        entry = {"failed_share": shares, "metrics": {},
                 "probe_s": summary([p for r in runs for p in r["probe_s"]])}
        for name in bounds:
            entry["metrics"][name] = summary([r["metrics"][name]["value"] for r in runs])
        entry["wall"] = {k: summary([r["wall"][k] for r in runs]) for k in runs[0]["wall"]}
        report[workload] = entry
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}, speed probe median "
              f"{entry['probe_s']['median']:.4f} s, spread {entry['probe_s']['spread']:.3f}")
        for name, s in entry["metrics"].items():
            verdict = ("steady" if s["spread"] <= bounds[name] / 3 else
                       "within bound" if s["spread"] <= bounds[name] else "TOO WIDE")
            line = (f"  {name:14s} median {s['median']:.6g} {units[name]:8s} "
                    f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} "
                    f"bound {bounds[name]} {verdict}")
            old = earlier.get(workload, {}).get("metrics", {}).get(name)
            if old:
                moved = (s["median"] - old["median"]) / old["median"]
                line += f"  moved {moved:+.3f} from the earlier median"
            print(line)
        print("  unscaled wall clock: " + ", ".join(
            f"{k} median {s['median']:.6g} spread {s['spread']:.3f}"
            for k, s in entry["wall"].items()))
        print(flush=True)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

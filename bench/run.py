"""Benchmark for causalplan's plan, predict and check queries.

    python3 bench/run.py --workload toh-deepen --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
src/ next to this directory.  One process runs one workload in a closed
loop with a single client: each library call starts after the previous
one and its answer check have finished.  The loop runs whole passes over
the workload's seeded instance list until about --seconds have gone by.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs one pass
untraced as the reference, then repeats the passes with spans recorded
at the layer boundaries, prints the per-layer metrics, counts a traced
answer that differs from its reference answer as a failed operation, and
writes the spans to bench/out/.  Either way the last line of stdout is
one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Times are scaled to a machine on which one probe tick takes PROBE_REF_S:
# value = wall time * PROBE_REF_S / median of the ticks around it.
PROBE_TICK_LOOPS = 1200
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.0005
PROBE_PAD_S = 0.25
PROBE_MIN_TICKS = 20
# Every instance is set up SETUP_PASSES times before the loop.  After each
# session its instance is set up again, at least once and for SETUP_SHARE
# of the session's time, so the samples spread over the whole run.
SETUP_PASSES = 3
SETUP_SHARE = 0.02
TRACED_SETUP_PASSES = 3

UNITS = {
    "queries_per_s": "1/s", "query_p50_s": "s", "setup_s": "s",
    "peak_rss_mb": "MiB", "cnf_literals": "literals",
}


def import_package() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import causalplan
    except ImportError as e:
        sys.exit(f"cannot import causalplan from {src}: {e}")
    if not Path(causalplan.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"causalplan was imported from {causalplan.__file__}, not from {src}")


def probe_tick() -> None:
    """A fixed bit of pure-Python work built like the program's own: tuple
    keys, dict updates, tuple concatenation and a frozenset."""
    d: dict = {}
    for i in range(PROBE_TICK_LOOPS):
        k = (i & 31, i >> 5)
        d[k] = d.get(k, ()) + (i,)
    frozenset(d)


def speed_probe() -> float:
    """Time of 200 ticks.  Timed before and after the workload, it tells a
    slower machine apart from a slower program."""
    t0 = time.perf_counter()
    for _ in range(200):
        probe_tick()
    return time.perf_counter() - t0


def cnf_literals(workload) -> int:
    """Literal occurrences in the CNF that `causalplan plan ... --solver
    dimacs-out FILE` writes, summed over the workload's distinct instances.
    The export runs in a child process, so it does not count in peak RSS."""
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        argvs = []
        for i, (files, args) in enumerate(workload.exports()):
            for name, text in files.items():
                Path(tmp, f"{i}-{name}").write_text(text, encoding="utf-8")
            argvs.append(["plan"] + [f"{tmp}/{i}-{a}" if a in files else a for a in args]
                         + ["--solver", "dimacs-out", f"{tmp}/{i}.cnf"])
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, str(BENCH / "export_cnf.py"), json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"CNF export failed: {proc.stderr.strip()[-500:]}")
        total = 0
        for i in range(len(argvs)):
            for line in Path(tmp, f"{i}.cnf").read_text(encoding="utf-8").splitlines():
                if line and line[0] not in "cp":
                    total += sum(1 for tok in line.split() if tok != "0")
        return total


def setup_all(workload) -> list:
    return [workload.setup_one(i) for i in range(len(workload.items))]


class SpeedSampler:
    """Times one probe tick every PROBE_EVERY_S seconds of wall
    time, from a SIGALRM handler, while the timed work runs.  The ticks
    measure the machine's speed on the same core at the same moments as
    the work, so each timed interval can be scaled by the ticks around it.
    The time of the ticks that fall inside an interval is taken out of it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_tick()
        self.starts.append(t0)
        self.ticks.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def median(self) -> float:
        return statistics.median(self.ticks)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval's own time, scaled to the reference machine by the
        median tick within PROBE_PAD_S of it (at least the PROBE_MIN_TICKS
        nearest)."""
        lo = bisect.bisect_left(self.starts, t0 - PROBE_PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_PAD_S)
        if hi - lo < PROBE_MIN_TICKS:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - PROBE_MIN_TICKS // 2, len(self.ticks) - PROBE_MIN_TICKS))
            hi = lo + PROBE_MIN_TICKS
        inside = sum(self.ticks[bisect.bisect_left(self.starts, t0):
                                bisect.bisect_left(self.starts, t1)])
        return (t1 - t0 - inside) * PROBE_REF_S / statistics.median(self.ticks[lo:hi])


class OpFailed(Exception):
    pass


class Loop:
    """Runs passes of sessions, times each library call and checks it.

    Every session counts as its full number of operations: when one
    fails, the session stops and its remaining operations count as
    failed too, so each pass attempts the same operations.  With
    sample_setup, the instance of each session is set up again after the
    session (see SETUP_SHARE)."""

    def __init__(self, workload, ready, tracer=None, reference=None, sample_setup=False):
        self.workload = workload
        self.ready = ready
        self.tracer = tracer
        self.reference = reference
        self.setup_stamps = [[] for _ in workload.items] if sample_setup else None
        self.stamps: list[tuple[float, float]] = []  # timed calls that passed
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.complaints: list[str] = []

    @property
    def times(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.stamps]

    def time_setup(self, i: int) -> None:
        gc.collect()
        t0 = time.perf_counter()
        self.workload.setup_one(i)
        self.setup_stamps[i].append((t0, time.perf_counter()))

    def run_pass(self, max_sessions: int | None = None) -> list[str]:
        from workloads import digest
        n_ops = self.workload.session_ops
        answers: list[str] = []
        for k, (i, session) in enumerate(self.workload.sessions(self.ready)):
            if k == max_sessions:
                break
            started = time.perf_counter()
            ok = 0
            try:
                for op in session:
                    gc.collect()
                    root = self.tracer.begin(op.kind) if self.tracer else None
                    t0 = time.perf_counter()
                    try:
                        answer = op.call()
                    finally:
                        dt = time.perf_counter() - t0
                        if root is not None:
                            self.tracer.end(root)
                    bad = op.check(answer)
                    fp = digest(answer)
                    if bad is None and self.reference is not None \
                            and self.reference[len(answers)] != fp:
                        bad = "the answer differs from the reference pass"
                    if bad is not None:
                        raise OpFailed(f"{op.kind}: {bad}")
                    answers.append(fp)
                    self.stamps.append((t0, t0 + dt))
                    ok += 1
            except Exception as e:  # a failed operation ends its session
                self.complaints.append(f"{type(e).__name__}: {e}")
            self.attempted += n_ops
            self.failed += n_ops - ok
            answers.extend(["-"] * (n_ops - ok))
            if self.setup_stamps is not None:
                t_end = time.perf_counter() + SETUP_SHARE * (time.perf_counter() - started)
                self.time_setup(i)
                while time.perf_counter() < t_end:
                    self.time_setup(i)
        return answers

    def run(self, seconds: float) -> None:
        """Whole passes until the next one would end further past the
        deadline than stopping now falls short of it."""
        t0 = time.perf_counter()
        while True:
            answers = self.run_pass()
            self.passes += 1
            if self.reference is None:
                self.reference = answers
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / self.passes / 2 >= seconds:
                return


# --- per-layer metrics from a traced run ----------------------------------------

OP_KINDS = {"planner.check_s": "planner.check", "planner.predict_s": "planner.predict",
            "planner.validate_s": "planner.validate", "planner.plan_s": "planner.plan",
            "planfile.roundtrip_s": "planfile.roundtrip"}
PER_OP_TIMES = {"grounding.query_ground_s": "grounding.ground",
                "compiler.encode_s": "compiler.encode", "sat.build_s": "sat.build",
                "sat.solve_s": "sat.solve", "sat.enumerate_s": "sat.enumerate",
                "planner.decode_s": "planner.decode", "planner.price_s": "planner.price",
                "trace.overhead_s": "trace.overhead"}
PER_OP_COUNTS = ["grounding.calls", "compiler.encodings", "compiler.clauses",
                 "compiler.binary_clauses", "compiler.aux_vars", "sat.solve_calls",
                 "sat.conflicts", "sat.decisions", "sat.propagations", "sat.learnts",
                 "planner.blocked_schedules"]
SETUP_TIMES = {"parser.parse_s": "parser.parse", "grounding.ground_s": "grounding.ground",
               "grid.external_s": "grid.external"}
SETUP_COUNTS = ["grounding.laws", "grounding.atoms", "grid.external_calls"]
# hook -> metrics that cannot be measured without it
NEEDS = {
    "causalplan.planner.ground": ["grounding.calls", "grounding.query_ground_s"],
    "causalplan.planner.Encoder": ["compiler.encode_s", "compiler.encodings", "compiler.clauses",
                                   "compiler.binary_clauses", "compiler.aux_vars"],
    "causalplan.planner.Solver": ["sat.build_s", "sat.solve_s", "sat.solve_calls",
                                  "sat.conflicts", "sat.decisions", "sat.propagations",
                                  "sat.learnts", "sat.heap_entries",
                                  "planner.blocked_schedules"],
    "causalplan.planner.decode_model": ["planner.decode_s"],
    "causalplan.planner.eval_completion": ["planner.validate_s"],
    "causalplan.planner.plan_cost": ["planner.price_s"],
    "registry externals": ["grid.external_s", "grid.external_calls"],
}


def layer_metrics(tracer) -> dict:
    spans = tracer.spans
    own = tracer.by_root()
    roots = [i for i, s in enumerate(spans) if s[1] == -1]
    setups = [i for i in roots if spans[i][0] == "setup"]
    ops = [i for i in roots if spans[i][0] != "setup"]
    n = max(len(ops), 1)
    out: dict[str, float | None] = {}
    for metric, name in SETUP_TIMES.items():
        out[metric] = statistics.median(own[r][name] for r in setups)
    for key in SETUP_COUNTS:
        out[key] = statistics.median(tracer.counts[r][key] for r in setups)
    for metric, name in PER_OP_TIMES.items():
        out[metric] = sum(own[r][name] for r in ops) / n
    for key in PER_OP_COUNTS:
        out[key] = sum(tracer.counts[r][key] for r in ops) / n
    out["sat.heap_entries"] = max((tracer.counts[r]["sat.heap_entries"] for r in ops), default=0)
    for metric, kind in OP_KINDS.items():
        of_kind = [r for r in ops if spans[r][0] == kind]
        out[metric] = sum(own[r][kind] for r in of_kind) / len(of_kind) if of_kind else 0.0
    for hook in tracer.missing:
        for metric in NEEDS.get(hook, ()):
            out[metric] = None
    return out


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "entries" if metric == "sat.heap_entries" else "count"


# --- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    probe_before = speed_probe()
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if not args.trace:
        literals = cnf_literals(workload)
        ready = setup_all(workload)
        Loop(workload, ready).run_pass(max_sessions=1)  # warm-up
        loop = Loop(workload, ready, sample_setup=True)
        with SpeedSampler() as speed:
            for _ in range(SETUP_PASSES):
                for i in range(len(workload.items)):
                    loop.time_setup(i)
            loop.run(args.seconds)
        scale = PROBE_REF_S / speed.median()
        op_times = [speed.scaled(t0, t1) for t0, t1 in loop.stamps]
        times = loop.times
        wall = {
            "queries_per_s": len(times) / sum(times) if times else 0.0,
            "query_p50_s": statistics.median(times) if times else 0.0,
            # set-up of the list: the sum of each instance's median
            "setup_s": sum(statistics.median(t1 - t0 for t0, t1 in st)
                           for st in loop.setup_stamps),
        }
        metrics = {
            "queries_per_s": len(op_times) / sum(op_times) if op_times else 0.0,
            "query_p50_s": statistics.median(op_times) if op_times else 0.0,
            "setup_s": sum(statistics.median(speed.scaled(*t) for t in st)
                           for st in loop.setup_stamps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cnf_literals": literals,
        }
        units = UNITS
    else:
        from trace import Tracer
        reference_loop = Loop(workload, setup_all(workload))
        reference = reference_loop.run_pass()
        tracer = Tracer()
        tracer.install(workloads)
        try:
            with SpeedSampler() as speed:
                for _ in range(TRACED_SETUP_PASSES):
                    root = tracer.begin("setup")
                    ready = setup_all(workload)
                    tracer.end(root)
                loop = Loop(workload, ready, tracer=tracer, reference=reference)
                loop.run(args.seconds)
        finally:
            tracer.uninstall()
        scale = PROBE_REF_S / speed.median()
        loop.attempted += reference_loop.attempted
        loop.failed += reference_loop.failed
        loop.complaints += reference_loop.complaints
        wall = layer_metrics(tracer)
        metrics = {k: v * scale if v is not None and k.endswith("_s") else v
                   for k, v in wall.items()}
        wall = {k: v for k, v in wall.items() if k.endswith("_s") and v is not None}
        units = {m: layer_unit(m) for m in metrics}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        if tracer.missing:
            print(f"not measured (hook missing): {', '.join(tracer.missing)}", file=sys.stderr)
    probe_after = speed_probe()

    times = loop.times
    if times:
        wall["op_mean_s"] = statistics.fmean(times)
    print("wall clock, unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items())
          + f" probe_tick_ms={speed.median() * 1e3:.6g} ticks={len(speed.ticks)}"
          f" scale={scale:.6g}")
    for c in loop.complaints[:20]:
        print(f"failed: {c}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {loop.passes} pass(es), "
          f"{loop.attempted} operations attempted, {loop.failed} failed")
    print(f"speed probe: {probe_before:.4f} s before, {probe_after:.4f} s after")
    if times:
        print(f"mean time per operation, scaled: {statistics.fmean(times) * scale:.6g} s "
              f"over {len(times)} timed operations")
    for name, value in metrics.items():
        shown = "not measured" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown} {units[name]}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

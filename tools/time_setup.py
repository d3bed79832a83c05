"""Time a domain's set-up and first query, phase by phase, in fresh processes.

Every causalplan command runs in a new process, so each of its queries
pays for importing the package, parsing, grounding and building the step
template once.  This script measures those costs on the domain texts
of one benchmark workload and seed (bench/instances.py generates them):
by default the nine `mapp-wide` texts, whose encodings are wide; with
--texts toh the one `toh-deepen` text, a 4-disk Hanoi whose step
template the compiler presimplifies with the domain's facts; with
--texts boxes the eight `boxes-session` texts, each ground against the
registry of its grid world, so grounding evaluates external calls, and
planned with the workload's cost model.  Phases:

- set-up, per phase, summed over the domains: `lex` (the parser's
  tokenizer), `parse` (the rest of parse_domain and parse_problem, and
  parse_world), `validate` (validate_signature, inside ground) and
  `ground` (the rest of ground);
- each domain's first `plan` query, split into `template` (building its
  StepTemplate) and `plan` (the rest of the query, ground included);
- `import`, the time to import the package;
- `gc`, the garbage collector's passes, timed by a gc.callbacks hook
  that only reads the clock.  A pass counts here and in no other phase,
  so each phase above is net of the passes that ran inside it.

Each run is a fresh interpreter.  With --against PATH, runs alternate
between this checkout and the one at PATH, starting with a different
side in each pair, and the medians are printed side by side with their
ratio.  The report says whether the package's .pyc files existed before
the first run of each side, since an import without them compiles every
module.  No number is checked: the script only measures.

    python tools/time_setup.py                      # 10 runs, seed 1
    python tools/time_setup.py --seed 7 --runs 20 --against ../parent
    python tools/time_setup.py --texts toh --runs 1
    python tools/time_setup.py --texts boxes --runs 1
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("import", "lex", "parse", "validate", "ground", "template", "plan", "gc")
WORKLOADS = {"mapp": "mapp-wide", "toh": "toh-deepen", "boxes": "boxes-session"}


def child(root: str, texts_file: str) -> None:
    """One run: set up the domains and plan each once, in this fresh
    process, with the checkout at root; prints the phase times as JSON."""
    collected = [0.0]  # the collector's time so far
    started = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            collected[0] += time.perf_counter() - started[0]
    gc.callbacks.append(on_gc)

    def clock() -> float:
        """The time so far, less the collector's."""
        return time.perf_counter() - collected[0]

    t0 = clock()
    sys.path.insert(0, str(Path(root, "src")))
    import causalplan
    from causalplan import compiler, grounding, parser
    spent = dict.fromkeys(PHASES, 0.0)
    spent["import"] = clock() - t0

    def timed(fn, phase):
        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[phase] += clock() - t
        return wrapper

    # the package looks these up when it calls them
    parser._lex = timed(parser._lex, "lex")
    grounding.validate_signature = timed(grounding.validate_signature, "validate")
    compiler.StepTemplate.__init__ = timed(compiler.StepTemplate.__init__, "template")

    def total(fn, *args, **kwargs):
        t = clock()
        out = fn(*args, **kwargs)
        return out, clock() - t

    instances = json.loads(Path(texts_file).read_text())
    ready = []
    parse_s = ground_s = 0.0
    for inst in instances:
        domain, s1 = total(causalplan.parse_domain, inst["domain"], "domain.cp")
        problem, s2 = total(causalplan.parse_problem, inst["problem"], domain, "problem.prob")
        registry, costs = None, ()
        if inst.get("world") is not None:
            world, s3 = total(causalplan.parse_world, inst["world"], "domain.world")
            s2 += s3
            registry = causalplan.registry_for(world)
            costs = (causalplan.parse_cost_spec(inst["costs"]),)
        _, s4 = total(causalplan.ground, domain, registry)
        parse_s += s1 + s2
        ground_s += s4
        ready.append((domain, problem, registry, costs, inst["solver_seed"]))
    spent["parse"] = parse_s - spent["lex"]
    spent["ground"] = ground_s - spent["validate"]
    plan_s = 0.0
    for domain, problem, registry, costs, seed in ready:
        answer, s = total(causalplan.plan, domain, problem, registry, costs=costs, seed=seed)
        if not isinstance(answer, causalplan.PlanFound):
            sys.exit(f"no plan found: {answer}")
        plan_s += s
    spent["plan"] = plan_s - spent["template"]
    spent["gc"] = collected[0]
    print(json.dumps(spent))


def workload_texts(texts: str, seed: int) -> list[dict]:
    """The domain and problem texts of the mapp-wide, toh-deepen or
    boxes-session workload at seed, each with the solver seed of its
    first query, and a boxes domain with its world text and cost model."""
    sys.path.insert(0, str(ROOT / "bench"))
    import instances
    if texts == "toh":
        return [{"domain": t.domain, "problem": t.problem, "solver_seed": t.solver_seeds[0]}
                for t in instances.toh_instances(seed)]
    if texts == "boxes":
        return [{"domain": b.domain, "problem": b.problem, "solver_seed": b.solver_seed,
                 "world": b.world, "costs": instances.COST_SPEC}
                for b in instances.boxes_instances(seed)]
    return [{"domain": m.domain, "problem": m.problem, "solver_seed": m.solver_seed}
            for m in instances.mapp_instances(seed)]


def has_pyc(root: Path) -> bool:
    cache = root / "src" / "causalplan" / "__pycache__"
    return any(cache.glob(f"*.{sys.implementation.cache_tag}.pyc"))


def run_child(script: str, root: Path, *args) -> dict:
    """One run of script's --child with the checkout at root and args, in
    a fresh interpreter without PYTHONPATH, so that the package comes
    from root; what the run prints, read as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, script, "--child", str(root), *map(str, args)],
                         env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"a run with {root} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def at_least_one(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def checkouts(ap: argparse.ArgumentParser, against: Path | None) -> dict[str, Path]:
    """The checkouts to run, by side: "this" one and, given against, the
    "against" one.  Refuses an against that holds no package."""
    sides = {"this": ROOT}
    if against is not None:
        if not (against / "src" / "causalplan").is_dir():
            ap.error(f"{against} holds no src/causalplan")
        sides["against"] = against.resolve()
    return sides


def alternated(sides: dict[str, Path], runs: int, run) -> dict[str, list]:
    """run(root) runs times per side, the sides in turn, starting with a
    different side in each pair of runs."""
    out: dict[str, list] = {name: [] for name in sides}
    for r in range(runs):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name in order:
            out[name].append(run(sides[name]))
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--texts", choices=sorted(WORKLOADS), default="mapp",
                    help="the workload whose texts to time (default mapp)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--runs", type=at_least_one, default=10,
                    help="runs per checkout (default 10)")
    ap.add_argument("--against", type=Path, help="another checkout to alternate with")
    ap.add_argument("--child", nargs=2, metavar=("ROOT", "TEXTS"), help=argparse.SUPPRESS)
    a = ap.parse_args(argv)
    if a.child:
        child(*a.child)
        return 0
    sides = checkouts(ap, a.against)
    pyc = {name: has_pyc(root) for name, root in sides.items()}
    with tempfile.TemporaryDirectory() as tmp:
        texts_file = str(Path(tmp, "texts.json"))
        Path(texts_file).write_text(json.dumps(workload_texts(a.texts, a.seed)))
        times = alternated(sides, a.runs, lambda root: run_child(__file__, root, texts_file))

    print(f"{WORKLOADS[a.texts]} seed {a.seed}: {a.runs} fresh-process run(s) per checkout; "
          "times in ms, median [q1, q3]")
    for name, root in sides.items():
        print(f"  {name}: {root}; .pyc files before the first run: "
              f"{'yes' if pyc[name] else 'no'}; "
              f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    rows = [*PHASES, "set-up", "first queries"]
    groups = {"set-up": ("lex", "parse", "validate", "ground"), "first queries": ("template", "plan")}
    header = f"{'phase':14}" + "".join(f"{name:>26}" for name in sides)
    print(header + ("  this/against" if len(sides) == 2 else ""))
    for row in rows:
        medians = []
        line = f"{row:14}"
        for name in sides:
            xs = [sum(t[p] for p in groups.get(row, (row,))) * 1e3 for t in times[name]]
            q1, q2, q3 = quartiles(xs)
            medians.append(q2)
            line += f"{q2:12.1f} [{q1:5.1f}, {q3:5.1f}]"
        if len(medians) == 2:
            line += f"  {medians[0] / medians[1]:.3f}" if medians[1] else "  -"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

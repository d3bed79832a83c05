"""The CDCL search on a fixed set of formulas, pinned.

search_golden.json records, for every solve() call of every case below:
its status; the solver's conflicts, decisions, propagations and restarts
after the call; and the SHA-256 of the clauses the call learnt, in the
order it learnt them, each with its literals in the order conflict
analysis returned them.  The cases:

- the plan search of build_toh(4) at solver seeds 0-5 (one growing
  solver, one solve per horizon);
- php_clauses(7, 6) at seed 0;
- the plan search of a two-robot build_mapp instance on an open 5x5 grid
  at solver seeds 0-2;
- RANDOM_CASES seeded random 3-CNFs with RANDOM_VARS variables near the
  satisfiability threshold, each at its own solver seed.

test_sat.py checks the solver against the file.  The file was written
once, from a solver whose search was known good; run this module with
--write only for a change that moves the search on purpose:

    PYTHONPATH=src python tests/search_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from causalplan import parse_world, plan, planner
from causalplan.domains import build_mapp, build_toh
from causalplan.sat import Solver

import oracles

GOLDEN = Path(__file__).resolve().with_name("search_golden.json")
TOH_SEEDS = range(6)
MAPP_SEEDS = range(3)
RANDOM_SEED = "search-golden"
RANDOM_CASES = 20
RANDOM_VARS = 100
RANDOM_RATIO = 4.26  # clauses per variable, near the 3-SAT threshold


class Recording(Solver):
    """A solver that records every solve() call as search_golden.json does."""

    def __init__(self, *args, **kwargs):
        self.calls: list[dict] = []
        self.learnt: list[tuple[int, ...]] = []
        super().__init__(*args, **kwargs)

    def _analyze(self, confl):
        learnt, bt = super()._analyze(confl)
        self.learnt.append(tuple(learnt))
        return learnt, bt

    def solve(self, *args, **kwargs):
        self.learnt = []
        res = super().solve(*args, **kwargs)
        st = self.stats
        text = "".join(" ".join(map(str, c)) + " 0\n" for c in self.learnt)
        self.calls.append({"status": res.status, "conflicts": st.conflicts,
                           "decisions": st.decisions, "propagations": st.propagations,
                           "restarts": st.restarts,
                           "learnt": hashlib.sha256(text.encode()).hexdigest()})
        return res


def random_3cnf(rng: random.Random, n: int, m: int) -> list[list[int]]:
    return [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(m)]


def random_formulas():
    """(solver seed, clauses) for each of the random 3-CNF cases."""
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_CASES):
        yield i, random_3cnf(rng, RANDOM_VARS, round(RANDOM_RATIO * RANDOM_VARS))


def planned(bundle, seed: int) -> list[dict]:
    """The recorded solve calls of plan() on bundle at solver seed."""
    made: list[Recording] = []

    def make(*args, **kwargs):
        made.append(Recording(*args, **kwargs))
        return made[-1]

    planner.Solver = make
    try:
        plan(bundle.domain, bundle.problem, bundle.registry, seed=seed)
    finally:
        planner.Solver = Solver
    return [call for s in made for call in s.calls]


def cases():
    """(name, thunk) pairs; each thunk returns the recorded solve calls."""
    toh = build_toh(4)
    for seed in TOH_SEEDS:
        yield f"toh4/seed{seed}", lambda seed=seed: planned(toh, seed)

    def php():
        s = Recording(*oracles.php_clauses(7, 6), seed=0)
        s.solve()
        return s.calls
    yield "php7-6/seed0", php
    mapp = build_mapp(parse_world("\n".join(["....."] * 5)), 2,
                      [(0, 0), (4, 4)], [(4, 4), (0, 0)])
    for seed in MAPP_SEEDS:
        yield f"mapp5x5/seed{seed}", lambda seed=seed: planned(mapp, seed)
    for seed, clauses in random_formulas():
        def rand(clauses=clauses, seed=seed):
            s = Recording(RANDOM_VARS, clauses, seed=seed)
            s.solve()
            return s.calls
        yield f"random3/{seed}", rand


def record() -> dict[str, list[dict]]:
    return {name: thunk() for name, thunk in cases()}


def pinned() -> dict:
    return json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/search_golden.py --write")
    golden = record()
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(golden)} cases, "
          f"{sum(map(len, golden.values()))} solve calls")

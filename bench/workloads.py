"""The three workloads: set-up, query sessions and answer checks.

A workload turns its seeded instance list (instances.py) into:

- setup_one(i): the set-up the benchmark times for setup_s, from the
  text of instance i to a ground domain ready to query;
- sessions(ready): the queries of one pass, as (instance index, session)
  pairs.  A session yields its session_ops operations one at a time,
  because later queries of an interactive session use earlier answers.
  Each operation is one library call plus a check against oracles.py;
- exports(): the command-line arguments that write each distinct
  instance's top-horizon CNF, for cnf_literals.

A check returns None when the answer is right and a complaint otherwise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import instances
import oracles
from causalplan import (Consistent, NoPlanUpTo, PlanFound, check_consistency,
                        emit_plan, ground, parse_cost_spec, parse_domain,
                        parse_plan, parse_problem, parse_query, parse_world,
                        plan, predict, registry_for, validate_plan)


@dataclass
class Op:
    kind: str                     # span name of the call in the traced run
    call: Callable[[], object]    # the library call that is timed
    check: Callable[[object], str | None]


def digest(answer) -> str:
    """A short fingerprint of an answer, to compare runs and passes."""
    if isinstance(answer, PlanFound):
        text = f"found {answer.horizon}\n{emit_plan(answer.plan)}"
    else:
        text = repr(answer)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _found(answer) -> str | None:
    if not isinstance(answer, PlanFound):
        return f"expected a plan, got {answer!r}"
    return None


class PlanWorkload:
    """A list of plan queries over domain and problem text, one per session."""

    name = ""
    session_ops = 1

    def __init__(self, items):
        self.items = items

    def setup_one(self, i: int):
        inst = self.items[i]
        domain = parse_domain(inst.domain, "domain.cp")
        return domain, parse_problem(inst.problem, domain, "problem.prob"), ground(domain)

    def exports(self):
        return [({"domain.cp": i.domain, "problem.prob": i.problem}, ["domain.cp", "problem.prob"])
                for i in self.items]


class TohDeepen(PlanWorkload):
    name = "toh-deepen"

    def __init__(self, seed: int):
        super().__init__(instances.toh_instances(seed))

    def sessions(self, ready):
        for i, inst in enumerate(self.items):
            for s in inst.solver_seeds:
                yield i, self._session(inst, ready[i], s)

    @staticmethod
    def _session(inst, ready, seed):
        domain, problem, _ = ready

        def check(answer):
            return _found(answer) or oracles.check_hanoi(answer.plan, inst.disks)
        yield Op("planner.plan", lambda: plan(domain, problem, seed=seed), check)


class MappWide(PlanWorkload):
    name = "mapp-wide"

    def __init__(self, seed: int):
        super().__init__(instances.mapp_instances(seed))

    def sessions(self, ready):
        for i, inst in enumerate(self.items):
            yield i, self._session(inst, ready[i])

    @staticmethod
    def _session(inst, ready):
        domain, problem, _ = ready
        free = oracles.grid_free(inst.rows)

        def check(answer):
            return _found(answer) or oracles.check_mapp(
                answer.plan, free, inst.starts, inst.goals, inst.makespan)
        yield Op("planner.plan", lambda: plan(domain, problem, seed=inst.solver_seed), check)


# --- boxes-session -------------------------------------------------------------

class BoxesSession:
    name = "boxes-session"
    session_ops = 7

    def __init__(self, seed: int):
        self.items = instances.boxes_instances(seed)
        self.costs = (parse_cost_spec(instances.COST_SPEC),)

    def setup_one(self, i: int):
        inst = self.items[i]
        domain = parse_domain(inst.domain, "boxes.cp")
        registry = registry_for(parse_world(inst.world, "boxes.world"))
        return (domain, registry,
                parse_problem(inst.problem, domain, "boxes.prob"),
                parse_problem(inst.deadline_problem, domain, "deadline.prob"),
                ground(domain, registry))

    def sessions(self, ready):
        for i, inst in enumerate(self.items):
            domain, registry, problem, deadline, _ = ready[i]
            yield i, self._session(inst, domain, registry, problem, deadline)

    def _session(self, inst, domain, registry, problem, deadline):
        """check, plan within :maxcost, plan-file round trip, validate,
        predict from the full and from a partial start, and a plan under a
        deadline that no plan in the window meets."""
        costs, seed = self.costs, inst.solver_seed
        world = oracles.BoxWorld(inst.locations, inst.boxes, inst.dist)
        got: dict = {}

        def check_witness(answer):
            if not isinstance(answer, Consistent):
                return f"expected a consistent domain, got {answer!r}"
            return world.static_ok(answer.example_state)
        yield Op("planner.check", lambda: check_consistency(domain, registry, seed=seed),
                 check_witness)

        def check_plan(answer):
            bad = _found(answer)
            if bad:
                return bad
            p = answer.plan
            if len(p.steps) != inst.makespan:
                return f"plan has {len(p.steps)} steps, the search says {inst.makespan}"
            replay = world.run(inst.init, p.steps)
            if replay is None:
                return "the plan does not replay"
            states, cost = replay
            if [world.as_state(s) for s in states] != p.trajectory:
                return "the trajectory differs from the replay"
            if states[-1][1][0] != inst.goal_location or states[-1][2] == 0:
                return "the replay does not reach the goal"
            if p.cost != cost or cost > inst.maxcost:
                return f"plan cost {p.cost}, replay cost {cost}, :maxcost {inst.maxcost}"
            got["plan"] = p
            return None
        yield Op("planner.plan", lambda: plan(domain, problem, registry, costs=costs, seed=seed),
                 check_plan)

        def roundtrip():
            text = emit_plan(got["plan"])
            return text, parse_plan(text)

        def check_roundtrip(answer):
            text, parsed = answer
            p = got["plan"]
            if (emit_plan(parsed) != text or parsed.steps != p.steps
                    or parsed.trajectory != p.trajectory or parsed.cost != p.cost):
                return "the plan file does not round-trip"
            got["parsed"] = parsed
            return None
        yield Op("planfile.roundtrip", roundtrip, check_roundtrip)

        def check_valid(answer):
            return None if answer == (True, []) else f"validate_plan says {answer!r}"
        yield Op("planner.validate",
                 lambda: validate_plan(domain, problem, got["parsed"], registry, costs=costs),
                 check_valid)

        p = got["plan"]
        start = p.trajectory[0]
        open_box = len(inst.boxes) - 1
        partial = {k: v for k, v in start.items() if k != ("atObj", (inst.boxes[open_box],))}
        full_init, steps = parse_query(_query_text(start, p.steps), domain)
        part_init, _ = parse_query(_query_text(partial, p.steps), domain)

        def check_full(answer):
            if answer.outcomes != [p.trajectory]:
                return f"expected the plan's trajectory as the one outcome, got {len(answer.outcomes)}"
            return None
        yield Op("planner.predict", lambda: predict(domain, full_init, steps, registry, seed=seed),
                 check_full)

        want = world.count_outcomes(partial, open_box, p.steps)

        def check_partial(answer):
            if len(answer.outcomes) != want:
                return f"{len(answer.outcomes)} outcomes, direct enumeration gives {want}"
            for tr in answer.outcomes:
                robot, locs, held = world.from_state(tr[0])
                replay = world.run((robot, locs, held[0] if held else None), p.steps)
                if replay is None or [world.as_state(s) for s in replay[0]] != tr:
                    return "an outcome differs from its replay"
            return None
        yield Op("planner.predict", lambda: predict(domain, part_init, steps, registry, seed=seed),
                 check_partial)

        def check_none(answer):
            if not isinstance(answer, NoPlanUpTo) or answer.max_horizon != instances.BOXES_HORIZON:
                return f"expected no plan under :maxcost {inst.cheapest - 1}, got {answer!r}"
            return None
        yield Op("planner.plan", lambda: plan(domain, deadline, registry, costs=costs, seed=seed),
                 check_none)

    def exports(self):
        return [({"boxes.cp": i.domain, "boxes.prob": i.problem, "boxes.world": i.world},
                 ["boxes.cp", "boxes.prob", "--world", "boxes.world",
                  "--cost", instances.COST_SPEC])
                for i in self.items]


def _query_text(state: dict, steps) -> str:
    def lit(key, value):
        name, args = key
        inst = f"{name}({', '.join(args)})" if args else name
        if value in ("true", "false"):
            return inst if value == "true" else f"~{inst}"
        return f"{inst}={value}"

    lines = [":state " + " & ".join(lit(k, v) for k, v in sorted(state.items())) + ";"]
    for step in steps:
        acts = ", ".join(f"{n}({', '.join(a)})" if a else n for n, a in step)
        lines.append(f":do {acts};" if acts else ":do;")
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (TohDeepen, MappWide, BoxesSession)}

"""Plan search on one growing solver against a fresh encoding and solver
per horizon, plus the cases that only a growing search can get wrong:
dead-end states, cost blocking across horizons, and consistency checks
that extend their horizon."""

import pytest

import toy_domains
from sample_files import samples_dir
from causalplan import (NoPlanUpTo, PlanFound, check_consistency, parse_domain,
                        parse_problem, parse_world, plan, registry_for,
                        validate_plan)
from causalplan import planner
from causalplan.domains import build_robot_boxes, build_toh
from causalplan.grounding import ExternalRegistry, ground
from causalplan.model import AtomF, PlanningProblem
from causalplan.oracle import oracle_states
from causalplan.planner import (ActionCost, FluentRef, Inconsistent,
                                close_problem, decode_model, encode_problem,
                                parse_cost_spec, plan_cost)
from causalplan.sat import Solver
from causalplan.sat import solve as sat_solve


def reference_horizon(gd, problem, registry=None, costs=()):
    """The first horizon with a plan (within the cost deadline, blocking
    over-priced schedules one by one), from a fresh encoding and solver at
    every horizon; None when the window has no plan."""
    init, goal, extras, lo, hi = close_problem(gd.domain, problem, registry)
    for h in range(lo, hi + 1):
        cnf = encode_problem(gd, init, goal, extras, h,
                             noconcurrency=problem.noconcurrency).cnf()
        if problem.cost_deadline is None:
            if sat_solve(cnf).is_sat:
                return h
            continue
        solver = Solver(cnf.var_count, cnf.clauses)
        while True:
            res = solver.solve()
            if not res.is_sat:
                break
            found = decode_model(gd, cnf, res.model, h)
            if plan_cost(found, costs, registry) <= problem.cost_deadline:
                return h
            first = cnf.n_fluents + 1
            block = [-v if res.model[v] else v for t in range(h)
                     for v in range(t * cnf.width + first, (t + 1) * cnf.width + 1)]
            if not block:
                break
            solver.add_clause(block)
    return None


def _toy_cases():
    """Every toy domain from its first legal state, towards each fluent atom."""
    out = []
    for name in toy_domains.ALL_SMALL:
        gd = toy_domains.load(name)
        start = sorted(oracle_states(gd), key=sorted)[0]
        init = planner._state_formula(gd.domain, dict(start))
        for atom in gd.fluent_atoms:
            problem = PlanningProblem(init, AtomF(atom), horizon=(0, 3))
            out.append((f"{name}:{atom}", gd, problem, toy_domains.registry_of(name), ()))
    return out


def _sample_cases():
    out = []
    world = registry_for(parse_world((samples_dir() / "corridor.world").read_text()))
    for name in ("boxes", "boxes-grid", "mapp", "toh"):
        domain = parse_domain((samples_dir() / f"{name}.cp").read_text())
        problem = parse_problem((samples_dir() / f"{name}.prob").read_text(), domain)
        registry = world if domain.externals else None
        out.append((name, ground(domain, registry), problem, registry, ()))
    toh = build_toh(3)
    out.append(("build_toh(3)", ground(toh.domain), toh.problem, None, ()))
    for m, n in ((2, 1), (2, 2), (3, 1)):
        b = build_robot_boxes(m, n)
        out.append((f"boxes {m}x{n}", ground(b.domain), b.problem, None, ()))
    corridor = parse_world("1.2...3")
    b = build_robot_boxes(3, 1, corridor)
    costs = (parse_cost_spec("goto=timeEstimate(@atRobo,$0)"),)
    for deadline in (5, 6, 8):
        problem = parse_problem(
            ":init atRobo=L1 & atObj(B1)=L2 & ~holding(B1);\n"
            ":goal atObj(B1)=L3 & ~holding(B1);\n"
            f":horizon 0..6;\n:maxcost {deadline};\n:noconcurrency;\n", b.domain)
        out.append((f"corridor :maxcost {deadline}", ground(b.domain, b.registry),
                    problem, b.registry, costs))
    return out


@pytest.mark.parametrize("name,gd,problem,registry,costs", _toy_cases() + _sample_cases(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_growing_search_agrees_with_a_fresh_solver_per_horizon(name, gd, problem,
                                                              registry, costs):
    want = reference_horizon(gd, problem, registry, costs)
    got = plan(gd.domain, problem, registry, costs=costs, gd=gd)
    if want is None:
        assert isinstance(got, NoPlanUpTo) and got.max_horizon == problem.horizon[1]
        return
    assert isinstance(got, PlanFound) and got.horizon == want
    ok, issues = validate_plan(gd.domain, problem, got.plan, registry, costs=costs)
    assert ok, issues


# every state with p has no successor
DEADEND = """
:constants p :: inertialFluent; a :: action;
:laws
  inertial p;
  a causes p;
  caused false after p;
"""


def test_goal_in_a_dead_end_state_is_found():
    d = parse_domain(DEADEND)
    problem = parse_problem(":init ~p;\n:goal p;\n:horizon 0..4;\n", d)
    out = plan(d, problem)
    assert isinstance(out, PlanFound) and out.horizon == 1
    assert out.plan.steps == [[("a", ())]]
    ok, issues = validate_plan(d, problem, out.plan)
    assert ok, issues


# crossing is dear in the rain, it never rains twice in a row, and the
# goal's flag records rain one step back
TOLL = """
:constants rain :: inertialFluent; flag :: simpleFluent; done :: inertialFluent;
           cross :: action;
:laws
  exogenous rain; inertial done;
  caused false if rain after rain;
  caused flag after rain;
  caused flag=false after ~rain;
  cross causes done;
"""


def test_schedule_blocked_at_one_horizon_may_start_a_longer_plan():
    # Horizon 1: cross, with rain before it (flag@1 needs rain@0), costs 9
    # and is blocked.  Horizon 2: cross then wait costs 1, because flag@2
    # needs rain at step 1, so none at step 0; the other schedules cost 9
    # or 10.  Only h's activation literal on the blocking clause lets the
    # blocked schedule start the plan at horizon 2 (else it takes 3 steps).
    d = parse_domain(TOLL)
    registry = ExternalRegistry()
    registry.register("toll", 1, lambda wet: 9 if wet == "true" else 1)
    costs = (ActionCost("cross", "toll", (FluentRef("rain"),)),)
    problem = parse_problem(":init ~done;\n:goal done & flag;\n:horizon 0..3;\n:maxcost 1;\n", d)
    out = plan(d, problem, registry, costs=costs)
    assert isinstance(out, PlanFound) and out.horizon == 2
    assert out.plan.steps == [[("cross", ())], []]
    assert out.plan.cost == 1
    assert reference_horizon(ground(d, registry), problem, registry, costs) == 2
    ok, issues = validate_plan(d, problem, out.plan, registry, costs=costs)
    assert ok, issues


def test_dynamic_inconsistency_is_found_on_one_solver(monkeypatch):
    made, solves = [], []

    class Counted(Solver):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

        def solve(self, *args, **kwargs):
            solves.append(self)
            return super().solve(*args, **kwargs)

    monkeypatch.setattr(planner, "Solver", Counted)
    d = parse_domain("""
:constants p :: simpleFluent;
:laws
  caused p after true;
  caused p=false after true;
""")
    verdict = check_consistency(d)
    assert isinstance(verdict, Inconsistent) and verdict.level == 1
    assert len(made) == 1 and solves == made * 2  # horizon 0, then 1

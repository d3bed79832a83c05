"""Plan search on one growing solver against a fresh encoding and solver
per horizon, plus the cases that only a growing search can get wrong:
dead-end states, cost deadlines across horizons, and consistency checks
that extend their horizon.  Cost deadlines are also checked against an
exhaustive oracle that prices every trajectory."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toy_domains
from enumeration import oracle_paths, oracle_states
from sample_files import samples_dir
from test_compiler import atom_index
from causalplan import (NoPlanUpTo, PlanFound, check_consistency, parse_domain,
                        parse_problem, parse_world, plan, registry_for,
                        validate_plan)
from causalplan import planner
from causalplan.compiler import Encoder
from causalplan.domains import build_mapp, build_robot_boxes, build_toh
from causalplan.grounding import ExternalRegistry, ground
from causalplan.model import AtomF, PlanningProblem, eval_formula
from causalplan.planner import (ActionCost, FluentRef, Inconsistent, Plan,
                                close_problem, decode_model, encode_problem,
                                parse_cost_spec, plan_cost)
from causalplan.sat import Solver
from causalplan.sat import solve as sat_solve


def reference_horizon(gd, problem, registry=None, costs=()):
    """The first horizon with a plan (within the cost deadline, blocking
    over-priced schedules one by one), from a fresh encoding and solver at
    every horizon; None when the window has no plan.  Blocking a schedule
    drops every trajectory it has, so under a deadline this is exact only
    when the schedule fixes the trajectory."""
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
            found = decode_model(cnf, res.model)
            if plan_cost(found, costs, registry) <= problem.cost_deadline:
                return h
            block = [-v if res.model[v] else v for ta, v in atom_index(cnf).items()
                     if ta.atom.constant.is_action]
            if not block:
                break
            solver.add_clause(block)
    return None


def exact_horizon(gd, problem, registry, costs):
    """The first horizon with a plan within the cost deadline, by pricing
    every trajectory oracle_paths enumerates with plan_cost; None when the
    window has none.  No clause or solver is involved."""
    init, goal, extras, lo, hi = close_problem(gd.domain, problem, registry)
    assert not extras

    def holds(f, frozen):
        state = {(name, args): v for name, args, v in frozen}
        return eval_formula(f, lambda a: state[(a.constant.name, a.args)] == a.value)

    for h in range(lo, hi + 1):
        for path in oracle_paths(gd, h, noconcurrency=problem.noconcurrency):
            if not (holds(init, path[0]) and holds(goal, path[-1])):
                continue
            p = Plan([sorted(acts) for acts in path[1::2]],
                     [{(n, a): v for n, a, v in s} for s in path[::2]])
            if plan_cost(p, costs, registry) <= problem.cost_deadline:
                return h
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


CONDITIONS = {
    "conjunction": "atObj(B1)=L3 & ~holding(B1)",
    "disjunction": "atObj(B1)=L1 | atObj(B2)=L1 & ~holding(B2)",
    "negated conjunction": "~(atObj(B1)=L2 & atObj(B2)=L3)",
    "true": "true",
    "false": "false",
}
FINALS = {
    "conjunction": "~holding(B1) & ~holding(B2)",
    "disjunction": "atRobo=L3 | atRobo=L2",
    "negated conjunction": "~(atRobo=L1 & ~holding(B1))",
    "true": "true",
    "false": "false",
}


BOXES_3X2 = build_robot_boxes(3, 2)


def _condition_problem(goal, final=None, noconcurrency=False):
    """A problem on BOXES_3X2 with the goal named in CONDITIONS and the
    :at final constraint named in FINALS, if any."""
    return parse_problem(":init atRobo=L1 & atObj(B1)=L2 & atObj(B2)=L3"
                         " & ~holding(B1) & ~holding(B2);\n"
                         f":goal {CONDITIONS[goal]};\n:horizon 0..8;\n"
                         + (f":at final {FINALS[final]};\n" if final else "")
                         + (":noconcurrency;\n" if noconcurrency else ""), BOXES_3X2.domain)


def _condition_cases():
    """Goals and :at final constraints of every form, conjunctions of
    literals and others, alone and together, with and without
    :noconcurrency."""
    gd = ground(BOXES_3X2.domain)
    pairs = [(goal, None) for goal in CONDITIONS]
    pairs += [("conjunction", final) for final in FINALS]
    pairs += [("disjunction", "conjunction"), ("true", "disjunction")]
    return [(f"goal {goal}" + (f", final {final}" if final else "")
             + (", noconcurrency" if noconcurrency else ""),
             gd, _condition_problem(goal, final, noconcurrency), None, ())
            for goal, final in pairs for noconcurrency in (False, True)]


@pytest.mark.parametrize("name,gd,problem,registry,costs",
                         _toy_cases() + _sample_cases() + _condition_cases(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_growing_search_agrees_with_a_fresh_solver_per_horizon(name, gd, problem,
                                                              registry, costs):
    want = reference_horizon(gd, problem, registry, costs)
    got = plan(gd.domain, problem, registry, costs=costs)
    if want is None:
        assert isinstance(got, NoPlanUpTo) and got.max_horizon == problem.horizon[1]
        return
    assert isinstance(got, PlanFound) and got.horizon == want
    ok, issues = validate_plan(gd.domain, problem, got.plan, registry, costs=costs)
    assert ok, issues


@pytest.mark.parametrize("goal,final,assumed,guarded", [
    ("conjunction", "conjunction", (2, 2), False),
    ("true", "true", (), False),
    ("conjunction", "disjunction", (2,), True),
    ("disjunction", "conjunction", (2,), True),
    ("negated conjunction", None, (), True),
    ("conjunction", "false", (2,), True),
])
def test_conjunctive_conditions_are_assumed_and_the_others_guarded(monkeypatch, goal, final,
                                                                  assumed, guarded):
    # Each horizon's solve assumes its activation literal, then the
    # literals of each condition that is a conjunction of literals, in
    # increasing variable order; a horizon's clauses that end in the
    # negation of its activation literal come from the other conditions.
    calls, made = [], []

    class Recorded(Solver):
        def solve(self, assumptions=(), **limits):
            calls.append(list(assumptions))
            return super().solve(assumptions, **limits)

    class Kept(Encoder):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(planner, "Solver", Recorded)
    monkeypatch.setattr(planner, "Encoder", Kept)
    plan(BOXES_3X2.domain, _condition_problem(goal, final))
    enc, = made
    actives = [*enc.retired, enc.active]
    assert [c[0] for c in calls] == actives
    for lits in calls:
        assert len(lits) == 1 + sum(assumed)
        at = 1
        for n in assumed:
            assert sorted(lits[at:at + n], key=abs) == lits[at:at + n]
            at += n
    for a in actives:
        assert any(len(c) > 1 and c[-1] == -a for c in enc.clauses) == guarded


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


def test_a_cheaper_trajectory_of_an_over_priced_schedule_is_found():
    # Without the law against rain twice in a row, crossing at step 0
    # costs 9 or 1 depending on the rain, which the schedule leaves open;
    # flag@2 needs rain at step 1 and nothing at step 0.  Blocking the
    # schedule after pricing its dear trajectory loses the cheap one.
    d = parse_domain(TOLL.replace("  caused false if rain after rain;\n", ""))
    registry = ExternalRegistry()
    registry.register("toll", 1, lambda wet: 9 if wet == "true" else 1)
    costs = (ActionCost("cross", "toll", (FluentRef("rain"),)),)
    problem = parse_problem(":init ~done;\n:goal done & flag;\n:maxcost 1;\n:horizon 0..3;\n", d)
    for seed in range(6):
        out = plan(d, problem, registry, costs=costs, seed=seed)
        assert isinstance(out, PlanFound) and out.horizon == 2, seed
        assert out.plan.cost == 1
        ok, issues = validate_plan(d, problem, out.plan, registry, costs=costs)
        assert ok, issues


@st.composite
def _corridor_problems(draw):
    """A one-row world with landmarks 1, 2, 3 in some order and gaps that
    may hold a wall, one box, a deadline, and goto priced by travel time
    or by a fare table (None: no fare) that can make detours cheaper."""
    order = draw(st.permutations("123"))
    gaps = [draw(st.sampled_from(["", ".", "..", "....", "#", ".#."])) for _ in range(2)]
    world = parse_world(order[0] + gaps[0] + order[1] + gaps[1] + order[2])
    robot, box, goal = (draw(st.sampled_from(["L1", "L2", "L3"])) for _ in range(3))
    noconcurrency = draw(st.booleans())
    text = (f":init atRobo={robot} & atObj(B1)={box} & ~holding(B1);\n"
            f":goal atObj(B1)={goal} & ~holding(B1);\n"
            f":horizon 0..{5 if noconcurrency else 4};\n"
            f":maxcost {draw(st.integers(0, 14))};\n"
            + (":noconcurrency;\n" if noconcurrency else ""))
    fares = draw(st.none() | st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, None]),
                                      min_size=9, max_size=9))
    return world, text, fares


def _detour(noconcurrency, direct=8):
    """L1 -> L2 costs direct (None: no fare) and L1 -> L3 -> L2 costs 2:
    fetching the box from L2 within :maxcost 3 takes a step more than the
    fastest plan."""
    text = (":init atRobo=L1 & atObj(B1)=L2 & ~holding(B1);\n"
            ":goal atObj(B1)=L1 & ~holding(B1);\n"
            f":horizon 0..{5 if noconcurrency else 4};\n:maxcost 3;\n"
            + (":noconcurrency;\n" if noconcurrency else ""))
    return parse_world("1.2.3"), text, [0, direct, 1, 1, 0, 8, 8, 1, 0]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_corridor_problems())
@example(_detour(True))
@example(_detour(False))
@example(_detour(True, direct=None))
def test_deadline_search_agrees_with_the_blocking_loop_and_every_priced_path(case):
    world, text, fares = case
    b = build_robot_boxes(3, 1, world)
    problem = parse_problem(text, b.domain)
    registry = b.registry
    if fares is None:
        costs = (parse_cost_spec("goto=timeEstimate(@atRobo,$0)"),)
    else:
        registry.register("fare", 2, lambda x, y: fares[3 * int(x[1]) + int(y[1]) - 4])
        costs = (parse_cost_spec("goto=fare(@atRobo,$0)"),)
    gd = ground(b.domain, registry)
    want = exact_horizon(gd, problem, registry, costs)
    assert reference_horizon(gd, problem, registry, costs) == want
    got = plan(b.domain, problem, registry, costs=costs)
    if want is None:
        assert isinstance(got, NoPlanUpTo)
        return
    assert isinstance(got, PlanFound) and got.horizon == want
    assert got.plan.cost <= problem.cost_deadline
    ok, issues = validate_plan(b.domain, problem, got.plan, registry, costs=costs)
    assert ok, issues


BRIDGES = """
:sorts bridge
:objects B1, B2 :: bridge;
:constants crossed(bridge) :: inertialFluent; cross(bridge) :: action;
:laws
  inertial crossed;
  vars b :: bridge;
  cross(b) causes crossed(b);
"""


def test_concurrent_charges_are_summed():
    # both bridges can be crossed in one step, for a toll of 1 each
    d = parse_domain(BRIDGES)
    registry = ExternalRegistry()
    registry.register("toll", 1, lambda b: 1)
    costs = (parse_cost_spec("cross=toll($0)"),)
    for deadline, steps in ((1, None), (2, 1)):
        problem = parse_problem(":init ~crossed(B1) & ~crossed(B2);\n"
                                ":goal crossed(B1) & crossed(B2);\n"
                                f":horizon 0..2;\n:maxcost {deadline};\n", d)
        out = plan(d, problem, registry, costs=costs)
        if steps is None:
            assert isinstance(out, NoPlanUpTo)
        else:
            assert isinstance(out, PlanFound) and out.horizon == steps
            assert out.plan.steps == [[("cross", ("B1",)), ("cross", ("B2",))]]
            assert out.plan.cost == 2


def test_search_counters_on_toh4_are_pinned(monkeypatch):
    # The growing search's decisions, propagations and conflicts are a
    # fixed function of the seed.  A change to the propagation or branching
    # order moves these numbers and must update them on purpose.
    made = []

    class Captured(Solver):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(planner, "Solver", Captured)
    toh = build_toh(4)
    out = plan(toh.domain, toh.problem, seed=0)
    assert isinstance(out, PlanFound) and out.horizon == 15
    assert len(made) == 1
    stats = made[0].stats
    assert (stats.conflicts, stats.decisions, stats.propagations) == (190, 413, 14410)


def test_search_counters_on_mapp_5x5_are_pinned(monkeypatch):
    # Same pin on an encoding whose 25-valued location fluent gets
    # sequential-counter registers for its at-most-one.
    made = []

    class Captured(Solver):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(planner, "Solver", Captured)
    mapp = build_mapp(parse_world("\n".join(["....."] * 5)), 2,
                      [(0, 0), (4, 4)], [(4, 4), (0, 0)])
    out = plan(mapp.domain, mapp.problem, seed=0)
    assert isinstance(out, PlanFound) and out.horizon == 8
    assert len(made) == 1
    stats = made[0].stats
    assert (stats.conflicts, stats.decisions, stats.propagations) == (6, 14, 2617)


# --- loading a grown encoding ------------------------------------------------------

def reference_extend(solver, n_vars, clauses):
    """Solver.extend written out clause by clause, in its order: a range
    check of each clause against the grown variable count, a backtrack to
    level 0, the growth, level-0 simplification from each literal's
    value, with no kept set of level-0 literals, and last the heap
    entries of the new variables left unassigned."""
    clauses = list(clauses)
    for c in clauses:
        solver._check_range(c, max(n_vars, solver.nvars))
    solver._backtrack(0)
    solver._grow(n_vars)
    if solver.ok:
        solver.given += clauses
        for c in clauses:
            values = [solver.val[l] for l in c]
            if 1 in values:
                continue  # satisfied at level 0
            rest = [l for l, v in zip(c, values) if v == 0]
            if len(rest) > 1:
                solver._attach(rest)
                continue
            if rest:
                solver._enqueue(rest[0])
            if not rest or solver._propagate() is not None:
                solver.ok = False
                break
    solver._order_new()
    return solver.ok


def _grown_cases():
    out = []
    world = registry_for(parse_world((samples_dir() / "corridor.world").read_text()))
    for name in ("boxes", "boxes-grid", "mapp", "toh"):
        domain = parse_domain((samples_dir() / f"{name}.cp").read_text())
        problem = parse_problem((samples_dir() / f"{name}.prob").read_text(), domain)
        registry = world if domain.externals else None
        out.append((name, ground(domain, registry), problem, registry))
    toh = build_toh(4)
    out.append(("build_toh(4)", ground(toh.domain), toh.problem, None))
    mapp = build_mapp(parse_world("...\n.#.\n..."), 2, [(0, 0), (2, 2)], [(2, 2), (0, 0)])
    out.append(("build_mapp 3x3", ground(mapp.domain), mapp.problem, None))
    return out


@pytest.mark.parametrize("name,gd,problem,registry", _grown_cases(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_extend_loads_a_grown_encoding_as_one_attach_per_clause(name, gd, problem, registry):
    # Grow the plan search's encoding horizon by horizon on two solvers,
    # one loaded by extend and one by the reference loader, solving each
    # horizon and adding a level-0 unit between extends (by add_clause on
    # the first; besides the initial state and the retirement units), so
    # that later batches meet satisfied clauses, false literals and new
    # units.
    init, goal, _, _, hi = close_problem(gd.domain, problem, registry)
    enc = Encoder(gd, 0, noconcurrency=problem.noconcurrency)
    enc.assert_formula(init, 0)
    fast, ref = Solver(0, (), seed=0), Solver(0, (), seed=0)
    loaded = 0
    for h in range(min(hi, 8) + 1):
        if h:
            enc.extend()
        enc.assert_formula(goal, h, guard=enc.active)
        batch = enc.clauses[loaded:]
        loaded = len(enc.clauses)
        assert fast.extend(enc.var_count, batch) == reference_extend(ref, enc.var_count, batch)
        assert fast.clauses == ref.clauses, (name, h)
        assert fast.watches == ref.watches, (name, h)
        assert fast.trail == ref.trail and fast.given == ref.given, (name, h)
        got, want = fast.solve([enc.active]), ref.solve([enc.active])
        assert (got.status, got.model) == (want.status, want.model), (name, h)
        if h:
            # the last action of step h - 1 does not occur
            unit = (-enc.rows[h - 1][-1],)
            assert fast.add_clause(unit) == reference_extend(ref, ref.nvars, [unit])


def _random_batches(rng, rounds=5, fresh=12):
    """Clean batches over a growing variable count, each with fresh
    variables: random clauses; a unit on a fresh variable a that none of
    them mentions, so no clause watches its complement, followed by
    clauses that it strips or satisfies; then, in most batches, a binary
    clause and a unit on its first literal's variable, whose complement
    the binary clause watches; then random clauses again."""
    n = 0
    for _ in range(rounds):
        n += fresh
        a = n
        b, c = rng.sample(range(n - fresh + 1, n), 2)

        def clause(*must, top=n):
            # must, then random literals on other variables up to top:
            # 3 literals in all, or 2 to 3 with must
            others = [v for v in rng.sample(range(1, top + 1), 4) if v not in map(abs, must)]
            k = 3 - len(must) - rng.randrange(len(must) + 1)
            return (*must, *(v if rng.random() < 0.5 else -v for v in others[:k]))

        batch = [clause(top=a - 1) for _ in range(rng.randrange(10, 25))]
        unit = a if rng.random() < 0.5 else -a
        batch.append((unit,))
        batch += [clause(rng.choice((unit, -unit))) for _ in range(3)]
        if rng.random() < 0.75:
            batch += [(-b, c), (b,)]
        batch += [clause() for _ in range(rng.randrange(0, 4))]
        yield n, batch


def _search_counts(stats):
    return stats.decisions, stats.propagations, stats.conflicts, stats.restarts


class CountedPropagation(Solver):
    calls = 0

    def _propagate(self):
        self.calls += 1
        return super()._propagate()


def test_extend_agrees_with_the_reference_loader_on_random_batches():
    # Units whose complement nothing watches wait on the trail instead of
    # being propagated as they load; the trail, the stored clauses and the
    # watch lists come out as the reference loader's, and so do the
    # search that follows and its counters.
    waited = propagated = left_waiting = 0
    for seed in range(40):
        rng = random.Random(seed)
        fast = CountedPropagation(0, (), seed=seed)
        ref = CountedPropagation(0, (), seed=seed)
        for n, batch in _random_batches(rng):
            fast.calls = ref.calls = 0
            assert fast.extend(n, batch) == reference_extend(ref, n, batch), seed
            waited += ref.calls - fast.calls
            propagated += fast.calls
            left_waiting += len(fast.trail) > fast.qhead
            assert fast.clauses == ref.clauses, seed
            assert fast.watches == ref.watches, seed
            assert fast.trail == ref.trail and fast.given == ref.given, seed
            got, want = fast.solve(), ref.solve()
            assert (got.status, got.model) == (want.status, want.model), seed
            assert _search_counts(got.stats) == _search_counts(want.stats), seed
    assert waited > 150 and propagated > 150 and left_waiting > 10


def _assert_heap_covers_the_unassigned(s):
    current = {v for key, v in s.order if key == -s.activity[v]}
    assert all(v in current and s.in_order[v]
               for v in range(1, s.nvars + 1) if not s.val[v])


@pytest.mark.parametrize("name", ["build_toh(4)", "build_mapp 3x3"])
def test_extend_orders_only_the_new_variables_left_unassigned(name):
    # After each extend of a growing search, every unassigned variable has
    # a marked entry at its current key, and a new variable that the batch
    # fixed at level 0 has none.
    _, gd, problem, registry = next(c for c in _grown_cases() if c[0] == name)
    init, goal, _, _, hi = close_problem(gd.domain, problem, registry)
    enc = Encoder(gd, 0, noconcurrency=problem.noconcurrency)
    enc.assert_formula(init, 0)
    s = Solver(0, (), seed=0)
    fixed = 0
    for h in range(min(hi, 8) + 1):
        if h:
            enc.extend()
        enc.assert_formula(goal, h, guard=enc.active)
        old = s.nvars
        assert s.extend(enc.var_count, enc.clauses[len(s.given):])
        _assert_heap_covers_the_unassigned(s)
        new_fixed = {v for v in range(old + 1, s.nvars + 1) if s.val[v]}
        assert not new_fixed & {v for _, v in s.order}
        assert not any(s.in_order[v] for v in new_fixed)
        fixed += len(new_fixed)
        s.solve([enc.active])
    assert fixed > 0

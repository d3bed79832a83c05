"""Schema instantiation and external-call closure."""

import pytest
from hypothesis import HealthCheck, given, settings

import toy_domains
from eager_grounding import bench_domains, eager_laws
from sample_files import samples_dir
from test_parser import domains
from causalplan import (Consistent, NoPlanUpTo, ParseError, PlanFound, check_consistency,
                        compiler, emit_plan, grounding, parse_cost_spec, parse_domain,
                        parse_problem, parse_query, parse_world, plan, predict, registry_for)
from causalplan.domains import build_robot_boxes
from causalplan.grounding import (ExternalRegistry, GroundingError,
                                  close_formula, ground, signature_atoms)
from causalplan.model import (And, AtomF, Caused, Causes, FalseF, Nonexecutable, Not, Or,
                              TrueF)


ROBOT = """
:sorts location box
:objects
  L1, L2, L3 :: location;
  B1, B2 :: box;
:constants
  atObj(box) :: inertialFluent(location);
  goto(location) :: action;
:laws
  inertial atObj;
  vars b :: box y :: location;
  goto(y) causes atObj(b)=y;
"""


def test_schema_count_is_cartesian_product():
    gd = ground(parse_domain(ROBOT))
    causes = [l for l in gd.laws if isinstance(l, Causes)]
    assert len(causes) == 2 * 3  # boxes x locations
    # inertial stays one family law; the compiler expands it per value
    assert sum(str(l).startswith("inertial") for l in gd.laws) == 1


def test_equal_ground_atoms_are_one_object():
    # the occurrences of a ground atom in the laws' formulas share one
    # AtomF, and with the laws' action atoms one Atom
    gd = ground(parse_domain(ROBOT + """  vars b :: box c :: box y :: location;
  nonexecutable goto(y) if atObj(b)=y & atObj(c)=y;
"""))
    formulas = []

    def walk(f):
        if isinstance(f, AtomF):
            formulas.append(f)
        elif isinstance(f, Not):
            walk(f.sub)
        elif isinstance(f, (And, Or)):
            for part in f.parts:
                walk(part)

    for law in gd.laws:
        walk(getattr(law, "cond", None))
    assert len(formulas) > len(set(formulas))
    assert len({id(f) for f in formulas}) == len(set(formulas))
    atoms = [f.atom for f in formulas] + [law.action for law in gd.laws if hasattr(law, "action")]
    assert len({id(a) for a in atoms}) == len(set(atoms))


def test_grounding_is_deterministic():
    d = parse_domain(ROBOT)
    assert [str(l) for l in ground(d).laws] == [str(l) for l in ground(d).laws]


def test_signature_atoms_fluents_first_then_lex():
    gd = ground(parse_domain(ROBOT))
    names = [str(a) for a in signature_atoms(gd)]
    assert names[:3] == ["atObj(B1)=L1", "atObj(B1)=L2", "atObj(B1)=L3"]
    assert names[-1] == "goto(L3)"
    n_fluents = len(gd.fluent_atoms)
    assert all("goto" in n for n in names[n_fluents:])


def test_invalid_domain_raises_with_diagnostics():
    d = parse_domain("""
:constants p :: inertialFluent; a :: action;
:laws
  caused p if a;
""")
    with pytest.raises(GroundingError) as e:
        ground(d)
    assert "action" in str(e.value)


# --- externals --------------------------------------------------------------------

WALLED = """
:sorts location
:objects L1, L2 :: location;
:constants
  atRobo :: inertialFluent(location);
  goto(location) :: action;
:externals pathExists/2;
:laws
  inertial atRobo;
  vars y :: location;
  goto(y) causes atRobo=y;
  vars x :: location y :: location;
  nonexecutable goto(y) if atRobo=x & ~@pathExists(x, y);
"""


def test_externals_require_registry():
    with pytest.raises(GroundingError):
        ground(parse_domain(WALLED))


def test_external_closure_blocked_world():
    gd = ground(parse_domain(WALLED), registry_for(parse_world("1#2")))
    blocks = [l for l in gd.laws if isinstance(l, Nonexecutable)]
    # the wall separates L1 and L2 in both directions; self-moves stay legal,
    # so the ~pathExists guard survives as an unconditional ban
    crossing = [l for l in blocks if isinstance(l.cond, TrueF)]
    assert len(crossing) == 0  # conditions keep the atRobo=x conjunct
    assert len(blocks) == 2
    texts = sorted(str(l) for l in blocks)
    assert "atRobo=L1" in texts[1] and "goto(L2)" in texts[1]
    assert "atRobo=L2" in texts[0] and "goto(L1)" in texts[0]


def test_external_closure_open_world_drops_bans():
    gd = ground(parse_domain(WALLED), registry_for(parse_world("1.2")))
    assert [l for l in gd.laws if isinstance(l, Nonexecutable)] == []


def test_close_formula_memoizes_and_substitutes():
    d = parse_domain(WALLED)
    calls = []
    reg = ExternalRegistry()
    def path(a, b):
        calls.append((a, b))
        return True
    reg.register("pathExists", 2, path)
    law = d.laws[2]  # the schematic nonexecutable
    ground(d, reg)
    assert ("L1", "L2") in calls
    # memoized: each ground pair evaluated once
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("args", [(), (None,)])
def test_close_formula_takes_no_domain(args):
    # the old form passed the domain before the registry
    d = parse_domain(WALLED)
    with pytest.raises(TypeError):
        close_formula(TrueF(), d, *args)


def test_non_boolean_external_in_formula_rejected():
    reg = ExternalRegistry()
    reg.register("pathExists", 2, lambda a, b: 7)
    with pytest.raises(GroundingError) as e:
        ground(parse_domain(WALLED), reg)
    assert "bool" in str(e.value).lower()


# --- the ground domain kept across queries ------------------------------------------

def _count_templates(monkeypatch) -> list:
    made = []

    class Counted(compiler.StepTemplate):
        def __init__(self, gd):
            made.append(gd)
            super().__init__(gd)

    monkeypatch.setattr(compiler, "StepTemplate", Counted)
    return made


def test_queries_on_one_domain_build_one_step_template(monkeypatch):
    made = _count_templates(monkeypatch)
    b = build_robot_boxes(2, 1)
    first = plan(b.domain, b.problem)
    second = plan(b.domain, b.problem)
    assert isinstance(first, PlanFound) and isinstance(second, PlanFound)
    assert emit_plan(first.plan) == emit_plan(second.plan)
    assert len(made) == 1
    init = parse_problem(":init atRobo=L1 & holding(B1);\n", b.domain).init
    assert len(predict(b.domain, init, [[("goto", ("L2",))]]).outcomes) == 1
    assert isinstance(check_consistency(b.domain), Consistent)
    assert len(made) == 1
    assert ground(b.domain) is made[0]


def _count_grounding_steps(monkeypatch) -> dict:
    counts = {"validate_signature": 0, "_ground_one": 0}
    for name in counts:
        fn = getattr(grounding, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(grounding, name, counted)
    return counts


def test_a_repeat_grounding_validates_and_instantiates_nothing(monkeypatch):
    d = parse_domain(ROBOT)
    counts = _count_grounding_steps(monkeypatch)
    first = ground(d)
    assert counts == {"validate_signature": 1, "_ground_one": 0}
    assert len(first.laws) == 7  # the ground laws are built on first read
    assert counts == {"validate_signature": 1, "_ground_one": 6}
    assert ground(d) is first and ground(d, ExternalRegistry()) is first
    assert counts == {"validate_signature": 1, "_ground_one": 6}


def test_a_repeat_grounding_asks_each_recorded_call_once(monkeypatch):
    d = parse_domain(WALLED)
    world = parse_world("1.2")
    asked = []
    reg = ExternalRegistry()

    def path(a, b):
        asked.append((a, b))
        return world.path_exists(a, b)
    reg.register("pathExists", 2, path)
    first = ground(d, reg)
    recorded = sorted(asked)
    assert recorded and len(recorded) == len(set(recorded))
    counts = _count_grounding_steps(monkeypatch)
    asked.clear()
    assert ground(d, reg) is first
    assert sorted(asked) == recorded
    assert counts == {"validate_signature": 0, "_ground_one": 0}


def test_a_true_that_becomes_one_grounds_afresh(monkeypatch):
    d = parse_domain(WALLED)
    reg = ExternalRegistry()
    reg.register("pathExists", 2, lambda a, b: True)
    ground(d, reg)
    counts = _count_grounding_steps(monkeypatch)
    reg.register("pathExists", 2, lambda a, b: 1)  # == True, but not a bool
    with pytest.raises(GroundingError, match="only Boolean externals"):
        ground(d, reg)
    # ground() itself evaluates the calls, before any ground law is built
    assert counts == {"validate_signature": 1, "_ground_one": 0}


def test_a_changed_external_takes_effect_at_the_next_query():
    domain = parse_domain((samples_dir() / "boxes-grid.cp").read_text())
    problem = parse_problem((samples_dir() / "boxes-grid.prob").read_text(), domain)
    world = parse_world((samples_dir() / "corridor.world").read_text())
    registry = registry_for(world)
    kept = ground(domain, registry)
    assert ground(domain, registry) is kept
    found = plan(domain, problem, registry)
    assert isinstance(found, PlanFound) and found.horizon == 4

    registry.register("pathExists", 2, lambda x, y: False)
    blocked = ground(domain, registry)
    assert blocked is not kept and blocked.laws != kept.laws
    assert plan(domain, problem, registry) == NoPlanUpTo(8)

    registry.register("pathExists", 2, world.path_exists)
    assert ground(domain, registry).laws == kept.laws
    again = plan(domain, problem, registry)
    assert isinstance(again, PlanFound) and emit_plan(again.plan) == emit_plan(found.plan)


# --- what ground() builds, and what waits for the first law read --------------------

def _refuse_to_build_laws(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("a ground law was built")
    monkeypatch.setattr(grounding, "_ground_one", refuse)


def _sample_text(name: str) -> str:
    return (samples_dir() / name).read_text()


@pytest.mark.parametrize("name", ["mapp", "toh", "boxes", "boxes-grid"])
def test_queries_on_a_fresh_domain_build_no_ground_law(monkeypatch, name):
    _refuse_to_build_laws(monkeypatch)
    domain = parse_domain(_sample_text(f"{name}.cp"))
    problem = parse_problem(_sample_text(f"{name}.prob"), domain)
    registry, costs = None, ()
    if name == "boxes-grid":
        registry = registry_for(parse_world(_sample_text("corridor.world")))
        costs = (parse_cost_spec("goto=timeEstimate(@atRobo,$0)"),)
    assert isinstance(plan(domain, problem, registry, costs=costs), PlanFound)
    if name == "boxes":
        init, steps = parse_query(_sample_text("boxes.query"), domain)
    else:
        init, steps = problem.init, [[]]
    assert predict(domain, init, steps, registry).outcomes
    assert isinstance(check_consistency(domain, registry), Consistent)
    gd = ground(domain, registry)
    assert "laws" not in gd.__dict__
    with pytest.raises(AssertionError, match="a ground law was built"):
        gd.laws


def _assert_laws_are_eager(domain, registry=None) -> None:
    gd = ground(domain, registry)
    want = eager_laws(domain, registry)
    assert list(gd.laws) == want
    assert [law.span for law in gd.laws] == [law.span for law in want]


@pytest.mark.parametrize("name", ["boxes", "boxes-grid", "mapp", "toh"])
def test_laws_built_on_demand_equal_an_eager_grounding_on_the_samples(name):
    domain = parse_domain(_sample_text(f"{name}.cp"))
    if not domain.externals:
        _assert_laws_are_eager(domain)
    for world in ("corridor", "open", "walled") if domain.externals else ():
        _assert_laws_are_eager(domain, registry_for(parse_world(_sample_text(f"{world}.world"))))


@pytest.mark.parametrize("name", [*toy_domains.ALL_SMALL, "FACTS", "CHAIN", "EXTERNALS"])
def test_laws_built_on_demand_equal_an_eager_grounding_on_the_toy_corpus(name):
    if name == "EXTERNALS":
        domain, registry = parse_domain(toy_domains.EXTERNALS), toy_domains.externals_registry()
    elif name.isupper():
        domain, registry = parse_domain(getattr(toy_domains, name)), None
    else:
        domain, registry = toy_domains.load(name).domain, toy_domains.registry_of(name)
    _assert_laws_are_eager(domain, registry)


def test_laws_built_on_demand_equal_an_eager_grounding_on_the_benchmark_domains():
    texts = bench_domains()
    assert len(texts) == 36
    for key, (domain_text, world_text) in texts.items():
        domain = parse_domain(domain_text, f"{key}.cp")
        registry = registry_for(parse_world(world_text)) if world_text else None
        _assert_laws_are_eager(domain, registry)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(domains())
def test_laws_built_on_demand_equal_an_eager_grounding_on_random_domains(text):
    try:
        domain = parse_domain(text)
        ground(domain)
    except (ParseError, GroundingError):
        return  # the generator may draw clashing names
    _assert_laws_are_eager(domain)


def test_ground_itself_raises_for_a_non_boolean_external(monkeypatch):
    _refuse_to_build_laws(monkeypatch)
    reg = ExternalRegistry()
    reg.register("pathExists", 2, lambda a, b: 7)
    with pytest.raises(GroundingError, match="only Boolean externals"):
        ground(parse_domain(WALLED), reg)


@pytest.mark.parametrize("registry", [None, ExternalRegistry()], ids=["none", "empty"])
def test_ground_itself_raises_for_a_missing_registry(monkeypatch, registry):
    _refuse_to_build_laws(monkeypatch)
    with pytest.raises(GroundingError, match="no external registered for 'pathExists/2'"):
        ground(parse_domain(WALLED), registry)

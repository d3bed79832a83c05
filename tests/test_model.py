"""Signature validation and formula evaluation."""

import pickle

import pytest

from causalplan import parse_domain, validate_problem, validate_signature
from causalplan.model import (BOOLEAN, And, Atom, AtomF, Constant, Kind, Not,
                              Or, PlanningProblem, Sort, SourceSpan, TRUE, conj,
                              disj, eval_formula, formula_atoms, neg)
from causalplan.parser import ParseError


def boolean_constant(name, kind=Kind.INERTIAL_FLUENT):
    return Constant(name, (), kind, BOOLEAN)


def test_boolean_constant_shape():
    c = boolean_constant("p")
    assert c.is_boolean and c.is_fluent and not c.is_action
    assert set(c.value_sort.members) == {"true", "false"}


def test_atoms_hash_and_compare_by_value():
    # The hash is cached per object; equal atoms built from separately
    # constructed sorts and constants still hash and compare equal.
    def at_obj(value):
        places = Sort("place", ("L1", "L2"))
        box = Sort("box", ("B1",))
        return Atom(Constant("atObj", (box,), Kind.INERTIAL_FLUENT, places), ("B1",), value)

    a, b = at_obj("L1"), at_obj("L1")
    assert a is not b and a.constant is not b.constant
    assert a == b and hash(a) == hash(b) and hash(a) == hash(b)
    assert len({a, b}) == 1
    # the same value as the hash that dataclass would generate
    assert hash(a) == hash((a.constant, a.args, a.value))
    assert hash(a.constant.value_sort) == hash(("place", ("L1", "L2")))
    c = at_obj("L2")
    assert c != a and c.constant == a.constant
    where = SourceSpan("d.cp", 1, 1, 1, 5)
    assert Sort("s", ("x",)) == Sort("s", ("x",), where)
    assert hash(Sort("s", ("x",))) == hash(Sort("s", ("x",), where))
    # a pickle does not carry the cached hash to a process whose str
    # hashes differ
    assert "_hash" not in pickle.loads(pickle.dumps(a)).__dict__


def test_formula_atoms_collects_nested():
    p = AtomF(Atom(boolean_constant("p"), (), "true"))
    q = AtomF(Atom(boolean_constant("q"), (), "true"))
    f = conj([disj([p, Not(q)]), q])
    assert {a.constant.name for a in formula_atoms(f)} == {"p", "q"}


def test_eval_formula_on_assignment():
    p = Atom(boolean_constant("p"), (), "true")
    q = Atom(boolean_constant("q"), (), "true")
    f = conj([AtomF(p), Not(AtomF(q))])
    truth = {("p", ()): "true", ("q", ()): "false"}
    holds = lambda atom: truth[(atom.constant.name, atom.args)] == atom.value
    assert eval_formula(f, holds)
    truth[("q", ())] = "true"
    assert not eval_formula(f, holds)


def test_conj_disj_neg_simplify():
    p = AtomF(Atom(boolean_constant("p"), (), "true"))
    assert conj([]) == TRUE
    assert conj([p]) == p
    assert disj([p]) == p
    assert neg(neg(p)) == p


# --- whole-domain validation through the parser ---------------------------------

def diags_of(text):
    try:
        domain = parse_domain(text)
    except ParseError as e:
        return [str(d) for d in e.diagnostics]
    return [str(d) for d in validate_signature(domain)]


def test_clean_domain_has_no_diagnostics():
    assert diags_of("""
:sorts loc
:objects L1, L2 :: loc;
:constants at :: inertialFluent(loc); go(loc) :: action;
:laws
  inertial at;
  vars x :: loc;
  go(x) causes at=x;
""") == []


def test_object_in_two_sorts_is_fine():
    assert diags_of("""
:sorts small big
:objects a :: small; a, b :: big;
:constants p :: simpleFluent;
:laws
  caused p if p;
""") == []


def test_duplicate_object_in_one_sort_rejected():
    out = diags_of(":sorts s\n:objects a, a :: s;\n:constants p :: simpleFluent;\n")
    assert any("twice" in d for d in out)


def test_action_cannot_be_caused():
    out = diags_of("""
:constants p :: inertialFluent; a :: action;
:laws
  caused a if p;
""")
    assert any("action" in d for d in out)


def test_static_fluent_law_cannot_read_actions():
    # supports for step-0 fluents would otherwise mention actions
    out = diags_of("""
:constants p :: inertialFluent; a :: action;
:laws
  caused p if a;
""")
    assert any("action" in d for d in out)


def test_nonexecutable_may_read_actions():
    assert diags_of("""
:constants p :: inertialFluent; a :: action; b :: action;
:laws
  nonexecutable a if b;
""") == []


def test_inertial_on_action_rejected():
    out = diags_of("""
:constants a :: action;
:laws
  inertial a;
""")
    assert any("inertial" in d or "action" in d for d in out)


def test_unknown_value_rejected():
    out = diags_of("""
:sorts loc
:objects L1 :: loc;
:constants at :: inertialFluent(loc);
:laws
  caused at=L9 if at=L1;
""")
    assert any("L9" in d for d in out)


def test_subsort_by_extension_accepted():
    # a variable of a narrower sort may feed a wider value position
    assert diags_of("""
:sorts disk place
:objects D1 :: disk; D1, P1 :: place;
:constants on(disk) :: inertialFluent(place); touch(disk) :: action;
:laws
  vars d :: disk e :: disk;
  nonexecutable touch(d) if on(e)=d;
""") == []


def test_problem_horizon_must_be_ordered():
    with pytest.raises(ValueError):
        PlanningProblem(horizon=(3, 1))


def test_validate_problem_flags_at_past_horizon():
    domain = parse_domain(":constants p :: inertialFluent;\n:laws\n  inertial p;\n")
    from causalplan.parser import parse_problem
    problem = parse_problem(":init p;\n:at 9 p;\n:horizon 0..2;\n", domain)
    assert any("horizon" in str(d) for d in validate_problem(problem, domain))


def test_wider_variable_sort_names_its_first_extra_member():
    # place has members that disk lacks: P2 is the first of them in place's order
    out = diags_of("""
:sorts disk place
:objects D1 :: disk; P2, D1, P1 :: place;
:constants on(disk) :: inertialFluent(place); touch(disk) :: action;
:laws
  vars p :: place;
  nonexecutable touch(D1) if on(p)=D1;
""")
    assert len(out) == 1 and out[0].endswith(
        "variable 'p' has sort place, expected disk ('P2' is not a member)")

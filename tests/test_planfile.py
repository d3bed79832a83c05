"""Plan-file emission and parsing."""

import pytest

from causalplan.planfile import PlanfileError, emit_plan, parse_plan
from causalplan.planner import Plan


def sample_plan():
    s0 = {("at", ()): "L1", ("holding", ("B1",)): "false"}
    s1 = {("at", ()): "L2", ("holding", ("B1",)): "false"}
    return Plan([[("goto", ("L2",))]], [s0, s1])


def test_roundtrip_is_byte_identical():
    text = emit_plan(sample_plan())
    assert emit_plan(parse_plan(text)) == text


def test_multi_argument_actions_survive():
    p = Plan([[("move", ("D1", "P3")), ("move", ("D2", "P2"))]],
             [{("on", ("D1",)): "D2"}, {("on", ("D1",)): "P3"}])
    back = parse_plan(emit_plan(p))
    assert back.steps == [[("move", ("D1", "P3")), ("move", ("D2", "P2"))]]


def test_empty_step_roundtrip():
    p = Plan([[]], [{("p", ()): "true"}, {("p", ()): "true"}])
    back = parse_plan(emit_plan(p))
    assert back.steps == [[]]


def test_cost_line_roundtrip():
    p = sample_plan()
    p.cost = 6
    assert parse_plan(emit_plan(p)).cost == 6


def test_zero_step_plan():
    p = Plan([], [{("p", ()): "true"}])
    back = parse_plan(emit_plan(p))
    assert back.steps == [] and len(back.trajectory) == 1


def test_comments_and_order_insensitive():
    text = ("# plan\nstep 0: goto(L2)\nstate 1: at=L2\n"
            "state 0: at=L1  # start\n")
    p = parse_plan(text)
    assert p.trajectory[0] == {("at", ()): "L1"}


@pytest.mark.parametrize("bad,fragment", [
    ("", "no states"),
    ("state 0: at=L1\nstate 2: at=L1\nstep 0:\nstep 1:\n", "contiguous"),
    ("state 0: at=L1\nstate 1: at=L2\n", "steps"),
    ("state 0: at=L1\nstate 0: at=L1\n", "duplicate"),
    ("state 0: at=L1 at=L2\n", "twice"),
    ("state 0: at\n", "instance=value"),
    ("wat 0: x\n", "expected"),
    ("state 0: at=L1\nstep 0: go(\n", "instance"),
    ("state 0: at=L1\nstep 0: go(L2), go(L2)\nstate 1: at=L2\n", "line 2: go(L2) occurs twice"),
    # a separating comma needs an action on each side
    ("state 0: at=L1\nstep 0: go(L2),\nstate 1: at=L2\n", "line 2: cannot read instance ''"),
    ("state 0: at=L1\nstep 0: go(L2),, go(L1)\nstate 1: at=L2\n", "line 2: cannot read instance ''"),
    ("state 0: at=L1\nstep 0: ,\nstate 1: at=L2\n", "line 2: cannot read instance ''"),
    ("state 0: at=L1\nstep 0: move(D1,)\nstate 1: at=L2\n", "line 2: empty argument in 'move(D1,)'"),
])
def test_malformed_inputs(bad, fragment):
    with pytest.raises(PlanfileError) as e:
        parse_plan(bad)
    assert fragment in str(e.value)

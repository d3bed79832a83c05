"""The step template's facts against brute-force enumeration.

A fact is a literal that the template's clauses fix at every step where
its atom exists (compiler.StepTemplate), and the encoder drops the
clauses it satisfies.  Here each fact is held to every state and every
transition that tests/enumeration.py finds by evaluating the symbolic
completion: nothing but the facts is read from the compiler.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

import toy_domains
from enumeration import oracle_states, oracle_transitions
from test_parser import domains
from causalplan import ParseError, parse_domain
from causalplan.compiler import step_template
from causalplan.domains import build_toh
from causalplan.grounding import GroundingError, ground


def _holds(fact, state, actions) -> bool:
    atom, truth = fact
    key = (atom.constant.name, atom.args)
    held = key in actions if atom.constant.is_action else state[key] == atom.value
    return held == truth


def _assert_facts_hold(gd, **enumeration) -> int:
    """Check every fact against the enumerated states and transitions
    (enumeration is passed on to oracle_transitions), and return how many
    facts there are."""
    facts = step_template(gd).facts
    fluents = [f for f in facts if not f[0].constant.is_action]
    for state in oracle_states(gd):
        assert all(_holds(f, state, ()) for f in fluents), (state, facts)
    for s0, acts, s1 in oracle_transitions(gd, **enumeration):
        before, after = ({(name, args): v for name, args, v in s} for s in (s0, s1))
        assert all(_holds(f, before, acts) for f in facts), (s0, acts, facts)
        assert all(_holds(f, after, ()) for f in fluents), (s1, facts)
    return len(facts)


@pytest.mark.parametrize("name", [*toy_domains.ALL_SMALL, "FACTS", "CHAIN"])
def test_facts_hold_in_every_enumerated_state_and_transition(name):
    gd = (ground(parse_domain(getattr(toy_domains, name))) if name.isupper()
          else toy_domains.load(name))
    _assert_facts_hold(gd)


def test_facts_hold_for_three_disks():
    # under :noconcurrency, as build_toh poses its problems
    assert _assert_facts_hold(ground(build_toh(3).domain), noconcurrency=True,
                              max_window_atoms=54) == 12


def test_facts_are_the_literals_fixed_at_every_step():
    def facts(text):
        return {(str(a), truth) for a, truth in step_template(ground(parse_domain(text))).facts}

    assert facts(toy_domains.FACTS) == {("q", False), ("v=z0", False), ("v=z8", False),
                                        ("a", False)}
    assert facts(toy_domains.CHAIN) == {("x", False)}
    assert facts(toy_domains.TOGGLE) == set()


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(domains())
def test_facts_hold_on_random_domains(text):
    try:
        gd = ground(parse_domain(text))
        _assert_facts_hold(gd)
    except (ParseError, GroundingError):
        return  # the generator may draw clashing names
    except ValueError as e:
        if "enumerat" not in str(e):
            raise  # only the oracle's size guard may refuse a domain

"""Small ground domains shared by the compiler, planner, and acceptance
tests.  Every entry stays under 22 atoms per step so exhaustive oracle
enumeration is instant."""

from __future__ import annotations

from causalplan import parse_domain, parse_world, registry_for
from causalplan.domains import build_mapp, build_robot_boxes, build_toh
from causalplan.grounding import ExternalRegistry, ground

# Two statically interlocked Booleans: the completion admits exactly
# the all-true and all-false states.
PQ = """
:constants p :: simpleFluent; q :: simpleFluent;
:laws
  caused p if q;
  caused q if p;
"""

TOGGLE = """
:constants b :: inertialFluent; flip :: action;
:laws
  inertial b;
  flip causes b if ~b;
  flip causes b=false if b;
"""

LAMP = """
:constants sw :: inertialFluent; light :: simpleFluent; press :: action;
:laws
  inertial sw;
  caused light if sw;
  caused light=false if ~sw;
  press causes sw if ~sw;
  press causes sw=false if sw;
"""

COUNTER = """
:sorts level
:objects z0, z1, z2 :: level;
:constants v :: inertialFluent(level); inc :: action;
:laws
  inertial v;
  inc causes v=z1 if v=z0;
  inc causes v=z2 if v=z1;
  nonexecutable inc if v=z2;
"""

# A dial with nine notches, more values than the compiler clausifies
# pairwise, so its exactly-one is a sequential counter.
_NOTCHES = [f"n{i}" for i in range(9)]
DIAL = "\n".join([
    ":sorts notch",
    f":objects {', '.join(_NOTCHES)} :: notch;",
    ":constants dial :: inertialFluent(notch); up :: action; down :: action;",
    ":laws",
    "  inertial dial;",
    *(f"  up causes dial={b} if dial={a};\n  down causes dial={a} if dial={b};"
      for a, b in zip(_NOTCHES, _NOTCHES[1:])),
    f"  nonexecutable up if dial={_NOTCHES[-1]};",
    f"  nonexecutable down if dial={_NOTCHES[0]};",
]) + "\n"

WEATHER = """
:constants rain :: inertialFluent; wet :: inertialFluent; mop :: action;
:laws
  exogenous rain;
  inertial wet;
  caused wet if rain;
  mop causes wet=false;
  nonexecutable mop if rain;
"""

DEADEND = """
:constants p :: inertialFluent; a :: action;
:laws
  inertial p;
  a causes p;
  nonexecutable a if p;
"""

GATE = """
:constants in1 :: inertialFluent; in2 :: inertialFluent;
           out :: simpleFluent; set1 :: action; set2 :: action;
:laws
  inertial in1; inertial in2;
  caused out if in1 & in2;
  caused out=false if ~in1 | ~in2;
  set1 causes in1; set2 causes in2;
"""

# Two domains outside ALL_SMALL for the step template's facts, literals
# that hold at every step (see compiler.StepTemplate).  In FACTS they
# reach into a sequential counter (v=z0 and v=z8 are ruled out), into the
# one-way arms of a support (q, never caused, is false at every step) and
# into :noconcurrency pairs (a can only cause what is ruled out).
FACTS = """
:sorts level
:objects z0, z1, z2, z3, z4, z5, z6, z7, z8 :: level;
:constants v :: inertialFluent(level); p :: inertialFluent; q :: simpleFluent;
           s :: simpleFluent; a :: action; c :: action;
:laws
  inertial v; inertial p;
  constraint ~(v=z0) & ~(v=z8);
  a causes v=z0;
  c causes v=z1 if p;
  caused s if p & q | p & v=z8 | v=z2 & ~p;
  nonexecutable c if q;
"""
# In CHAIN, u and w are false at step 0 and x at every step, but ~u
# follows at a later step only from ~w at the one before, and b causes w:
# of the three, only ~x is a fact.  d happens at every step, which no
# fact says, since it would make every :noconcurrency pair a unit.
CHAIN = """
:constants u :: simpleFluent; w :: simpleFluent; x :: simpleFluent;
           b :: action; d :: action;
:laws
  caused u after w;
  b causes w;
  constraint ~x;
  caused false after ~d;
"""

# External calls where closing them changes a formula's shape, and
# bindings that make two atoms one.  A true @near under an or closes the
# or (q's if-part becomes p(x)), a false one under a negated and closes
# it to true, and a constraint whose body closes to true is dropped; with
# x = y, "p(x) & ~p(y)" cannot hold and "p(x) & p(y)" is one literal.
EXTERNALS = """
:sorts thing
:objects A, B, C :: thing;
:constants p(thing) :: inertialFluent; q(thing) :: simpleFluent; r :: simpleFluent;
           go(thing) :: action;
:externals near/2; big/1;
:laws
  inertial p;
  vars x :: thing y :: thing;
  caused q(x) if (p(y) | @near(x, y)) & p(x);
  caused r if p(x) & ~p(y) & ~@near(x, y);
  constraint ~(p(x) & p(y) & @big(x)) | @near(x, y);
  go(x) causes p(y) if ~(@big(y) & p(x)) | q(y);
  nonexecutable go(x) if p(x) & p(y) | q(x) & q(y);
"""


def externals_registry() -> ExternalRegistry:
    """The registry for EXTERNALS: near holds for neighbouring letters,
    big for C alone."""
    reg = ExternalRegistry()
    reg.register("near", 2, lambda x, y: abs(ord(x) - ord(y)) == 1)
    reg.register("big", 1, lambda x: x == "C")
    return reg


def _boxes(num_locations, num_boxes, world_text=None):
    world = parse_world(world_text) if world_text else None
    bundle = build_robot_boxes(num_locations, num_boxes, world)
    return ground(bundle.domain, bundle.registry)


def _mapp(world_text, robots, starts, goals):
    world = parse_world(world_text)
    bundle = build_mapp(world, robots, starts, goals)
    return ground(bundle.domain, bundle.registry)


_TEXTUAL = {
    "pq": PQ,
    "toggle": TOGGLE,
    "lamp": LAMP,
    "counter": COUNTER,
    "dial": DIAL,
    "weather": WEATHER,
    "deadend": DEADEND,
    "gate": GATE,
}

_BUILT = {
    "boxes-m2n1": lambda: _boxes(2, 1),
    "boxes-m2n1-walled": lambda: _boxes(2, 1, "1#2"),
    "boxes-m2n2": lambda: _boxes(2, 2),
    "mapp-1robot": lambda: _mapp("..\n..", 1, [(0, 0)], [(1, 1)]),
    "mapp-2robot": lambda: _mapp("..\n..", 2, [(0, 0), (1, 1)], [(1, 1), (0, 0)]),
    "toh1": lambda: ground(build_toh(1).domain),
}

_WORLDS = {
    "boxes-m2n1-walled": "1#2",
    "mapp-1robot": "..\n..",
    "mapp-2robot": "..\n..",
}

ALL_SMALL = sorted(_TEXTUAL) + sorted(_BUILT)


def load(name: str):
    """Ground domain for one corpus entry."""
    if name in _TEXTUAL:
        return ground(parse_domain(_TEXTUAL[name], source=f"<{name}>"))
    return _BUILT[name]()


def registry_of(name: str):
    """External registry for entries built over a grid, None otherwise."""
    text = _WORLDS.get(name)
    return registry_for(parse_world(text)) if text else None

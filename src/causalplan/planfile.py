"""Plain-text plan files.

A plan file interleaves full states with the actions between them, one
line each, and optionally ends with the plan cost:

    state 0: atObj(B1)=L1 atRobo=L1 holding(B1)=false
    step 0: goto(L2)
    state 1: atObj(B1)=L1 atRobo=L2 holding(B1)=false
    cost: 3

Lines may appear in any order; indices decide.  '#' starts a comment.
The format round-trips byte for byte through emit_plan / parse_plan.
"""

from __future__ import annotations

import re

from .model import State, instance_str, split_top_level
from .planner import Plan


class PlanfileError(Exception):
    pass


def emit_plan(plan: Plan) -> str:
    lines = []
    for t, state in enumerate(plan.trajectory):
        pairs = " ".join(f"{instance_str(k)}={v}" for k, v in sorted(state.items()))
        lines.append(f"state {t}:" + (f" {pairs}" if pairs else ""))
        if t < len(plan.steps):
            acts = ", ".join(instance_str(a) for a in plan.steps[t])
            lines.append(f"step {t}:" + (f" {acts}" if acts else ""))
    if plan.cost is not None:
        lines.append(f"cost: {plan.cost}")
    return "\n".join(lines) + "\n"


_INSTANCE = re.compile(r"\s*(\w+)\s*(?:\(([^()]*)\))?\s*$")
_HEADER = re.compile(r"(state|step)\s+(\d+):(.*)$")


def _parse_instance(text: str, where: str):
    m = _INSTANCE.fullmatch(text)
    if not m:
        raise PlanfileError(f"{where}: cannot read instance {text.strip()!r}")
    name, argtext = m.groups()
    args = tuple(a.strip() for a in argtext.split(",")) if argtext else ()
    if argtext is not None and any(not a for a in args):
        raise PlanfileError(f"{where}: empty argument in {text.strip()!r}")
    return name, args


def parse_plan(text: str) -> Plan:
    states: dict[int, State] = {}
    steps: dict[int, list] = {}
    cost: int | None = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {ln}"
        if line.startswith("cost:"):
            if cost is not None:
                raise PlanfileError(f"{where}: duplicate cost line")
            try:
                cost = int(line[5:].strip())
            except ValueError:
                raise PlanfileError(f"{where}: bad cost {line[5:].strip()!r}") from None
            continue
        m = _HEADER.match(line)
        if not m:
            raise PlanfileError(f"{where}: expected 'state N:', 'step N:' or 'cost:'")
        kind, idx_text, rest = m.groups()
        idx = int(idx_text)
        rest = rest.strip()
        if kind == "state":
            if idx in states:
                raise PlanfileError(f"{where}: duplicate state {idx}")
            state: State = {}
            for tok in rest.split():
                if "=" not in tok:
                    raise PlanfileError(f"{where}: expected instance=value, found {tok!r}")
                inst_text, value = tok.rsplit("=", 1)
                inst = _parse_instance(inst_text, where)
                if not value:
                    raise PlanfileError(f"{where}: missing value in {tok!r}")
                if inst in state:
                    raise PlanfileError(f"{where}: {instance_str(inst)} assigned twice")
                state[inst] = value
            states[idx] = state
        else:
            if idx in steps:
                raise PlanfileError(f"{where}: duplicate step {idx}")
            acts: list = []
            for part in split_top_level(rest) if rest else []:
                inst = _parse_instance(part, where)
                if inst in acts:
                    raise PlanfileError(f"{where}: {instance_str(inst)} occurs twice")
                acts.append(inst)
            steps[idx] = sorted(acts)

    if not states:
        raise PlanfileError("plan file has no states")
    h = max(states)
    if sorted(states) != list(range(h + 1)):
        raise PlanfileError("state indices are not contiguous from 0")
    if sorted(steps) != list(range(h)):
        raise PlanfileError(f"expected steps 0..{h - 1} to match {h + 1} states")
    return Plan([steps[t] for t in range(h)],
                [states[t] for t in range(h + 1)], cost)

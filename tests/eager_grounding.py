"""An eager reference grounding, for the tests.

ground() builds no ground law: it keeps each instance as a (law,
binding) pair, and GroundDomain.laws is built from those pairs on first
read.  eager_laws here builds the ground laws the direct way, with code
of its own: every schema instantiated over its bindings in order, each
external call evaluated where it occurs, the formulas simplified with
model.conj, disj and neg, and an instance that can never fire dropped.
Inertial and exogenous laws stay as written.

bench_domains gives the domain texts that bench/instances.py generates,
each with its world text (None for a domain without externals), from a
child process, since bench/ has modules of its own named as those of
tests/.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

from causalplan.model import (
    FALSE, TRUE, And, Atom, AtomF, Caused, Causes, Constraint, Exogenous, ExternalCall,
    FalseF, Inertial, Nonexecutable, Not, Or, TrueF, conj, disj, neg,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def eager_laws(domain, registry=None) -> list:
    """The ground laws of domain, in ground() order."""
    out = []
    for law in domain.laws:
        if isinstance(law, (Inertial, Exogenous)):
            out.append(law)
            continue
        names = [v for v, _ in law.vars]
        for combo in itertools.product(*(s.members for _, s in law.vars)):
            g = _instance(law, dict(zip(names, combo)), registry)
            if g is not None:
                out.append(g)
    return out


def _atom(a: Atom, env: dict) -> Atom:
    return Atom(a.constant, tuple(env.get(t, t) for t in a.args), env.get(a.value, a.value))


def _formula(f, env: dict, registry):
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, AtomF):
        return AtomF(_atom(f.atom, env))
    if isinstance(f, Not):
        return neg(_formula(f.sub, env, registry))
    if isinstance(f, (And, Or)):
        parts = [_formula(p, env, registry) for p in f.parts]
        return conj(parts) if isinstance(f, And) else disj(parts)
    if isinstance(f, ExternalCall):
        val = registry.evaluate(f.name, tuple(env.get(t, t) for t in f.args))
        assert isinstance(val, bool), (f, val)
        return TRUE if val else FALSE
    raise TypeError(f"cannot ground {f!r}")


def _instance(law, env: dict, registry):
    if isinstance(law, Caused):
        cond = _formula(law.cond, env, registry)
        after = None if law.after is None else _formula(law.after, env, registry)
        if isinstance(cond, FalseF) or isinstance(after, FalseF):
            return None
        head = None if law.head is None else _atom(law.head, env)
        return Caused(head, cond, after, (), law.span)
    if isinstance(law, Constraint):
        body = _formula(law.body, env, registry)
        return None if isinstance(body, TrueF) else Constraint(body, (), law.span)
    cond = _formula(law.cond, env, registry)
    if isinstance(cond, FalseF):
        return None
    if isinstance(law, Causes):
        return Causes(_atom(law.action, env), _atom(law.effect, env), cond, (), law.span)
    assert isinstance(law, Nonexecutable), law
    return Nonexecutable(_atom(law.action, env), cond, (), law.span)


_BENCH_DOMAINS = """
import json, sys, instances
out = {}
for seed in map(int, sys.argv[1:]):
    for i, t in enumerate(instances.toh_instances(seed)):
        out[f"toh-deepen/{seed}/{i}"] = (t.domain, None)
    for i, m in enumerate(instances.mapp_instances(seed)):
        out[f"mapp-wide/{seed}/{i}"] = (m.domain, None)
    for i, b in enumerate(instances.boxes_instances(seed)):
        out[f"boxes-session/{seed}/{i}"] = (b.domain, b.world)
print(json.dumps(out))
"""


def bench_domains(seeds=(1, 7)) -> dict[str, tuple[str, str | None]]:
    """{workload/seed/index: (domain text, world text or None)}."""
    out = subprocess.run([sys.executable, "-c", _BENCH_DOMAINS, *map(str, seeds)],
                         cwd=BENCH, capture_output=True, text=True, check=True).stdout
    return json.loads(out)

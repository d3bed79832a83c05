"""Desugaring, unrolling, completion, and clausification.

The assertions about which model sets an encoding admits are checked
against truth-table enumeration (tests/oracles.py), never against the
package's own solver.
"""

import hashlib
import itertools
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

import oracles
import toy_domains
from test_parser import domains
from causalplan import ParseError, compile_cnf, parse_domain
from causalplan.compiler import (CompileError, Encoder, ExactlyOne, Nogood,
                                 Support, TimedAtom, TimedLit, _ClauseSink, _dnf,
                                 atom_table, completion_for, desugar, eval_completion,
                                 step_template)
from causalplan.grounding import GroundDomain, GroundingError, ground
from causalplan.model import FINAL, And, Atom, AtomF, Caused, Not, formula_atoms
from causalplan.sat import Solver, emit_dimacs, enumerate_models


def gd_of(text):
    return ground(parse_domain(text))


def atom_index(cnf):
    """The variable of each timed atom of cnf: the rows' nonzero variables
    are in atom table order."""
    return dict(zip(cnf.atoms, (v for row in cnf.rows for v in row if v)))


def model_set(cnf):
    """Projections of all models onto the timed atoms, in atom table order,
    via truth tables."""
    models = oracles.truth_table_models(cnf.var_count, cnf.clauses)
    index = atom_index(cnf)
    real = [index[ta] - 1 for ta in cnf.atoms]
    return {tuple(m[i] for i in real) for m in models}


def atoms_str(cnf):
    return [str(a) for a in cnf.atoms]


# --- desugar ----------------------------------------------------------------------

def test_desugar_causes_moves_action_to_after():
    gd = gd_of("""
:constants p :: inertialFluent; a :: action;
:laws
  a causes p if ~p;
""")
    rules = desugar(gd)
    effect = [r for r in rules if r.after is not None]
    assert len(effect) == 1
    head_atom, positive = effect[0].head
    assert str(head_atom) == "p" and positive


def test_desugar_nonexecutable_headless():
    gd = gd_of("""
:constants p :: inertialFluent; a :: action;
:laws
  nonexecutable a if p;
""")
    rules = desugar(gd)
    bans = [r for r in rules if r.head is None]
    assert len(bans) == 1
    assert bans[0].after is not None  # action and condition both at t


def test_desugar_inertial_expands_per_value():
    gd = gd_of("""
:sorts level
:objects z0, z1, z2 :: level;
:constants v :: inertialFluent(level);
:laws
  inertial v;
""")
    rules = desugar(gd)
    frames = [r for r in rules if r.after is not None]
    assert len(frames) == 3  # one self-support rule per value


def test_desugar_rejects_simple_fluent_after_head():
    gd = gd_of("""
:constants p :: simpleFluent; a :: action;
:laws
  caused p if p;
  a causes p;
""")
    with pytest.raises(ValueError):
        from enumeration import oracle_paths
        oracle_paths(gd, 2)


# --- unroll -----------------------------------------------------------------------

def test_unroll_statics_with_actions_stop_before_final_step():
    gd = gd_of("""
:constants p :: inertialFluent; a :: action;
:laws
  inertial p;
  nonexecutable a if p;
""")
    bans = [f for f in completion_for(gd, 2) if isinstance(f, Nogood)]
    ban_steps = sorted({max(l.step for l in f.body) for f in bans if f.body})
    assert ban_steps == [0, 1]  # no action atoms at step 2


def test_unroll_h0_has_no_action_rules():
    gd = gd_of("""
:constants p :: inertialFluent; a :: action;
:laws
  inertial p;
  a causes p;
""")
    table = atom_table(gd, 0)
    assert all(not ta.atom.constant.is_action for ta in table)


# --- completion -------------------------------------------------------------------

def test_pq_completion_models_tt_and_ff():
    # interlocked supports: p <-> q and q <-> p leave exactly TT and FF
    cnf = compile_cnf(gd_of("""
:constants p :: simpleFluent; q :: simpleFluent;
:laws
  caused p if q;
  caused q if p;
"""), 0)
    assert atoms_str(cnf) == ["p@0", "q@0"]
    assert model_set(cnf) == {(True, True), (False, False)}


def test_unruled_fluent_forced_false():
    # no law mentions r: its support biconditional has no bodies
    cnf = compile_cnf(gd_of("""
:constants p :: simpleFluent; r :: simpleFluent;
:laws
  caused p if p;
"""), 0)
    assert atoms_str(cnf) == ["p@0", "r@0"]
    assert model_set(cnf) == {(True, False), (False, False)}


def test_inertial_kind_free_at_step_zero():
    cnf = compile_cnf(gd_of("""
:constants p :: inertialFluent;
:laws
  inertial p;
"""), 0)
    assert model_set(cnf) == {(True,), (False,)}


def test_toggle_transitions_exact():
    cnf = compile_cnf(gd_of("""
:constants b :: inertialFluent; flip :: action;
:laws
  inertial b;
  flip causes b if ~b;
  flip causes b=false if b;
"""), 1)
    assert atoms_str(cnf) == ["b@0", "flip@0", "b@1"]
    # (b0, flip0, b1): flip inverts, inertia copies
    assert model_set(cnf) == {
        (False, False, False), (False, True, True),
        (True, False, True), (True, True, False),
    }


def test_exactly_one_per_multivalued_instance():
    cnf = compile_cnf(gd_of("""
:sorts level
:objects z0, z1 :: level;
:constants v :: inertialFluent(level);
:laws
  inertial v;
"""), 0)
    assert atoms_str(cnf) == ["v=z0@0", "v=z1@0"]
    assert model_set(cnf) == {(True, False), (False, True)}


def test_constraint_prunes_models():
    cnf = compile_cnf(gd_of("""
:constants p :: inertialFluent; q :: inertialFluent;
:laws
  inertial p; inertial q;
  constraint ~(p & q);
"""), 0)
    assert model_set(cnf) == {(False, False), (True, False), (False, True)}


def test_noconcurrency_blocks_action_pairs():
    gd = gd_of("""
:constants p :: inertialFluent; a :: action; b :: action;
:laws
  inertial p;
  a causes p; b causes p;
""")
    free = compile_cnf(gd, 1)
    seq = compile_cnf(gd, 1, noconcurrency=True)
    both = {m for m in model_set(free)
            if m[atoms_str(free).index("a@0")] and m[atoms_str(free).index("b@0")]}
    assert both  # concurrent execution is a model without the switch
    assert not {m for m in model_set(seq)
                if m[atoms_str(seq).index("a@0")] and m[atoms_str(seq).index("b@0")]}


def test_completion_formula_count_structure():
    gd = gd_of("""
:constants p :: inertialFluent; a :: action;
:laws
  inertial p;
  a causes p;
""")
    formulas = completion_for(gd, 1)
    supports = [f for f in formulas if isinstance(f, Support)]
    # p@0 (true/false faces), p@1 (true/false), a@0 (true/false)
    heads = sorted(str(s.head) for s in supports)
    assert heads == ["a@0", "p@0", "p@1", "~a@0", "~p@0", "~p@1"]


def test_eval_completion_finds_violation():
    gd = gd_of("""
:constants p :: simpleFluent;
:laws
  caused p if p;
""")
    formulas = completion_for(gd, 0)
    ta = TimedAtom(gd.fluent_atoms[0], 0)
    ok = eval_completion(formulas, lambda lit: lit.positive == (lit.atom == ta))
    assert ok is None  # p true, supported by itself
    # an unsupported truth must surface as the violated support
    gd2 = gd_of(":constants p :: simpleFluent; q :: simpleFluent;\n:laws\n  caused q if q;\n")
    formulas2 = completion_for(gd2, 0)
    bad = eval_completion(formulas2, lambda lit: lit.positive)
    assert isinstance(bad, Support)


# --- clausification ---------------------------------------------------------------

def test_variable_numbering_keeps_each_steps_numbers_as_it_grows():
    gd = gd_of("""
:constants b :: inertialFluent; flip :: action;
:laws
  inertial b;
  flip causes b if ~b;
""")
    cnf = compile_cnf(gd, 2)
    assert atoms_str(cnf) == ["b@0", "flip@0", "b@1", "flip@1", "b@2"]
    # b@0 and step 0's activation variable 2; each new step numbers, after
    # every variable in use, the actions before it, its fluents, its
    # activation variable and its definition variables (6 at step 1)
    index = atom_index(cnf)
    assert [index[ta] for ta in cnf.atoms] == [1, 3, 4, 7, 8]
    assert cnf.rows == [(1, 3), (4, 7), (8, 0)]
    assert atom_index(compile_cnf(gd, 1)).items() <= index.items()


def test_dimacs_emission_is_stable():
    gd = gd_of("""
:sorts loc
:objects L1, L2 :: loc;
:constants at :: inertialFluent(loc); go(loc) :: action;
:laws
  inertial at;
  vars y :: loc;
  go(y) causes at=y;
""")
    one = emit_dimacs(compile_cnf(gd, 2))
    two = emit_dimacs(compile_cnf(gd, 2))
    assert one == two
    assert one.startswith("c atom 1 ")
    header = next(l for l in one.splitlines() if l.startswith("p cnf "))
    _, _, nv, nc = header.split()
    body = [l for l in one.splitlines() if l and not l.startswith(("c", "p"))]
    assert len(body) == int(nc)
    assert all(l.endswith(" 0") for l in body)


def test_tautological_clauses_dropped():
    cnf = compile_cnf(gd_of("""
:constants p :: inertialFluent;
:laws
  inertial p;
  constraint p | ~p;
"""), 0)
    assert model_set(cnf) == {(True,), (False,)}


# (head, bodies, the clauses _add_support writes) over variables 1..5:
# a body that is the head alone, whose support leaves only "the other
# body implies head"; an own-head body next to another body; and three
# multi-literal bodies, each with a one-way arm
SUPPORT_SHAPES = [
    (1, [[1], [2, 3]], [(1, -2, -3)]),
    (1, [[1, 2], [3, 4]], [(-6, 3), (-6, 4), (-1, 2, 6), (1, -3, -4)]),
    (1, [[2, 3], [-2, 4], [3, -4, 5]],
     [(-6, 2), (-6, 3), (-7, -2), (-7, 4), (-8, 3), (-8, -4), (-8, 5), (-1, 6, 7, 8),
      (1, -2, -3), (1, 2, -4), (1, -3, 4, -5)]),
]


@pytest.mark.parametrize("head,bodies,clauses", SUPPORT_SHAPES,
                         ids=["head alone", "own head", "three bodies"])
def test_support_clauses_have_the_models_of_the_biconditional(head, bodies, clauses):
    # by truth table, with the arms (variables above 5) existentially
    # quantified: the clauses' models on 1..5 are those of head <-> OR(bodies)
    sink = _ClauseSink(5)
    sink._add_support(head, bodies)
    assert sink.clauses == clauses
    got = {m[:5] for m in oracles.truth_table_models(sink.var_count, sink.clauses)}

    def holds(m, l):
        return m[abs(l) - 1] == (l > 0)

    want = {m for m in itertools.product((False, True), repeat=5)
            if holds(m, head) == any(all(holds(m, l) for l in b) for b in bodies)}
    assert got == want


# --- encoder ----------------------------------------------------------------------

def test_encoder_asserts_at_steps():
    gd = gd_of("""
:constants b :: inertialFluent; flip :: action;
:laws
  inertial b;
  flip causes b if ~b;
  flip causes b=false if b;
""")
    d = gd.domain
    from causalplan.parser import parse_problem
    p = parse_problem(":init ~b;\n:goal b;\n:horizon 0..1;\n", d)
    enc = Encoder(gd, 1)
    enc.assert_formula(p.init, 0)
    enc.assert_formula(p.goal, 1)
    models = model_set(enc.cnf())
    assert models == {(False, True, True)}  # flip must fire


def test_encoder_rejects_action_at_final_step():
    gd = gd_of("""
:constants b :: inertialFluent; flip :: action;
:laws
  inertial b;
  flip causes b;
""")
    from causalplan.model import Atom, AtomF
    flip = next(a for a in gd.action_atoms)
    enc = Encoder(gd, 1)
    with pytest.raises(CompileError):
        enc.assert_formula(AtomF(flip), 1)


# --- templated encoder against direct clausification ------------------------------

class SymbolicClauses:
    """The clauses of one horizon, written straight from the symbolic
    completion_for(gd, h) over the TimedAtom table, numbered step-major;
    the first n_completion of them are the completion's.  Under the
    template's facts (see with_facts), the Encoder's grown template must
    reproduce them clause for clause, up to the numbering of its
    variables."""

    def __init__(self, gd, horizon, noconcurrency=False):
        self.horizon = horizon
        self.table = tuple(atom_table(gd, horizon))
        self.index = {ta: i + 1 for i, ta in enumerate(self.table)}
        self.var_count = len(self.table)
        self.clauses = []
        for f in completion_for(gd, horizon, noconcurrency=noconcurrency):
            if isinstance(f, Support):
                self.support(self.lit(f.head),
                             [sorted(self.lit(l) for l in body) for body in f.bodies])
            elif isinstance(f, Nogood):
                self.add(sorted(-self.lit(l) for l in f.body))
            else:
                self.exactly_one([self.index[ta] for ta in f.atoms])
        self.n_completion = len(self.clauses)

    def with_facts(self, facts):
        """The clauses under facts, (atom, truth) pairs that hold at every
        step where the atom exists: one unit clause per fact and step,
        then every completion clause that no fact satisfies, less the
        literals that a fact falsifies, then the asserted clauses as they
        are.  Checks first that unit propagation over the completion's
        clauses fixes every fact, unless it finds a conflict."""
        truth = dict(facts)
        true = {v if truth[ta.atom] else -v for ta, v in self.index.items() if ta.atom in truth}
        completion, asserted = self.clauses[:self.n_completion], self.clauses[self.n_completion:]
        fixed = _unit_propagated(completion)
        assert fixed is None or true <= fixed, sorted(true - fixed)
        return ([(l,) for l in sorted(true, key=abs)]
                + [tuple(l for l in c if -l not in true)
                   for c in completion if true.isdisjoint(c)]
                + asserted)

    def exactly_one(self, vs):
        """At least one of vs, and at most one: pairwise for up to eight
        values, above that a sequential counter whose register r[i] is
        implied by each of vs[0..i] and excludes vs[i + 1]."""
        self.add(vs)
        if len(vs) <= 8:
            for i, a in enumerate(vs):
                for b in vs[i + 1:]:
                    self.add((-a, -b))
            return
        r = [self.fresh() for _ in vs[:-1]]
        self.add((-vs[0], r[0]))
        for i in range(1, len(vs) - 1):
            self.add((-vs[i], r[i]))
            self.add((-r[i - 1], r[i]))
            self.add((-vs[i], -r[i - 1]))
        self.add((-vs[-1], -r[-1]))

    def lit(self, l):
        try:
            v = self.index[TimedAtom(l.atom, l.step)]
        except KeyError:
            raise CompileError(f"{l.atom}@{l.step} is outside the encoding horizon") from None
        return v if l.positive else -v

    def fresh(self):
        self.var_count += 1
        return self.var_count

    def add(self, lits):
        c = tuple(dict.fromkeys(lits))
        if any(-x in c for x in c):
            return
        if not c:
            v = self.fresh()
            self.clauses += [(v,), (-v,)]
        else:
            self.clauses.append(c)

    def arms(self, bodies):
        out = []
        for b in bodies:
            if len(b) == 1:
                out.append(b[0])
                continue
            d = self.fresh()
            for l in b:
                self.add((-d, l))
            self.add([d] + [-l for l in b])
            out.append(d)
        return out

    def support(self, head, bodies):
        """head <-> OR(bodies): a body that holds head implies it, so head
        leaves that body and the body gets no clause that it implies head;
        a body that is head alone makes head's own clause true.  Each other
        body b implies head in one clause, and a multi-literal body in
        head's clause is an arm d with d -> b only."""
        own = [b for b in bodies if head in b]
        rest = [b for b in bodies if head not in b]
        cases = [[l for l in b if l != head] for b in own] + rest
        if not cases:
            self.add((-head,))
        elif len(cases) == 1:
            for l in cases[0]:
                self.add((-head, l))
        elif all(cases):
            arms = []
            for b in cases:
                if len(b) == 1:
                    arms.append(b[0])
                    continue
                d = self.fresh()
                for l in b:
                    self.add((-d, l))
                arms.append(d)
            self.add([-head] + arms)
        for b in rest:
            self.add([head] + [-l for l in b])

    def assert_formula(self, f, step):
        for atom in formula_atoms(f):
            if atom.constant.is_action and step >= self.horizon:
                raise CompileError(f"action atom {atom} cannot be asserted at step {step}")
        disjuncts = _dnf(f)
        if disjuncts is None:
            self.add(())
            return
        bodies = [sorted(self.lit(TimedLit(a, step, pos)) for a, pos in d) for d in disjuncts]
        if any(not b for b in bodies):
            return
        if len(bodies) == 1:
            for l in bodies[0]:
                self.add((l,))
        else:
            self.add(self.arms(bodies))


# multi-body supports with definition variables, a tautology, a nogood over
# two steps, and a falsum nogood that takes a fresh variable at every step
EDGES = """
:sorts level
:objects z0, z1 :: level;
:constants p :: inertialFluent; q :: simpleFluent; v :: inertialFluent(level);
           a :: action; b :: action;
:laws
  inertial p; inertial v;
  caused q if p | v=z0;
  caused q=false if ~p & v=z1;
  caused v=z1 if v=z1 & q after a | b & p;
  a causes p if ~p;
  b causes v=z0;
  nonexecutable a if b;
  caused false after a & b & ~p;
  constraint p | ~p;
  constraint ~(q & v=z0) | p;
"""
FALSUM = ":constants p :: inertialFluent;\n:laws\n  inertial p;\n  constraint false;\n"
TOGGLE_EXTRAS = (":init ~b & flip;\n:goal b;\n:at 1 b | flip;\n:at final b | ~b & b;\n"
                 ":horizon 0..3;\n")


def _sample(name):
    """A sample domain, its problem, and the corridor world's registry if
    the domain declares externals."""
    from sample_files import samples_dir

    from causalplan.grid import parse_world, registry_for
    from causalplan.parser import parse_problem

    domain = parse_domain((samples_dir() / f"{name}.cp").read_text())
    problem = parse_problem((samples_dir() / f"{name}.prob").read_text(), domain)
    registry = (registry_for(parse_world((samples_dir() / "corridor.world").read_text()))
                if domain.externals else None)
    return domain, problem, registry


def _equivalence_cases():
    from causalplan.domains import build_mapp, build_toh
    from causalplan.grid import parse_world
    from causalplan.parser import parse_problem
    from causalplan.planner import close_problem

    out = []
    for name in ("boxes", "boxes-grid", "mapp", "toh"):
        domain, problem, registry = _sample(name)
        out.append((name, ground(domain, registry), close_problem(domain, problem, registry)))
    toh = build_toh(3)
    out.append(("build_toh(3)", ground(toh.domain),
                close_problem(toh.domain, toh.problem, toh.registry)))
    # nine cells: each robot's location has more values than the
    # compiler clausifies pairwise
    mapp = build_mapp(parse_world("...\n...\n..."), 2, [(0, 0), (2, 2)], [(2, 2), (0, 0)])
    out.append(("build_mapp(3x3)", ground(mapp.domain, mapp.registry),
                close_problem(mapp.domain, mapp.problem, mapp.registry)))
    toggle = parse_domain(toy_domains.TOGGLE)
    out.append(("toggle with :at", ground(toggle),
                close_problem(toggle, parse_problem(TOGGLE_EXTRAS, toggle))))
    for name in toy_domains.ALL_SMALL:
        out.append((name, toy_domains.load(name), None))
    out.append(("edges", gd_of(EDGES), None))
    out.append(("falsum", gd_of(FALSUM), None))
    out.append(("facts", gd_of(toy_domains.FACTS), None))
    out.append(("chain", gd_of(toy_domains.CHAIN), None))
    out.append(("externals", ground(parse_domain(toy_domains.EXTERNALS),
                                    toy_domains.externals_registry()), None))
    return out


def _encode_both(gd, query, h, noconcurrency):
    """(templated, symbolic) encodings of one horizon, or the CompileError
    message each raised."""
    def run(make, asserting):
        try:
            enc = make()
            if query is not None:
                init, goal, extras, _, _ = query
                asserting(enc, init, 0)
                asserting(enc, goal, h)
                for when, f in extras:
                    asserting(enc, f, h if when == FINAL else when)
            return enc
        except CompileError as e:
            return str(e)

    templated = run(lambda: Encoder(gd, h, noconcurrency=noconcurrency),
                    Encoder.assert_formula)
    symbolic = run(lambda: SymbolicClauses(gd, h, noconcurrency),
                   SymbolicClauses.assert_formula)
    return templated, symbolic


def _unit_propagated(clauses):
    """The literals that unit propagation over clauses fixes, or None on a
    conflict: every clause is read again until a pass fixes nothing."""
    true = set()
    grew = True
    while grew:
        grew = False
        for c in clauses:
            if any(l in true for l in c):
                continue
            free = [l for l in c if -l not in true]
            if not free:
                return None
            if len(free) == 1:
                true.add(free[0])
                grew = True
    return true


def _by_meaning(clauses, atom_of):
    """The clauses as a multiset over what each variable stands for: a
    timed atom (atom_of), the conjunction of the atom literals l with a
    clause (-d, l) for a definition variable d (whether or not a clause
    (d, -l1, ...) also defines it), and of "false" if a unit (-d,) says
    that a fact falsified one of them, one shared falsum for a variable
    with the units (v,) and (-v,), or, for a sequential-counter register
    r, the set of timed atoms it covers: those x with a clause (-x, r),
    and those covered by a register r' with a clause (-r', r) that comes
    earlier (a register whose atoms facts rule out covers none).  A
    variable that is none of these raises KeyError."""
    name = dict(atom_of)
    covers, conjuncts = {}, {}

    def lit(l):
        return name[abs(l)], l > 0

    units = {c[0] for c in clauses if len(c) == 1}
    for c in clauses:
        d = c[0]
        if len(c) == 2 and d < 0 and -d not in name and abs(c[1]) in name:
            conjuncts.setdefault(-d, set()).add(lit(c[1]))
        elif len(c) == 2 and d < 0 < c[1] and c[1] not in name:
            covers.setdefault(c[1], set()).update(
                {name[-d]} if -d in name else covers.setdefault(-d, set()))
        if len(c) == 1 and d > 0 and d not in name and -d in units:
            name[d] = "falsum"
        elif len(c) == 1 and d < 0 and -d not in name and -d not in units:
            conjuncts.setdefault(-d, set()).add("false")
    name.update((d, ("and", frozenset(ls))) for d, ls in conjuncts.items())
    name.update((r, ("covers", frozenset(atoms))) for r, atoms in covers.items())
    return Counter(tuple(map(lit, c)) for c in clauses)


def _used(clauses):
    return len({abs(l) for c in clauses for l in c})


@pytest.mark.parametrize("name,gd,query", _equivalence_cases(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_templated_encoder_equals_symbolic_clausification(name, gd, query):
    for noconcurrency in (False, True):
        for h in range(-1, 7):
            templated, symbolic = _encode_both(gd, query, h, noconcurrency)
            where = (name, h, noconcurrency)
            if isinstance(symbolic, str):
                assert templated == symbolic, where
                continue
            assert not isinstance(templated, str), (where, templated)
            cnf = templated.cnf()
            assert cnf.atoms == symbolic.table, where
            assert len(set(atom_index(cnf).values())) == len(cnf.atoms), where
            # numbered but unused: h + 1 activation variables
            assert cnf.var_count == symbolic.var_count + h + 1, where
            # a domain with no facts is compared with no simplification
            facts = step_template(gd).facts
            clauses = symbolic.with_facts(facts) if facts else symbolic.clauses
            assert _used(cnf.clauses) == _used(clauses), where
            got = _by_meaning(cnf.clauses, {v: ta for ta, v in atom_index(cnf).items()})
            want = _by_meaning(clauses, dict(enumerate(symbolic.table, 1)))
            assert got == want, where


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(domains())
def test_templated_encoder_equals_symbolic_clausification_on_random_domains(text):
    # domains with facts and without, in more shapes than the fixed cases have
    try:
        gd = ground(parse_domain(text))
    except (ParseError, GroundingError):
        return  # the generator may draw clashing names
    test_templated_encoder_equals_symbolic_clausification("random", gd, None)


def test_templated_encoder_rejects_actions_at_the_final_step_alike():
    gd = gd_of(toy_domains.TOGGLE)
    flip = gd.action_atoms[0]
    for h in range(0, 4):
        for step in (h, h + 1):
            enc, ref = Encoder(gd, h), SymbolicClauses(gd, h)
            with pytest.raises(CompileError) as got:
                enc.assert_formula(AtomF(flip), step)
            with pytest.raises(CompileError) as want:
                ref.assert_formula(AtomF(flip), step)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name,gd", [(n, gd) for n, gd, query in _equivalence_cases()
                                     if query is None],
                         ids=lambda x: x if isinstance(x, str) else "")
def test_growing_encoder_has_the_fixed_encodings_models(name, gd):
    # grown step by step, the guarded clauses with the current activation
    # literal assumed have exactly cnf()'s models on the timed atoms
    for noconcurrency in (False, True):
        enc = Encoder(gd, 0, noconcurrency=noconcurrency)
        for h in range(3):
            if h:
                enc.extend()
            cnf = enc.cnf()
            index = atom_index(cnf)
            real = [index[ta] for ta in cnf.atoms]
            want = {tuple(m[v] for v in real)
                    for m in enumerate_models(Solver(cnf.var_count, cnf.clauses), real)}
            grown = Solver(enc.var_count, enc.clauses + [(enc.active,)])
            got = {tuple(m[v] for v in real) for m in enumerate_models(grown, real)}
            assert got == want, (name, h, noconcurrency)
            direct = Encoder(gd, h, noconcurrency=noconcurrency)
            assert (direct.var_count, direct.clauses) == (enc.var_count, enc.clauses)


def caused_action():
    """EDGES with two static laws that cause an action, which validation
    rejects: "action constants cannot be caused explicitly"."""
    edges = gd_of(EDGES)
    a = edges.action_atoms[0]
    q = next(atom for atom in edges.fluent_atoms if atom.constant.name == "q")
    laws = (Caused(a, And((AtomF(q), Not(AtomF(a))))), Caused(a, AtomF(q)))
    return GroundDomain(edges.domain, tuple((law, ()) for law in edges.laws + laws)), laws


def caused_by_action():
    """A toggle with a simple fluent r that only the action causes, in a
    static law, which validation rejects: "action constant 'flip' not
    allowed here"."""
    base = gd_of(":constants b :: inertialFluent; r :: simpleFluent; flip :: action;\n"
                 ":laws\n  inertial b;\n  flip causes b if ~b;\n  flip causes b=false if b;\n")
    r = next(atom for atom in base.fluent_atoms if atom.constant.name == "r")
    laws = (Caused(r, AtomF(base.action_atoms[0])),)
    return GroundDomain(base.domain, tuple((law, ()) for law in base.laws + laws)), laws


@pytest.mark.parametrize("make", [caused_action, caused_by_action],
                         ids=["caused action", "caused by an action"])
def test_encoder_refuses_a_law_that_sets_the_last_step_apart(make):
    # completion_for stamps such a law only below the last step, where its
    # actions exist, so the last step's supports would differ from every
    # other step's; the encoder, which grows every step from one block,
    # names the first such law instead
    gd, laws = make()
    for h in range(7):
        with pytest.raises(CompileError, match=re.escape(f"'{laws[0]}'")):
            Encoder(gd, h)
        bodies = {f.head: f.bodies for f in completion_for(gd, h) if isinstance(f, Support)}
        for law in laws:
            (cond,) = _dnf(law.cond)
            stamped = [frozenset(TimedLit(a, t, pos) for a, pos in cond)
                       in bodies.get(TimedLit(law.head, t), ()) for t in range(h + 1)]
            assert stamped == [True] * h + [False], (law, h)


TOGGLE = (":constants b :: inertialFluent; r :: simpleFluent; flip :: action;\n"
          ":laws\n  inertial b;\n  flip causes b if ~b;\n")


@pytest.mark.parametrize("extra, make, message", [
    ("caused r if flip after b;", lambda flip, b, r: Caused(r, AtomF(flip), AtomF(b)),
     "cannot compile 'caused r if flip after b;': its rules would differ at the last step, "
     "which has no actions"),
    ("caused flip if b after b;", lambda flip, b, r: Caused(flip, AtomF(b), AtomF(b)),
     "after-rule head flip is an action atom"),
    # both refusals apply; the head's comes first
    ("caused flip if flip after b;", lambda flip, b, r: Caused(flip, AtomF(flip), AtomF(b)),
     "after-rule head flip is an action atom"),
], ids=["reads an action", "causes an action", "both"])
def test_the_template_refuses_an_after_law_it_cannot_stamp(extra, make, message):
    # validation rejects each law (an action in an after-law's if-part, an
    # action as its head), so the ground domain is built directly, with the
    # law as a rule of its own, as a library caller could
    with pytest.raises(GroundingError):
        gd_of(TOGGLE + "  " + extra + "\n")
    base = gd_of(TOGGLE)
    law = make(*(Atom(base.domain.constant_by_key[(n, 0)], (), "true")
                 for n in ("flip", "b", "r")))
    assert str(law) == extra
    gd = GroundDomain(base.domain, tuple((l, ()) for l in base.laws + (law,)))
    for h in range(3):
        with pytest.raises(CompileError) as e:
            Encoder(gd, h)
        assert str(e.value) == message


# sha256 of the (var_count, clauses) of each encoding, in order: a sample
# at h = 0..3, each without and then with :noconcurrency, or build_toh(4)
# at h = 15; the Hanoi ones are presimplified with the template's facts
ENCODING_DIGESTS = {
    "boxes": "84d8582f2aa6cbf3",
    "boxes-grid": "00d82c72ef49e653",
    "mapp": "f31be83ac6a5e2e5",
    "toh": "59042b132cd66083",
    "build_toh(4)": "7fada52d8e690da4",
}


@pytest.mark.parametrize("name", sorted(ENCODING_DIGESTS))
def test_encodings_are_pinned(name):
    if name == "build_toh(4)":
        from causalplan.domains import build_toh
        encs = [Encoder(ground(build_toh(4).domain), 15)]
    else:
        domain, _, registry = _sample(name)
        gd = ground(domain, registry)
        encs = [Encoder(gd, h, noconcurrency=nc) for h in range(4) for nc in (False, True)]
    digest = hashlib.sha256()
    for enc in encs:
        digest.update(repr((enc.var_count, enc.clauses)).encode())
    assert digest.hexdigest()[:16] == ENCODING_DIGESTS[name]

"""CDCL engine against truth-table ground truth, plus DIMACS exchange."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import search_golden
from causalplan import PlanFound, plan, planner, sat
from causalplan.domains import build_toh
from causalplan.sat import (DimacsError, ResourceLimit, Solver, emit_dimacs,
                            enumerate_models, parse_dimacs, read_dimacs_model,
                            solve)


def random_cnf(rng, max_vars=16, max_clauses=60):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        width = min(n, rng.choice((1, 2, 2, 3, 3, 3, 4)))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return n, clauses


def check_model_satisfies(model, clauses):
    return all(any(model[l] if l > 0 else not model[-l] for l in c) for c in clauses)


def test_trivial_cases():
    assert solve((0, [])).is_sat
    assert solve((3, [])).is_sat
    assert not solve((1, [[1], [-1]])).is_sat
    assert not solve((2, [[]])).is_sat


def test_unit_chain_propagates():
    res = solve((3, [[1], [-1, 2], [-2, 3]]))
    assert res.is_sat and res.model[1] and res.model[2] and res.model[3]


def test_agreement_on_seeded_batch():
    rng = random.Random(12345)
    for i in range(300):
        n, clauses = random_cnf(rng, max_vars=10, max_clauses=30)
        res = solve((n, clauses), seed=i)
        expect = oracles.truth_table_sat(n, clauses)
        assert res.is_sat == expect, (n, clauses)
        if res.is_sat:
            assert check_model_satisfies(res.model, clauses)


@pytest.mark.parametrize("holes", [1, 2, 3, 4])
def test_pigeonhole_unsat(holes):
    n, clauses = oracles.php_clauses(holes + 1, holes)
    assert not solve((n, clauses)).is_sat


def test_php_satisfiable_when_it_fits():
    n, clauses = oracles.php_clauses(3, 3)
    res = solve((n, clauses))
    assert res.is_sat and check_model_satisfies(res.model, clauses)


def test_seeds_change_search_not_answers():
    rng = random.Random(7)
    n, clauses = random_cnf(rng)
    answers = {solve((n, clauses), seed=s).is_sat for s in range(5)}
    assert len(answers) == 1


def test_assumptions():
    n, clauses = 3, [[1, 2], [-1, 3]]
    assert solve((n, clauses), assumptions=(1,)).is_sat
    assert solve((n, clauses), assumptions=(1, -3)).is_sat is False
    res = solve((n, clauses), assumptions=(-1,))
    assert res.is_sat and res.model[2]


def test_incremental_add_clause():
    s = Solver(3, [[1, 2, 3]])
    assert s.solve().is_sat
    assert s.add_clause([-1])
    assert s.add_clause([-2])
    res = s.solve()
    assert res.is_sat and res.model[3]
    assert s.add_clause([-3]) is False or not s.solve().is_sat


def test_conflict_limit_raises():
    n, clauses = oracles.php_clauses(6, 5)
    with pytest.raises(ResourceLimit) as e:
        Solver(n, clauses).solve(max_conflicts=3)
    stats = e.value.stats
    assert e.value.limit == "conflicts" and stats.conflicts == 3
    assert str(e.value) == (f"solver conflicts limit reached after 3 conflicts "
                            f"and {stats.decisions} decisions")


def test_time_limit_holds_without_conflicts(monkeypatch):
    # 400 decisions and no conflict: the clock is read at the 256th step
    with pytest.raises(ResourceLimit) as e:
        Solver(400, ()).solve(max_seconds=1e-9)
    assert e.value.limit == "seconds"
    assert (e.value.stats.conflicts, e.value.stats.decisions) == (0, 255)
    assert str(e.value) == "solver seconds limit reached after 0 conflicts and 255 decisions"
    # without a time limit the clock is read only to time the call
    reads = []
    monkeypatch.setattr(sat, "time", SimpleNamespace(
        perf_counter=lambda: reads.append(0) or float(len(reads))))
    assert Solver(400, ()).solve().is_sat and len(reads) == 2


def test_enumerate_models_counts():
    # 3 free vars constrained by one clause: 7 models over vars 1..3
    models = enumerate_models(Solver(3, [[1, 2, 3]]), [1, 2, 3])
    assert len(models) == 7
    assert len({tuple(m) for m in models}) == 7


def test_enumerate_models_projection():
    # projecting onto var 1 collapses var 2's freedom
    models = enumerate_models(Solver(2, [[1, 2]]), [1])
    assert sorted((m[1],) for m in models) == [(False,), (True,)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_agreement_property(seed):
    rng = random.Random(seed)
    n, clauses = random_cnf(rng, max_vars=8, max_clauses=20)
    assert solve((n, clauses)).is_sat == oracles.truth_table_sat(n, clauses)


# --- DIMACS ----------------------------------------------------------------------

def test_dimacs_parse_ignores_comments():
    n, clauses = parse_dimacs("c hi\np cnf 2 2\n1 -2 0\nc mid\n2 0\n")
    assert n == 2 and [list(c) for c in clauses] == [[1, -2], [2]]


def test_dimacs_parse_rejects_junk():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\n1 5 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("1 0\n")


def test_dimacs_roundtrip_preserves_clauses():
    from causalplan import compile_cnf, parse_domain
    from causalplan.grounding import ground
    cnf = compile_cnf(ground(parse_domain(
        ":constants p :: inertialFluent; a :: action;\n:laws\n  inertial p;\n  a causes p;\n")), 1)
    text = emit_dimacs(cnf)
    n, clauses = parse_dimacs(text)
    assert n == cnf.var_count
    assert [sorted(c) for c in clauses] == [sorted(c) for c in cnf.clauses]


def test_dimacs_of_a_plain_pair_names_no_atom():
    assert emit_dimacs((2, [(1, -2)])) == "c aux 1\nc aux 2\np cnf 2 1\n1 -2 0\n"


def test_read_dimacs_model_formats():
    from causalplan import compile_cnf, parse_domain
    from causalplan.grounding import ground
    cnf = compile_cnf(ground(parse_domain(
        ":constants p :: inertialFluent;\n:laws\n  inertial p;\n")), 0)
    res = solve(cnf)
    lits = [v if res.model[v] else -v for v in range(1, cnf.var_count + 1)]
    flat = " ".join(map(str, lits))
    for text in (f"s SATISFIABLE\nv {flat} 0\n", f"SAT\n{flat} 0\n", f"{flat}\n"):
        back = read_dimacs_model(text, cnf)
        assert back.is_sat and list(back.model) == list(res.model)


def test_read_dimacs_model_rejects_nonmodel():
    from causalplan import compile_cnf, parse_domain
    from causalplan.grounding import ground
    gd = ground(parse_domain(
        ":constants p :: simpleFluent; q :: simpleFluent;\n:laws\n  caused p if q;\n  caused q if p;\n"))
    cnf = compile_cnf(gd, 0)
    with pytest.raises(DimacsError):
        read_dimacs_model("1 -2\n", cnf)  # p without q violates the support


def test_read_dimacs_model_unsat_line():
    from causalplan import compile_cnf, parse_domain
    from causalplan.grounding import ground
    cnf = compile_cnf(ground(parse_domain(
        ":constants p :: inertialFluent;\n:laws\n  inertial p;\n")), 0)
    back = read_dimacs_model("s UNSATISFIABLE\n", cnf)
    assert not back.is_sat


def test_order_heap_stays_bounded():
    # bumps leave stale entries behind; they are dropped in bulk
    n, clauses = oracles.php_clauses(7, 6)
    s = Solver(n, clauses)
    assert not s.solve().is_sat
    assert s.stats.conflicts > 100
    assert len(s.order) <= 2 * s.nvars + 2


def test_a_rescale_keeps_branching_on_the_most_active_variable():
    # The third bump lands after a rescale; the heap must order variable 1
    # by its rescaled activity, not by the key it was pushed with.
    s = Solver(3, [(1, 2, 3)])
    s.RANDOM_FREQ = 0
    s.var_inc = 1e99
    s._bump([1])
    s.var_inc = 2e100
    s._bump([2])  # rescales every activity by 1e-100
    s._bump([3])
    assert s.activity[1:] == pytest.approx([0.1, 2.0, 2.0])
    assert s._pick_branch() == -2


@pytest.mark.parametrize("freq", [0.0, 1.0])
def test_a_pick_with_every_variable_assigned_leaves_the_heap(freq):
    s = Solver(3, [(1, 2, 3)])
    s.RANDOM_FREQ = freq
    for lit in (1, -2, 3):
        s.trail_lim.append(len(s.trail))
        s._enqueue(lit)
    order = list(s.order)
    assert len(order) == 3
    rng = random.Random()
    rng.setstate(s.rng.getstate())
    assert s._pick_branch() == 0
    assert s.order == order
    # the draws of the random pick, which finds nothing, and no others:
    # the later picks of this search and of later solves see the same
    # random sequence
    if rng.random() < freq:
        rng.randrange(1, 4)
    assert s.rng.getstate() == rng.getstate()


class CheckedBranching(Solver):
    """A solver that checks every pick against a scan of the variables,
    and the order heap's invariant after every backtrack."""

    RANDOM_FREQ = 0
    picks = 0

    def _unassigned(self):
        return [v for v in range(1, self.nvars + 1) if not self.val[v]]

    def _pick_branch(self):
        free = self._unassigned()
        lit = super()._pick_branch()
        if not free:
            assert lit == 0
        else:
            v = min(free, key=lambda u: (-self.activity[u], u))
            assert lit == self.saved[v] * v
        self.picks += 1
        return lit

    def _backtrack(self, target):
        super()._backtrack(target)
        current = {v for key, v in self.order if key == -self.activity[v]}
        assert all(v in current and self.in_order[v] for v in self._unassigned())


@pytest.mark.parametrize("var_inc", [1.0, 1e98])  # 1e98 rescales after a few conflicts
def test_branching_picks_the_most_active_unassigned_variable(var_inc):
    rng = random.Random(31)
    cases = [(50, search_golden.random_3cnf(rng, 50, 213)) for _ in range(12)]
    cases.append(oracles.php_clauses(6, 5))  # UNSAT; SAT models are checked by _verify
    conflicts = rescaled = 0
    for seed, (n, clauses) in enumerate(cases):
        s = CheckedBranching(n, clauses, seed=seed)
        s.var_inc = var_inc
        res = s.solve()
        assert s.picks > 0
        conflicts += s.stats.conflicts
        rescaled += s.var_inc < var_inc
    assert not res.is_sat
    assert conflicts > 500
    assert rescaled == 0 if var_inc == 1.0 else rescaled > 5


def test_search_counters_on_php_7_6_are_pinned():
    # The search is a fixed function of the seed: a change to the
    # propagation or branching order moves these and must say so.
    n, clauses = oracles.php_clauses(7, 6)
    s = Solver(n, clauses, seed=0)
    assert not s.solve().is_sat
    assert (s.stats.conflicts, s.stats.decisions, s.stats.propagations) == (739, 911, 9531)


def test_search_matches_golden():
    # search_golden.json pins every solve's counters and learnt clauses
    got, want = search_golden.record(), search_golden.pinned()
    moved = [name for name in want if got.get(name) != want[name]]
    assert got.keys() == want.keys() and moved == [], f"the search moved on {moved}"


def test_conflict_analysis_matches_resolution(monkeypatch):
    # every learnt clause, its asserting literal and its backjump level,
    # against first-UIP learning written as resolution (oracles.first_uip)
    checked = []

    class CheckedAnalysis(Solver):
        def _analyze(self, confl):
            want = oracles.first_uip(confl, self.trail, self.level, self.reason,
                                     len(self.trail_lim))
            learnt, bt = super()._analyze(confl)
            assert (set(learnt), learnt[0], bt) == want
            checked.append(learnt)
            return learnt, bt

    monkeypatch.setattr(planner, "Solver", CheckedAnalysis)
    for disks in (3, 4):
        toh = build_toh(disks)
        for seed in (0, 1):
            assert isinstance(plan(toh.domain, toh.problem, seed=seed), PlanFound)
    on_toh = len(checked)
    for seed, clauses in search_golden.random_formulas():
        CheckedAnalysis(search_golden.RANDOM_VARS, clauses, seed=seed).solve()
    assert on_toh > 250 and len(checked) - on_toh > 5000


def test_verify_checks_clauses_added_after_solving():
    s = Solver(3, [(1, 2, 3)])
    assert s.solve().is_sat
    assert s.add_clause((-1, -2))
    with pytest.raises(AssertionError):
        s._verify((False, True, True, False))  # breaks only (-1, -2)


def test_verify_checks_the_assumptions():
    # a model of every given clause that falsifies an assumption is
    # refused, as a goal that is assumed rather than given would be
    s = Solver(3, [(1, 2, 3)])
    s._verify((False, False, True, False), [2, -3])
    with pytest.raises(AssertionError, match=r"\(3,\)"):
        s._verify((False, False, True, False), [2, 3])


@pytest.mark.parametrize("n,clauses", [(1, [(-1,)]), (2, ())])
def test_solve_range_checks_every_assumption_before_it_changes_anything(n, clauses):
    # an out-of-range assumption after one that fails (the first case)
    # or after one that would be decided (the second) raises, on a fresh
    # solver and after a solve, and leaves the trail as it was
    s = Solver(n, clauses)
    for _ in range(2):
        trail, trail_lim = list(s.trail), list(s.trail_lim)
        for bad in (5, -5, 0):
            with pytest.raises(ValueError, match=f"literal {bad} out of range for {n} variables"):
                s.solve([1, bad])
            assert (s.trail, s.trail_lim) == (trail, trail_lim)
        s.solve()


def test_add_clause_drops_tautologies_and_repeats():
    s = Solver(3, [])
    assert s.add_clause((1, 2, -1)) and s.clauses == []
    assert s.add_clause((2, 3, 2, 3)) and s.clauses == [[2, 3]]
    assert s.given == [(1, 2, -1), (2, 3, 2, 3)]
    with pytest.raises(ValueError):
        s.add_clause((1, 4))


def test_extend_loads_clean_clauses_in_batches():
    # a solver grown batch by batch answers like a fresh one on every prefix
    rng = random.Random(99)
    for trial in range(60):
        n, clauses = random_cnf(rng, max_vars=10, max_clauses=30)
        grown = Solver(0, (), seed=trial)
        cut = sorted(rng.sample(range(len(clauses) + 1), 2))
        for batch in (clauses[:cut[0]], clauses[cut[0]:cut[1]], clauses[cut[1]:]):
            top = max((abs(l) for c in batch for l in c), default=0)
            grown.extend(max(top, grown.nvars), [tuple(c) for c in batch])
            loaded = clauses[:len(grown.given)]
            res = grown.solve()
            assert res.is_sat == oracles.truth_table_sat(grown.nvars, loaded), (trial, loaded)
            if res.is_sat:
                assert check_model_satisfies(res.model, loaded)
    with pytest.raises(ValueError):
        Solver(0, ()).extend(2, [(1, 3)])
    # a bad literal is found whether or not its clause holds a level-0
    # literal (1 is fixed true), and before any clause of the batch loads
    for bad in [(1, 3), (-1, -3), (2, -3), (-3, 2), (1, 0), (2, 0), (0,)]:
        s = Solver(2, [(1,)])
        before = (list(s.given), [list(c) for c in s.clauses], list(s.trail))
        with pytest.raises(ValueError):
            s.extend(2, [(-1, 2), bad])
        assert (s.given, s.clauses, s.trail) == before, bad
        assert s.extend(2, [(-1, 2)]) and s.trail == [1, 2]


def test_a_refused_batch_changes_nothing():
    # the range check counts the variables the batch would grow to, and
    # runs before anything grows, backtracks or loads
    searched = Solver(4, [(1, 2), (-1, 3), (2, -3, 4)], seed=0)
    assert searched.solve().is_sat and searched.trail_lim
    for s in (Solver(0, ()), Solver(3, [(1,), (-1, 2, 3)]), searched):
        before = (s.nvars, list(s.given), [list(c) for c in s.clauses], list(s.trail),
                  list(s.order), bytes(s.in_order))
        with pytest.raises(ValueError, match="out of range for 5 variables"):
            s.extend(5, [(1, 2), (3, -6)])
        after = (s.nvars, s.given, s.clauses, s.trail, s.order, bytes(s.in_order))
        assert after == before
    with pytest.raises(ValueError, match="literal 3 out of range for 2 variables"):
        Solver(0, ()).extend(2, [(1, 3)])


def assert_literal_layout(s, before):
    """The solver's tables are consistent; before maps each literal that
    had a value to that value, which it must keep."""
    n = s.nvars
    assert len(s.val) == len(s.watches) == 2 * n + 1
    assert s.val[0] == 0 and s.watches[0] == []
    assert all(s.val[v] == -s.val[-v] for v in range(1, n + 1))
    assert all(s.val[l] == x for l, x in before.items())
    stored = {id(c): c for c in s.clauses}
    watched_by = {}
    for l in (*range(1, n + 1), *range(-n, 0)):
        for c in s.watches[l]:
            watched_by.setdefault(id(c), []).append(l)
    assert watched_by.keys() == stored.keys()
    assert all(sorted(watched_by[i]) == sorted(c[:2]) for i, c in stored.items())
    for v in range(1, n + 1):
        r = s.reason[v]
        if r is not None:
            assert id(r) in stored and (v if s.val[v] == 1 else -v) in r


def test_a_grown_solver_keeps_its_literal_tables_consistent():
    # One solver grown over several batches, solving between them (which
    # learns clauses) and adding a level-0 unit, checked from the outside:
    # a growth that moved an old variable's negative entry would read
    # another variable's value and watches there.
    rng = random.Random(8)
    planted = [None] + [rng.random() < 0.5 for _ in range(150)]
    s = Solver(0, (), seed=0)
    learnt = 0
    for n in range(30, 151, 30):
        # a level-0 unit, then 4-literal clauses that the planted
        # assignment satisfies
        v = rng.randrange(1, n + 1)
        batch = [(v if planted[v] else -v,)]
        while len(batch) < 300:
            vs = rng.sample(range(1, n + 1), 4)
            c = [v if rng.random() < 0.5 else -v for v in vs]
            if any(planted[l] if l > 0 else not planted[-l] for l in c):
                batch.append(tuple(c))
        s._backtrack(0)
        before = {l: s.val[l] for v in range(1, s.nvars + 1) for l in (v, -v) if s.val[l]}
        assert s.extend(n, batch)
        assert_literal_layout(s, before)
        stored = len(s.clauses)
        assert s.solve().is_sat
        learnt += len(s.clauses) - stored
        assert_literal_layout(s, {})
        v = rng.randrange(1, n + 1)
        assert s.add_clause((v if planted[v] else -v,))
        assert_literal_layout(s, {})
    assert learnt > 100 and s.trail_lim == [] and len(s.trail) >= 10


def test_retired_activation_literal_leaves_its_clauses_satisfied():
    # clauses under -3 hold while 3 is assumed; fixing -3 satisfies them
    s = Solver(0, ())
    s.extend(3, [(1, 2), (-1, -3), (-2, -3)])
    assert not s.solve([3]).is_sat
    assert s.solve().is_sat
    s.extend(3, [(-3,)])
    res = s.solve()
    assert res.is_sat and not res.model[3]
    assert not s.solve([3]).is_sat

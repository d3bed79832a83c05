"""Embedded CDCL SAT solver plus DIMACS exchange.

Conflict-driven clause learning with two-literal watching, first-UIP
learning with local minimization, activity-driven branching, saved
phases, and Luby restarts.  The search is deterministic for a fixed
seed (default 0); wall-clock time never influences a decision unless a
time limit is set.  Every SAT answer is verified against the clause set
before it is returned.

Conflict analysis (see Solver._analyze) walks the trail back from the
false clause to the first UIP, then minimizes locally (Sorensson &
Biere, "Minimizing Learned Clauses", 2009): a learnt literal goes when
each literal of its reason has its variable in the clause or is fixed
at level 0, with no recursion into those reasons.  The highest level
among the literals left besides the asserting one is the backjump
level, and the first of them at that level is the clause's second
watch.

Branching takes the most active unassigned variable, the lowest-numbered
one on a tie, from a heap that re-inserts a variable only when it has no
entry at its current activity (after MiniSat's order heap: Een &
Sorensson, "An Extensible SAT-solver", 2003); see Solver.  A variable
first gets an entry once the batch that added it is loaded, and only if
that batch left it unassigned.

Clauses can be added between solve() calls, which keeps learned
clauses alive: enumerate_models blocks each model it finds on the
solver it is given.  A solver can also grow: extend() adds variables
and bulk-loads clauses that are already clean (no repeated literal, no
complementary pair), which is how a query loads its encoding: a plan
search appends one step per horizon, and predict loads its one horizon
before it enumerates.  Loading costs about one attach per clause: a
unit is enqueued, but propagated at once only if some clause watches
its complement; otherwise nothing can (see _load), and the unit waits
on the trail for the next propagation.  Clauses that hold only for one
horizon carry the negation of an activation literal that solve()
assumes; once that literal is fixed false, they stay loaded but are
satisfied at level 0, so they never propagate or conflict again.  No
clause is ever deleted.
Every SAT model is checked against every clause the solver was given,
as given.

The solver's tables are indexed by the literal (see Solver).  Growing
inserts new variables' entries in place after the last positive one, so
each negative entry keeps its distance from the end, and aliases stay valid.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field
from itertools import chain


class ResourceLimit(Exception):
    """Raised when a conflict or time budget runs out; distinct from UNSAT.
    limit names the budget that ran out, "conflicts" or "seconds"; stats
    are the solver's counters when it did."""

    def __init__(self, stats: "Stats", limit: str):
        self.stats = stats
        self.limit = limit
        super().__init__(f"solver {limit} limit reached after {stats.conflicts} conflicts "
                         f"and {stats.decisions} decisions")


class DimacsError(Exception):
    pass


@dataclass
class Stats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    elapsed: float = 0.0


@dataclass
class SolveResult:
    status: str  # "SAT" | "UNSAT"
    model: tuple[bool, ...] | None = None  # index 0 unused
    stats: Stats = field(default_factory=Stats)

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"


def _luby(i: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,... (1-based)."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Solver:
    """CDCL over variables 1..n_vars.  Literals are nonzero ints.

    val[l] is the value of literal l (0 unassigned, 1 true, -1 false) and
    watches[l] the clauses that watch it; entry 0 is unused, and the 2n
    entries for n variables run 1..n, then -n..-1, so that Python's
    negative indexing finds val[-l], the complement's value, counted from
    the end.  saved, level, reason, activity and in_order are indexed by
    variable.  Watch lists and reasons hold the clause itself, a list kept
    in clauses whose first two literals are watched.

    order is a heapq of (-activity, variable) entries.  An entry is
    current while its key is still -activity[v]; a bump leaves the old
    one behind, stale, and _pick_branch discards stale entries as it pops
    them.  in_order[v] is set while v has a current entry.  Invariant:
    every unassigned variable up to ordered has one.  So _backtrack
    pushes only a variable whose mark is clear, _bump pushes only one
    whose mark is set (a marked variable needs its new key; an unmarked
    one is assigned and gets its entry when it is unassigned), and a
    pick, the first current entry of an unassigned variable, is the
    argmin of (-activity, v) over the unassigned variables.  Activities
    only grow between rebuilds of the heap (a rescale or a compaction),
    so an equal key means current.

    The variables above ordered are those that _grow has added since.
    extend gives each one that its batch left unassigned an entry, at
    key 0.0, once the batch is loaded, so a variable that the batch
    fixes at level 0 never gets one.
    """

    RESTART_BASE = 128
    VAR_DECAY = 0.95
    RANDOM_FREQ = 0.02

    def __init__(self, n_vars: int, clauses, seed: int = 0):
        self.ok = True
        self.clauses: list[list[int]] = []  # attached clauses, learnt ones too
        self.given: list = []  # every clause handed in, as given
        self._fixed: set[int] = set()  # see _level0
        # tables by literal or by variable; _grow sizes them to n_vars
        self.nvars = 0
        self.val = [0]
        self.watches: list[list[list[int]]] = [[]]
        self.level = [0]
        self.reason: list[list[int] | None] = [None]
        self.saved = [-1]  # phase saving, prefer false
        self.activity = [0.0]
        self.order: list[tuple[float, int]] = []  # heap of (-activity, variable)
        self.in_order = bytearray(1)  # has a current entry in order
        self.ordered = 0  # the variables the heap's invariant covers
        self.seen = bytearray(1)  # _analyze's marks, all clear between calls
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.rng = random.Random(seed)
        self.stats = Stats()
        given = [tuple(c) for c in clauses]
        self.extend(n_vars, _cleaned(given), given)

    # --- assignment plumbing ---

    def _enqueue(self, lit: int, reason: list[int] | None = None) -> None:
        v = lit if lit > 0 else -lit
        self.val[lit] = 1
        self.val[-lit] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _rebuild_order(self) -> None:
        """One current entry per unassigned variable, and none else: drops
        the stale entries, and rekeys every entry after a rescale."""
        activity, val, in_order = self.activity, self.val, self.in_order
        order = self.order
        order[:] = [(-activity[v], v) for v in range(1, self.nvars + 1) if not val[v]]
        heapq.heapify(order)
        in_order[:] = bytes(len(in_order))
        for _, v in order:
            in_order[v] = 1
        self.ordered = self.nvars

    def _order_new(self) -> None:
        """Give each unassigned variable above ordered its entry, at key 0.0
        and in increasing order.  Every key already in the heap is at most
        0.0 and every variable in it is lower, so appending keeps the heap
        property."""
        val, in_order = self.val, self.in_order
        new = [v for v in range(self.ordered + 1, self.nvars + 1) if not val[v]]
        self.order += [(0.0, v) for v in new]
        for v in new:
            in_order[v] = 1
        self.ordered = self.nvars

    def _bump(self, vs) -> None:
        """Add var_inc to the activity of each variable of vs, in order."""
        activity, in_order, order = self.activity, self.in_order, self.order
        inc = self.var_inc
        push = heapq.heappush
        for v in vs:
            a = activity[v] + inc
            activity[v] = a
            if a > 1e100:
                activity[:] = [x * 1e-100 for x in activity]
                self.var_inc = inc = inc * 1e-100
                self._rebuild_order()
            elif in_order[v]:
                push(order, (-a, v))
        if len(order) > 2 * self.nvars + 2:
            self._rebuild_order()

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        trail = self.trail
        limit = self.trail_lim[target]
        val, saved, reason = self.val, self.saved, self.reason
        activity, in_order, order = self.activity, self.in_order, self.order
        push = heapq.heappush
        for lit in trail[limit:]:
            if lit > 0:
                v = lit
                saved[v] = 1
            else:
                v = -lit
                saved[v] = -1
            val[lit] = val[-lit] = 0
            reason[v] = None
            if not in_order[v]:
                in_order[v] = 1
                push(order, (-activity[v], v))
        del trail[limit:]
        del self.trail_lim[target:]
        self.qhead = len(trail)
        if len(order) > 2 * self.nvars + 2:
            self._rebuild_order()

    # --- clause management ---

    def add_clause(self, lits) -> bool:
        """Add a clause at decision level 0; it may repeat a literal or hold
        a complementary pair (then it is dropped).  Returns False if it
        makes the formula trivially unsatisfiable."""
        lits = tuple(lits)
        return self.extend(self.nvars, _cleaned((lits,)), (lits,))

    def extend(self, n_vars: int, clauses, given=None) -> bool:
        """Grow to n_vars variables and add clauses that are already clean:
        no literal twice, no complementary pair (an encoder's output).

        This checks the range of all the literals at once, against the
        grown variable count, and raises before anything changes.  Then
        it backtracks to level 0, grows, loads the batch (see _load) and
        gives the new variables the batch left unassigned their heap
        entries.  given, if set, is what the batch was cleaned from (by
        add_clause or the constructor); it is range-checked and kept for
        _verify instead.  Returns False if the formula is now trivially
        unsatisfiable."""
        clauses = list(clauses)
        given = clauses if given is None else given
        n = max(n_vars, self.nvars)
        lits = set(chain.from_iterable(given))
        if lits and (min(lits) < -n or max(lits) > n or 0 in lits):
            for c in given:
                self._check_range(c, n)
        self._backtrack(0)
        self._grow(n_vars)
        if self.ok:
            self.given += given
            self._load(clauses)
        self._order_new()
        return self.ok

    def _load(self, clauses) -> None:
        """Attach clean clauses at level 0, in order.  A clause costs little
        more than attaching it: the solver keeps the set of literals with a
        level-0 value, and only a clause shorter than two literals or
        touching that set is simplified first: a satisfied clause is
        dropped, false literals are stripped, and a unit is enqueued.

        A unit lit is propagated at once only if some clause watches -lit.
        Otherwise lit and -lit join the level-0 set and lit waits on the
        trail for the next _propagate (later here, or when solve starts),
        which gives the same trail, clauses and watch lists: no clause can
        start watching -lit meanwhile, since this strips it from every
        clause it loads and _propagate never moves a watch onto a false
        literal, so propagating lit later finds nothing to do either.
        Clears ok if the formula is now trivially unsatisfiable."""
        store, watches, val = self.clauses, self.watches, self.val
        fixed = self._level0()
        for c in clauses:
            if len(c) > 1 and fixed.isdisjoint(c):
                c = list(c)
                store.append(c)
                watches[c[0]].append(c)
                watches[c[1]].append(c)
                continue
            rest: list[int] = []
            for l in c:
                if not val[l]:
                    rest.append(l)
                elif val[l] == 1:
                    break  # satisfied at level 0
            else:
                if len(rest) > 1:
                    self._attach(rest)
                    continue
                if rest:
                    lit = rest[0]
                    self._enqueue(lit)
                    if not watches[-lit]:
                        # as _level0() would: lit is the one entry it lacks
                        fixed.add(lit)
                        fixed.add(-lit)
                        continue
                # waiting units are propagated, and so counted, as loaded
                # before an empty clause refuses the batch too
                if self._propagate() is not None or not rest:
                    self.ok = False
                    return
                self._level0()

    def _level0(self) -> set[int]:
        """The literals with a level-0 value, both signs, brought up to date
        with the trail's level-0 part, which only ever grows (call at level
        0).  The set holds two literals per trail entry it has seen."""
        fixed = self._fixed
        new = self.trail[len(fixed) >> 1:]
        if new:
            fixed.update(new)
            fixed.update([-l for l in new])
        return fixed

    def _check_range(self, lits, n_vars: int) -> None:
        """Raise on a literal outside n_vars variables."""
        for l in lits:
            if not (1 <= abs(l) <= n_vars):
                raise ValueError(f"literal {l} out of range for {n_vars} variables")

    def _grow(self, n_vars: int) -> None:
        extra = n_vars - self.nvars
        if extra <= 0:
            return
        # new literal entries go between the positive and negative ones
        at = self.nvars + 1
        self.val[at:at] = [0] * (2 * extra)
        self.watches[at:at] = [[] for _ in range(2 * extra)]
        self.level += [0] * extra
        self.reason += [None] * extra
        self.saved += [-1] * extra
        self.activity += [0.0] * extra
        self.in_order += bytes(extra)  # no entries yet: see _order_new
        self.seen += bytes(extra)
        self.nvars = n_vars

    def _attach(self, c: list[int]) -> None:
        self.clauses.append(c)
        self.watches[c[0]].append(c)
        self.watches[c[1]].append(c)

    # --- search ---

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None.  Does
        _enqueue's work inline.  The trail is walked from qhead by one list
        iterator, which also yields the literals appended meanwhile.  A
        clause that finds a new literal to watch leaves the watch list of
        neg, the literal that became false; the list is rebuilt only
        then, keeping its order, from the clauses that still have neg as
        one of their first two literals."""
        watches, val = self.watches, self.val
        trail, level, reason = self.trail, self.level, self.reason
        enqueue = trail.append
        dl = len(self.trail_lim)
        start = self.qhead
        pending = iter(trail)
        pending.__setstate__(start)  # the iterator's position
        for lit in pending:
            neg = -lit
            ws = watches[neg]
            moved = False
            for c in ws:
                w0 = c[0]
                if w0 == neg:
                    c[0] = w0 = c[1]
                    c[1] = neg
                x = val[w0]
                if x == 1:
                    continue
                if len(c) > 2:
                    # look for a literal to watch instead of neg
                    for k in range(2, len(c)):
                        lk = c[k]
                        if val[lk] != -1:
                            c[1] = lk
                            c[k] = neg
                            watches[lk].append(c)
                            moved = True
                            break
                    else:
                        k = 0
                    if k:
                        continue
                if x:
                    break  # c is false: a conflict
                val[w0] = 1
                val[-w0] = -1
                v = w0 if w0 > 0 else -w0
                level[v] = dl
                reason[v] = c
                enqueue(w0)
            else:
                if moved:
                    watches[neg] = [d for d in ws if d[1] == neg or d[0] == neg]
                continue
            if moved:
                watches[neg] = [d for d in ws if d[1] == neg or d[0] == neg]
            self.stats.propagations += trail.index(lit, start) + 1 - start
            self.qhead = len(trail)
            return c
        self.stats.propagations += len(trail) - start
        self.qhead = len(trail)
        return None

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learning from the conflicting clause confl; returns the
        learnt clause, its asserting literal first, and the level to
        backjump to.

        The walk resolves back along the trail from confl, marking in seen
        each variable above level 0 that it meets, until one marked
        literal of the current level is left (the first UIP).  Then local
        minimization (Sorensson & Biere, "Minimizing Learned Clauses",
        2009) drops each other literal whose reason's literals are all
        marked or fixed at level 0: at that point seen marks exactly the
        variables of the clause before minimization.  The first literal
        of the highest level among the rest moves to the second slot, to
        be watched, and that level is the backjump level (0 for a unit)."""
        seen = self.seen  # cleared through bumped before returning
        level, trail, reason = self.level, self.trail, self.reason
        learnt: list[int] = [0]
        bumped: list[int] = []  # in the order first seen
        path = 0
        p = 0
        idx = len(trail)
        cur_level = len(self.trail_lim)
        while True:
            for q in confl:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v]:
                    lv = level[v]
                    if lv > 0:
                        seen[v] = 1
                        bumped.append(v)
                        if lv >= cur_level:
                            path += 1
                        else:
                            learnt.append(q)
            while True:
                idx -= 1
                p = trail[idx]
                if seen[p if p > 0 else -p]:
                    break
            v = p if p > 0 else -p
            path -= 1
            if path == 0:
                break
            confl = reason[v]
            seen[v] = 0
        learnt[0] = -p
        self._bump(bumped)

        # keep q unless every literal of its reason is marked or at level 0;
        # the reason's own literal -q is marked, as q's variable is
        kept = 1
        bt = 0
        for q in learnt[1:]:
            r = reason[q if q > 0 else -q]
            if r is not None:
                for x in r:
                    u = x if x > 0 else -x
                    if not seen[u] and level[u]:
                        break
                else:
                    continue  # redundant
            lv = level[q if q > 0 else -q]
            if lv > bt:
                bt = lv
                second = kept
            learnt[kept] = q
            kept += 1
        del learnt[kept:]
        for v in bumped:
            seen[v] = 0
        if kept > 1:
            learnt[1], learnt[second] = learnt[second], learnt[1]
        return learnt, bt

    def _pick_branch(self) -> int:
        rng, nvars, val = self.rng, self.nvars, self.val
        if nvars and rng.random() < self.RANDOM_FREQ:
            start = rng.randrange(1, nvars + 1)
            for v in chain(range(start, nvars + 1), range(1, start)):
                if not val[v]:
                    return self.saved[v] * v
        heap, activity, in_order = self.order, self.activity, self.in_order
        pop = heapq.heappop
        while heap:
            key, v = pop(heap)
            if key != -activity[v]:
                continue  # stale: v was bumped after this entry was pushed
            in_order[v] = 0
            if not val[v]:
                return self.saved[v] * v
        return 0

    def solve(self, assumptions=(), *, max_conflicts: int | None = None,
              max_seconds: float | None = None) -> SolveResult:
        """Search under assumptions, which are decided first, in order.
        Raises ResourceLimit once this call has had max_conflicts
        conflicts, or once max_seconds have passed.  The clock is read only
        when max_seconds is set, every 256 steps of the call's search loop
        (a step ends in a conflict, a decision or an assumption), so a
        search with few conflicts still stops."""
        t0 = time.perf_counter()
        deadline = t0 + max_seconds if max_seconds is not None else None
        stats = self.stats

        def done(status: str, model=None) -> SolveResult:
            stats.elapsed += time.perf_counter() - t0
            return SolveResult(status, model, stats)

        def limit(which: str) -> ResourceLimit:
            stats.elapsed += time.perf_counter() - t0
            return ResourceLimit(stats, which)

        if not self.ok:
            return done("UNSAT")
        self._backtrack(0)
        propagate, analyze, backtrack = self._propagate, self._analyze, self._backtrack
        enqueue, attach, pick_branch = self._enqueue, self._attach, self._pick_branch
        trail, trail_lim = self.trail, self.trail_lim
        if propagate() is not None:
            self.ok = False
            return done("UNSAT")

        assumptions = list(assumptions)
        n_assumed = len(assumptions)
        conflicts_here = 0
        steps = 0  # counted only under a deadline
        restart_n = 1
        restart_limit = self.RESTART_BASE * _luby(1)

        while True:
            if deadline is not None:
                steps += 1
                if not steps & 255 and time.perf_counter() > deadline:
                    raise limit("seconds")
            confl = propagate()
            if confl is not None:
                stats.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self.ok = False
                    return done("UNSAT")
                learnt, bt = analyze(confl)
                backtrack(bt)
                if len(learnt) == 1:
                    enqueue(learnt[0])
                else:
                    attach(learnt)
                    enqueue(learnt[0], learnt)
                self.var_inc /= self.VAR_DECAY
                if max_conflicts is not None and conflicts_here >= max_conflicts:
                    raise limit("conflicts")
                if conflicts_here >= restart_limit:
                    restart_n += 1
                    restart_limit = conflicts_here + self.RESTART_BASE * _luby(restart_n)
                    stats.restarts += 1
                    backtrack(0)
                continue

            if len(trail_lim) < n_assumed:
                lit = assumptions[len(trail_lim)]
                if not (1 <= abs(lit) <= self.nvars):
                    raise ValueError(f"assumption literal {lit} out of range")
                value = self.val[lit]
                if value == -1:
                    return done("UNSAT")
                trail_lim.append(len(trail))
                if value == 0:
                    enqueue(lit)
                continue

            lit = pick_branch()
            if lit == 0:
                model = tuple(a == 1 for a in self.val[:self.nvars + 1])
                self._verify(model)
                return done("SAT", model)
            stats.decisions += 1
            trail_lim.append(len(trail))
            enqueue(lit)

    def _verify(self, model: tuple[bool, ...]) -> None:
        """Check model against every clause given to the solver, as given."""
        bad = _falsified(model, self.given)
        if bad is not None:
            raise AssertionError(f"internal error: model does not satisfy {tuple(bad)}")


def _cleaned(clauses):
    """clauses without the tautologies, and with each repeated literal
    kept once, where it first occurs."""
    for c in clauses:
        if len(set(map(abs, c))) == len(c):
            yield c
        elif not any(-l in c for l in c):
            yield tuple(dict.fromkeys(c))


def _falsified(model, clauses):
    """The first clause that model (indexed by variable, index 0 unused)
    makes false, or None."""
    true = {v if model[v] else -v for v in range(1, len(model))}
    return next(filter(true.isdisjoint, clauses), None)


def _as_pair(cnf) -> tuple[int, list]:
    if isinstance(cnf, tuple):
        return cnf
    return cnf.var_count, cnf.clauses


def solve(cnf, assumptions=(), *, seed: int = 0, max_conflicts: int | None = None,
          max_seconds: float | None = None) -> SolveResult:
    """One-shot solve.  cnf is a compiler.CnfFormula or (n_vars, clauses)."""
    n, clauses = _as_pair(cnf)
    return Solver(n, clauses, seed=seed).solve(
        assumptions, max_conflicts=max_conflicts, max_seconds=max_seconds)


def enumerate_models(solver: Solver, project_vars, *, limit: int | None = None):
    """The models of solver's clauses, one per assignment to project_vars,
    via repeated solving with blocking clauses over project_vars, which
    stay on the solver.  Returns full models (bool tuples indexed by
    variable, index 0 unused), at most limit of them."""
    out: list[tuple[bool, ...]] = []
    while limit is None or len(out) < limit:
        res = solver.solve()
        if not res.is_sat:
            break
        out.append(res.model)
        if not solver.add_clause([-v if res.model[v] else v for v in project_vars]):
            break
    return out


# --- DIMACS ------------------------------------------------------------------

def emit_dimacs(cnf) -> str:
    """Serialize to DIMACS CNF.  One comment per variable comes first, in
    variable order, so external tooling can map variables back to timed
    atoms: 'c atom v' for a timed atom, 'c aux v' for any other variable
    (a definition variable, or an activation variable that no clause of a
    compiler.CnfFormula mentions).  The variable rows[t][p] is the ground
    domain's p-th atom, fluents before actions, at step t: 'atom@t'."""
    n, clauses = _as_pair(cnf)
    atom_of = {}
    if not isinstance(cnf, tuple):
        atoms = cnf.ground.fluent_atoms + cnf.ground.action_atoms
        atom_of = {v: f"{atoms[p]}@{t}" for t, row in enumerate(cnf.rows)
                   for p, v in enumerate(row) if v}
    lines = [f"c atom {v} {atom_of[v]}" if v in atom_of else f"c aux {v}"
             for v in range(1, n + 1)]
    lines.append(f"p cnf {n} {len(clauses)}")
    for c in clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Read a DIMACS CNF file back into (n_vars, clauses)."""
    n_vars = None
    clauses: list[tuple[int, ...]] = []
    cur: list[int] = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {ln}: malformed problem line {line!r}")
            n_vars = int(parts[2])
            continue
        for tok in line.split():
            try:
                l = int(tok)
            except ValueError:
                raise DimacsError(f"line {ln}: bad literal {tok!r}") from None
            if l == 0:
                clauses.append(tuple(cur))
                cur = []
            else:
                if n_vars is None:
                    raise DimacsError(f"line {ln}: clause before 'p cnf' header")
                if abs(l) > n_vars:
                    raise DimacsError(f"line {ln}: literal {l} out of range 1..{n_vars}")
                cur.append(l)
    if n_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if cur:
        clauses.append(tuple(cur))
    return n_vars, clauses


def read_dimacs_model(text: str, cnf) -> SolveResult:
    """Parse an external solver's output and verify any model against cnf.

    Accepts the competition format ('s SATISFIABLE' + 'v' lines) and the
    bare format ('SAT' on the first line followed by literals, or literals
    only).  Variables missing from the model default to false; a model that
    fails verification raises DimacsError.
    """
    n, clauses = _as_pair(cnf)
    status: str | None = None
    lits: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        head = line.split()[0]
        if head == "s" or head.upper() in ("SAT", "SATISFIABLE", "UNSAT", "UNSATISFIABLE"):
            word = line.split()[1] if head == "s" and len(line.split()) > 1 else head
            word = word.upper()
            if word in ("SAT", "SATISFIABLE"):
                status = "SAT"
            elif word in ("UNSAT", "UNSATISFIABLE"):
                status = "UNSAT"
            else:
                raise DimacsError(f"unrecognized status line {line!r}")
            continue
        body = line[2:] if line.startswith("v ") or line.startswith("v\t") else line
        for tok in body.split():
            try:
                l = int(tok)
            except ValueError:
                raise DimacsError(f"bad literal {tok!r} in solver output") from None
            if l != 0:
                lits.append(l)
    if status is None:
        if not lits:
            raise DimacsError("no status line and no literals in solver output")
        status = "SAT"
    if status == "UNSAT":
        return SolveResult("UNSAT")
    model = [False] * (n + 1)
    for l in lits:
        v = abs(l)
        if v > n:
            raise DimacsError(f"literal {l} exceeds variable count {n}")
        model[v] = l > 0
    model_t = tuple(model)
    bad = _falsified(model_t, clauses)
    if bad is not None:
        raise DimacsError(f"reported model does not satisfy clause {tuple(bad)}")
    return SolveResult("SAT", model_t)

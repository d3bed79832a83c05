"""Spans and counts at causalplan's layer boundaries, from outside the package.

Tracer.install() replaces module attributes that the query functions
look up at call time (planner.ground, planner.Encoder, planner.Solver,
...) with wrappers that record a span around each call, and restores
them in uninstall().  Nothing under src/ is edited.  A span records its
name, its parent, the operation it belongs to and its start and end;
a layer's self time is a span's duration minus the time its direct
children cover.  Spans stay in memory until dump() writes them out.

A hook whose target is gone (renamed by a later refactor) is skipped and
listed in Tracer.missing, so the metrics that depend on it are reported
as not measured instead of stopping the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

OVERHEAD = "trace.overhead"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, root, start, end]
        self.stack: list[int] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # --- spans ---

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[parent][2] if parent >= 0 else len(self.spans)
        i = len(self.spans)
        self.spans.append([name, parent, root, time.perf_counter(), 0.0])
        self.stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][4] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, key: str, value: float = 1) -> None:
        """Add to a count of the operation (root span) now running."""
        if self.stack:
            self.counts[self.spans[self.stack[0]][2]][key] += value

    def peak(self, key: str, value: float) -> None:
        if self.stack:
            c = self.counts[self.spans[self.stack[0]][2]]
            c[key] = max(c[key], value)

    def wrap(self, fn, name: str, after=None, count_key: str | None = None):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tr.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end(i)
            if count_key is not None:
                tr.count(count_key)
            if after is not None:
                j = tr.begin(OVERHEAD)
                after(out)
                tr.end(j)
            return out
        return traced

    # --- hooks ---

    def _patch(self, module, attr: str, make) -> None:
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        old = getattr(module, attr)
        self._undo.append((module, attr, old))
        setattr(module, attr, make(old))

    def install(self, setup_module) -> None:
        """Hook the package's layer entry points, and the parse, ground and
        registry calls that setup_module (the benchmark's own code) makes."""
        from causalplan import planner, sat
        tr = self

        def on_ground(gd):
            tr.count("grounding.calls")
            tr.count("grounding.laws", len(gd.laws))
            tr.count("grounding.atoms", len(gd.fluent_atoms) + len(gd.action_atoms))

        def on_cnf(cnf):
            tr.count("compiler.encodings")
            tr.count("compiler.clauses", len(cnf.clauses))
            tr.count("compiler.binary_clauses", sum(1 for c in cnf.clauses if len(c) == 2))
            tr.count("compiler.aux_vars", cnf.var_count - len(cnf.atoms))

        def hook(module, attr, name, after=None):
            self._patch(module, attr, lambda fn: tr.wrap(fn, name, after))

        hook(planner, "ground", "grounding.ground", on_ground)
        hook(planner, "encode_problem", "compiler.encode")
        hook(planner, "compile_cnf", "compiler.encode", on_cnf)
        hook(planner, "completion_for", "compiler.encode")
        hook(planner, "eval_completion", "planner.validate")
        hook(planner, "sat_solve", "sat.solve")
        hook(planner, "enumerate_models", "sat.enumerate")
        hook(planner, "decode_model", "planner.decode")
        hook(planner, "plan_cost", "planner.price")
        self._patch(planner, "Encoder", lambda cls: _traced_encoder(tr, cls, on_cnf))
        solver_cls: dict = {}

        def make_solver(cls):
            if cls not in solver_cls:
                solver_cls[cls] = _traced_solver(tr, cls)
            return solver_cls[cls]
        self._patch(planner, "Solver", make_solver)
        self._patch(sat, "Solver", make_solver)

        hook(setup_module, "parse_domain", "parser.parse")
        hook(setup_module, "parse_problem", "parser.parse")
        hook(setup_module, "parse_world", "grid.world")
        hook(setup_module, "ground", "grounding.ground", on_ground)
        self._patch(setup_module, "registry_for", lambda fn: self._counting_registry(fn))

    def _counting_registry(self, registry_for):
        """registry_for whose externals record a span and a count per call."""
        tr = self

        def make(world):
            reg = registry_for(world)
            fns = getattr(reg, "_fns", None)
            if not isinstance(fns, dict):
                if "registry externals" not in tr.missing:
                    tr.missing.append("registry externals")
                return reg
            for key, fn in list(fns.items()):
                fns[key] = tr.wrap(fn, "grid.external", count_key="grid.external_calls")
            return reg
        return make

    def uninstall(self) -> None:
        for module, attr, old in reversed(self._undo):
            setattr(module, attr, old)
        self._undo.clear()

    # --- results ---

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, parent, root, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[4] - s[3] - child[i] for i, s in enumerate(self.spans)]

    def by_root(self):
        """{root span index: {span name: summed self time}}."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            out[s[2]][s[0]] += own
        return out

    def dump(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, t) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({"id": i, "name": s[0], "parent": s[1], "op": s[2],
                                     "start": s[3], "end": s[4], "self": t}) + "\n")
            for root, counts in self.counts.items():
                fh.write(json.dumps({"op": root, "counts": counts}) + "\n")


def _traced_encoder(tr: Tracer, base, on_cnf):
    class TracedEncoder(base):
        def __init__(self, *args, **kwargs):
            i = tr.begin("compiler.encode")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tr.end(i)

        def assert_formula(self, *args, **kwargs):
            i = tr.begin("compiler.encode")
            try:
                return super().assert_formula(*args, **kwargs)
            finally:
                tr.end(i)

        def cnf(self):
            i = tr.begin("compiler.encode")
            try:
                out = super().cnf()
            finally:
                tr.end(i)
            j = tr.begin(OVERHEAD)
            on_cnf(out)
            tr.end(j)
            return out
    return TracedEncoder


def _traced_solver(tr: Tracer, base):
    class TracedSolver(base):
        def __init__(self, *args, **kwargs):
            i = tr.begin("sat.build")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tr.end(i)
            # shadow add_clause only now, so construction runs untouched
            self.add_clause = self._counted_add_clause

        def _counted_add_clause(self, lits):
            i = tr.begin("sat.build")
            try:
                out = super().add_clause(lits)
            finally:
                tr.end(i)
            if tr.current() != "sat.enumerate":
                tr.count("planner.blocked_schedules")
            return out

        def solve(self, *args, **kwargs):
            st = getattr(self, "stats", None)
            before = (st.conflicts, st.decisions, st.propagations) if st else None
            n_clauses = len(getattr(self, "clauses", ()))
            i = tr.begin("sat.solve")
            try:
                out = super().solve(*args, **kwargs)
            finally:
                tr.end(i)
            tr.count("sat.solve_calls")
            if before is not None:
                tr.count("sat.conflicts", st.conflicts - before[0])
                tr.count("sat.decisions", st.decisions - before[1])
                tr.count("sat.propagations", st.propagations - before[2])
            if hasattr(self, "clauses"):
                tr.count("sat.learnts", len(self.clauses) - n_clauses)
            if hasattr(self, "order"):
                tr.peak("sat.heap_entries", len(self.order))
            return out
    return TracedSolver

"""Module layering: the brute-force oracles (enumeration.py, beside this
file) share no code with the SAT route they cross-check, so an encoder or solver fault cannot agree with
itself through them; validate_plan checks plans law by law (semantics.py)
without the completion or the clauses; and neither the oracles nor
validate_plan can reach the clauses that encode a cost deadline."""

import ast
from pathlib import Path

import causalplan

FORBIDDEN_MODULES = {"causalplan.sat", "causalplan.planner", "causalplan.charges"}
FORBIDDEN_NAMES = {"Encoder", "compile_cnf", "encode_problem", "ChargeCounter"}
ENUMERATION = Path(__file__).with_name("enumeration.py")


def _imports(path: Path):
    """(absolute module, imported name or None) for every import in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = "causalplan" if node.level else ""
            module = ".".join(p for p in (base, node.module or "") if p)
            for alias in node.names:
                yield module, alias.name


def test_oracle_imports_nothing_from_the_sat_route():
    bad = []
    for module, name in _imports(ENUMERATION):
        full = f"{module}.{name}" if name else module
        if (module in FORBIDDEN_MODULES or full in FORBIDDEN_MODULES
                or name in FORBIDDEN_NAMES):
            bad.append(full)
    assert bad == [], f"enumeration.py imports from the route it checks: {bad}"



TEMPLATE_NAMES = {"StepTemplate", "step_template"}


def _names(node):
    """Every plain name and attribute name used under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def test_oracles_do_not_use_the_clause_template():
    used = set(_names(ast.parse(ENUMERATION.read_text(encoding="utf-8")))) & TEMPLATE_NAMES
    assert not used, f"enumeration.py uses the clause template: {sorted(used)}"


# what builds the completion or the clauses: the law-level check and
# validate_plan, which uses it, must reach none of it
COMPLETION_NAMES = {"completion_for", "eval_completion", "window_truth", "_stamp_rule"}
SEMANTICS = Path(causalplan.__file__).with_name("semantics.py")


def test_the_guarded_names_are_defined():
    # a guard that lists a deleted or renamed builder checks nothing
    defined = set()
    for path in (Path(causalplan.__file__).with_name("compiler.py"), ENUMERATION):
        defined |= {n.name for n in ast.parse(path.read_text(encoding="utf-8")).body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert (COMPLETION_NAMES | TEMPLATE_NAMES) - defined == set()


def test_validate_plan_checks_the_laws_without_the_completion():
    path = Path(causalplan.__file__).with_name("planner.py")
    used = _reached(ast.parse(path.read_text(encoding="utf-8")), "validate_plan")
    assert "check_trajectory" in used
    bad = used & (COMPLETION_NAMES | TEMPLATE_NAMES | FORBIDDEN_NAMES)
    assert not bad, f"validate_plan reaches the completion or the clause builder: {sorted(bad)}"


def test_the_law_level_check_imports_nothing_from_the_compiler():
    bad = [f"{m}.{n}" if n else m for m, n in _imports(SEMANTICS)
           if m == "causalplan.compiler" or n == "compiler"]
    assert bad == [], f"semantics.py imports from the compiler: {bad}"
    used = set(_names(ast.parse(SEMANTICS.read_text(encoding="utf-8"))))
    assert not used & (COMPLETION_NAMES | TEMPLATE_NAMES | FORBIDDEN_NAMES)


def _reached(tree, start: str) -> set[str]:
    """Every name used by the module function start and, transitively, by
    the module's other functions that it calls by a name it does not bind
    itself (a parameter or local called plan is not the function plan)."""
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    return _reached_from(funcs, [funcs[start]])


def _reached_from(funcs, roots) -> set[str]:
    """Every name used by the function nodes roots and, transitively, by
    the functions of funcs (by name) that they call, as _reached says."""
    names, todo = set(), list(roots)
    while todo:
        fn = todo.pop()
        if isinstance(fn, str):
            fn = funcs.get(fn)
        if fn is None:
            continue
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)}
        used = set(_names(fn)) - local
        todo.extend(used - names)
        names |= used
    return names


def test_validate_plan_cannot_reach_the_cost_encoder():
    path = Path(causalplan.__file__).with_name("planner.py")
    used = _reached(ast.parse(path.read_text(encoding="utf-8")), "validate_plan")
    assert "plan_cost" in used
    bad = used & {"ChargeCounter", "charges", "plan"}
    assert not bad, f"validate_plan reaches the cost encoder: {sorted(bad)}"


def test_modules_the_checks_draw_on_do_not_import_the_cost_encoder():
    package = Path(causalplan.__file__).parent
    for path in (ENUMERATION, *(package / f"{n}.py"
                                for n in ("compiler", "grounding", "model", "semantics"))):
        bad = [f"{m}.{n}" if n else m for m, n in _imports(path)
               if m == "causalplan.charges" or n in ("charges", "ChargeCounter")]
        assert bad == [], f"{path.name} imports the cost encoder: {bad}"


# what only the symbolic completion uses, which the tests read as their
# reference: the step template and the encoder, which build every
# query's clauses, must reach none of it, so that the equivalence tests
# compare two routes that share nothing below _desugared (one law's
# rules) and _dnf
REFERENCE_NAMES = {"completion_for", "_stamp_rule", "Support", "Nogood", "ExactlyOne",
                   "TimedLit", "atom_table"}


def test_the_template_and_the_encoder_are_built_without_the_completion():
    tree = ast.parse(Path(causalplan.__file__).with_name("compiler.py").read_text(encoding="utf-8"))
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    todo, methods = ["StepTemplate", "Encoder"], []
    while todo:  # each class with the module's classes it derives from
        cls = classes[todo.pop()]
        todo += [b.id for b in cls.bases if isinstance(b, ast.Name) and b.id in classes]
        methods += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    used = _reached_from(funcs, methods)
    assert {"_desugared", "_dnf", "_add_support", "exactly_one", "step_template"} <= used
    bad = used & REFERENCE_NAMES
    assert not bad, f"the template or the encoder reaches the symbolic completion: {sorted(bad)}"


# planner.py imports these only so that bench/trace.py's hooks find them
HOOK_ONLY_IMPORTS = {"planner.py": {"compile_cnf", "completion_for", "eval_completion",
                                    "sat_solve"}}


def test_no_module_imports_a_name_it_never_uses():
    # a dead import outlives the code that used it; a module's __all__
    # counts as a use, so the package's re-exports are checked against it
    unused = {}
    for path in sorted(Path(causalplan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        exempt = HOOK_ONLY_IMPORTS.get(path.name, set())
        # an exemption for a name no longer imported would hide nothing
        assert exempt <= imported - used, (path.name, sorted(exempt - (imported - used)))
        dead = imported - used - exempt
        if dead:
            unused[path.name] = sorted(dead)
    assert unused == {}, f"imported and never used: {unused}"

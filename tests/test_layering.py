"""Module layering: the brute-force oracles share no code with the SAT
route they cross-check, so an encoder or solver fault cannot agree with
itself through them."""

import ast
from pathlib import Path

import causalplan

FORBIDDEN_MODULES = {"causalplan.sat", "causalplan.planner"}
FORBIDDEN_NAMES = {"Encoder", "compile_cnf", "encode_problem"}


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
    path = Path(causalplan.__file__).with_name("oracle.py")
    bad = []
    for module, name in _imports(path):
        full = f"{module}.{name}" if name else module
        if (module in FORBIDDEN_MODULES or full in FORBIDDEN_MODULES
                or name in FORBIDDEN_NAMES):
            bad.append(full)
    assert bad == [], f"oracle.py imports from the route it checks: {bad}"



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
    path = Path(causalplan.__file__).with_name("oracle.py")
    used = set(_names(ast.parse(path.read_text(encoding="utf-8")))) & TEMPLATE_NAMES
    assert not used, f"oracle.py uses the clause template: {sorted(used)}"


def test_validate_plan_evaluates_the_completion_without_the_encoder():
    path = Path(causalplan.__file__).with_name("planner.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "validate_plan")
    used = set(_names(body))
    assert "completion_for" in used and "eval_completion" in used
    bad = used & (TEMPLATE_NAMES | FORBIDDEN_NAMES)
    assert not bad, f"validate_plan reaches the clause builder: {sorted(bad)}"

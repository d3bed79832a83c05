"""causalplan: an action-language toolkit that compiles causal domain
descriptions to propositional satisfiability.

The pipeline: parse a domain (parser), ground schematic laws over their
sorts with external geometry evaluated on the spot (grounding, grid),
translate to completion form and grow its per-step integer clause
template over the horizon one step at a time (compiler),
solve with the embedded CDCL engine (sat), and answer planning,
prediction, and consistency queries on top (planner), with a cost
deadline summed in the encoding (charges).  domains bundles ready-made
sample instances and cli exposes everything as a command-line tool.
The brute-force oracles that cross-check the SAT route live with the
tests, not here.
"""

from .compiler import (CnfFormula, CompileError, Encoder, TimedAtom,
                       compile_cnf, completion_for, desugar)
from .domains import DomainBundle, build_mapp, build_robot_boxes, build_toh
from .grid import GridWorld, WorldError, load_world, parse_world, registry_for
from .grounding import (ExternalRegistry, GroundDomain, GroundingError,
                        close_formula, ground)
from .model import (BOOLEAN, Atom, AtomF, Caused, Causes, Constant,
                    Constraint, Diagnostic, DomainDescription, Exogenous,
                    Inertial, Kind, Nonexecutable, PlanningProblem, Sort,
                    State, validate_problem, validate_signature)
from .parser import (ParseError, parse_domain, parse_problem, parse_query,
                     pretty_print)
from .planfile import PlanfileError, emit_plan, parse_plan
from .planner import (ActionArg, ActionCost, Consistent, FluentRef,
                      Inconsistent, NoPlanUpTo, Plan, PlanFound, Predicted,
                      check_consistency, parse_cost_spec, plan, plan_cost,
                      predict, validate_plan)
from .sat import (DimacsError, ResourceLimit, SolveResult, Solver,
                  emit_dimacs, enumerate_models, parse_dimacs,
                  read_dimacs_model, solve)

__version__ = "0.1.0"

__all__ = [
    "ActionArg", "ActionCost", "Atom", "AtomF", "BOOLEAN", "Caused",
    "Causes", "CnfFormula", "CompileError", "Consistent", "Constant",
    "Constraint", "Diagnostic", "DimacsError", "DomainBundle",
    "DomainDescription", "Encoder", "Exogenous", "ExternalRegistry",
    "FluentRef", "GridWorld", "GroundDomain", "GroundingError", "Inconsistent",
    "Inertial", "Kind", "NoPlanUpTo", "Nonexecutable", "ParseError", "Plan",
    "PlanFound", "PlanfileError", "PlanningProblem", "Predicted",
    "ResourceLimit", "SolveResult", "Solver", "Sort", "State", "TimedAtom",
    "WorldError", "build_mapp", "build_robot_boxes", "build_toh",
    "check_consistency", "close_formula", "compile_cnf", "completion_for",
    "desugar", "emit_dimacs", "emit_plan", "enumerate_models", "ground",
    "load_world", "parse_cost_spec", "parse_dimacs", "parse_domain", "parse_plan",
    "parse_problem", "parse_query", "parse_world", "plan", "plan_cost",
    "predict", "pretty_print", "read_dimacs_model", "registry_for", "solve",
    "validate_plan", "validate_problem", "validate_signature",
]

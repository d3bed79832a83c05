"""Command-line front end.

Subcommands mirror the intended workflow: write a domain, `check` it
for consistency, `ground` it to inspect the causal theory or its CNF,
then `plan`, `predict`, and `validate` against problem and query files.
`demo` builds the bundled domains without any input files.

Exit codes: 0 success or plan found, 1 no plan (or no consistent
outcome), 2 inconsistent or invalid input, 3 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .compiler import CompileError, compile_cnf
from .domains import build_mapp, build_robot_boxes, build_toh
from .grid import GridWorld, WorldError, load_world, registry_for
from .grounding import GroundingError, ground
from .model import (DomainDescription, PlanningProblem, instance_str,
                    validate_problem)
from .parser import ParseError, parse_domain, parse_problem, parse_query
from .planfile import PlanfileError, emit_plan, parse_plan
from .planner import (Consistent, NoPlanUpTo, Plan, check_cost_actions,
                      close_problem, decode_model, encode_problem,
                      parse_cost_spec, plan_cost, validate_plan)
from .planner import check_consistency as run_check
from .planner import plan as run_plan
from .planner import predict as run_predict
from .sat import DimacsError, ResourceLimit, emit_dimacs, read_dimacs_model


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on bad flags; route through our 3
    def error(self, message):
        raise _UsageError(message)


# --- plumbing ------------------------------------------------------------------

def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _seed_of(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("CAUSALPLAN_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"CAUSALPLAN_SEED must be an integer, got {env!r}")


def _world_of(args) -> GridWorld | None:
    path = getattr(args, "world", None)
    return load_world(path) if path else None


def _registry_of(args):
    world = _world_of(args)
    return registry_for(world) if world is not None else None


def _costs_of(args):
    return tuple(parse_cost_spec(s) for s in getattr(args, "cost", None) or ())


def _cell_arg(text: str):
    """A demo start/goal: either a landmark name or an x,y pair."""
    if "," in text:
        x, y = text.split(",", 1)
        try:
            return int(x), int(y)
        except ValueError:
            raise _UsageError(f"bad cell {text!r}: expected x,y")
    return text


def _state_line(state) -> str:
    return " ".join(f"{instance_str(k)}={v}" for k, v in sorted(state.items()))


def render_trace(p: Plan) -> str:
    """Human view of a plan: the initial state in full, then one line per
    step with its concurrent actions and the fluents they changed."""
    out = [f"plan: {len(p.steps)} step(s)" + (f", cost {p.cost}" if p.cost is not None else "")]
    out.append(f"initial: {_state_line(p.trajectory[0])}")
    for t, acts in enumerate(p.steps):
        names = ", ".join(instance_str(a) for a in acts) if acts else "(wait)"
        out.append(f"  {t + 1}. {names}")
        before, after = p.trajectory[t], p.trajectory[t + 1]
        diff = [f"{instance_str(k)}: {before[k]} -> {after[k]}"
                for k in sorted(after) if before[k] != after[k]]
        if diff:
            out.append("     " + "  ".join(diff))
    return "\n".join(out)


def _load_domain(args) -> DomainDescription:
    return parse_domain(_read(args.domain), source=args.domain)


def _load_problem(args, domain) -> PlanningProblem:
    problem = parse_problem(_read(args.problem), domain, source=args.problem)
    if getattr(args, "noconcurrency", False):
        problem = dataclasses.replace(problem, noconcurrency=True)
    return problem


def _require_valid_problem(problem, domain) -> None:
    diags = validate_problem(problem, domain)
    if diags:
        raise ParseError(diags)


# --- subcommands ---------------------------------------------------------------

def cmd_check(args) -> int:
    domain = _load_domain(args)
    registry = _registry_of(args)
    verdict = run_check(domain, registry, seed=_seed_of(args))
    if isinstance(verdict, Consistent):
        print("consistent")
        print(f"example state: {_state_line(verdict.example_state)}")
        return 0
    level = "static" if verdict.level == 0 else "dynamic"
    print(f"inconsistent at the {level} level: {verdict.message}", file=sys.stderr)
    return 2


def cmd_ground(args) -> int:
    domain = _load_domain(args)
    registry = _registry_of(args)
    gd = ground(domain, registry)
    if args.emit == "theory":
        for law in gd.laws:
            print(law)
    else:
        cnf = compile_cnf(gd, args.horizon, noconcurrency=args.noconcurrency)
        sys.stdout.write(emit_dimacs(cnf))
    return 0


def _encode_at_hi(domain, problem, registry, dimacs_out=None):
    """Encode the problem on domain, ground against registry, at its
    largest horizon; with dimacs_out, also write that encoding there.
    Returns the CnfFormula."""
    gd = ground(domain, registry)
    init, goal, extras, _, hi = close_problem(domain, problem, registry)
    cnf = encode_problem(gd, init, goal, extras, hi,
                         noconcurrency=problem.noconcurrency).cnf()
    if dimacs_out:
        _write(dimacs_out, emit_dimacs(cnf))
        print(f"wrote horizon-{hi} encoding to {dimacs_out} "
              f"({cnf.var_count} variables, {len(cnf.clauses)} clauses)")
    return cnf


def _solve_and_report(domain, problem, registry, args, *, costs,
                      plan_out=None, dimacs_out=None) -> int:
    if dimacs_out:
        _encode_at_hi(domain, problem, registry, dimacs_out)
    outcome = run_plan(domain, problem, registry, costs=costs, seed=_seed_of(args),
                       max_conflicts=args.max_conflicts, max_seconds=args.max_seconds)
    if isinstance(outcome, NoPlanUpTo):
        print(f"no plan up to horizon {outcome.max_horizon}")
        return 1
    found = outcome.plan
    print(render_trace(found))
    if plan_out:
        text = emit_plan(found)
        ok, issues = validate_plan(domain, problem, parse_plan(text),
                                   registry, costs=costs)
        if not ok:
            for issue in issues:
                print(f"plan failed re-validation: {issue}", file=sys.stderr)
            return 2
        _write(plan_out, text)
        print(f"wrote plan to {plan_out}")
    return 0


def cmd_plan(args) -> int:
    domain = _load_domain(args)
    problem = _load_problem(args, domain)
    _require_valid_problem(problem, domain)
    registry = _registry_of(args)
    costs = _costs_of(args)
    # every mode refuses the cost model as the internal solver does, even
    # one that never prices a plan
    check_cost_actions(domain, costs)

    mode = args.solver
    if mode[0] == "dimacs-out":
        if len(mode) != 2:
            raise _UsageError("--solver dimacs-out needs a file name")
        _encode_at_hi(domain, problem, registry, mode[1])
        return 0
    if mode != ["internal"]:
        raise _UsageError(f"unknown solver mode {' '.join(mode)!r}")

    if args.model_in:
        cnf = _encode_at_hi(domain, problem, registry)
        res = read_dimacs_model(_read(args.model_in), cnf)
        if not res.is_sat:
            print("the supplied assignment reports unsatisfiable")
            return 1
        found = decode_model(cnf, res.model)
        if costs:
            price = plan_cost(found, costs, registry)
            found.cost = None if price == float("inf") else price
        ok, issues = validate_plan(domain, problem, found, registry, costs=costs)
        if not ok:
            for issue in issues:
                print(f"decoded plan is invalid: {issue}", file=sys.stderr)
            return 2
        print(render_trace(found))
        if args.plan_out:
            _write(args.plan_out, emit_plan(found))
            print(f"wrote plan to {args.plan_out}")
        return 0

    return _solve_and_report(domain, problem, registry, args, costs=costs,
                             plan_out=args.plan_out)


def cmd_predict(args) -> int:
    domain = _load_domain(args)
    registry = _registry_of(args)
    init, steps = parse_query(_read(args.query), domain, source=args.query)
    result = run_predict(domain, init, steps, registry,
                         seed=_seed_of(args), limit=args.limit)
    if not result.outcomes:
        print("no consistent outcome: the actions cannot occur from that state")
        return 1
    plural = "s" if len(result.outcomes) != 1 else ""
    print(f"{len(result.outcomes)} outcome{plural} over {len(result.steps)} step(s)")
    for i, trajectory in enumerate(result.outcomes, start=1):
        print(f"outcome {i}:")
        body = emit_plan(Plan(result.steps, list(trajectory)))
        print("  " + "\n  ".join(body.rstrip("\n").split("\n")))
    return 0


def cmd_validate(args) -> int:
    domain = _load_domain(args)
    problem = _load_problem(args, domain)
    _require_valid_problem(problem, domain)
    registry = _registry_of(args)
    p = parse_plan(_read(args.planfile))
    ok, issues = validate_plan(domain, problem, p, registry, costs=_costs_of(args))
    if ok:
        cost = f", cost {p.cost}" if p.cost is not None else ""
        print(f"plan is valid: {len(p.steps)} step(s){cost}")
        return 0
    for issue in issues:
        print(f"invalid: {issue}", file=sys.stderr)
    return 2


def cmd_demo(args) -> int:
    if args.kind == "toh":
        bundle = build_toh(args.disks)
    elif args.kind == "boxes":
        bundle = build_robot_boxes(args.locations, args.boxes, _world_of(args))
    else:
        world = _world_of(args)
        if world is None:
            raise _UsageError("demo mapp needs --world")
        starts = [_cell_arg(s) for s in args.start or ()]
        goals = [_cell_arg(g) for g in args.goal or ()]
        if not starts and not goals:
            marks = sorted(world.landmarks)
            if len(marks) < 2:
                raise _UsageError("give --start/--goal, or a world with two landmarks")
            starts, goals = [marks[0], marks[1]], [marks[1], marks[0]]
        robots = args.robots if args.robots is not None else len(starts)
        bundle = build_mapp(world, robots, starts, goals, args.horizon)
    problem = bundle.problem
    if getattr(args, "noconcurrency", False):
        problem = dataclasses.replace(problem, noconcurrency=True)
    if bundle.expected is not None:
        print(f"expected optimal makespan: {bundle.expected}")
    return _solve_and_report(bundle.domain, problem, bundle.registry, args,
                             costs=(), plan_out=args.plan_out,
                             dimacs_out=args.dimacs_out)


# --- argument wiring -----------------------------------------------------------

def _add_world(p):
    p.add_argument("--world", metavar="FILE", help="grid world file")


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="solver seed (default: $CAUSALPLAN_SEED or 0)")


def _at_least_one(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _positive_seconds(text: str) -> float:
    try:
        s = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number of seconds, got {text!r}") from None
    if not s > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return s


def _horizon_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if sep and lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi):
        return int(lo), int(hi)
    raise argparse.ArgumentTypeError(f"expected LO..HI with 0 <= LO <= HI, got {text!r}")


def _add_limits(p):
    p.add_argument("--max-conflicts", type=_at_least_one, metavar="N",
                   help="stop a solver call after N conflicts (exit 3)")
    p.add_argument("--max-seconds", type=_positive_seconds, metavar="S",
                   help="stop a solver call after about S seconds (exit 3)")


def _build_parser() -> _Parser:
    top = _Parser(prog="causalplan",
                  description="causal action-language toolkit: "
                              "compile, check, plan, predict, validate")
    sub = top.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="check a domain for consistency")
    p.add_argument("domain")
    _add_world(p)
    _add_seed(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ground", help="print the ground theory or its CNF")
    p.add_argument("domain")
    _add_world(p)
    p.add_argument("--emit", choices=("theory", "cnf"), default="theory")
    p.add_argument("--horizon", type=int, default=1,
                   help="steps to unroll for --emit cnf (default 1)")
    p.add_argument("--noconcurrency", action="store_true")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("plan", help="search for a plan")
    p.add_argument("domain")
    p.add_argument("problem")
    _add_world(p)
    p.add_argument("--solver", nargs="+", default=["internal"],
                   metavar="MODE",
                   help="'internal' (default) or 'dimacs-out FILE' to write "
                        "the CNF and stop")
    p.add_argument("--model-in", metavar="FILE",
                   help="decode an external solver's assignment for the "
                        "max-horizon encoding instead of solving")
    p.add_argument("--noconcurrency", action="store_true",
                   help="at most one action per step")
    _add_seed(p)
    _add_limits(p)
    p.add_argument("--plan-out", metavar="FILE", help="write the plan file here")
    p.add_argument("--cost", action="append", metavar="SPEC",
                   help="action cost, e.g. 'goto=timeEstimate(@atRobo,$0)'")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("predict", help="enumerate outcomes of doing actions")
    p.add_argument("domain")
    p.add_argument("query", help="file with :state and :do sections")
    _add_world(p)
    _add_seed(p)
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many outcomes")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("validate", help="check a plan file against a problem")
    p.add_argument("domain")
    p.add_argument("problem")
    p.add_argument("planfile")
    _add_world(p)
    p.add_argument("--cost", action="append", metavar="SPEC")
    p.add_argument("--noconcurrency", action="store_true")
    p.set_defaults(func=cmd_validate)

    demo = sub.add_parser("demo", help="run a bundled domain")
    dsub = demo.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    for kind in ("toh", "boxes", "mapp"):
        p = dsub.add_parser(kind)
        _add_seed(p)
        _add_limits(p)
        p.add_argument("--plan-out", metavar="FILE")
        p.add_argument("--dimacs-out", metavar="FILE",
                       help="also dump the max-horizon problem encoding")
        p.add_argument("--noconcurrency", action="store_true")
        if kind == "toh":
            p.add_argument("--disks", type=int, default=3)
        elif kind == "boxes":
            p.add_argument("--locations", type=int, default=2)
            p.add_argument("--boxes", type=int, default=1)
            _add_world(p)
        else:
            _add_world(p)
            p.add_argument("--robots", type=int, default=None)
            p.add_argument("--start", action="append", metavar="CELL",
                           help="landmark name or x,y (repeat per robot)")
            p.add_argument("--goal", action="append", metavar="CELL")
            p.add_argument("--horizon", type=_horizon_range, default=(0, 10),
                           metavar="LO..HI", help="horizons to search (default 0..10)")
        p.set_defaults(func=cmd_demo)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 2
    except (GroundingError, CompileError, WorldError, PlanfileError,
            DimacsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"error: solver resource limit reached (--max-{e.limit}) after "
              f"{e.stats.conflicts} conflicts and {e.stats.decisions} decisions", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

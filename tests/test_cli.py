"""Command-line behavior: exit codes, printed traces, and the file
formats the subcommands exchange."""

import re

import pytest

import cli_digests
import toy_domains
from causalplan.cli import main
from causalplan.domains import build_toh
from causalplan.grounding import ground
from causalplan.parser import MAX_NESTING
from causalplan.planner import close_problem, encode_problem
from causalplan.sat import emit_dimacs, parse_dimacs, solve
from sample_files import samples_dir

TOGGLE_PROBLEM = ":init ~b;\n:goal b;\n:horizon 0..3;\n"


@pytest.fixture
def toggle(tmp_path):
    d = tmp_path / "toggle.cp"
    d.write_text(toy_domains.TOGGLE)
    p = tmp_path / "toggle.prob"
    p.write_text(TOGGLE_PROBLEM)
    return str(d), str(p)


def test_check_consistent_domain(toggle, capsys):
    domain, _ = toggle
    assert main(["check", domain]) == 0
    out = capsys.readouterr().out
    assert "consistent" in out and "example state:" in out


def test_check_static_contradiction(tmp_path, capsys):
    d = tmp_path / "bad.cp"
    d.write_text(":constants p :: simpleFluent;\n:laws\n caused p;\n constraint ~p;\n")
    assert main(["check", str(d)]) == 2
    assert "static" in capsys.readouterr().err


def test_check_without_world_reports_missing_external(capsys):
    domain = str(samples_dir() / "boxes-grid.cp")
    assert main(["check", domain]) == 2
    assert "no external registered for 'pathExists/2'" in capsys.readouterr().err


def test_check_dynamic_contradiction(tmp_path, capsys):
    d = tmp_path / "stuck.cp"
    d.write_text(":constants p :: simpleFluent;\n:laws\n"
                 " caused p after true;\n caused p=false after true;\n")
    assert main(["check", str(d)]) == 2
    assert "dynamic" in capsys.readouterr().err


def test_ground_theory_lists_laws(toggle, capsys):
    domain, _ = toggle
    assert main(["ground", domain]) == 0
    out = capsys.readouterr().out
    assert "flip causes b if ~b;" in out


def test_ground_cnf_emits_dimacs(toggle, capsys):
    domain, _ = toggle
    assert main(["ground", domain, "--emit", "cnf", "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c atom 1 b@0")  # the atom table rides along
    assert "\np cnf " in out


def test_plan_writes_and_validates(toggle, tmp_path, capsys):
    domain, problem = toggle
    plan_file = tmp_path / "out.plan"
    assert main(["plan", domain, problem, "--plan-out", str(plan_file)]) == 0
    out = capsys.readouterr().out
    assert "plan: 1 step(s)" in out
    assert "flip" in out
    assert "b: false -> true" in out  # the changed-fluent diff
    assert plan_file.exists()
    assert main(["validate", domain, problem, str(plan_file)]) == 0
    assert "plan is valid" in capsys.readouterr().out


def test_plan_unreachable_goal(toggle, tmp_path, capsys):
    domain, _ = toggle
    p = tmp_path / "impossible.prob"
    p.write_text(":init ~b;\n:goal b & ~b;\n:horizon 0..3;\n")
    assert main(["plan", domain, str(p)]) == 1
    assert "no plan up to horizon 3" in capsys.readouterr().out


def test_validate_rejects_wrong_goal(toggle, tmp_path, capsys):
    domain, problem = toggle
    plan_file = tmp_path / "out.plan"
    assert main(["plan", domain, problem, "--plan-out", str(plan_file)]) == 0
    stay = tmp_path / "stay.prob"
    stay.write_text(":init ~b;\n:goal ~b;\n:horizon 0..3;\n")
    capsys.readouterr()
    assert main(["validate", domain, str(stay), str(plan_file)]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_validate_rejects_a_repeated_action(tmp_path, capsys):
    samples = samples_dir()
    domain, problem = str(samples / "boxes.cp"), str(samples / "boxes.prob")
    plan_file = tmp_path / "boxes.plan"
    assert main(["plan", domain, problem, "--plan-out", str(plan_file)]) == 0
    text = plan_file.read_text()
    assert "step 0: goto(L1)\n" in text
    plan_file.write_text(text.replace("step 0: goto(L1)\n", "step 0: goto(L1), goto(L1)\n"))
    capsys.readouterr()
    assert main(["validate", domain, problem, str(plan_file)]) == 2
    assert capsys.readouterr().err == "error: line 2: goto(L1) occurs twice\n"


def test_predict_prints_outcomes(toggle, tmp_path, capsys):
    domain, _ = toggle
    q = tmp_path / "q.query"
    q.write_text(":state ~b;\n:do flip;\n")
    assert main(["predict", domain, str(q)]) == 0
    out = capsys.readouterr().out
    assert "1 outcome over 1 step(s)" in out
    assert "step 0: flip" in out


def test_predict_impossible_actions(tmp_path, capsys):
    d = tmp_path / "deadend.cp"
    d.write_text(toy_domains.DEADEND)
    q = tmp_path / "q.query"
    q.write_text(":state p;\n:do a;\n")
    assert main(["predict", str(d), str(q)]) == 1
    assert "no consistent outcome" in capsys.readouterr().out


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_predict_nonpositive_limit_is_exit_3(limit, capsys):
    samples = samples_dir()
    assert main(["predict", str(samples / "boxes.cp"), str(samples / "boxes.query"),
                 "--limit", limit]) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err and "limit" in captured.err
    assert "no consistent outcome" not in captured.out


def test_domain_parse_error_is_exit_2(tmp_path, capsys):
    d = tmp_path / "broken.cp"
    d.write_text(":constants p :: simpleFluent\n")  # missing semicolon
    assert main(["check", str(d)]) == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("bad", ["²", "①", "x"])
def test_non_decimal_digit_is_a_parse_error(toggle, tmp_path, capsys, bad):
    domain, _ = toggle
    p = tmp_path / "sup.prob"
    p.write_text(f":goal b;\n:horizon 0..{bad};\n", encoding="utf-8")
    assert main(["plan", domain, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{p}:2:13: expected a horizon bound, found '{bad}'"]
    p.write_text(f":goal b;\n:maxcost {bad};\n", encoding="utf-8")
    assert main(["plan", domain, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{p}:2:10: expected a cost bound, found '{bad}'"]
    d = tmp_path / "sup.cp"
    d.write_text(f":constants b :: simpleFluent;\n:externals f/{bad};\n:laws\n", encoding="utf-8")
    assert main(["check", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{d}:2:14: expected an arity, found '{bad}'"]


def test_lexer_errors_are_capped(tmp_path, capsys):
    d = tmp_path / "dollars.cp"
    d.write_text(":constants p :: simpleFluent;\n:laws\n" + "$" * 300 + "\n")
    assert main(["check", str(d)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 25


@pytest.mark.parametrize("nested", ["(" * 3000 + "p" + ")" * 3000, "~" * 3000 + "p"])
def test_deep_nesting_is_one_diagnostic(tmp_path, capsys, nested):
    d = tmp_path / "deep.cp"
    d.write_text(f":constants p :: simpleFluent;\n:laws\n  caused p if {nested};\n")
    assert main(["check", str(d)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{d}:3:{15 + MAX_NESTING}: formula nested more than {MAX_NESTING} levels deep"]


def test_missing_file_is_exit_3(capsys):
    assert main(["check", "/nonexistent/nowhere.cp"]) == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_solver_mode_is_exit_3(toggle, capsys):
    domain, problem = toggle
    assert main(["plan", domain, problem, "--solver", "minisat"]) == 3
    assert "usage error" in capsys.readouterr().err


def test_bad_flag_is_exit_3(toggle, capsys):
    domain, _ = toggle
    assert main(["check", domain, "--frobnicate"]) == 3
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("problem_text", [
    TOGGLE_PROBLEM,
    TOGGLE_PROBLEM + ":at 1 b | flip;\n:at final b;\n",
], ids=["plain", "at-steps"])
def test_dimacs_out_then_model_in_round_trip(toggle, tmp_path, capsys, problem_text):
    domain, _ = toggle
    problem = tmp_path / "round-trip.prob"
    problem.write_text(problem_text)
    problem = str(problem)
    cnf_file = tmp_path / "enc.cnf"
    assert main(["plan", domain, problem,
                 "--solver", "dimacs-out", str(cnf_file)]) == 0
    assert "wrote horizon-3 encoding" in capsys.readouterr().out

    n, clauses = parse_dimacs(cnf_file.read_text())
    res = solve((n, clauses))
    assert res.is_sat
    lits = [v if res.model[v] else -v for v in range(1, n + 1)]
    model_file = tmp_path / "model.txt"
    model_file.write_text("s SATISFIABLE\nv " + " ".join(map(str, lits)) + " 0\n")

    plan_file = tmp_path / "decoded.plan"
    assert main(["plan", domain, problem, "--model-in", str(model_file),
                 "--plan-out", str(plan_file)]) == 0
    out = capsys.readouterr().out
    assert "plan:" in out
    assert plan_file.exists()
    assert main(["validate", domain, problem, str(plan_file)]) == 0


def test_dimacs_round_trip_with_sequential_counters(tmp_path, capsys):
    # the dial's nine values are clausified as a sequential counter, whose
    # registers are definition variables: 'c aux' lines in the export
    domain, problem = tmp_path / "dial.cp", tmp_path / "dial.prob"
    domain.write_text(toy_domains.DIAL)
    problem.write_text(":init dial=n0;\n:goal dial=n3;\n:horizon 0..4;\n")
    domain, problem = str(domain), str(problem)
    cnf_file = tmp_path / "dial.cnf"
    assert main(["plan", domain, problem, "--solver", "dimacs-out", str(cnf_file)]) == 0
    text = cnf_file.read_text()
    atoms = {int(line.split()[2]) for line in text.splitlines() if line.startswith("c atom ")}
    aux = {int(line.split()[2]) for line in text.splitlines() if line.startswith("c aux ")}
    n, clauses = parse_dimacs(text)
    # each register r is implied by a value x: a clause (-x, r)
    registers = {b for a, b in (c for c in clauses if len(c) == 2)
                 if -a in atoms and b > 0 and b not in atoms}
    assert registers <= aux
    assert len(registers) == 8 * 5  # n - 1 for the nine values, at steps 0..4

    res = solve((n, clauses))
    assert res.is_sat
    model_file = tmp_path / "dial.model"
    model_file.write_text("s SATISFIABLE\nv " + " ".join(
        str(v if res.model[v] else -v) for v in range(1, n + 1)) + " 0\n")
    plan_file = tmp_path / "dial.plan"
    capsys.readouterr()
    assert main(["plan", domain, problem, "--model-in", str(model_file),
                 "--plan-out", str(plan_file)]) == 0
    assert capsys.readouterr().out.startswith("plan: 4 step(s)\n")
    assert main(["validate", domain, problem, str(plan_file)]) == 0
    assert capsys.readouterr().out == "plan is valid: 4 step(s)\n"


def test_model_in_prices_the_decoded_plan(tmp_path, capsys):
    samples = samples_dir()
    domain, problem = str(samples / "boxes-grid.cp"), str(samples / "boxes-grid.prob")
    grid = ["--world", str(samples / "corridor.world"),
            "--cost", "goto=timeEstimate(@atRobo,$0)"]
    cnf_file = tmp_path / "enc.cnf"
    assert main(["plan", domain, problem, *grid, "--solver", "dimacs-out", str(cnf_file)]) == 0
    assert "wrote horizon-8 encoding" in capsys.readouterr().out
    n, clauses = parse_dimacs(cnf_file.read_text())
    res = solve((n, clauses))
    assert res.is_sat
    lits = [v if res.model[v] else -v for v in range(1, n + 1)]
    model_file = tmp_path / "model.txt"
    model_file.write_text("s SATISFIABLE\nv " + " ".join(map(str, lits)) + " 0\n")

    plan_file = tmp_path / "decoded.plan"
    assert main(["plan", domain, problem, *grid, "--model-in", str(model_file),
                 "--plan-out", str(plan_file)]) == 0
    out = capsys.readouterr().out

    # price the written plan by hand: corridor "1.2...3" puts L1, L2, L3 at
    # x = 0, 2, 6, and a goto costs the distance the robot travels
    x = {"L1": 0, "L2": 2, "L3": 6}
    lines = plan_file.read_text().splitlines()
    robot = {}
    expected = 0
    for line in lines:
        head, _, rest = line.partition(": ")
        if head.startswith("state "):
            robot[int(head.split()[1])] = next(
                w.split("=")[1] for w in rest.split() if w.startswith("atRobo="))
        elif head.startswith("step ") and rest.startswith("goto("):
            t = int(head.split()[1])
            expected += abs(x[robot[t]] - x[rest[len("goto("):-1]])
    assert expected >= 12  # L3 -> L1 for the box, then back to L3
    assert out.splitlines()[0] == f"plan: 8 step(s), cost {expected}"
    assert f"cost: {expected}" in lines
    assert main(["validate", domain, problem, str(plan_file), *grid]) == 0


def test_demo_toh_reports_expected(tmp_path, capsys):
    plan_file = tmp_path / "toh.plan"
    assert main(["demo", "toh", "--disks", "2", "--seed", "0",
                 "--plan-out", str(plan_file)]) == 0
    out = capsys.readouterr().out
    assert "expected optimal makespan: 3" in out
    assert "plan: 3 step(s)" in out
    assert plan_file.exists()


def test_demo_dimacs_out_grounds_once(tmp_path, monkeypatch, capsys):
    # the export and the search each enter ground(); the schemas are
    # instantiated only the first time
    from causalplan import cli, grounding, planner
    entered, made = [], []

    def counted(*args, **kwargs):
        entered.append(args)
        return grounding.ground(*args, **kwargs)

    class Counted(grounding.GroundDomain):
        def __init__(self, *args, **kwargs):
            made.append((args, kwargs))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ground", counted)
    monkeypatch.setattr(planner, "ground", counted)
    monkeypatch.setattr(grounding, "GroundDomain", Counted)
    assert main(["demo", "toh", "--disks", "2", "--seed", "0",
                 "--dimacs-out", str(tmp_path / "toh.cnf")]) == 0
    assert "plan: 3 step(s)" in capsys.readouterr().out
    assert len(entered) == 2 and len(made) == 1


def test_demo_conflict_limit_is_exit_3(capsys):
    assert main(["demo", "toh", "--disks", "3", "--seed", "0",
                 "--max-conflicts", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: solver resource limit reached (--max-conflicts) after 1 conflicts and ")
    assert err.endswith(" decisions\n") and err.count("\n") == 1


def test_demo_within_conflict_limit_finds_the_plan(capsys):
    assert main(["demo", "toh", "--disks", "3", "--seed", "0",
                 "--max-conflicts", "20"]) == 0
    assert "plan: 7 step(s)" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--max-conflicts", "0"), ("--max-conflicts", "-5"),
                                        ("--max-seconds", "0"), ("--max-seconds", "-1")])
def test_nonpositive_solver_limit_is_exit_3(toggle, capsys, flag, value):
    domain, problem = toggle
    assert main(["plan", domain, problem, flag, value]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {flag}:") and "Traceback" not in err


def test_plan_passes_the_time_limit(toggle, capsys):
    domain, problem = toggle
    assert main(["plan", domain, problem, "--max-seconds", "30", "--max-conflicts", "1000"]) == 0
    assert "plan: 1 step(s)" in capsys.readouterr().out


def test_demo_boxes_with_world(tmp_path, capsys):
    w = tmp_path / "grid.world"
    w.write_text("1.2\n")
    assert main(["demo", "boxes", "--world", str(w)]) == 0
    assert "plan: 4 step(s)" in capsys.readouterr().out


def test_demo_mapp_defaults_to_swapping_landmarks(tmp_path, capsys):
    w = tmp_path / "grid.world"
    w.write_text("1.\n.2\n")
    assert main(["demo", "mapp", "--world", str(w)]) == 0
    assert "plan: 2 step(s)" in capsys.readouterr().out


def test_demo_mapp_horizon_bounds_the_search(tmp_path, capsys):
    # the swap on an open 3x3 grid takes 4 steps
    w = tmp_path / "grid.world"
    w.write_text("1..\n...\n..2\n")
    assert main(["demo", "mapp", "--world", str(w), "--horizon", "0..3"]) == 1
    assert capsys.readouterr().out == "no plan up to horizon 3\n"
    assert main(["demo", "mapp", "--world", str(w), "--horizon", "2..4"]) == 0
    assert "plan: 4 step(s)" in capsys.readouterr().out
    for bad in ("3", "4..3", "-1..3", "a..b"):
        assert main(["demo", "mapp", "--world", str(w), f"--horizon={bad}"]) == 3
        assert "LO..HI" in capsys.readouterr().err


def test_demo_mapp_without_world_is_usage_error(capsys):
    assert main(["demo", "mapp"]) == 3
    assert "usage error" in capsys.readouterr().err


def test_seed_env_fallback(toggle, tmp_path, capsys, monkeypatch):
    domain, problem = toggle
    monkeypatch.setenv("CAUSALPLAN_SEED", "not-a-number")
    assert main(["plan", domain, problem]) == 3
    assert "CAUSALPLAN_SEED" in capsys.readouterr().err
    monkeypatch.setenv("CAUSALPLAN_SEED", "7")
    assert main(["plan", domain, problem]) == 0


# --- cost deadlines -------------------------------------------------------------

GOTO_COST = "goto=timeEstimate(@atRobo,$0)"


def _grid_args():
    return [str(samples_dir() / "boxes-grid.cp"), "--world", str(samples_dir() / "corridor.world")]


def _deadline_problem(tmp_path, deadline: int) -> str:
    p = tmp_path / f"maxcost{deadline}.prob"
    p.write_text((samples_dir() / "boxes-grid.prob").read_text() + f":maxcost {deadline};\n")
    return str(p)


@pytest.mark.parametrize("spec,code,message", [
    ("goto=timeEstimate(@nosuch,$0)", 3, "cost model reads unknown fluent nosuch"),
    ("goto=timeEstimate(@atRobo,$3)", 3, "cost model reads argument $3 of goto/1"),
    ("goto=nosuch(@atRobo,$0)", 2, "no external registered for 'nosuch/2'"),
    ("goto=timeEstimate(@atRobo,)", 3, "bad cost argument ''"),
    ("goto=timeEstimate(@atRobo,,$0)", 3, "bad cost argument ''"),
    ("Goto=timeEstimate(@atRobo,$0)", 3, "cost model charges unknown action 'Goto'"),
])
def test_cost_spec_errors_keep_their_exit_codes(tmp_path, capsys, spec, code, message):
    domain, *world = _grid_args()
    assert main(["plan", domain, _deadline_problem(tmp_path, 30), *world, "--cost", spec]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "model-in", "model-in-unsat", "dimacs-out",
                                     "validate"])
def test_cost_model_for_an_undeclared_action_is_one_usage_error(tmp_path, capsys, command):
    domain, *world = _grid_args()
    problem = str(samples_dir() / "boxes-grid.prob")
    argv = ["plan", domain, problem]
    cnf_out = tmp_path / "refused.cnf"
    if command == "model-in-unsat":
        model = tmp_path / "unsat.model"
        model.write_text("s UNSATISFIABLE\n")
        argv += ["--model-in", str(model)]
    elif command == "dimacs-out":
        argv += ["--solver", "dimacs-out", str(cnf_out)]
    elif command == "model-in":
        # an assignment to the largest horizon's encoding
        cnf, model = tmp_path / "grid.cnf", tmp_path / "grid.model"
        assert main([*argv, *world, "--solver", "dimacs-out", str(cnf)]) == 0
        n, clauses = parse_dimacs(cnf.read_text())
        res = solve((n, clauses))
        model.write_text("v " + " ".join(str(v if res.model[v] else -v)
                                         for v in range(1, n + 1)) + " 0\n")
        argv += ["--model-in", str(model)]
    elif command == "validate":
        plan_file = tmp_path / "grid.plan"
        assert main([*argv, *world, "--plan-out", str(plan_file)]) == 0
        argv = ["validate", domain, problem, str(plan_file)]
    capsys.readouterr()
    assert main([*argv, *world, "--cost", "Goto=timeEstimate(@atRobo,$0)"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: cost model charges unknown action 'Goto'\n")
    assert not cnf_out.exists()


@pytest.mark.parametrize("command", ["plan-maxcost", "plan", "validate"])
def test_negative_charge_is_refused(tmp_path, capsys, monkeypatch, command):
    from causalplan import cli, grid

    domain, *world = _grid_args()
    problem = str(samples_dir() / "boxes-grid.prob")
    maxcost = _deadline_problem(tmp_path, 30)
    plan_file = str(tmp_path / "out.plan")
    if command == "validate":
        assert main(["plan", domain, problem, *world, "--plan-out", plan_file]) == 0
        capsys.readouterr()

    def registry_for(world):
        reg = grid.registry_for(world)
        reg.register("timeEstimate", 2, lambda src, dst: 0 if src == dst else -2)
        return reg
    monkeypatch.setattr(cli, "registry_for", registry_for)
    argv = {"plan-maxcost": ["plan", domain, maxcost],
            "plan": ["plan", domain, problem],
            "validate": ["validate", domain, maxcost, plan_file]}[command]
    assert main([*argv, *world, "--cost", GOTO_COST]) == 3
    err = capsys.readouterr().err
    assert "cost external 'timeEstimate' returned -2" in err and "negative charge" in err


def test_dimacs_export_does_not_carry_the_deadline(tmp_path, capsys):
    domain, *world = _grid_args()
    plain, bounded = tmp_path / "plain.cnf", tmp_path / "bounded.cnf"
    assert main(["plan", domain, str(samples_dir() / "boxes-grid.prob"), *world,
                 "--solver", "dimacs-out", str(plain)]) == 0
    assert main(["plan", domain, _deadline_problem(tmp_path, 11), *world, "--cost", GOTO_COST,
                 "--solver", "dimacs-out", str(bounded)]) == 0
    assert plain.read_bytes() == bounded.read_bytes()


def _clause_and_literal_counts(dimacs: str) -> tuple[int, int]:
    _, clauses = parse_dimacs(dimacs)
    return len(clauses), sum(map(len, clauses))


def test_dimacs_exports_keep_their_clause_and_literal_counts(tmp_path, capsys):
    # the clause and literal counts of each export, which a change to the
    # clause form moves on purpose; Hanoi's are presimplified with the step
    # template's facts
    toh = build_toh(4)
    init, goal, extras, _, hi = close_problem(toh.domain, toh.problem, toh.registry)
    enc = encode_problem(ground(toh.domain, toh.registry), init, goal, extras, hi,
                         noconcurrency=toh.problem.noconcurrency)
    assert _clause_and_literal_counts(emit_dimacs(enc.cnf())) == (5_373, 10_858)
    domain, *world = _grid_args()
    cnf_file = tmp_path / "grid.cnf"
    assert main(["plan", domain, str(samples_dir() / "boxes-grid.prob"), *world,
                 "--solver", "dimacs-out", str(cnf_file)]) == 0
    assert _clause_and_literal_counts(cnf_file.read_text()) == (376, 880)


def test_model_in_refuses_a_plan_over_the_deadline(tmp_path, capsys):
    # on the corridor the cheapest delivery costs 12: L3 -> L1 and back
    domain, *world = _grid_args()
    problem = _deadline_problem(tmp_path, 11)
    assert main(["plan", domain, problem, *world, "--cost", GOTO_COST]) == 1
    assert capsys.readouterr().out == "no plan up to horizon 8\n"
    cnf_file = tmp_path / "enc.cnf"
    assert main(["plan", domain, problem, *world, "--solver", "dimacs-out", str(cnf_file)]) == 0
    n, clauses = parse_dimacs(cnf_file.read_text())
    res = solve((n, clauses))
    assert res.is_sat
    model_file = tmp_path / "model.txt"
    model_file.write_text("v " + " ".join(str(v if res.model[v] else -v)
                                          for v in range(1, n + 1)) + " 0\n")
    capsys.readouterr()
    assert main(["plan", domain, problem, *world, "--cost", GOTO_COST,
                 "--model-in", str(model_file)]) == 2
    err = capsys.readouterr().err
    m = re.search(r"decoded plan is invalid: plan cost (\d+) exceeds the deadline 11$", err, re.M)
    assert m and int(m.group(1)) >= 12, err


def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch):
    # stdout, written files and exit codes of a fixed command list, by
    # SHA-256 (see cli_digests.py, which checks an installed entry point
    # against the same digests)
    monkeypatch.delenv("CAUSALPLAN_SEED", raising=False)
    assert cli_digests.run_commands(cli_digests.in_process, tmp_path) == cli_digests.pinned()

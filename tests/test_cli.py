import json
import re
from dataclasses import replace

import pytest

from robust_vdp import InstanceError, parse_document
from robust_vdp.cli import main
from robust_vdp.data import path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


INSTANCE = str(path("binomial_tables.json"))
INDEPENDENT = str(path("binomial_tables_independent.json"))
ROOF = str(path("cone_roof3d.json"))
NO_SUP = str(path("points_no_sup.json"))
HALFSPACE = str(path("cone_halfspace.json"))
HS_POINTS = str(path("points_halfspace.json"))


def test_solve_text_output(capsys):
    code, out, _ = run(capsys, "solve", "--instance", INSTANCE)
    assert code == 0
    assert "V0(Theta) = {(5,4), (9/2,5)}" in out
    assert "E_1: u=(4,4)  d=(4,4)" in out  # Table entry for the first model
    assert "equality holds" in out


def test_solve_is_deterministic(capsys):
    _, first, _ = run(capsys, "solve", "--instance", INSTANCE)
    _, second, _ = run(capsys, "solve", "--instance", INSTANCE)
    assert first == second


def test_solve_json_format(capsys):
    code, out, _ = run(capsys, "solve", "--instance", INSTANCE, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    root = doc["value_sets"]["0"][0]
    assert root["node"] == "n0"
    assert root["set"] == [["5", "4"], ["9/2", "5"]]
    assert doc["bellman"]["equality"] is True


def test_solve_time_slice(capsys):
    code, out, _ = run(capsys, "solve", "--instance", INSTANCE, "--time", "1")
    assert code == 0
    assert "V1(u|phi) = {(6,4)}" in out


def test_check_bellman_exit_codes(capsys):
    code, out, _ = run(capsys, "check-bellman", "--instance", INSTANCE)
    assert code == 0
    code, out, _ = run(capsys, "check-bellman", "--instance", INDEPENDENT)
    assert code == 1
    assert "FAILS" in out


def test_rect_exit_codes(capsys):
    code, out, _ = run(capsys, "rect", "--instance", INSTANCE, "--random", "5", "--seed", "2")
    assert code == 0
    assert "marginal-rectangular: yes" in out
    code, out, _ = run(
        capsys, "rect", "--instance", INDEPENDENT, "--random", "10", "--seed", "2"
    )
    assert code == 1
    assert "marginal-rectangular: no" in out


def test_vsup_not_exists(capsys):
    code, out, _ = run(capsys, "vsup", "--cone", ROOF, "--points", NO_SUP)
    assert code == 3
    assert "status: not_exists" in out
    assert "undominated point" in out


def test_vsup_non_unique(capsys):
    code, out, _ = run(capsys, "vsup", "--cone", HALFSPACE, "--points", HS_POINTS)
    assert code == 0
    assert "status: non_unique" in out
    assert "alternative" in out


def test_pareto(capsys):
    code, out, _ = run(capsys, "pareto", "--instance", INSTANCE, "--time", "0")
    assert code == 0
    assert "P0(n0|*) = {(5,4), (9/2,5)}" in out


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", "--instance", str(bad))
    assert code == 2
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "solve", "--instance", "/nonexistent.json")
    assert code == 2


def test_budget_flag_triggers_scale_error(capsys):
    code, _, err = run(capsys, "solve", "--instance", INSTANCE, "--budget", "1")
    assert code == 3
    assert "budget" in err


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("ROBUST_VDP_BUDGET", "1")
    code, _, _ = run(capsys, "solve", "--instance", INSTANCE)
    assert code == 3
    # an explicit flag wins over the environment
    code, _, _ = run(capsys, "solve", "--instance", INSTANCE, "--budget", "1000")
    assert code == 0


def test_invalid_budget_env(tmp_path, capsys, monkeypatch):
    doc = json.loads(open(INSTANCE, encoding="utf-8").read())
    doc["options"] = {"budget": 0}
    budget0 = tmp_path / "budget0.json"
    budget0.write_text(json.dumps(doc))
    for env, argv, source in (
        ("many", ["--instance", INSTANCE], "ROBUST_VDP_BUDGET"),
        ("0", ["--instance", INSTANCE], "ROBUST_VDP_BUDGET"),
        (None, ["--instance", INSTANCE, "--budget", "0"], "--budget"),
        (None, ["--instance", INSTANCE, "--budget", "-3"], "--budget"),
        (None, ["--instance", str(budget0)], "/options/budget"),
    ):
        if env is None:
            monkeypatch.delenv("ROBUST_VDP_BUDGET", raising=False)
        else:
            monkeypatch.setenv("ROBUST_VDP_BUDGET", env)
        code, out, err = run(capsys, "solve", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {source}: expected a positive integer\n"


def test_rect_negative_random_count(capsys):
    code, out, err = run(capsys, "rect", "--instance", INSTANCE, "--random", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --random: count -1 is negative\n"


def test_prune_flag(capsys):
    code, out, _ = run(capsys, "solve", "--instance", INSTANCE, "--prune")
    assert code == 0
    assert "B0(Theta) = {(5,4), (9/2,5)}" in out  # frontier is already minimal


def test_time_only_on_solve_and_pareto(capsys):
    # every flag is offered only on the subcommands that read it
    check_bellman = ["check-bellman", "--instance", INSTANCE]
    rect = ["rect", "--instance", INSTANCE]
    vsup = ["vsup", "--cone", HALFSPACE, "--points", HS_POINTS]
    pareto = ["pareto", "--instance", INSTANCE]
    solve = ["solve", "--instance", INSTANCE]
    for argv, flag in (
        (check_bellman, ["--time", "0"]),
        (rect, ["--time", "0"]),
        (vsup, ["--time", "0"]),
        (check_bellman, ["--prune"]),
        (rect, ["--prune"]),
        (vsup, ["--prune"]),
        (pareto, ["--prune"]),
        (solve, ["--seed", "1"]),
        (check_bellman, ["--seed", "1"]),
        (vsup, ["--seed", "1"]),
        (pareto, ["--seed", "1"]),
        (rect, ["--budget", "5"]),
        (vsup, ["--budget", "5"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_time_outside_horizon(capsys):
    for argv in (
        ["pareto", "--instance", INSTANCE],
        ["solve", "--instance", INSTANCE],
        ["solve", "--instance", INSTANCE, "--format", "json"],
    ):
        code, out, err = run(capsys, *argv, "--time", "9")
        assert code == 2
        assert out == ""
        assert "time 9 outside 0..2" in err


def test_solve_json_time_slice(capsys):
    code, out, _ = run(
        capsys, "solve", "--instance", INSTANCE, "--format", "json", "--time", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["value_sets"] and list(doc["value_sets"]) == ["1"]
    assert {"node": "u", "state": "phi", "set": [["6", "4"]]} in doc["value_sets"]["1"]


def test_vsup_points_with_float_literal(tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text("[[1.5, 2], [0, 1]]")
    code, _, err = run(capsys, "vsup", "--cone", HALFSPACE, "--points", str(points))
    assert code == 2
    assert "floating-point literal" in err and "Traceback" not in err


def test_rect_test_vectors_with_float_literal(tmp_path, capsys):
    vectors = tmp_path / "vectors.json"
    vectors.write_text('[{"uu": [1.5, 0], "ud": [0, 0], "du": [0, 0], "dd": [0, 0]}]')
    code, _, err = run(capsys, "rect", "--instance", INSTANCE, "--test-vectors", str(vectors))
    assert code == 2
    assert "floating-point literal" in err and "Traceback" not in err


def test_rect_test_vector_missing_a_leaf(tmp_path, capsys):
    vectors = tmp_path / "vectors.json"
    vectors.write_text('[{"uu": [1, 0], "ud": [0, 0], "du": [0, 0]}]')
    code, _, err = run(capsys, "rect", "--instance", INSTANCE, "--test-vectors", str(vectors))
    assert code == 2
    assert err == "error: /0: expected exactly the time-2 nodes as keys\n"


def test_vsup_points_of_two_dimensions(tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text("[[1, 2], [1, 2, 3]]")
    code, _, err = run(capsys, "vsup", "--cone", HALFSPACE, "--points", str(points))
    assert code == 2
    assert err == "error: /1: expected dimension 2, got 3\n"


def test_pareto_below_an_over_budget_root(capsys):
    # two root strategies, one from each time-1 point
    code, out, _ = run(
        capsys, "pareto", "--instance", INSTANCE, "--time", "1", "--budget", "1"
    )
    assert code == 0
    assert "P1(u|phi) = {(6,4)}" in out
    code, _, err = run(
        capsys, "pareto", "--instance", INSTANCE, "--time", "0", "--budget", "1"
    )
    assert code == 3
    assert err == (
        "error: strategy enumeration exceeds the budget of 1 "
        "(2 at t=0, node='n0', state='*')\n"
    )


def test_children_entry_on_a_leaf_is_an_input_error(tmp_path, capsys):
    # a cycle from a time-2 leaf back to a time-1 node
    doc = json.loads(path("binomial_tables.json").read_text())
    doc["tree"]["children"]["uu"] = ["u"]
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(doc))
    for argv in (["solve"], ["check-bellman"], ["pareto"], ["rect"]):
        code, out, err = run(capsys, *argv, "--instance", str(instance))
        assert (code, out, err) == (
            2, "",
            "error: /tree/children/uu: terminal node 'uu' takes no children entry\n",
        )


def _dynamics_doc() -> dict:
    """Two binary periods; controls a and b send every branch to s1 and s2,
    so the root has 8 strategies."""
    ab = ["a", "b"]
    return {
        "dimension": 1,
        "cone": {"kind": "componentwise"},
        "tree": {
            "horizon": 2,
            "levels": [["n0"], ["u", "d"], ["uu", "ud", "du", "dd"]],
            "children": {"n0": ["u", "d"], "u": ["uu", "ud"], "d": ["du", "dd"]},
            "labels": {"u": "up", "d": "down", "uu": "up", "ud": "down",
                       "du": "up", "dd": "down"},
        },
        "models": {"explicit": [{"id": "m", "transition": {
            n: ["1/2", "1/2"] for n in ("n0", "u", "d")
        }}]},
        "problem": {
            "mode": "dynamics",
            "initial_state": "s0",
            "admissible": [
                {"time": t, "state": s, "controls": ab}
                for t in (0, 1) for s in ("s0", "s1", "s2")
            ],
            "transition": [
                {"time": t, "state": s, "control": a, "label": lab,
                 "next": "s1" if a == "a" else "s2"}
                for t in (0, 1) for s in ("s0", "s1", "s2") for a in ab
                for lab in ("up", "down")
            ],
            "loss": {"s0": [0], "s1": [1], "s2": [2]},
        },
    }


@pytest.mark.parametrize("part, drop, message", [
    ("loss", "s2", "/problem/loss: no loss for terminal state 's2'"),
    ("admissible", {"time": 1, "state": "s2"},
     "/problem/admissible: no admissible control at (t=1, 's2')"),
    ("transition", {"time": 1, "state": "s1", "control": "b", "label": "down"},
     "/problem/transition: dynamics transition missing for (1, 's1', 'b', 'down')"),
])
def test_missing_reachable_dynamics_entry_is_an_input_error(
    tmp_path, capsys, part, drop, message
):
    doc = _dynamics_doc()
    entries = doc["problem"][part]
    if isinstance(entries, dict):
        del entries[drop]
    else:
        entries[:] = [e for e in entries if any(e[k] != v for k, v in drop.items())]
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(doc))
    # the root's 8 strategies exceed a budget of 4, yet the input error wins
    for argv in (["solve", "--budget", "4"], ["check-bellman"], ["rect"]):
        code, out, err = run(capsys, *argv, "--instance", str(instance))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("part, message", [
    ("controls", "/problem/admissible/0/controls: duplicate control 'a'"),
    ("admissible", "/problem/admissible/6: duplicate row for (t=0, 's0')"),
    ("transition", "/problem/transition/24: duplicate row for (0, 's0', 'a', 'up')"),
])
def test_repeated_dynamics_entry_is_an_input_error(tmp_path, capsys, part, message):
    doc = _dynamics_doc()
    problem = doc["problem"]
    problem["admissible"][0]["controls"] = ["a"]  # 4 strategies at the root
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(doc))
    assert run(capsys, "solve", "--budget", "5", "--instance", str(instance))[0] == 0
    # a repeated control, or a later row for the same key with other contents
    if part == "controls":
        problem["admissible"][0]["controls"] = ["a", "a"]
    elif part == "admissible":
        problem["admissible"].append(dict(problem["admissible"][0], controls=["b"]))
    else:
        problem["transition"].append(dict(problem["transition"][0], next="s2"))
    instance.write_text(json.dumps(doc))
    for argv in (["solve", "--budget", "5"], ["check-bellman"]):
        code, out, err = run(capsys, *argv, "--instance", str(instance))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_repeated_control_is_rejected_through_the_python_api():
    problem = parse_document(json.dumps(_dynamics_doc())).problem
    dynamics = problem.dynamics
    once = replace(dynamics, admissible={**dynamics.admissible, (0, "s0"): ("a",)})
    assert problem.strategy_counts[("n0", "s0")] == 8
    assert replace(problem, dynamics=once).strategy_counts[("n0", "s0")] == 4
    message = "/problem/admissible/0/controls: duplicate control 'a'"
    with pytest.raises(InstanceError, match=re.escape(message)):
        replace(dynamics, admissible={**dynamics.admissible, (0, "s0"): ("a", "a")})


def test_one_reachability_walk_per_call(tmp_path, capsys, monkeypatch):
    from robust_vdp import engine

    calls = []
    walk = engine.reachable_states
    monkeypatch.setattr(
        engine, "reachable_states", lambda p: calls.append(p) or walk(p)
    )
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(_dynamics_doc()))
    for argv in (["solve", "--budget", "40"], ["check-bellman"], ["pareto"], ["rect"]):
        calls.clear()
        code, _, _ = run(capsys, *argv, "--instance", str(instance))
        # rect walks its test vectors without a problem of their own
        assert code in (0, 1)
        assert [p.mode for p in calls] == [engine.DYNAMICS]


# ---------------------------------------------------------------------------
# each input shape has one reader: the same checks and paths everywhere


def _solve_doc(tmp_path, capsys, name, edit):
    doc = json.loads(path(name).read_text())
    edit(doc)
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(doc))
    return run(capsys, "solve", "--instance", str(instance))


@pytest.mark.parametrize("node, i, row, message", [
    ("zz", 0, ["1/2", "1/2"], "/models/marginals/zz/0: dangling node reference"),
    ("uu", 0, ["1/2", "1/2"], "/models/marginals/uu/0: dangling node reference"),
    ("u", 1, ["1/2", "1/4", "1/4"],
     "/models/marginals/u/1: expected dimension 2, got 3"),
    ("d", 0, ["-1/2", "3/2"], "/models/marginals/d/0: negative probability"),
])
def test_marginal_rows_are_checked_like_explicit_rows(
    tmp_path, capsys, node, i, row, message
):
    def edit(doc):
        doc["models"]["marginals"].setdefault(node, [row])[i] = row

    code, out, err = _solve_doc(tmp_path, capsys, "binomial_marginals.json", edit)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("key, message", [
    ("dimension", "/dimension: expected a positive integer"),
    ("budget", "/options/budget: expected a positive integer"),
    ("seed", "/options/seed: expected an integer"),
])
def test_a_boolean_is_no_integer(tmp_path, capsys, key, message):
    def edit(doc):
        (doc if key == "dimension" else doc["options"])[key] = True

    code, out, err = _solve_doc(tmp_path, capsys, "binomial_tables.json", edit)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_tabulated_table_missing_a_leaf(tmp_path, capsys):
    def edit(doc):
        del doc["problem"]["strategies"]["psi"]["dd"]

    code, out, err = _solve_doc(tmp_path, capsys, "binomial_tables.json", edit)
    assert (code, out, err) == (2, "", (
        "error: /problem/strategies/psi: expected exactly the time-2 nodes as keys\n"
    ))


def _vsup_files(tmp_path, cone_doc, points_doc):
    cone, points = tmp_path / "cone.json", tmp_path / "points.json"
    cone.write_text(json.dumps(cone_doc))
    points.write_text(json.dumps(points_doc))
    return str(cone), str(points)


@pytest.mark.parametrize("b", [5, [], None, "x"])
def test_generator_cone_duals_are_a_nonempty_list_of_rows(tmp_path, capsys, b):
    cone, points = _vsup_files(
        tmp_path, {"kind": "generators", "g": [[1, 0], [0, 1]], "b": b}, [[1, 2]]
    )
    code, out, err = run(capsys, "vsup", "--cone", cone, "--points", points)
    assert (code, out, err) == (2, "", "error: /b: expected a nonempty list of rows\n")


def test_side_file_paths_start_at_the_root(tmp_path, capsys):
    cone, points = _vsup_files(tmp_path, {"kind": "dual", "b": [[1, 0, 0]]}, [[1, 2]])
    code, out, err = run(capsys, "vsup", "--cone", cone, "--points", points)
    assert (code, out, err) == (2, "", "error: /b/0: expected dimension 2, got 3\n")


@pytest.mark.parametrize("cone_doc, points_doc, bad, message", [
    ({"kind": "componentwise"}, {}, "points", "expected a nonempty list of rows"),
    ([], [[1, 2]], "cone", "cone must be an object"),
    ({"kind": "halfspace"}, [[1, 2]], "cone", "missing required field 'w'"),
])
def test_whole_side_file_errors_name_the_file(
    tmp_path, capsys, cone_doc, points_doc, bad, message
):
    cone, points = _vsup_files(tmp_path, cone_doc, points_doc)
    code, out, err = run(capsys, "vsup", "--cone", cone, "--points", points)
    named = cone if bad == "cone" else points
    assert (code, out, err) == (2, "", f"error: {named}: {message}\n")


@pytest.mark.parametrize("horizon", [True, "2", [2], 0])
def test_tree_horizon_is_a_positive_integer(tmp_path, capsys, horizon):
    def edit(doc):
        doc["tree"]["horizon"] = horizon

    code, out, err = _solve_doc(tmp_path, capsys, "binomial_tables.json", edit)
    assert (code, out, err) == (
        2, "", "error: /tree/horizon: expected a positive integer\n"
    )


def test_tree_label_keys_are_nodes(tmp_path, capsys):
    def edit(doc):
        doc["tree"]["labels"] = {"zz": "x"}

    code, out, err = _solve_doc(tmp_path, capsys, "binomial_tables.json", edit)
    assert (code, out, err) == (
        2, "", "error: /tree/labels/zz: dangling node reference\n"
    )


@pytest.mark.parametrize("cone_doc", [
    {"kind": "halfspace", "w": [1, 1]}, {"kind": "componentwise"},
])
def test_zero_dimensional_points_are_blamed_on_the_points(tmp_path, capsys, cone_doc):
    cone, points = _vsup_files(tmp_path, cone_doc, [[]])
    code, out, err = run(capsys, "vsup", "--cone", cone, "--points", points)
    assert (code, out, err) == (
        2, "", "error: /0: expected a nonempty list of rationals\n"
    )


@pytest.mark.parametrize("seed", [[], ["--seed", "7"]])
def test_rect_test_vectors_report_no_seed(tmp_path, capsys, seed):
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps(
        [{"uu": [1, 2], "ud": [0, 1], "du": [3, 0], "dd": ["1/2", 1]}]
    ))
    code, out, _ = run(
        capsys, "rect", "--instance", INSTANCE, "--test-vectors", str(vectors),
        "--format", "json", *seed,
    )
    assert code == 0
    assert json.loads(out)["summary"] == (
        "no counterexample found among 1 test vectors (1 (vector, time) checks)"
    )


def _unit_rows(d: int) -> list[list[int]]:
    return [[int(i == j) for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("rows", [
    _unit_rows(5) + [[1, 1, 0, 0, 0]],  # d = 5, six dependent rows
    _unit_rows(3) + [[1, k, 1] for k in range(1, 15)],  # d = 3, 17 rows
])
def test_general_supremum_refuses_large_cones(tmp_path, capsys, rows):
    d = len(rows[0])
    cone, points = _vsup_files(
        tmp_path, {"kind": "dual", "b": rows}, [[1] * d, [0] * d]
    )
    code, out, err = run(capsys, "vsup", "--cone", cone, "--points", points)
    assert (code, out, err) == (3, "", (
        "error: vsup_general is limited to dimension <= 4 "
        "and <= 16 dual inequalities\n"
    ))


def test_independent_duals_take_no_size_limit(tmp_path, capsys):
    points_doc = [[1, 0, 2, 0, 0], [0, 1, 0, 0, 3]]
    cone, points = _vsup_files(tmp_path, {"kind": "dual", "b": _unit_rows(5)}, points_doc)
    code, out, err = run(capsys, "vsup", "--cone", cone, "--points", points)
    assert (code, out, err) == (0, "status: unique\nvalue: (1,1,2,0,3)\n", "")

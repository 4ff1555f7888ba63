"""The CLI exit-code contract on generated command lines and mutated
instance and cone documents: ``main`` returns 0, 1, 2 or 3, or argparse rejects the
command line with ``SystemExit(2)``; nothing else escapes."""

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from robust_vdp import Options, ParsedInstance, serialize_instance
from robust_vdp.cli import BUDGET_ENV, main
from robust_vdp.data import path

from .oracles import random_dynamics_problem

INSTANCES = [
    str(path(name))
    for name in (
        "binomial_tables.json",
        "binomial_tables_independent.json",
        "binomial_marginals.json",
    )
]
CONES = [str(path("cone_halfspace.json")), str(path("cone_roof3d.json"))]
POINTS = [str(path("points_halfspace.json")), str(path("points_no_sup.json"))]
MISSING = "no-such-file.json"

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _dynamics_doc() -> dict:
    problem = random_dynamics_problem(random.Random(7), max_controls=2)
    return json.loads(serialize_instance(ParsedInstance(problem, Options())))


DOCS = [json.loads(Path(p).read_text(encoding="utf-8")) for p in INSTANCES]
DOCS.append(_dynamics_doc())


def run_main(argv: list[str], budget_env=None) -> int:
    """Exit code of one CLI call; fails on any escaping exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        os.environ.pop(BUDGET_ENV, None)
        if budget_env is not None:
            os.environ[BUDGET_ENV] = budget_env
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2, (argv, err.getvalue())
            return 2
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


FLAGS = {
    "--instance": st.sampled_from(INSTANCES + [MISSING, POINTS[0]]),
    "--prune": st.just(None),
    "--budget": st.one_of(st.integers(-3, 40), st.sampled_from(["x", "1/2", "1e3"])),
    "--seed": st.one_of(st.integers(-5, 5), st.just("s")),
    "--time": st.one_of(st.integers(-2, 4), st.just("t")),
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--random": st.one_of(st.integers(-3, 6), st.just("n")),
    "--test-vectors": st.sampled_from(POINTS + INSTANCES + [MISSING]),
    "--cone": st.sampled_from(CONES + INSTANCES + [MISSING]),
    "--points": st.sampled_from(POINTS + CONES + [MISSING]),
}

BASE = {
    "solve": ["--instance"],
    "check-bellman": ["--instance"],
    "rect": ["--instance"],
    "pareto": ["--instance"],
    "vsup": ["--cone", "--points"],
}

BUDGET_ENVS = st.sampled_from([None, "5", "0", "many"])


def _flag(data, name: str) -> list[str]:
    value = data.draw(FLAGS[name], label=name)
    return [name] if value is None else [name, str(value)]


@SETTINGS
@given(st.data())
def test_generated_command_lines_keep_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(sorted(BASE)), label="command")
    argv = [command]
    for name in BASE[command]:
        argv += _flag(data, name)
    for name in data.draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=3)):
        argv += _flag(data, name)
    run_main(argv, data.draw(BUDGET_ENVS, label="budget env"))


# ---------------------------------------------------------------------------
# mutated instance documents


def _slots(node, out=None) -> list[tuple]:
    """Every (container, key) slot of a JSON document, depth first."""
    out = [] if out is None else out
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _pick(data, slots, label):
    return slots[data.draw(st.integers(0, len(slots) - 1), label=label)]


def _is_row(value) -> bool:
    return isinstance(value, list) and value and all(
        isinstance(x, (int, str)) and not isinstance(x, bool) for x in value
    )


def _mutate(data, doc: dict):
    slots = _slots(doc)
    kind = data.draw(st.sampled_from(
        ["drop", "float", "dimension", "row", "cone", "dynamics", "junk"]
    ), label="mutation")
    if kind == "drop":
        container, key = _pick(data, slots, "slot")
        del container[key]
    elif kind == "float":
        leaves = [s for s in slots if isinstance(s[0][s[1]], (int, str))]
        container, key = _pick(data, leaves, "leaf")
        container[key] = data.draw(st.sampled_from([0.5, 1.0, -2.25]))
    elif kind == "dimension":
        rows = [s[0][s[1]] for s in slots if _is_row(s[0][s[1]])]
        if data.draw(st.booleans(), label="dimension key") or not rows:
            doc["dimension"] = data.draw(st.sampled_from([0, 1, 3, -1, "2"]))
        else:
            row = _pick(data, rows, "row")
            if data.draw(st.booleans(), label="longer") or len(row) < 2:
                row.append(0)
            else:
                row.pop()
    elif kind == "row":
        models = doc.get("models")
        rows = []
        if isinstance(models, (dict, list)):
            rows = [s[0][s[1]] for s in _slots(models) if _is_row(s[0][s[1]])]
        if rows:
            row = _pick(data, rows, "row")
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
                st.sampled_from(["-1/2", "3", 0, "1/0", "x"])
            )
    elif kind == "cone":
        doc["cone"] = {"kind": data.draw(st.sampled_from(["ice-cream", "", 3, None]))}
    elif kind == "dynamics":
        problem = doc.get("problem")
        if isinstance(problem, dict) and problem.get("mode") == "dynamics":
            part = data.draw(st.sampled_from(["transition", "loss", "admissible"]))
            entries = problem.get(part)
            if isinstance(entries, dict) and entries:
                del entries[data.draw(st.sampled_from(sorted(entries)))]
            elif isinstance(entries, list) and entries:
                del entries[data.draw(st.integers(0, len(entries) - 1))]
    else:
        container, key = _pick(data, slots, "slot")
        container[key] = data.draw(
            st.sampled_from([None, [], {}, "x", -1, True, [[1]], {"a": 1}])
        )


@SETTINGS
@given(st.data())
def test_mutated_documents_keep_the_exit_code_contract(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(DOCS), label="document")))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        _mutate(data, doc)
    argv = data.draw(st.sampled_from([
        ["solve"], ["solve", "--prune"], ["solve", "--format", "json"],
        ["check-bellman"], ["pareto"], ["pareto", "--time", "1"],
        ["rect", "--random", "3"],
    ]), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "instance.json"
        instance.write_text(json.dumps(doc), encoding="utf-8")
        run_main(argv + ["--instance", str(instance)])


# ---------------------------------------------------------------------------
# mutated cone documents

JUNK = [None, [], {}, "x", -1, 5, True, [[1]], [1, 2], {"a": 1}]


@pytest.mark.parametrize("key", ["b", "g", "w"])
@pytest.mark.parametrize("cone_name", ["cone_halfspace.json", "cone_roof3d.json"])
def test_mutated_cones_keep_the_exit_code_contract(tmp_path, cone_name, key):
    base = json.loads(path(cone_name).read_text(encoding="utf-8"))
    first_replaced = [[junk] + list(base.get(key, []))[1:] for junk in JUNK]
    docs = [{k: v for k, v in base.items() if k != key}]
    docs += [{**base, key: value} for value in JUNK + first_replaced]
    cone = tmp_path / "cone.json"
    for doc in docs:
        cone.write_text(json.dumps(doc), encoding="utf-8")
        for points in POINTS:
            run_main(["vsup", "--cone", str(cone), "--points", points])


# ---------------------------------------------------------------------------
# a cone without interior: a collection may have no upper bound at all


LINE_CONE = {"kind": "dual", "b": [[1, 0], [-1, 0]]}  # C is the line x_1 = 0


def test_vsup_without_upper_bound_is_exit_3(tmp_path, capsys):
    cone, points = tmp_path / "cone.json", tmp_path / "points.json"
    cone.write_text(json.dumps(LINE_CONE), encoding="utf-8")
    points.write_text("[[0, 0], [1, 0]]", encoding="utf-8")
    argv = ["vsup", "--cone", str(cone), "--points", str(points)]
    assert main(argv) == 3
    assert capsys.readouterr() == ("status: not_exists\nno upper bound\n", "")
    assert main(argv + ["--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out) == {"status": "not_exists"}


def test_solve_without_upper_bound_is_exit_3(tmp_path, capsys):
    doc = json.loads(Path(INSTANCES[1]).read_text(encoding="utf-8"))
    doc["cone"] = LINE_CONE
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", "--instance", str(instance)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: supremum does not exist at t=0, node='n0', strategy\n"
    )


def test_rect_without_upper_bound_is_exit_3(tmp_path, capsys):
    doc = json.loads(Path(INSTANCES[0]).read_text(encoding="utf-8"))
    doc["cone"] = LINE_CONE
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["rect", "--instance", str(instance), "--random", "3"]
    summary = (
        "no check decided among 3 test vectors"
        " (3 (vector, time) checks, 3 without a supremum, seed=0)"
    )
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "marginal-rectangular: yes\n"
        f"empirical check: {summary}\n"
        "reverse inclusion (always required): undecided\n",
        "",
    )
    assert main(argv + ["--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "m_rectangular": True,
        "rectangular_on_sample": None,
        "reverse_ok": None,
        "summary": summary,
    }

"""Seeded instance documents for the benchmark workloads.

Each workload draws from a fixed catalog.  Catalog entry ``i`` of workload
``w`` is built from ``random.Random(f"{w}/{i}")`` alone, so the reference
digests in ``refs.json`` cover every input a run can see, and per-pass counts
do not depend on the run seed.  The run seed picks the order in which the
catalog is called and, where no output depends on it, the order of the
explicit models inside each document.

Every document is written as JSON with ``"p/q"`` rationals and reaches the
program through ``robust-vdp --instance FILE``, like a user's file.

    python3 perfbench/gen.py WORKLOAD SEED OUTDIR

writes the documents of one run and prints the call list.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "robust_vdp" / "data"

BRANCH_LABELS = {2: "ud", 3: "umd", 4: "abcd"}


@dataclass(frozen=True)
class Call:
    """One CLI call: ``argv`` names files relative to the run directory."""

    key: str  # "<instance>/<call>", the key of its reference digest
    argv: tuple[str, ...]
    check: str  # which invariants the output must satisfy (see checks.py)
    cone: object  # cone document used by the invariant checks, or None


@dataclass(frozen=True)
class Entry:
    """One catalog instance: the files it needs and the calls made on it."""

    name: str
    files: dict  # file name -> JSON document
    calls: tuple[Call, ...]
    shuffle_models: bool = False  # explicit model order never reaches output


# ---------------------------------------------------------------------------
# building blocks


def rat(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def prob_row(rng: random.Random, k: int, den: int) -> tuple[Fraction, ...]:
    """A strictly positive probability row of length k over denominator den."""
    cuts = sorted(rng.sample(range(1, den), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return tuple(Fraction(p, den) for p in parts)


def distinct_rows(rng, count, k, den) -> list[tuple[Fraction, ...]]:
    rows: list[tuple[Fraction, ...]] = []
    while len(rows) < count:
        row = prob_row(rng, k, den)
        if row not in rows:
            rows.append(row)
    return rows


def loss_vec(rng, d, lo=0, hi=9) -> list:
    return [rat(Fraction(rng.randint(2 * lo, 2 * hi), 2)) for _ in range(d)]


def tree_doc(branching: int, horizon: int) -> dict:
    levels = [["n"]]
    children: dict[str, list[str]] = {}
    labels: dict[str, str] = {}
    for _ in range(horizon):
        nxt = []
        for node in levels[-1]:
            kids = [node + lab for lab in BRANCH_LABELS[branching]]
            children[node] = kids
            labels.update({kid: kid[-1] for kid in kids})
            nxt.extend(kids)
        levels.append(nxt)
    return {"horizon": horizon, "levels": levels, "children": children,
            "labels": labels}


def nonterminal(tree: dict) -> list[str]:
    return [n for level in tree["levels"][:-1] for n in level]


def explicit_models(rng, tree, count, den, distinct) -> dict:
    """count models; with distinct=True no node uses one row twice."""
    nodes = nonterminal(tree)
    per_node = {}
    for n in nodes:
        k = len(tree["children"][n])
        per_node[n] = (distinct_rows(rng, count, k, den) if distinct
                       else [prob_row(rng, k, den) for _ in range(count)])
    return {"explicit": [
        {"id": f"m{j + 1}",
         "transition": {n: [rat(x) for x in per_node[n][j]] for n in nodes}}
        for j in range(count)
    ]}


def marginal_models(rng, tree, wide_nodes, den) -> dict:
    """Two candidate rows on wide_nodes seeded nodes, one row elsewhere."""
    nodes = nonterminal(tree)
    wide = set(rng.sample(nodes, wide_nodes))
    marg = {}
    for n in nodes:
        k = len(tree["children"][n])
        rows = distinct_rows(rng, 2 if n in wide else 1, k, den)
        marg[n] = [[rat(x) for x in row] for row in rows]
    return {"marginals": marg}


def dynamics_problem(rng, tree, n_states, n_controls, d) -> dict:
    """Every state has every control, except that the last state has a single
    control at the last step, which keeps the strategy count desk-sized."""
    states = [f"s{i}" for i in range(n_states)]
    controls = "abc"[:n_controls]
    labels = BRANCH_LABELS[len(tree["children"]["n"])]
    horizon = tree["horizon"]
    return {
        "mode": "dynamics",
        "initial_state": states[0],
        "admissible": [
            {"time": t, "state": s,
             "controls": list(controls[:1] if (t, s) == (horizon - 1, states[-1])
                              else controls)}
            for t in range(horizon) for s in states
        ],
        "transition": [
            {"time": t, "state": s, "control": a, "label": lab,
             "next": rng.choice(states)}
            for t in range(horizon) for s in states for a in controls
            for lab in labels
        ],
        "loss": {s: loss_vec(rng, d) for s in states},
    }


def tabulated_problem(rng, tree, n_strategies, d) -> dict:
    leaves = tree["levels"][-1]
    return {"mode": "tabulated", "strategies": {
        f"phi{k + 1}": {leaf: loss_vec(rng, d) for leaf in leaves}
        for k in range(n_strategies)
    }}


def document(d, cone, tree, models, problem) -> dict:
    return {"version": 1, "dimension": d, "cone": cone, "tree": tree,
            "models": models, "problem": problem}


def bundled(name: str):
    return json.loads((BUNDLED / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# workloads


def _rect_forward(i: int, rng) -> Entry:
    tree = tree_doc(2, 3)
    doc = document(2, {"kind": "componentwise"}, tree,
                   marginal_models(rng, tree, 3, 8),
                   dynamics_problem(rng, tree, 2, 2, 2))
    inst = f"e{i}.json"
    return Entry(f"e{i}", {inst: doc}, (
        Call(f"e{i}/check-bellman", ("check-bellman", "--instance", inst,
                                     "--format", "json"), "bellman-equal", None),
        Call(f"e{i}/solve", ("solve", "--instance", inst, "--format", "json"),
             "solve-equal", doc["cone"]),
    ))


# (branching, horizon, controls, models) rotated through the catalog
SELECTOR_SHAPES = ((3, 2, 2, 6), (4, 2, 2, 6), (2, 3, 2, 6), (3, 2, 3, 8))


def _explicit_selector(i: int, rng) -> Entry:
    branching, horizon, controls, models = SELECTOR_SHAPES[i % len(SELECTOR_SHAPES)]
    tree = tree_doc(branching, horizon)
    doc = document(2, {"kind": "componentwise"}, tree,
                   explicit_models(rng, tree, models, 12, distinct=True),
                   dynamics_problem(rng, tree, 3, controls, 2))
    inst = f"e{i}.json"
    return Entry(f"e{i}", {inst: doc}, (
        Call(f"e{i}/check-bellman", ("check-bellman", "--instance", inst,
                                     "--format", "json"), "bellman-weak", None),
        Call(f"e{i}/solve", ("solve", "--instance", inst, "--format", "json"),
             "solve-weak", doc["cone"]),
    ), shuffle_models=True)


def _invertible3(rng) -> list[list[int]]:
    while True:
        m = [[rng.randint(-2, 3) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det != 0:
            return m


def _lp_cone(kind: int, rng) -> dict:
    if kind == 0:  # one dual: dual-LI route, a preorder
        return {"kind": "halfspace", "w": [rng.randint(1, 3) for _ in range(3)]}
    if kind == 1:  # three independent duals: dual-LI route
        return {"kind": "dual", "b": _invertible3(rng)}
    c = rng.randint(1, 2)  # four dependent duals, a pyramid: general LP route
    return {"kind": "dual", "b": [[1, 0, c], [-1, 0, c], [0, 1, c], [0, -1, c]]}


def _chain_problem(rng, tree) -> dict:
    """Losses that vary only along (0, 0, 1), which lies inside the pyramid
    and the roof cone: every collection is a chain, so suprema exist."""
    leaves = tree["levels"][-1]
    strategies = {}
    for k in range(2):
        head = loss_vec(rng, 2)
        strategies[f"phi{k + 1}"] = {leaf: head + loss_vec(rng, 1) for leaf in leaves}
    return {"mode": "tabulated", "strategies": strategies}


def _cone_lp(i: int, rng) -> Entry:
    """Rotates through the vsup routes: half-space and three duals (dual-LI),
    the pyramid and the bundled roof cone (general LP).  A roof solve needs
    ~50 general suprema at ~55 ms each, so the roof is called through vsup
    only: on a chain, which has a supremum, and on free points, which
    usually have none (exit 3)."""
    kind = i % 4
    random_points = [loss_vec(rng, 3, -4, 4) for _ in range(rng.randint(3, 5))]
    if kind == 3:
        head = loss_vec(rng, 2)
        chain = [head + loss_vec(rng, 1) for _ in range(rng.randint(3, 5))]
        files = {f"e{i}-cone.json": bundled("cone_roof3d.json"),
                 f"e{i}-chain.json": chain, f"e{i}-points.json": random_points}
        return Entry(f"e{i}", files, tuple(
            Call(f"e{i}/vsup-{name}", ("vsup", "--cone", f"e{i}-cone.json",
                                       "--points", f"e{i}-{name}.json",
                                       "--format", "json"), "none", None)
            for name in ("chain", "points")
        ))
    tree = tree_doc(2, 2)
    cone = _lp_cone(kind, rng)
    models = explicit_models(rng, tree, rng.randint(3, 4), 4, distinct=False)
    # every other pyramid instance has free losses and usually no supremum
    problem = (_chain_problem(rng, tree) if kind == 2 and i % 8 != 6
               else tabulated_problem(rng, tree, 2, 3))
    inst, cone_file, pts = f"e{i}.json", f"e{i}-cone.json", f"e{i}-points.json"
    files = {inst: document(3, cone, tree, models, problem), cone_file: cone,
             pts: random_points}
    return Entry(f"e{i}", files, (
        Call(f"e{i}/solve", ("solve", "--instance", inst, "--format", "json"),
             "solve-weak", cone),
        Call(f"e{i}/vsup", ("vsup", "--cone", cone_file, "--points", pts,
                            "--format", "json"), "none", None),
    ), shuffle_models=True)


BUNDLED_INSTANCES = ("binomial_tables.json", "binomial_tables_independent.json",
                     "binomial_marginals.json")


def _cli_small(i: int, rng) -> Entry:
    if i < len(BUNDLED_INSTANCES):
        doc = bundled(BUNDLED_INSTANCES[i])
    else:
        tree = tree_doc(2, 2)
        models = (marginal_models(rng, tree, 3, 4) if i % 2
                  else explicit_models(rng, tree, rng.randint(3, 8), 4,
                                       distinct=False))
        doc = document(2, {"kind": "componentwise"}, tree, models,
                       tabulated_problem(rng, tree, rng.randint(2, 3), 2))
    points = [loss_vec(rng, 2, -4, 4) for _ in range(rng.randint(2, 5))]
    inst, cone_file, pts = f"e{i}.json", f"e{i}-cone.json", f"e{i}-points.json"
    files = {inst: doc, cone_file: bundled("cone_halfspace.json"), pts: points}
    calls = (
        ("solve", ("solve", "--instance", inst), "none", None),
        ("solve-json", ("solve", "--instance", inst, "--format", "json"),
         "solve-weak", doc["cone"]),
        ("check-bellman", ("check-bellman", "--instance", inst), "none", None),
        ("rect", ("rect", "--instance", inst, "--random", "20", "--seed", str(i)),
         "none", None),
        ("pareto", ("pareto", "--instance", inst), "none", None),
        ("vsup", ("vsup", "--cone", cone_file, "--points", pts), "none", None),
    )
    return Entry(f"e{i}", files, tuple(
        Call(f"e{i}/{name}", argv, check, cone) for name, argv, check, cone in calls
    ))


#: workload -> (catalog builder, catalog size)
WORKLOADS = {
    "rect-forward": (_rect_forward, 12),
    "explicit-selector": (_explicit_selector, 16),
    "cone-lp": (_cone_lp, 16),
    "cli-small": (_cli_small, 11),
}


def catalog(workload: str) -> list[Entry]:
    build, size = WORKLOADS[workload]
    return [build(i, random.Random(f"{workload}/{i}")) for i in range(size)]


def _shuffled_models(doc: dict, rng: random.Random) -> dict:
    models = list(doc["models"]["explicit"])
    rng.shuffle(models)
    return {**doc, "models": {"explicit": models}}


def generate(workload: str, seed: int) -> tuple[list[Entry], dict[str, str]]:
    """The run's calls in seeded order, and its files as JSON text."""
    rng = random.Random(seed)
    entries = catalog(workload)
    rng.shuffle(entries)
    files = {}
    for e in entries:
        for name, doc in e.files.items():
            if e.shuffle_models and "models" in doc:
                doc = _shuffled_models(doc, rng)
            files[name] = json.dumps(doc, indent=1) + "\n"
    return entries, files


def write(workload: str, seed: int, outdir: Path) -> list[Entry]:
    entries, files = generate(workload, seed)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text, encoding="utf-8")
    return entries


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: gen.py {{{','.join(WORKLOADS)}}} SEED OUTDIR")
    for entry in write(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])):
        for call in entry.calls:
            print(" ".join(call.argv))

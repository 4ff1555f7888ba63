"""Correctness gate: canonical output digests and the Bellman invariants.

Runs outside the timed region.  A call passes when its exit code and the
sha256 of its canonicalised stdout match ``refs.json`` and its output
satisfies the invariants its workload names:

- ``solve-weak`` / ``solve-equal``: the weak inclusions B, R subset of V + C
  and V subset of B - C, R - C, recomputed here from the printed sets with
  the cone's dual rows; ``-equal`` also needs V = B = R node by node.
- ``bellman-weak`` / ``bellman-equal``: the verdict flags of
  ``check-bellman --format json``.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

_SET = re.compile(r"\{([^{}]*)\}")


def _sort_key(value) -> str:
    return json.dumps(value, sort_keys=True)


def _canon_json(value, key=None):
    """Sort every list of vectors or records, and witness lists; keep the
    coordinate order inside a vector."""
    if isinstance(value, dict):
        return {k: _canon_json(v, k) for k, v in value.items()}
    if isinstance(value, list):
        items = [_canon_json(v) for v in value]
        if key == "witnesses" or (
            items and all(isinstance(v, (list, dict)) for v in items)
        ):
            items.sort(key=_sort_key)
        return items
    return value


def canonical(stdout: str, is_json: bool) -> str:
    """Output text with set elements in a fixed order."""
    if not stdout:
        return ""
    if is_json:
        return json.dumps(_canon_json(json.loads(stdout)), sort_keys=True)
    return _SET.sub(
        lambda m: "{" + ", ".join(sorted(m.group(1).split(", "))) + "}", stdout
    )


def digest(stdout: str, is_json: bool) -> str:
    return hashlib.sha256(canonical(stdout, is_json).encode()).hexdigest()


# ---------------------------------------------------------------------------
# invariants


def dual_rows(cone: dict, dim: int) -> list[tuple[Fraction, ...]]:
    """Rows b_i with C = {x : <b_i, x> >= 0}, read from a cone document."""
    if cone["kind"] == "componentwise":
        return [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    rows = [cone["w"]] if cone["kind"] == "halfspace" else cone["b"]
    return [tuple(Fraction(x) for x in row) for row in rows]


def _leq(duals, x, y) -> bool:
    return all(sum(b * (yi - xi) for b, xi, yi in zip(row, x, y)) >= 0
               for row in duals)


def _covered_from_below(duals, lower, upper) -> bool:
    """upper subset of lower + C."""
    return all(any(_leq(duals, x, y) for x in lower) for y in upper)


def _covered_from_above(duals, lower, upper) -> bool:
    """lower subset of upper - C."""
    return all(any(_leq(duals, x, y) for y in upper) for x in lower)


def _level(entries) -> dict:
    return {
        (e["node"], e["state"]): {tuple(Fraction(x) for x in v) for v in e["set"]}
        for e in entries
    }


def check_solve(out: dict, cone: dict, equal: bool) -> list[str]:
    problems = []
    bellman = out["bellman"]
    if not bellman["weak"]:
        problems.append("solve reports a failed weak inclusion")
    if equal and not (bellman["strong"] and bellman["equality"]):
        problems.append("solve reports V, B, R not equal")
    duals = None
    for t, r_entries in out["one_step_sets"].items():
        v_lvl = _level(out["value_sets"][t])
        b_lvl = _level(out["backward_sets"][t])
        r_lvl = _level(r_entries)
        for key, v in v_lvl.items():
            b, r = b_lvl[key], r_lvl[key]
            if duals is None:
                duals = dual_rows(cone, len(next(iter(v))))
            for name, other in (("B", b), ("R", r)):
                if not (_covered_from_below(duals, v, other)
                        and _covered_from_above(duals, v, other)):
                    problems.append(f"weak inclusion V/{name} fails at t={t}, {key}")
            if equal and not v == b == r:
                problems.append(f"V, B, R differ at t={t}, {key}")
    return problems


def check_bellman(out: dict, equal: bool) -> list[str]:
    problems = []
    if not out["weak"]:
        problems.append("check-bellman reports a failed weak inclusion")
    if equal and not (out["strong"] and out["equality"]):
        problems.append("check-bellman reports V, B, R not equal")
    return problems


def invariants(check: str, cone, stdout: str) -> list[str]:
    """Problems with one call's output under the named invariant set."""
    if check == "none" or not stdout:  # no output: no supremum (exit 3)
        return []
    out = json.loads(stdout)
    if check.startswith("solve-"):
        return check_solve(out, cone, check == "solve-equal")
    return check_bellman(out, check == "bellman-equal")


def set_elements(stdout: str) -> int:
    """Vectors in all V, B and R sets of a ``solve --format json`` output."""
    if not stdout:
        return 0
    out = json.loads(stdout)
    return sum(
        len(e["set"])
        for part in ("value_sets", "backward_sets", "one_step_sets")
        for entries in out[part].values()
        for e in entries
    )

import json
from collections import Counter
from fractions import Fraction

import pytest

from robust_vdp import (
    InstanceError,
    is_m_rectangular,
    parse_document,
    serialize_instance,
)
from robust_vdp.data import read_text

F = Fraction

BUNDLED = [
    "binomial_tables.json",
    "binomial_tables_independent.json",
    "binomial_marginals.json",
]


def minimal_doc():
    return json.loads(read_text("binomial_tables.json"))


def test_parse_bundled_instances():
    for name in BUNDLED:
        problem = parse_document(read_text(name)).problem
        assert problem.tree.horizon == 2
        assert problem.mode == "tabulated"


def test_marginals_expand_to_full_family():
    expanded = parse_document(read_text("binomial_marginals.json")).problem
    explicit = parse_document(read_text("binomial_tables.json")).problem
    tree = explicit.tree
    assert {m.assignment(tree) for m in expanded.family.models} == {
        m.assignment(tree) for m in explicit.family.models
    }
    assert is_m_rectangular(expanded.family)


def test_roundtrip_identity_on_bundled():
    for name in BUNDLED:
        first = parse_document(read_text(name))
        second = parse_document(serialize_instance(first))
        assert second == first


def test_float_literals_rejected():
    doc = read_text("binomial_tables.json").replace('"1/4"', "0.25")
    with pytest.raises(InstanceError, match="floating-point"):
        parse_document(doc).problem


def test_probability_sum_error_message():
    doc = minimal_doc()
    doc["models"]["explicit"][0]["transition"]["n0"] = ["1/4", "1"]
    with pytest.raises(InstanceError, match=r"sum 5/4 != 1"):
        parse_document(json.dumps(doc)).problem


def test_rows_are_summed_on_integers(monkeypatch):
    # each probability row is checked on its numerators over the lcm of its
    # denominators, by the parser and by the family: parsing adds no Fraction
    added = Counter()
    for name in ("__add__", "__radd__"):
        def counted(a, b, _fn=getattr(Fraction, name), _name=name):
            added[_name] += 1
            return _fn(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    for name in BUNDLED:
        parse_document(read_text(name))
    assert added == {}
    assert F(1, 2) + F(1, 3) == F(5, 6) and added  # the counter is live


def test_empty_model_family_rejected():
    doc = minimal_doc()
    doc["models"]["explicit"] = []
    with pytest.raises(InstanceError, match="nonempty"):
        parse_document(json.dumps(doc)).problem


def test_dangling_node_reference():
    doc = minimal_doc()
    doc["models"]["explicit"][0]["transition"]["ghost"] = ["1/2", "1/2"]
    with pytest.raises(InstanceError, match="dangling"):
        parse_document(json.dumps(doc)).problem


def test_error_paths_point_into_document():
    doc = minimal_doc()
    doc["models"]["explicit"][2]["transition"]["u"] = ["1/3", "1/3"]
    with pytest.raises(InstanceError) as exc:
        parse_document(json.dumps(doc)).problem
    assert exc.value.path == "/models/explicit/2/transition/u"


def test_missing_field():
    doc = minimal_doc()
    del doc["cone"]
    with pytest.raises(InstanceError, match="cone"):
        parse_document(json.dumps(doc)).problem


def test_unknown_cone_kind():
    doc = minimal_doc()
    doc["cone"] = {"kind": "lexicographic"}
    with pytest.raises(InstanceError, match="unknown cone kind"):
        parse_document(json.dumps(doc)).problem


def test_dimension_mismatch_in_losses():
    doc = minimal_doc()
    doc["problem"]["strategies"]["phi"]["uu"] = [8, 0, 0]
    with pytest.raises(InstanceError, match="dimension"):
        parse_document(json.dumps(doc)).problem


def test_unsupported_version():
    doc = minimal_doc()
    doc["version"] = 99
    with pytest.raises(InstanceError, match="version"):
        parse_document(json.dumps(doc)).problem


def test_syntax_error_reported():
    with pytest.raises(InstanceError, match="JSON"):
        parse_document("{not json").problem


def test_negative_probability_rejected():
    doc = minimal_doc()
    doc["models"]["explicit"][0]["transition"]["n0"] = ["-1/4", "5/4"]
    with pytest.raises(InstanceError, match="negative"):
        parse_document(json.dumps(doc)).problem


def test_empty_control_set_rejected():
    doc = minimal_doc()
    doc["problem"] = {
        "mode": "dynamics",
        "initial_state": "s0",
        "admissible": [{"time": 0, "state": "s0", "controls": []}],
        "transition": [],
        "loss": {"s0": [0, 0]},
    }
    with pytest.raises(InstanceError, match="empty control set"):
        parse_document(json.dumps(doc)).problem


def test_dynamics_roundtrip():
    doc = minimal_doc()
    doc["problem"] = {
        "mode": "dynamics",
        "initial_state": "s0",
        "admissible": [
            {"time": 0, "state": "s0", "controls": ["keep", "swap"]},
            {"time": 1, "state": "s0", "controls": ["keep"]},
            {"time": 1, "state": "s1", "controls": ["keep"]},
        ],
        "transition": [
            {"time": 0, "state": "s0", "control": "keep", "label": "up", "next": "s0"},
            {"time": 0, "state": "s0", "control": "keep", "label": "down", "next": "s0"},
            {"time": 0, "state": "s0", "control": "swap", "label": "up", "next": "s1"},
            {"time": 0, "state": "s0", "control": "swap", "label": "down", "next": "s1"},
            {"time": 1, "state": "s0", "control": "keep", "label": "up", "next": "s0"},
            {"time": 1, "state": "s0", "control": "keep", "label": "down", "next": "s0"},
            {"time": 1, "state": "s1", "control": "keep", "label": "up", "next": "s1"},
            {"time": 1, "state": "s1", "control": "keep", "label": "down", "next": "s1"},
        ],
        "loss": {"s0": [1, 0], "s1": [0, "3/2"]},
    }
    text = json.dumps(doc)
    first = parse_document(text)
    assert first.problem.mode == "dynamics"
    second = parse_document(serialize_instance(first))
    assert second == first

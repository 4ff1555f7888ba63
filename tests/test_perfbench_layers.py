"""One traced pass over each benchmark workload's catalog: every call's
output matches the benchmark's reference digest and invariants, and every
layer the benchmark maps to the workload is still reached.

The benchmark's spans wrap functions by the module attribute their callers
look them up through; a refactor that stops calling one leaves its layer
metric empty.  The digests are those of ``perfbench/refs.json``: exit code
and canonical stdout.  This test makes both a tier-1 failure.  It reads the
benchmark's ``gen.py``, ``spans.py``, ``checks.py`` and ``refs.json`` and
writes only under ``tmp_path``.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from robust_vdp import cones, engine, exactlp
from robust_vdp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no byte-code cache under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


gen = _load("gen")
spans = _load("spans")
checks = _load("checks")
REFS = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))
#: ``suprema.lp`` calls per seed-1 catalog pass: only the non-existence
#: certificates of cone-lp's ``vsup`` calls solve LPs, d = 3 lexicographic
#: ones each (four on the 8-row roof, two on the 4-row pyramid); the engine
#: makes none
LP_CALLS = {"cone-lp": 18}
#: ``lp_standard`` solves per seed-1 catalog pass at every site: the
#: certificate LPs and the membership LPs of ``Cone.irredundant_index`` on
#: the 4-row cones, which have no generators
LP_STANDARD_CALLS = {"cone-lp": 42}


@pytest.mark.parametrize("workload", sorted(spans.MAPPED))
def test_one_traced_pass_records_every_mapped_layer(workload, tmp_path, monkeypatch):
    entries = gen.write(workload, 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ROBUST_VDP_BUDGET", raising=False)
    solves, engine_sups = [], []

    def lp_standard(*args, _fn=exactlp.lp_standard):
        solves.append(args)
        return _fn(*args)

    def vsup(*args, _fn=engine.vsup):
        engine_sups.append(args)
        return _fn(*args)

    monkeypatch.setattr(exactlp, "lp_standard", lp_standard)
    monkeypatch.setattr(cones, "lp_standard", lp_standard)
    monkeypatch.setattr(engine, "vsup", vsup)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for call in (c for e in entries for c in e.calls):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = tracer.call(main, list(call.argv))
            stdout = out.getvalue()
            digest = [code, checks.digest(stdout, "json" in call.argv)]
            assert digest == REFS[workload][call.key], call.key
            assert checks.invariants(call.check, call.cone, stdout) == [], call.key
    finally:
        tracer.uninstall()
    recorded = tracer.totals()[2] + tracer.counts
    missing = [m for m in spans.MAPPED[workload]
               if not recorded[spans.LAYER_METRICS[m][0]]]
    assert missing == []
    assert recorded["exactlp.lp"] == LP_CALLS.get(workload, 0)
    assert len(solves) == LP_STANDARD_CALLS.get(workload, 0)
    # every engine supremum runs on the component-wise kernel
    assert engine_sups == []

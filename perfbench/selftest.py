"""Self-test of the benchmark.

    python3 perfbench/selftest.py               # run the checks
    python3 perfbench/selftest.py --write-refs  # rewrite refs.json first

Checks that
1. the generator is deterministic: one seed gives byte-identical documents
   twice, and another seed another order;
2. the reference digests reproduce: every catalog call, under two seeds
   (two call orders and model orders), matches refs.json and its invariants;
3. run.py prints exactly the metric names and units of BENCHMARK.json.

``--write-refs`` records the exit code and output digest of every catalog
call from the current program.  Run it only when the catalog changes, on a
commit whose outputs are known to be right; it refuses outputs that break an
invariant.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
import gen
import run

BENCHMARK = run.HERE.parent / "BENCHMARK.json"


def in_workdir(workload: str, seed: int, fn):
    workdir = run.HERE / "_work" / f"selftest-{workload}-{seed}-{os.getpid()}"
    home = os.getcwd()
    try:
        entries = gen.write(workload, seed, workdir)
        os.chdir(workdir)
        return fn(entries)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)


def write_refs(main):
    refs = {}
    for workload in gen.WORKLOADS:
        def record(entries):
            runner = run.Runner(main, {})
            out = {}
            for call in (c for e in entries for c in e.calls):
                _, code, stdout, crash = runner.invoke(call)
                problems = checks.invariants(call.check, call.cone, stdout)
                if crash or problems:
                    sys.exit(f"refusing to record {workload}/{call.key}: "
                             f"{crash or problems}")
                out[call.key] = [code, checks.digest(stdout, "json" in call.argv)]
            return dict(sorted(out.items()))
        refs[workload] = in_workdir(workload, 0, record)
    run.REFS.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


def check_generator() -> list[str]:
    problems = []
    for workload in gen.WORKLOADS:
        first, again, other = (gen.generate(workload, s) for s in (1, 1, 2))
        order = [[e.name for e in entries] for entries, _ in (first, again, other)]
        if first[1] != again[1] or order[0] != order[1]:
            problems.append(f"{workload}: seed 1 gave different documents twice")
        if order[0] == order[2]:
            problems.append(f"{workload}: seeds 1 and 2 gave the same call order")
    return problems


def check_refs(main) -> list[str]:
    refs = json.loads(run.REFS.read_text(encoding="utf-8"))
    problems = []
    for workload in gen.WORKLOADS:
        for seed in (0, 1):
            def replay(entries):
                runner = run.Runner(main, refs.get(workload, {}))
                for call in (c for e in entries for c in e.calls):
                    runner.call(call)
                return runner.failed
            failed = in_workdir(workload, seed, replay)
            if failed:
                problems.append(f"{workload} seed {seed}: {failed} calls differ")
    return problems


def check_metric_names() -> list[str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170)
            if res.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {res.returncode}\n"
                                f"{res.stderr}")
                continue
            got = {k: v["unit"] for k, v in
                   json.loads(res.stdout.splitlines()[-1])["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics {got} "
                                f"!= BENCHMARK.json {want[trace]}")
    return problems


def main() -> int:
    cli_main = run.load_main()
    if sys.argv[1:] == ["--write-refs"]:
        write_refs(cli_main)
    elif sys.argv[1:]:
        sys.exit(__doc__)
    failures = 0
    for name, check in (("generator is deterministic", check_generator),
                        ("reference digests reproduce", lambda: check_refs(cli_main)),
                        ("metric names match BENCHMARK.json", check_metric_names)):
        problems = check()
        failures += bool(problems)
        print(("ok   " if not problems else "FAIL ") + name)
        for p in problems:
            print("     " + p)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

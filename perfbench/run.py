"""Benchmark of the robust-vdp command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, a closed loop: each ``robust_vdp.cli.main(argv)``
call starts when the previous one has returned.  The run calls every
instance of the workload's catalog once per pass, in the order its seed
picks, and stops at the last pass boundary before ``--seconds``; every
figure therefore covers the same calls whatever the seed.  Each call's exit
code, output digest and invariants are checked after it returns, outside
the timed region (see checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see spans.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFS = HERE / "refs.json"

#: fresh interpreters timed per run for setup_s (after one untimed warm-up)
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def load_main():
    """robust_vdp.cli.main from this checkout's sources, never another copy."""
    package = SRC / "robust_vdp"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: no robust_vdp sources at {package}")
    sys.path.insert(0, str(SRC))
    import robust_vdp.cli

    if Path(robust_vdp.cli.__file__).resolve().parent != package:
        sys.exit(f"error: robust_vdp imported from {robust_vdp.cli.__file__}")
    return robust_vdp.cli.main


def instance_files(entries) -> list[str]:
    return list(dict.fromkeys(
        call.argv[call.argv.index("--instance") + 1]
        for e in entries for call in e.calls if "--instance" in call.argv))


class Runner:
    """Makes the calls and keeps the correctness tally."""

    def __init__(self, main, refs: dict):
        self.main = main
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.solve_outputs: dict[str, str] = {}
        self._verified: set[tuple] = set()

    def call(self, call: gen.Call, tracer=None) -> float:
        """Run and check one call; return its time to verdict in seconds."""
        elapsed, code, stdout, crash = self.invoke(call, tracer)
        self.attempted += 1
        self._check(call, code, stdout, crash)
        return elapsed

    def invoke(self, call: gen.Call, tracer=None):
        """Run one call: (seconds, exit code, stdout, traceback or None)."""
        out, err = io.StringIO(), io.StringIO()
        argv = list(call.argv)
        crash = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.call(self.main, argv) if tracer else self.main(argv)
        except SystemExit as e:  # argparse rejects its arguments this way
            code = e.code
        except Exception:  # a crash counts as a failed call; keep measuring
            code, crash = None, traceback.format_exc()
        return time.perf_counter() - t0, code, out.getvalue(), crash

    def _check(self, call, code, stdout: str, crash):
        seen = (call.key, code, hashlib.sha256(stdout.encode()).digest())
        if seen in self._verified:
            return
        problems = [f"uncaught exception:\n{crash}"] if crash else []
        ref = self.refs.get(call.key)
        try:
            got = [code, checks.digest(stdout, "json" in call.argv)]
            if ref is None:
                problems.append("no reference digest")
            elif got != ref:
                problems.append(f"exit/digest {got} != reference {ref}")
            problems += checks.invariants(call.check, call.cone, stdout)
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"unreadable output: {e!r}")
        if problems:
            self.failed += 1
            print(f"FAIL {call.key}: " + "; ".join(problems), file=sys.stderr)
            return
        self._verified.add(seen)
        if call.check.startswith("solve-"):
            self.solve_outputs[call.key] = stdout


def until(seconds: float, one_pass):
    """Run whole passes while another one is expected to end within seconds;
    always at least one."""
    start = time.perf_counter()
    done = 0
    while True:
        one_pass()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return done


def setup_seconds(files: list[str]) -> float:
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), *files]
    times = []
    for i in range(SETUP_PROBES + 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        if i:  # the first probe also writes the byte-code caches
            times.append(float(res.stdout))
    return statistics.median(times)


def end_to_end(runner, calls, seconds, files) -> tuple[dict, str]:
    setup = setup_seconds(files)
    latencies: list[float] = []

    def one_pass():
        latencies.extend(runner.call(c) for c in calls)

    passes = until(seconds, one_pass)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    values = {
        "calls_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * deciles[4],
        "latency_p90_ms": 1000 * deciles[8],
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(x > deciles[8] for x in latencies)
    note = (f"{len(latencies)} timed calls in {passes} passes of {len(calls)}; "
            f"p90 has {beyond} samples beyond it; setup_s is the median of "
            f"{SETUP_PROBES} fresh interpreters")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, note


def input_properties(files: list[str]) -> dict:
    """input.models, input.row_dup_ratio and input.root_strategies."""
    from robust_vdp.engine import enumerate_strategies
    from robust_vdp.instance import parse_document

    models = rows = distinct = strategies = 0
    for name in files:
        with open(name, encoding="utf-8") as f:
            problem = parse_document(f.read()).problem
        tree, family = problem.tree, problem.family.models
        inner = [n for t in range(tree.horizon) for n in tree.nodes_at(t)]
        models += len(family)
        rows += len(family) * len(inner)
        distinct += sum(len({m.transition[n] for m in family}) for n in inner)
        strategies += len(enumerate_strategies(problem))
    return {"input.models": models / len(files),
            "input.row_dup_ratio": 1 - distinct / rows,
            "input.root_strategies": strategies / len(files)}


def per_layer(runner, calls, seconds, files, workload, trace_file):
    """Alternate untraced and traced passes; per-layer figures come from
    the traced ones, counts from the first traced pass alone."""
    tracer = spans.Tracer()
    busy = {False: 0.0, True: 0.0}
    made = {False: 0, True: 0}
    first_counts = None

    def one_pass():
        nonlocal first_counts
        for traced in (False, True):
            first = len(tracer.spans)
            if traced:
                tracer.install()
            try:
                for c in calls:
                    busy[traced] += runner.call(c, tracer if traced else None)
                    made[traced] += 1
            finally:
                tracer.uninstall()
            if traced and first_counts is None:
                first_counts = tracer.totals(first)[2] + tracer.counts

    until(seconds, one_pass)
    incl, self_time, count = tracer.totals()
    recorded = count + tracer.counts
    values = {}
    for metric, (name, kind) in spans.LAYER_METRICS.items():
        if kind == "count":
            values[metric] = first_counts[name]
        else:
            values[metric] = (incl if kind == "incl" else self_time)[name] / made[True]
    values.update(input_properties(files))
    values["output.set_elements"] = sum(
        checks.set_elements(out) for out in runner.solve_outputs.values())
    values["trace.overhead_ratio"] = (
        (made[True] / busy[True]) / (made[False] / busy[False]))
    missing = [m for m in spans.MAPPED[workload]
               if not recorded[spans.LAYER_METRICS[m][0]]]
    trace_file.parent.mkdir(exist_ok=True)
    tracer.write(trace_file)
    note = (f"{made[True]} traced and {made[False]} untraced calls; "
            f"spans in {trace_file.relative_to(HERE.parent)}")
    return {k: (v, layer_unit(k)) for k, v in values.items()}, note, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = load_main()
    refs = json.loads(REFS.read_text(encoding="utf-8")).get(args.workload, {})
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    home = os.getcwd()
    try:
        entries = gen.write(args.workload, args.seed, workdir)
        calls = [c for e in entries for c in e.calls]
        files = instance_files(entries)
        os.chdir(workdir)
        runner = Runner(cli_main, refs)
        for c in entries[0].calls:  # warm-up: lazy imports, first-use caches
            runner.call(c)
        missing = []
        if args.trace:
            trace_file = HERE / "_traces" / f"{args.workload}.jsonl"
            metrics, note, missing = per_layer(runner, calls, args.seconds, files,
                                               args.workload, trace_file)
        else:
            metrics, note = end_to_end(runner, calls, args.seconds, files)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    for m in missing:
        print(f"FAIL layer metric {m} recorded nothing on {args.workload}",
              file=sys.stderr)
    correct = runner.failed == 0 and not missing
    print(f"{args.workload} seed {args.seed}: {note}; error_rate "
          f"{runner.failed}/{runner.attempted} = {runner.failed / runner.attempted}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark harness itself.

    python3 perfbench/selftest.py

1. The correctness gate can trip: a scenario run with the flipped structure
   pairing registers failed checks, the same scenario with the standard
   pairing none.
2. A loosened tolerance is refused: with SPINLAB_TOL_SCALE=10 the benchmark
   exits with code 2, one line on standard error and no result.
3. Counts repeat exactly: two traced runs with the same seed give identical
   call counts, so a later change may rest a claim on them.
4. Without the spinlab sources (a directory holding only BENCHMARK.json and
   perfbench/) the benchmark exits nonzero without printing a result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

COUNT_METRICS = ("jets.mul_per_point", "jets.ops_per_point",
                 "jets.alloc_per_point", "surfaces.calls_per_point",
                 "checks.evals_per_scenario", "checks.eval_cache_hit_ratio")


def bench(args, cwd=run.ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=600)


def has_result(stdout: str) -> bool:
    lines = stdout.strip().splitlines()
    return bool(lines) and lines[-1].startswith("{")


def gate_trips() -> str | None:
    from spinlab import cli
    from spinlab.catalog import BUILTIN_SCENARIOS
    base = next(d for d in BUILTIN_SCENARIOS
                if d["name"] == "chart-sphere-curved")
    failed = {}
    for pairing in ("standard", "flipped"):
        sc = dict(base, samples=6, structure_pairing=pairing)
        path = run.write_scenarios(f"selftest-{pairing}", 0, [sc])[0]
        gate = run.Gate([sc])
        elapsed, report, error = run.issue(cli, path)
        gate.judge(0, report, error)
        failed[pairing] = gate.failed
    if failed["standard"] != 0 or failed["flipped"] == 0:
        return f"failed checks per pairing: {failed}"
    return None


def tolerance_refused() -> str | None:
    done = bench(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], env=dict(os.environ, SPINLAB_TOL_SCALE="10"))
    lines = done.stderr.strip().splitlines()
    if done.returncode != 2 or has_result(done.stdout) or len(lines) != 1:
        return f"exit {done.returncode}, stderr {done.stderr!r}"
    return None


def counts_repeat() -> str | None:
    args = ["--workload", "curvature-dense", "--seed", "3", "--seconds", "1",
            "--trace", "1"]
    seen = []
    for _ in range(2):
        done = bench(args)
        if done.returncode != 0:
            return f"traced run failed: {done.stderr.strip()}"
        detail = json.loads(
            (run.OUT / "result-curvature-dense-seed3-trace1.json").read_text())
        metrics = detail["metrics"]
        seen.append((detail["extra"]["exact_counts"],
                     {m: metrics[m]["value"] for m in COUNT_METRICS}))
    if seen[0] != seen[1]:
        return "counts differ between two traced runs with one seed"
    return None


def bare_checkout_fails() -> str | None:
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = bench(["--workload", "catalog", "--seed", "1", "--seconds",
                      "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or has_result(done.stdout):
        return f"exit {done.returncode} with output {done.stdout!r}"
    return None


def main() -> int:
    run.preflight()
    run.OUT.mkdir(exist_ok=True)
    bad = 0
    for test in (gate_trips, tolerance_refused, counts_repeat,
                 bare_checkout_fails):
        problem = test()
        print(f"{'FAIL' if problem else 'ok  '} {test.__name__}"
              + (f": {problem}" if problem else ""))
        bad += problem is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""spinlab benchmark: seeded verification workloads, end to end and per layer.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: every scenario of the workload is
issued in turn as one ``spinlab run --format json`` through
``spinlab.cli.main`` in this process, and the next starts when its report
is out.  ``--trace 0`` measures the end-to-end metrics of BENCHMARK.json, its
timings in units of a reference kernel timed beside every scenario;
``--trace 1`` alternates untraced and traced passes and adds a stage and
check profile for the per-layer metrics.  Every report is held against the
verdict its check must give; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details, residual floors and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 4  # before the passes, and as many again after them
TAIL_BEYOND = 10
REF_REPEATS = 3
REF_LOOPS = 240

# numpy is imported before the clock starts: its import costs the same for
# every version of spinlab and would otherwise swamp spinlab's own set-up.
_SETUP_CHILD = """\
import json, sys, time
import numpy
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import spinlab
from spinlab.reports import Scenario
for path in sys.argv[2:]:
    with open(path) as fh:
        Scenario.from_dict(json.load(fh))
print(time.perf_counter() - start)
"""


def _ref_work(np, idx, pairs, mat):
    """Small-array numpy calls and interpreter work, the two kinds of work a
    spinlab evaluation is made of, without calling into spinlab."""
    a = np.linspace(0.5, 1.5, 20)
    acc = 0.0
    for r in range(REF_LOOPS):
        b = a * 1.0001 + 0.25
        c = np.bincount(pairs[2], a[pairs[0]] * b[pairs[1]], minlength=20)
        m = mat @ mat.conj().T
        acc += float(c[r % 20]) + float(m[r % 8, 0].real)
        terms = {i: acc * i for i in idx}
        acc = sum(terms.values()) * 1e-9
    return acc


def reference():
    """Seconds the host takes for the fixed reference kernel right now: the
    median of REF_REPEATS timings, so that a single preemption drops out.

    The host lends its cores in phases that change its speed by up to two
    times over seconds to minutes, and CPU time drifts with wall time.  A
    scenario's time divided by the mean of the reference times right before
    and right after it is a cost that such phases leave almost unchanged."""
    import numpy as np
    rng = np.random.default_rng(0)
    I, J = np.divmod(rng.permutation(400)[:120], 20)
    pairs = (I, J, (I + J) % 20)
    mat = np.exp(1j * np.arange(64.0)).reshape(8, 8)
    idx = list(range(24))
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        _ref_work(np, idx, pairs, mat)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def preflight():
    """Refuse loosened tolerances and a checkout without spinlab sources."""
    raw = os.environ.get("SPINLAB_TOL_SCALE")
    if raw is not None:
        try:
            scale = float(raw)
        except ValueError:
            scale = None
        if scale != 1.0:
            refuse(f"SPINLAB_TOL_SCALE={raw!r}: the benchmark runs only at "
                   "tolerance scale 1")
    if not (SRC / "spinlab" / "__init__.py").is_file():
        refuse(f"no spinlab sources under {SRC}")
    sys.path.insert(0, str(SRC))


def environment(seed: int, scenarios: list) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "workload_seed": seed,
            "scenario_seeds": [d["seed"] for d in scenarios]}


def tail(samples: list) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and the
    percentile it stands at; the maximum when there are too few samples."""
    ordered = sorted(samples)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Gate:
    """Correctness of every report, and the residual floor of every check.

    A check record counts as failed when its verdict is not the one its
    kind demands, or when its residual is NaN; a scenario counts as failed
    when it raised, exited with a code other than 0 or 1, or gave a report
    different from the one of its first pass.
    """

    def __init__(self, scenarios: list):
        import workloads
        self.verdict_ok = workloads.verdict_ok
        self.scenarios = scenarios
        self.kinds = workloads.check_kinds()
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.first = {}
        self.floors = {}

    def fail(self, message: str):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def judge(self, k: int, report: dict | None, error: str | None) -> int:
        """Count one scenario's check runs; return its points evaluated."""
        sc = self.scenarios[k]
        checks = sc.get("checks")
        self.attempted += len(self.kinds) if checks is None else len(checks)
        if report is None:
            self.fail(f"{sc['name']}: {error}")
            return 0
        for rec in report["checks"]:
            if not self.verdict_ok(self.kinds[rec["name"]], rec) or \
                    math.isnan(rec["max_residual"]):
                self.fail(f"{sc['name']}: {rec['name']} verdict "
                          f"{rec['verdict']} residual {rec['max_residual']!r}")
        body = json.dumps({key: v for key, v in report.items()
                           if key != "runtime_seconds"}, sort_keys=True)
        if k not in self.first:
            self.first[k] = body
            self._floor(report)
        elif body != self.first[k]:
            self.fail(f"{sc['name']}: report differs from its first pass")
        return sum(rec["points_evaluated"] for rec in report["checks"])

    def _floor(self, report: dict):
        for rec in report["checks"]:
            kind = self.kinds[rec["name"]]
            res, tol = rec["max_residual"], rec["tolerance"]
            fl = self.floors.setdefault(rec["name"], {
                "kind": kind, "tolerance": tol, "max_residual": 0.0,
                "headroom_log10": None, "zero_residual_scenarios": 0,
                "scenarios": 0})
            fl["scenarios"] += 1
            fl["max_residual"] = max(fl["max_residual"], res)
            if res == 0.0:
                fl["zero_residual_scenarios"] += 1
            elif kind == "assert" and rec["verdict"] == "pass":
                room = math.log10(tol / res)
                if fl["headroom_log10"] is None or room < fl["headroom_log10"]:
                    fl["headroom_log10"] = room

    def min_headroom(self) -> float:
        rooms = [fl["headroom_log10"] for fl in self.floors.values()
                 if fl["headroom_log10"] is not None]
        return min(rooms) if rooms else math.nan


def write_scenarios(workload: str, seed: int, scenarios: list) -> list:
    folder = OUT / "scenarios" / f"{workload}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, sc in enumerate(scenarios):
        path = folder / f"{k:03d}.json"
        path.write_text(json.dumps(sc, sort_keys=True) + "\n")
        paths.append(str(path))
    return paths


def measure_setup(paths: list, first: bool) -> list:
    """Seconds to import spinlab and parse the scenarios, in SETUP_SAMPLES
    fresh interpreters one after another that have imported numpy; when
    ``first``, one more runs before them, which may compile byte code, and
    is not kept."""
    samples = []
    for _ in range(SETUP_SAMPLES + first):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), *paths],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[first:]


def issue(cli, path: str):
    """One ``spinlab run``: seconds, parsed report or None, error text."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["run", "--scenario", path, "--format", "json"])
    except Exception as exc:  # a scenario that raises is a failed scenario
        return time.perf_counter() - start, None, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code not in (0, 1):
        return elapsed, None, f"exit code {code}"
    return elapsed, json.loads(out.getvalue()), None


def run_pass(cli, paths: list, gate: Gate, tracer=None,
             before: float | None = None) -> dict:
    """One pass over the workload.  Given ``before``, the reference time
    taken just before the pass, the reference kernel is also timed after
    every scenario, and a scenario's cost in refs is its latency over the
    mean of the reference times on either side of it."""
    latencies, brackets, costs, points = [], [], [], 0
    for k, path in enumerate(paths):
        if tracer is not None:
            tracer.trace_id = k
        elapsed, report, error = issue(cli, path)
        latencies.append(elapsed)
        if before is not None:
            after = reference()
            brackets.append((before, after))
            costs.append(2.0 * elapsed / (before + after))
            before = after
        points += gate.judge(k, report, error)
    return {"seconds": sum(latencies), "latencies": latencies,
            "brackets": brackets, "after": before, "cost": sum(costs),
            "costs": costs, "points": points}


def untraced(cli, paths: list, gate: Gate, seconds: float) -> list:
    """A warm-up pass, then whole passes while the next one still fits
    into ``seconds`` counted from the start of the warm-up."""
    start = time.perf_counter()
    after = run_pass(cli, paths, gate, before=reference())["after"]
    passes = []
    while not passes or (time.perf_counter() - start) \
            * (len(passes) + 2) / (len(passes) + 1) <= seconds:
        passes.append(run_pass(cli, paths, gate, before=after))
        after = passes[-1]["after"]
    return passes


def end_to_end(cli, paths: list, gate: Gate, seconds: float) -> tuple:
    setup = measure_setup(paths, first=True)
    passes = untraced(cli, paths, gate, seconds)
    setup += measure_setup(paths, first=False)
    costs = [x for p in passes for x in p["costs"]]
    latencies = [x for p in passes for x in p["latencies"]]
    tail_ref, tail_pct = tail(costs)
    tail_s, _ = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_ref": statistics.median(p["cost"] for p in passes),
        "scenario_ref_p50": statistics.median(costs),
        "scenario_ref_tail": tail_ref,
        "point_checks_per_kref": statistics.median(
            1e3 * p["points"] / p["cost"] for p in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "min_headroom_log10": gate.min_headroom(),
    }
    extra = {"setup_samples_s": setup,
             "pass_samples_ref": [p["cost"] for p in passes],
             "pass_samples_s": [p["seconds"] for p in passes],
             "pass_s": statistics.median(p["seconds"] for p in passes),
             "scenario_s_p50": statistics.median(latencies),
             "scenario_s_tail": tail_s,
             "point_checks_per_s": statistics.median(
                 p["points"] / p["seconds"] for p in passes),
             "ref_ms_p50": 1e3 * statistics.median(
                 after for p in passes for _, after in p["brackets"]),
             "scenario_samples": len(costs),
             "scenario_tail_percentile": tail_pct,
             "points_per_pass": passes[0]["points"],
             "latency_ref_before_after_s": [
                 [x, *b] for p in passes
                 for x, b in zip(p["latencies"], p["brackets"])]}
    return metrics, extra


def _per(num, den):
    return num / den if den else 0.0


def per_layer(cli, paths: list, scenarios: list, gate: Gate,
              seconds: float) -> tuple:
    import tracing
    mods = tracing.modules()
    tracer = tracing.Tracer(mods)
    issue(cli, paths[0])
    plain, traced, counts = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start) * (len(traced) + 1) \
            / len(traced) <= seconds:
        plain.append(run_pass(cli, paths, gate)["seconds"])
        tracer.reset()
        tracer.install()
        try:
            seconds_traced = run_pass(cli, paths, gate, tracer)["seconds"]
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        traced.append((seconds_traced, snap))
        if counts and snap["calls"] != counts[0]:
            gate.fail("call counts differ between traced passes")
        counts.append(snap["calls"])

    calls, secs, self_s = {}, {}, {}
    for _, snap in traced:
        for name, n in snap["calls"].items():
            calls[name] = calls.get(name, 0) + n
            secs[name] = secs.get(name, 0.0) + snap["seconds"][name]
        for layer, s in snap["self_seconds"].items():
            self_s[layer] = self_s.get(layer, 0.0) + s
    busy = sum(s for s, _ in traced)
    first = traced[0][1]["calls"]
    points = first.get("hypersurfaces.evaluate", 0)

    def count(name):
        return first.get(name, 0)

    def mean_ms(*names):
        return 1e3 * _per(sum(secs.get(n, 0.0) for n in names),
                          calls.get(names[0], 0))

    ops = ("mul", "add", "sub", "neg", "div", "deriv", "compose")
    metrics = {
        "jets.mul_per_point": _per(count("jets.mul"), points),
        "jets.ops_per_point": _per(sum(count(f"jets.{op}") for op in ops),
                                   points),
        "jets.alloc_per_point": _per(count("jets.alloc"), points),
        "jets.mul_us": 1e3 * mean_ms("jets.mul"),
        "restriction.restrict_ms": mean_ms("restriction.restrict_structure"),
        "product.holonomy_ms": mean_ms(
            "product.ProductModel.auxiliary_curvature_residual"),
        "surfaces.calls_per_point": _per(
            sum(n for name, n in first.items()
                if name.startswith("surfaces.")), points),
        "systems.converse_ms": mean_ms("systems.harvest",
                                       "systems.converse_check"),
        "systems.covanish_ms": mean_ms("systems.gauss_iff_codazzi"),
        "checks.context_ms": mean_ms("checks.ScenarioContext.__init__"),
        "checks.evals_per_scenario": _per(points, len(paths)),
        "checks.eval_cache_hit_ratio": 1.0 - _per(
            points, count("checks.ScenarioContext.evaluation")),
        "reports.parse_ms": mean_ms("reports.Scenario.from_dict"),
        "reports.emit_json_ms": mean_ms("reports.emit_json"),
        "cli.overhead_ms": 1e3 * _per(
            secs.get("cli.main", 0.0) - secs.get("checks.run_scenario", 0.0),
            calls.get("cli.main", 0)),
        "trace.overhead_ratio": statistics.median(s for s, _ in traced)
        / statistics.median(plain),
    }
    for layer, key in (("jets", "jets"), ("hypersurfaces", "hyp"),
                       ("restriction", "restriction"), ("product", "product"),
                       ("surfaces", "surfaces"), ("clifford", "clifford"),
                       ("systems", "systems"), ("checks", "checks")):
        metrics[f"{key}.busy_share"] = _per(self_s.get(layer, 0.0), busy)

    stage_points, check_runs = [], {}
    for sc in scenarios:
        per_point, per_check = tracing.profile_scenario(mods, sc)
        stage_points += per_point
        for name, s in per_check.items():
            check_runs.setdefault(name, []).append(s)
    for stage in tracing.STAGES:
        metrics[f"hyp.stage.{stage}_ms"] = 1e3 * statistics.median(
            p[stage] for p in stage_points)
    evals = [1e3 * sum(p.values()) for p in stage_points]
    eval_tail, eval_pct = tail(evals)
    metrics["hyp.eval_ms_p50"] = statistics.median(evals)
    metrics["hyp.eval_ms_tail"] = eval_tail
    for name, runs in check_runs.items():
        metrics[f"check.{name}_ms"] = 1e3 * statistics.mean(runs)

    extra = {"traced_passes": len(traced), "untraced_pass_samples_s": plain,
             "traced_pass_samples_s": [s for s, _ in traced],
             "exact_counts": counts[0], "points_per_traced_pass": points,
             "hyp.eval_ms_tail_percentile": eval_pct,
             "spans_in_last_pass": len(tracer.spans)}
    spans = [list(s) for s in tracer.spans]
    return metrics, extra, spans


def declared(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    import workloads
    from spinlab import cli
    if workload not in workloads.WORKLOADS:
        refuse(f"unknown workload {workload!r}")
    scenarios = workloads.scenarios(workload, seed)
    paths = write_scenarios(workload, seed, scenarios)
    gate = Gate(scenarios)
    spans = None
    if trace:
        values, extra, spans = per_layer(cli, paths, scenarios, gate, seconds)
    else:
        values, extra = end_to_end(cli, paths, gate, seconds)

    metrics = {}
    for m in declared(trace):
        name = m["name"]
        if name not in values:
            if not name.startswith("check."):
                refuse(f"metric {name} was not measured")
            values[name] = 0.0  # the workload does not run this check
        metrics[name] = {"value": values[name], "unit": m["unit"]}

    tag = f"{workload}-seed{seed}"
    env = environment(seed, scenarios)
    env["trace_overhead_ratio"] = values.get("trace.overhead_ratio")
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env,
              "metrics": metrics, "extra": extra,
              "check_fail_ratio": _per(gate.failed, gate.attempted),
              "failures": gate.messages}
    (OUT / f"result-{tag}-trace{trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    (OUT / f"floors-{tag}.json").write_text(
        json.dumps(gate.floors, indent=2, sort_keys=True) + "\n")
    if spans is not None:
        with gzip.open(OUT / f"spans-{tag}.json.gz", "wt") as fh:
            json.dump({"fields": ["trace_id", "span_id", "parent_id", "name",
                                  "start", "end"], "spans": spans}, fh)

    print(f"workload {workload} seed {seed} trace {trace}: nproc {env['nproc']}"
          f" python {env['python']} numpy {env['numpy']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not trace:
        for name in ("pass_s", "scenario_s_p50", "scenario_s_tail"):
            print(f"  {name + ' (wall, not gated)':40s} {extra[name]:.6g} s")
        print(f"  {'point_checks_per_s (wall, not gated)':40s} "
              f"{extra['point_checks_per_s']:.6g} 1/s")
        print(f"  {'reference kernel':40s} {extra['ref_ms_p50']:.6g} ms")
    print(f"  {'check_fail_ratio':40s} {detail['check_fail_ratio']:.6g} "
          f"ratio ({gate.failed}/{gate.attempted})")
    for message in gate.messages:
        print(f"  failed: {message}")
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int):
    """Every workload, each in a fresh interpreter, one after another."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            refuse(f"workload {workload} failed: {done.stderr.strip()}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

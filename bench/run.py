"""singq benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload braids --seed 1 --seconds 22 --trace 0

Run from the root of a checkout of the repository; singq is imported from
its ``src`` directory.  The run sets up (fresh interpreters import singq and
load the workload's fixtures), then starts units of the seeded workload one
after another until ``--seconds`` have passed, timing each op, and checks
every output outside the timing.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` or the per-layer metrics with
``--trace 1``.  The line before it is the full result record.  A traced run
also writes its spans to ``.bench_out/`` in the checkout.

End-to-end metrics (untraced): ``setup_s`` median time of fresh
interpreters that import singq and load the workload's fixtures;
``op_ms_p50`` and ``op_ms_tail`` (percentile in TAIL_PERCENTILE) of op
times; ``ops_per_s`` ops per second of op time (closed loop, one client);
``peak_rss_mb`` peak resident memory of this process, or of its children for
``cli-corpus``.  Every op is checked; the share that failed is kept in the
record as ``ops_failed_frac`` (and in ``failed`` of the last line), not as a
metric, as the workloads are chosen so that no op fails.  Times are wall
times scaled to a nominal machine speed by the reference clock in
``pace.py``, which follows the speed of a shared machine through the run;
the record keeps the unscaled values under ``wall_metrics``.

Per-layer metrics (traced): probes re-run each op's parts on the same inputs
and derive self times by subtraction, e.g. ``invariants.aggregate_s`` =
invariant call - coloring search - weight validation.  Times and counts are
per call into the layer, taken from the run's own ops where they call it and
otherwise from a fixed set-up sweep traced apart (the workload's fixture
loads and three README commands); the record names the source of each.
``coloring.search_share`` and ``invariants.aggregate_share`` split invariant
time between search, shadow lift and aggregation.  ``import.*`` come from
``-X importtime`` of fresh interpreters.  Per-layer times are not scaled.
``trace.overhead_*`` is the time the probes add, i.e. traced minus untraced
wall time.  ``coloring.repro_bad_colorings`` and
``invariants.repro_contains_rejected`` count the known defects the set-up
sweep reproduces (see ``workloads.DEFECT_SOLVE``); both fall to 0 once the
defects are fixed.  Which end-to-end metric each layer should move:
import -> setup_s and cli-corpus op times; exprs, algebra -> setup_s and
structures; diagram, coloring -> braids (search) and links; invariants
aggregation, polynomial -> links; invariants solve/contains -> structures;
cli -> cli-corpus.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("cli-corpus", "braids", "links", "structures")

# Tail percentile per workload, with at least ten ops beyond it in a 22 s
# run; at most p90, as higher percentiles of the heavy-tailed op times swing
# too much between seeds.  The structures' nine ops per cycle cluster by
# kind, and a run holds whole cycles only; the order-10 solve is the
# second-slowest cluster, and p84 falls in its middle for any number of
# cycles (an edge of a cluster moves with the neighbouring cluster).
TAIL_PERCENTILE = {"cli-corpus": 60, "braids": 90, "links": 90, "structures": 84}

SETUP_REPEATS = 7
IMPORT_REPEATS = 3


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(code: str, *flags) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        fail(f"child interpreter failed: {proc.stderr.strip()[-500:]}")
    return proc


def measure_setup(files, clock) -> list:
    """(start, wall seconds) of fresh interpreters that import singq and
    load ``files``, with ``clock`` ticking between them."""
    code = ("import singq\n"
            "from singq.data import load_algebra, load_weights\n"
            f"for name in {list(files)!r}:\n"
            "    (load_algebra if name.endswith('.alg') else load_weights)(name)\n")
    times = []
    for _ in range(SETUP_REPEATS):
        clock.tick()
        t0 = time.perf_counter()
        run_child(code)
        times.append((t0, time.perf_counter() - t0))
    return times


def measure_import() -> dict:
    """``-X importtime`` of ``import singq`` in fresh interpreters (medians)."""
    code = ("import sys\nbefore = len(sys.modules)\nimport singq\n"
            "print(len(sys.modules) - before)")
    singq_us, sympy_us, modules = [], [], []
    for _ in range(IMPORT_REPEATS):
        proc = run_child(code, "-X", "importtime")
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1))
        singq_us.append(cumulative.get("singq", 0))
        sympy_us.append(cumulative.get("sympy", 0))
        modules.append(int(proc.stdout.strip()))
    return {"import.singq_s": (statistics.median(singq_us) / 1e6, "s"),
            "import.sympy_s": (statistics.median(sympy_us) / 1e6, "s"),
            "import.modules": (statistics.median(modules), "count")}


def source_commit() -> str:
    """Commit of the checkout read from ``.git`` without leaving it, or a
    hash of ``src`` when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(args) -> dict:
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = "absent"
    return {"python": platform.python_version(), "sympy": sympy_version,
            "nproc": len(os.sched_getaffinity(0)), "commit": source_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_units(units, seconds: float, tracer, clock) -> dict:
    """Closed loop: start units until ``seconds`` of wall time have passed."""
    op_starts, op_times, reasons = [], [], collections.Counter()
    attempted = failed = 0
    probe_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        unit = next(units)
        results, times = [], []
        for k, (name, thunk) in enumerate(unit.ops):
            clock.tick()
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.op = f"{unit.label}/{k}:{name}"
                span = tracer.span(f"op.{name}")
            with span:
                t0 = time.perf_counter()
                try:
                    result = thunk()
                except Exception as exc:    # a raising op is a failed op
                    result = exc
                times.append(time.perf_counter() - t0)
            op_starts.append(t0)
            results.append(result)
        for reason in unit.check(results):
            attempted += 1
            if reason is not None:
                failed += 1
                reasons[f"{unit.label}: {reason}"[:160]] += 1
        op_times += times
        if tracer is not None:
            tracer.op = None
            t0 = time.perf_counter()
            with tracer.span("probe"):
                unit.probe(tracer, results, times)
            probe_s += time.perf_counter() - t0
    return {"op_starts": op_starts, "op_times": op_times, "attempted": attempted,
            "failed": failed, "failures": reasons.most_common(10), "probe_s": probe_s,
            "wall_s": time.perf_counter() - start}


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, setup_times, times, run: dict) -> dict:
    """End-to-end metrics from set-up and op times in seconds."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli-corpus"
                               else resource.RUSAGE_SELF)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_p50": (1000 * statistics.median(times), "ms"),
        "op_ms_tail": (1000 * percentile(times, TAIL_PERCENTILE[workload]), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
    }


# Per-layer metric -> (numerator count, denominator count, scale, unit).
# The denominator counts the calls into the layer, so each metric is a cost
# or a size per call, and moves only with its own layer.
PER_CALL = {
    "exprs.formula_s": ("exprs.formula_s", "exprs.loads", 1, "s/call"),
    "exprs.cells": ("exprs.cells", "exprs.loads", 1, "count/call"),
    "algebra.validate_s": ("algebra.validate_s", "exprs.loads", 1, "s/call"),
    "algebra.axiom_instances": ("algebra.axiom_instances", "exprs.loads", 1, "count/call"),
    "algebra.checks_per_s": ("algebra.axiom_instances", "algebra.validate_s", 1, "1/s"),
    "diagram.parse_s": ("diagram.parse_s", "diagram.diagrams", 1, "s/call"),
    "diagram.regions_s": ("diagram.regions_s", "diagram.regions_calls", 1, "s/call"),
    "diagram.crossings": ("diagram.crossings", "diagram.diagrams", 1, "count/call"),
    "coloring.search_s": ("coloring.search_s", "coloring.searches", 1, "s/call"),
    "coloring.shadow_s": ("coloring.shadow_s", "coloring.shadow_calls", 1, "s/call"),
    "coloring.colorings": ("coloring.colorings", "coloring.searches", 1, "count/call"),
    "coloring.colorings_per_s": ("coloring.colorings", "coloring.search_s", 1, "1/s"),
    "invariants.aggregate_s": ("invariants.aggregate_s", "invariants.aggregations", 1, "s/call"),
    "invariants.tags": ("invariants.tags", "polynomial.renders", 1, "count/call"),
    "invariants.validate_weights_s": ("invariants.validate_weights_s",
                                      "invariants.weight_checks", 1, "s/call"),
    "invariants.solve_s": ("invariants.solve_s", "invariants.solves", 1, "s/call"),
    "invariants.contains_s": ("invariants.contains_s", "invariants.contains_calls", 1, "s/call"),
    "invariants.cocycle_rows": ("invariants.cocycle_rows", "invariants.solves", 1, "count/call"),
    "polynomial.render_s": ("polynomial.render_s", "polynomial.renders", 1, "s/call"),
    "cli.cold_ms": ("cli.cold_s", "cli.calls", 1000, "ms"),
    "cli.warm_ms": ("cli.warm_s", "cli.calls", 1000, "ms"),
}

# Layer self times that make up an invariant call: search, shadow lift and
# aggregation.  The shares of the first and last say which dominates.
INVARIANT_PARTS = ("coloring.search_s", "coloring.shadow_s", "invariants.aggregate_s")


def per_layer(run_counts, setup_counts, imports: dict, run: dict) -> tuple:
    """Per-layer metrics, and for each the counts it came from: the run's
    own ops where they call the layer, else the set-up sweep (fixture loads
    and README commands), which is the same in every run of a workload."""
    metrics, source = dict(imports), {}

    def pick(key):
        return ("run", run_counts) if run_counts[key] else ("setup", setup_counts)

    for name, (num, den, scale, unit) in PER_CALL.items():
        source[name], c = pick(den)
        metrics[name] = (scale * c[num] / c[den] if c[den] else 0.0, unit)
    cold, warm = metrics["cli.cold_ms"][0], metrics["cli.warm_ms"][0]
    metrics["cli.startup_share"] = ((cold - warm) / cold if cold else 0.0, "ratio")
    source["cli.startup_share"] = source["cli.cold_ms"]
    for name, part in (("coloring.search_share", "coloring.search_s"),
                       ("invariants.aggregate_share", "invariants.aggregate_s")):
        source[name], c = pick("coloring.searches")
        total = sum(c[key] for key in INVARIANT_PARTS)
        metrics[name] = (c[part] / total if total else 0.0, "ratio")
    for name, key in (("coloring.repro_bad_colorings", "defect.repro_bad_colorings"),
                      ("invariants.repro_contains_rejected", "defect.contains_rejected")):
        metrics[name], source[name] = (setup_counts[key], "count"), "setup"
    ops = len(run["op_times"])
    metrics.update({
        "trace.ops": (ops, "count"),
        "trace.overhead_s": (run["probe_s"] / ops, "s/op"),
        "trace.overhead_frac": (run["probe_s"] / sum(run["op_times"]), "ratio"),
    })
    return metrics, source


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "singq" / "__init__.py").is_file():
        fail(f"no singq sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import workloads
    from pace import ReferenceClock
    from spans import Tracer

    clock = ReferenceClock()
    setup, setup_times, setup_ref = [], [], None
    if not args.trace:
        setup = measure_setup(workloads.SETUP_FILES[args.workload], clock)
        setup_times = clock.scaled(setup)
        setup_ref = clock.mean()
        clock.restart()
    units = workloads.UNITS[args.workload](args.seed)
    tracer = setup_tracer = imports = None
    if args.trace:
        imports = measure_import()
        setup_tracer = Tracer(args.workload)
        workloads.probe_setup(setup_tracer, args.workload)
        tracer = Tracer(args.workload)
    run = run_units(units, args.seconds, tracer, clock)

    source = wall = None
    if args.trace:
        metrics, source = per_layer(tracer.counts, setup_tracer.counts, imports, run)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"setup": setup_tracer.dump(), "run": tracer.dump()}, fh)
    else:
        op_times = clock.scaled(zip(run["op_starts"], run["op_times"]))
        metrics = end_to_end(args.workload, setup_times, op_times, run)
        wall = {k: v for k, (v, _) in end_to_end(
            args.workload, [s for _, s in setup], run["op_times"], run).items()}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"environment": environment(args),
              "ops": len(run["op_times"]), "wall_s": run["wall_s"],
              "setup_s_samples": setup_times,
              "tail_percentile": TAIL_PERCENTILE[args.workload],
              "ops_failed_frac": run["failed"] / run["attempted"],
              "failures": run["failures"], "metrics": metrics,
              "layer_source": source, "wall_metrics": wall,
              "reference_mean_s": {"setup": setup_ref, "run": clock.mean()}}
    print(json.dumps(record))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

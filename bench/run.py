"""hamdec benchmark: one workload, measured end to end, or traced layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 36 --trace 0

Workloads: certify, crosscheck, sweep (see ``workloads.py``).  The
run sets up the inputs several times (``setup_s`` is the median), then runs
passes over the same inputs until ``--seconds`` have gone by, at least two of
them.  Every time metric takes each request and each operation at its
fastest repeat in the run: on a shared host the processor's speed changes
for seconds at a time, so a median pass measures the neighbours more than
the program.  For the same reason each set-up, and each pass of a
single-process workload, runs pinned to the processor that is quietest just
before it.  With ``--trace 1`` untraced and traced passes alternate, at
least two of each, and the per-layer metrics, the work counts among them,
come from the traced ones.  The report ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the same checkout, never from an
installed copy; without it the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 9
MIN_PASSES = 2
CPU_PROBE_LOOPS = 20_000  # about a millisecond of work
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hamdec.cli; "
                "print(time.perf_counter() - t)")

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  Printed with every traced run so the report explains itself.
LAYER_TARGETS = {
    "cli.calls, cli.self_s": "op_p50_ms on crosscheck and certify",
    "admissibility.calls, admissibility.busy_s": "certify, where it should stay negligible",
    "constructions.calls, constructions.self_s, constructions.starter_edges":
        "wall_s and op_tail_ms on certify",
    "verifier.exact.calls, .busy_s, .residue_checks, .accept_ratio":
        "wall_s and op_tail_ms on certify (about half); barely on crosscheck",
    "verifier.oracle.calls, .busy_s, .edges_materialised":
        "wall_s and op_tail_ms on crosscheck; absent from certify",
    "document.calls, document.busy_s, document.bytes": "op_p50_ms on certify and crosscheck",
    "figures.calls, figures.busy_s, figures.bytes": "wall_s on crosscheck",
    "buratti.find_path.calls, .busy_s, .nodes, .nodes_per_s, .useful_ratio":
        "wall_s and ops_per_s on sweep, where it dominates the pooled calls",
    "buratti.sweep.self_s, .enumerated, .useful_ratio, .worker_busy_s, .pool_efficiency":
        "wall_s on sweep: enumeration in its single-process p = 19 sample, pool and merge in the others",
}

def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
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
    return "unknown"


def _import_package():
    """``hamdec`` from this checkout's ``src/``; exit with status 2 if it is not there."""
    if not (SRC / "hamdec" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'hamdec'}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hamdec
    import hamdec.cli
    import hamdec.document
    if not Path(hamdec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported hamdec from {hamdec.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return hamdec


def _import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """The tail latency, its percentile and the number of samples beyond it.

    It is the highest percentile with at least 10 samples beyond it (the
    maximum below 11 samples).
    """
    ordered = sorted(samples)
    idx = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def _fastest(rows: list[list[float]]) -> list[float]:
    """Each column's fastest repeat; columns with no time at all (NaN) are dropped."""
    best = [min((t for t in col if not math.isnan(t)), default=math.nan)
            for col in zip(*rows)]
    return [t for t in best if not math.isnan(t)]


def _peak_rss_mb(pooled: bool) -> float:
    """Own peak RSS; with a process pool, plus that of the largest child.

    The only other children are the set-up's import probes, which the
    workload never uses.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def _quietest_cpu(cpus: list[int]) -> int:
    """The processor on which a fixed loop runs fastest right now.

    On a shared host each processor slows down for tens of seconds at a time,
    often one at a time, as other tenants come and go; a single-process pass pinned
    to the quieter one measures the program rather than its neighbours.
    """
    best, best_s = cpus[0], math.inf
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        for _ in range(3):
            started = time.perf_counter()
            sum(i * i for i in range(CPU_PROBE_LOOPS))
            elapsed = time.perf_counter() - started
            if elapsed < best_s:
                best, best_s = cpu, elapsed
    return best


def _traced_pass(workload, ops, api, tracer: Tracer):
    tracer.install(api, sys.modules)
    api.begin_op = lambda label: setattr(tracer, "op", label)
    try:
        return workload.run_pass(ops, api)
    finally:
        api.begin_op = lambda label: None
        tracer.uninstall()


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload instance; returns the full report."""
    hd = _import_package()
    jobs = min(2, os.cpu_count() or 1)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    # A pooled pass needs every processor for its workers; set-up never pools.
    pin_setup = len(cpus) > 1
    pin_passes = pin_setup and not workload.pooled
    try:
        # Every set-up writes the same files: later ones overwrite the first
        # one's.  Creating and deleting thousands of small files per run would
        # slow file creation in the runs that follow, on filesystems that
        # discard freed blocks.
        work.mkdir(parents=True)
        setups = []
        for _ in range(SETUP_REPS):
            if pin_setup:
                os.sched_setaffinity(0, {_quietest_cpu(cpus)})
            import_s = _import_seconds()
            started = time.perf_counter()
            ops = workload.setup(seed, work, hd, jobs)
            setups.append((import_s, time.perf_counter() - started))

        api = types.SimpleNamespace(
            main=hd.cli.main, load_certificate=hd.document.load_certificate,
            verify_certificate=hd.verify_certificate, sweep=hd.sweep,
            begin_op=lambda label: None)
        if pin_setup:
            os.sched_setaffinity(0, cpus)
        tracer = Tracer()
        plain, traced = [], []
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds or len(plain) < MIN_PASSES
               or (trace and len(traced) < MIN_PASSES)):
            if pin_passes:
                os.sched_setaffinity(0, {_quietest_cpu(cpus)})
            if trace and len(traced) < len(plain):
                traced.append(_traced_pass(workload, ops, api, tracer))
            else:
                plain.append(workload.run_pass(ops, api))
        report = _report(workload, seed, seconds, jobs, setups, plain, traced,
                         tracer, trace)
        report["passes_pinned_to_quietest_cpu"] = pin_passes
        if trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
            tracer.dump(spans)
            report["spans_file"] = str(spans.relative_to(ROOT))
        return report
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)


def _report(workload, seed, seconds, jobs, setups, plain, traced, tracer, trace) -> dict:
    passes = plain + traced
    requests = _fastest([p.request_s for p in plain])
    wall = sum(requests)
    per_pass = plain[0].attempted
    latencies = _fastest([p.op_s for p in plain])
    tail, tail_pct, beyond = _tail(latencies)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    e2e = {
        "wall_s": wall,
        "ops_per_s": per_pass / wall,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail,
        "setup_s": statistics.median(i + g for i, g in setups),
        "peak_rss_mb": _peak_rss_mb(workload.pooled and jobs > 1),
    }
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "jobs": jobs,
        "commit": _git_commit(),
        "passes": len(plain), "traced_passes": len(traced), "ops_per_pass": per_pass,
        "pass_wall_s": [p.wall_s for p in plain],
        "setup_import_s": [i for i, _ in setups],
        "setup_generate_s": [g for _, g in setups],
        "end_to_end": e2e,
        "median_pass_s": statistics.median(p.wall_s for p in plain),
        "fastest_request_s": requests,
        "op_tail": {"percentile": tail_pct, "beyond": beyond, "samples": len(latencies),
                    "timed": workload.op_timing},
        "fail_ratio": len(failures) / attempted,
        "failures": sorted({(label, kind) for label, kind, _ in failures}),
        "wrong_answers": sum(wrong for _, _, wrong in failures),
        "attempted": attempted,
        "failed": len(failures),
    }
    if trace:
        report["counters_per_pass"] = tracer.work_per_pass()
        report["counters_unstable"] = tracer.unstable_counts()
        traced_wall = sum(_fastest([p.request_s for p in traced]))
        layers = tracer.per_layer_metrics()
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - wall
        report["traced_mean_pass_s"] = statistics.fmean(p.wall_s for p in traced)
        report["per_layer"] = layers
        report["layer_targets"] = LAYER_TARGETS
    return report


def _print_report(report: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e = report["end_to_end"]
    print(f"hamdec benchmark  workload={report['workload']}  seed={report['seed']}  "
          f"seconds={report['seconds']}  trace={int(report['trace'])}")
    print(f"python {report['python']}  nproc {report['nproc']}  jobs {report['jobs']}  "
          f"commit {report['commit']}")
    print(f"{report['passes']} untraced passes of {report['ops_per_pass']} operations"
          + (f", {report['traced_passes']} traced" if report["trace"] else ""))
    for key, value in e2e.items():
        note = ""
        if key == "op_tail_ms":
            t = report["op_tail"]
            note = (f"  (p{t['percentile']:.1f}, {t['beyond']} of {t['samples']} samples "
                    f"beyond, timed {t['timed']})")
        elif key == "wall_s":
            note = (f"  (each request at its fastest of {report['passes']} passes; "
                    f"median pass {report['median_pass_s']:.4f} s)")
        print(f"  {key:<12} {value:14.6f} {units[key]:<4}{note}")
    print(f"  {'fail_ratio':<12} {report['fail_ratio']:14.6f} {'':<4}"
          f"  ({report['failed']} of {report['attempted']} operations, "
          f"{report['wrong_answers']} wrong answers)")
    for label, kind in report["failures"][:20]:
        print(f"    failed: {label}: {kind}")
    if report["trace"]:
        print("  work per traced pass: " + ", ".join(
            f"{k}={v:.0f}" for k, v in report["counters_per_pass"].items()))
        if report["counters_unstable"]:
            print(f"  WARNING: work counts differ between traced passes: "
                  f"{report['counters_unstable']}")
        else:
            print(f"  work counts repeat exactly across {report['traced_passes']} traced passes")
        layers = report["per_layer"]
        wall = report["traced_mean_pass_s"]
        print(f"  traced pass {layers['trace.wall_s']:.4f} s at its fastest, {wall:.4f} s on "
              f"average; tracing overhead {layers['trace.overhead_s']:+.4f} s")
        for name in (m["name"] for m in spec["per_layer"]):
            value = layers[name]
            share = (f"  {100 * value / wall:5.1f}% of the average traced pass"
                     if name.endswith(("busy_s", "self_s")) else "")
            print(f"  {name:<38} {value:16.6f}{share}")
        print("  layer metric -> end-to-end metric it should move:")
        for layer, target in report["layer_targets"].items():
            print(f"    {layer} -> {target}")
    print("REPORT " + json.dumps(report, sort_keys=True))


def result_line(report: dict, spec: dict) -> dict:
    """The last line of the output: end-to-end metrics, or per-layer ones when traced."""
    group = spec["per_layer" if report["trace"] else "end_to_end"]
    source = report["per_layer" if report["trace"] else "end_to_end"]
    return {
        "correct": report["wrong_answers"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in group},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    _print_report(report, spec)
    print(json.dumps(result_line(report, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

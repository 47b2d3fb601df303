"""qaffine benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # each in turn

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/ directory. The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (see bench/README.md);
with --trace 1 they are the per-layer ones of a traced run, which also
writes its spans to .bench_work/spans-<workload>-<seed>.json.

Items run serially, in this thread, in whole passes over the workload's
item list; another pass starts only while it is expected to end within
--seconds, and at least one pass always runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("roundtrip", "reducible", "catalogue")
SETUP_PROBES = 3  # fresh interpreters timed per run for setup_s
PROBE_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: perform the set-up only, in a fresh interpreter (a probe).
    p.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload_name: str, seed: int, workdir: Path):
    """Import qaffine, generate and write the inputs, and warm up."""
    import workloads

    items = workloads.generate(workload_name, seed)
    warm = workloads.warmup_items(workload_name)
    wl = workloads.Workload(workload_name, workdir)
    wl.prepare(warm + items)
    for item in warm:
        problems = wl.run(item)
        if problems:
            raise RuntimeError(f"warm-up item {item.label} failed: {problems}")
    return wl, items


def _probe_setup(args, workdir: Path) -> float:
    """Set-up time of a fresh interpreter that only performs the set-up, at
    the reference gauge's nominal speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(workdir)]
    before = reference.sample()
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL, cwd=ROOT)
    elapsed = time.perf_counter() - start
    return elapsed * reference.NOMINAL_S / statistics.mean((before, reference.sample()))


@dataclass(frozen=True)
class Record:
    """One execution of an item: its latency scaled to the reference gauge's
    nominal speed, and the answer key's complaints."""

    item: object
    scaled: float
    problems: list


@dataclass(frozen=True)
class Pass:
    """Raw wall and CPU time of a pass (gauge samples included), the sum of
    its items' scaled times, and the median slowdown (1 / scale factor)."""

    wall: float
    cpu: float
    scaled: float
    slowdown: float


def _attempt(wl, item) -> list[str]:
    try:
        return wl.run(item)
    except Exception:  # an unexpected exception is a failed item
        return ["unexpected exception: "
                + traceback.format_exc(limit=3).strip().replace("\n", " | ")]


def _run_pass(wl, items, log, recorder=None, tag="") -> Pass:
    """One timed pass; appends a Record per item to log."""
    wall = cpu = scaled = 0.0
    slowdowns = []
    for item in items:
        if recorder is not None:
            recorder.item = f"{tag}{item.index}"
        w0, c0 = time.perf_counter(), time.process_time()
        problems, latency, factor = reference.timed(lambda: _attempt(wl, item))
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        log.append(Record(item, latency * factor, problems))
        scaled += latency * factor
        slowdowns.append(1 / factor)
    return Pass(wall, cpu, scaled, statistics.median(slowdowns))


def _passes(budget: float, one_pass) -> list[Pass]:
    """Run whole passes while the next is expected to end within budget
    seconds; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        typical = statistics.median(p.wall for p in results)
        if time.perf_counter() - start + typical > budget:
            return results


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args, wl, items, setup_samples, log) -> dict:
    """Timings at the reference gauge's nominal speed (see reference.py),
    as medians over the run's passes."""
    passes = _passes(args.seconds, lambda: _run_pass(wl, items, log))
    per_item: dict[int, list[float]] = {}
    for rec in log:
        per_item.setdefault(rec.item.index, []).append(rec.scaled)
    med = {index: statistics.median(v) for index, v in per_item.items()}
    largest = max(item.dim for item in items)
    print(f"{args.workload}: {len(passes)} passes; raw walls "
          + ", ".join(f"{p.wall:.3f}" for p in passes) + " s; machine slowdown "
          + ", ".join(f"{p.slowdown:.2f}" for p in passes))
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "wall_s": _metric(sum(med.values()), "s"),
        "item_p50_s": _metric(statistics.median(med.values()), "s"),
        "largest_s": _metric(
            statistics.median(med[it.index] for it in items if it.dim == largest), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(args, wl, items, log) -> dict:
    import spans

    plain = _passes(args.seconds / 2, lambda: _run_pass(wl, items, log))
    rec = spans.SpanRecorder()
    tags = itertools.count()
    with spans.instrument(rec):
        traced = _passes(args.seconds / 2, lambda: _run_pass(
            wl, items, log, rec, f"p{next(tags)}-"))
    rec.write(WORK / f"spans-{args.workload}-{args.seed}.json")

    n = len(traced)
    metrics = {}
    times = spans.layer_times(rec.spans)
    for name in spans.LAYERS:
        row = times.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = _metric(row["calls"] / n, "count")
        metrics[f"{name}.total_s"] = _metric(row["total_s"] / n, "s")
        metrics[f"{name}.self_s"] = _metric(row["self_s"] / n, "s")
    for name in spans.COUNTS:
        per_pass = name != "linalg.max_bits"
        value = rec.counts[name] / n if per_pass else rec.counts[name]
        unit = {"modfile": "bytes", "linalg": "bits"}.get(name.split(".")[0], "count")
        metrics[name] = _metric(value, unit)
    attempts = rec.counts["analysis.span_attempts"]
    metrics["analysis.span_useful_ratio"] = _metric(
        rec.counts["analysis.span_grew"] / attempts if attempts else 0.0, "ratio")
    wall = sum(p.wall for p in plain)
    cpu = sum(p.cpu for p in plain)
    metrics["process.cpu_s"] = _metric(statistics.median(p.cpu for p in plain), "s")
    metrics["process.steal_ratio"] = _metric(1 - cpu / wall, "ratio")
    metrics["process.slowdown"] = _metric(
        statistics.median(p.slowdown for p in plain), "ratio")
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(p.scaled for p in traced)
        / statistics.median(p.scaled for p in plain), "ratio")

    if args.workload == "roundtrip":
        print("| module | dim | q | extend | of which Burnside |")
        print("| --- | --- | --- | --- | --- |")
        breakdown = spans.item_breakdown(rec.spans, "extension.extend",
                                         "analysis.burnside_irreducible")
        for tag, (ext, burn) in sorted(breakdown.items()):
            item = items[int(tag.split("-")[1])]
            print(f"| {item.label.rsplit(' q=', 1)[0]} | {item.dim} | {item.q} "
                  f"| {ext:.2f} s | {burn:.2f} s ({burn / ext:.0%}) |")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qaffine" / "__init__.py").is_file():
        print(f"error: {SRC / 'qaffine'} not found; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        codes = [subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode for w in WORKLOADS]
        return max(codes)
    if args.setup_only is not None:
        _setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_samples = [] if args.trace else [
            _probe_setup(args, run_dir / f"probe{k}") for k in range(SETUP_PROBES)]
        wl, items = _setup(args.workload, args.seed, run_dir / "run")
        log: list = []
        if args.trace:
            metrics = _per_layer(args, wl, items, log)
        else:
            metrics = _end_to_end(args, wl, items, setup_samples, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [rec for rec in log if rec.problems]
    for rec in failed:
        print(f"FAILED {rec.item.workload}[{rec.item.index}] {rec.item.label}: "
              + "; ".join(rec.problems))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio = {len(failed)}/{len(log)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(log),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

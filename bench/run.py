#!/usr/bin/env python3
"""gatedflow benchmark: three closed-loop workloads and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload logged_pipeline --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload study_sweep --seed 1 --seconds 50 --trace 1

Workloads (see workloads.py): ``logged_pipeline``, ``fanout_star`` and
``study_sweep``. BENCHMARK.json gates the first two; ``study_sweep``'s rate
follows the disk's burst state (see ``STUDY_TRIALS``), so it is run by hand
and by every traced run. Seed 1 is the development seed; seed 2 is kept for
holdout checks of a claimed gain. The same seed gives the same generated
graph and the same study assignments.

``--trace 0`` runs one untimed warm-up unit of a workload, then measures it
for ``--seconds`` and reports its end-to-end metrics. The last line of
standard output is one JSON object:

- ``work_per_s``: the workload's throughput -- graph steps per second on
  ``logged_pipeline`` and ``fanout_star`` (``steps_per_s``), trials per second
  on ``study_sweep`` (``trials_per_s``): the work of all the window's timed
  runs (studies, on ``study_sweep``) over their summed time. It is not a
  median of per-run rates: on a shared host the speed switches between a
  fast and a slow state for tens of seconds at a time, so a median of runs
  jumps between the two states where the total moves smoothly.
- ``setup_s``: median time to generate the inputs and build what one run
  needs, set up SETUP_PER_UNIT times before each unit of work, so that the
  samples span the whole window.
- ``peak_rss_mb``: the process's peak resident set.

``failed_ratio`` is ``failed / attempted`` of that JSON object. The lines
before it repeat every metric under the workload's own name, with its unit,
and the machine record.

``--trace 1`` runs every workload, untraced and then traced, and reports the
per-layer metrics of layers.py. Each pass does a fixed amount of work (the
workload's ``trace_units``) rather than running for ``--seconds``, so that
counts are exact and compare between commits. Its count checks fail the run
when a workload skips an entry point or makes another number of channel,
logger or DSL calls than it implies. Spans are written to
``.bench_work/spans.csv``.

The process pins itself to one CPU: gatedflow's threads are bound by the
interpreter lock, and on two cores the hand-off of that lock between cores
makes the same run vary by tens of percent. The study's thread pool still
has one worker per CPU the process was allowed at start.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
gatedflow sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SETUP_PER_UNIT = 5
GIL_NOTE = ("gatedflow runs one thread per component; they are bound by the "
            "interpreter lock, so results do not scale with cores, and the "
            "benchmark process is pinned to one CPU")


def import_library():
    """Import gatedflow from ROOT/src, or return None if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gatedflow
    except ImportError:
        return None
    if not Path(gatedflow.__file__).resolve().is_relative_to(src):
        return None
    return gatedflow


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process to its first CPU; returns (cpus allowed, cpu).

    The first, because on the 2-vCPU virtual machines the benchmark was
    tuned on, the disk's interrupts all go to the last CPU, and the store's
    fsyncs would then complete on the CPU that runs gatedflow."""
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path``, from /proc/self/mountinfo."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, right.split()[0]
    except OSError:
        pass
    return kind


def machine_record(nproc: int, cpu: int, workdir: Path) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "store_fs": filesystem_type(workdir),
        "threads": GIL_NOTE,
    }


def end_to_end(name, seed, seconds, workdir, nproc):
    from workloads import make, measure

    workload = make(name, seed, workdir, nproc)
    setup = []

    def set_up():
        for _ in range(SETUP_PER_UNIT):
            start = perf_counter()
            workload.setup()
            setup.append(perf_counter() - start)

    out = measure(workload, seconds, warmup=1, before_unit=set_up)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work = out.work_per_s
    named = [("trials_per_s" if name == "study_sweep" else "steps_per_s", work, "1/s")]
    if out.analysis_s:
        named.append(("analysis_records_per_s", out.analysis_per_s, "1/s"))
    named += [("setup_s", median(setup), "s"), ("peak_rss_mb", rss_mb, "MB"),
              ("failed_ratio", out.failed / max(1, out.attempted), "ratio")]
    metrics = {
        "work_per_s": (work, "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [f"{name}: {out.timed_runs} timed runs, "
             f"{out.attempted} checked operations"]
    lines += [f"  {metric:<24} {value:>14.6g} {unit}" for metric, value, unit in named]
    return metrics, out.attempted, out.failed, out.problems, lines


def traced(seed, workdir, nproc):
    import layers
    from tracing import Span, Tracer
    from workloads import WORKLOADS, make, measure

    tracer = Tracer()
    checks = layers.Checks()
    metrics, tails, lines = {}, {}, []
    attempted = failed = 0
    problems = []
    spans_path = WORK / "spans.csv"
    with open(spans_path, "w", encoding="utf-8", newline="") as fh:
        rows = csv.writer(fh)
        rows.writerow(("workload",) + Span._fields)
        for name in WORKLOADS:
            workload = make(name, seed, workdir / "plain", nproc)
            plain = measure(workload, 0, workload.trace_units)
            # a fresh instance, so the traced pass computes its own oracle_run
            workload = make(name, seed, workdir / "traced", nproc)
            with tracer.installed(layers.install):
                spanned = measure(workload, 0, workload.trace_units)
            spans = tracer.take()
            rows.writerows((name,) + span for span in spans)
            found, found_tails = layers.LAYERS[name](workload, spans, plain, spanned,
                                                     checks)
            metrics.update(found)
            tails.update(found_tails)
            overhead = plain.work_per_s / spanned.work_per_s
            metrics[f"trace.overhead.{name}"] = (overhead, "ratio")
            for out in (plain, spanned):
                attempted += out.attempted
                failed += out.failed
                problems += out.problems
    attempted += checks.attempted
    failed += len(checks.problems)
    problems += checks.problems
    lines.append(f"traced run: {len(metrics)} per-layer metrics, spans in "
                 f"{spans_path.relative_to(ROOT)}")
    for metric, (value, unit) in sorted(metrics.items()):
        note = ""
        if metric in tails:
            level, n = tails[metric]
            note = f"  (p{level:g} of {n} samples)" if level else f"  (too few: {n})"
        lines.append(f"  {metric:<34} {value:>14.6g} {unit}{note}")
    return metrics, attempted, failed, problems, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["logged_pipeline", "fanout_star", "study_sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if import_library() is None:
        print(f"bench: no gatedflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc, cpu = pin_to_one_cpu()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced(args.seed, workdir, nproc)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workdir, nproc)
        record = machine_record(nproc, cpu, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, problems, lines = result
    for line in lines:
        print(line)
    for problem in problems:
        print(f"  FAILED: {problem}")
    print("machine " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

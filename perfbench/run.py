"""The repository's benchmark: one workload per run, checked from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense_fixed --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with nothing added to the program and
prints every end-to-end metric. ``--trace 1`` runs the same untraced
pass, then a traced pass with timers wrapped around the public entry
points of each module (``tracing.LAYER_ENTRY_POINTS``), and prints the
per-layer metrics; the traced pass must reproduce the untraced results
exactly. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report. Spans and the run's record (host,
metrics, problems) are written under ``.bench_out/``; scratch state
(artifact store, ledger, service spool) lives in a fresh directory there
and is removed when the run ends.
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
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYER_SPANS, SpanRecorder, aggregate, load_spans  # noqa: E402
from workloads import WORKLOADS, Pass  # noqa: E402

OUT_DIR = ".bench_out"

#: (name, unit) of every end-to-end metric; each is defined on every
#: workload (see BENCHMARK.json for what a unit of work is per workload).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("routability_pct", "%"),
    ("overlay_units", "units"),
    ("wirelength", "tracks"),
    ("vias", "count"),
)


def _self_name(span: str) -> str:
    # route_all's self time is the part no timed layer accounts for.
    if span == "router.route_all":
        return "router.route_all.unattributed_s"
    return f"{span}.self_s"


def _span_metrics() -> List[Tuple[str, str]]:
    out = []
    for name in LAYER_SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (_self_name(name), "s")]
    return out


PIPELINE_STAGES = ("load_design", "build_grid", "route", "decompose", "verify", "report")

#: (name, unit) of every per-layer metric, printed by ``--trace 1``.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    _span_metrics()
    + [
        ("astar.nodes_expanded", "count"),
        ("astar.heap_pushes", "count"),
        ("astar.budget_doublings", "count"),
        ("astar.found_ratio", "ratio"),
        ("guidance.cache_hit_ratio", "ratio"),
        ("core.ocg.uf_rebuilds", "count"),
        ("core.ocg.odd_cycle_hits", "count"),
        ("core.flip.cache_hit_ratio", "ratio"),
        ("grid.cells_written", "count"),
        ("decompose.targets", "count"),
        ("decompose.bitmap_px_computed", "count"),
        ("decompose.physical_cut_conflicts", "count"),
        ("decompose.physical_hard_overlays", "count"),
    ]
    + [(f"pipeline.{stage}.seconds", "s") for stage in PIPELINE_STAGES]
    + [
        ("pipeline.stages_run", "count"),
        ("pipeline.stages_hit", "count"),
        ("pipeline.stages_coalesced", "count"),
        ("pipeline.route_stage_runs", "count"),
        ("pipeline.stage_cache_ratio", "ratio"),
        ("pipeline.bytes_published", "bytes"),
        ("service.queue_wait_s", "s"),
        ("service.job_run_s", "s"),
        ("tracing.overhead_ratio", "ratio"),
    ]
)


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def tail(values: List[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it (nearest
    rank). A run with too few samples for any percentile above the
    median reports the median."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) >= 10 * 100:
            return ordered[math.ceil(n * pct / 100) - 1], f"p{pct} of {n}"
    return statistics.median(ordered), f"p50 of {n}"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(p: Pass, rss_mb: float) -> Dict[str, float]:
    q = p.quality
    return {
        "op_p50_s": statistics.median(p.op_times),
        "op_tail_s": tail(p.op_times)[0],
        "ops_per_s": len(p.op_times) / p.busy_s,
        "ok_pct": 100.0 * (p.attempted - p.failed) / p.attempted,
        "setup_s": statistics.median(p.setup_times),
        "peak_rss_mb": rss_mb,
        "routability_pct": q["routability_pct"],
        "overlay_units": q["overlay_units"],
        "wirelength": q["wirelength"],
        "vias": q["vias"],
    }


def counter_totals(registry) -> Dict[str, float]:
    """The program's own counters the per-layer report reads."""
    names = (
        "astar_nodes_expanded_total",
        "astar_heap_pushes_total",
        "astar_budget_doublings_total",
        "guidance_cache_hits_total",
        "guidance_cache_misses_total",
        "ocg_uf_rebuilds_total",
        "ocg_odd_cycle_hits_total",
        "flip_cache_lookups_total",
    )
    out = {name: registry.total(name) for name in names}
    out["flip_cache_hits_total"] = registry.value(
        "flip_cache_lookups_total", outcome="hit"
    )
    return out


def per_layer(
    spans: List[Dict[str, Any]],
    counters: Dict[str, float],
    traced: Pass,
    overhead: float,
) -> Dict[str, float]:
    agg = aggregate(spans)
    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name in LAYER_SPANS:
        row = agg.get(name, {})
        out[f"{name}.calls"] = row.get("calls", 0)
        out[f"{name}.total_s"] = row.get("total_s", 0.0)
        out[_self_name(name)] = row.get("self_s", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    search = agg.get("astar.search", {})
    masks = agg.get("decompose.synthesize_masks", {})
    guidance_hits = counters.get("guidance_cache_hits_total", 0.0)
    out.update(
        {
            "astar.nodes_expanded": counters.get("astar_nodes_expanded_total", 0.0),
            "astar.heap_pushes": counters.get("astar_heap_pushes_total", 0.0),
            "astar.budget_doublings": counters.get("astar_budget_doublings_total", 0.0),
            "astar.found_ratio": ratio(search.get("found", 0), search.get("calls", 0)),
            "guidance.cache_hit_ratio": ratio(
                guidance_hits,
                guidance_hits + counters.get("guidance_cache_misses_total", 0.0),
            ),
            "core.ocg.uf_rebuilds": counters.get("ocg_uf_rebuilds_total", 0.0),
            "core.ocg.odd_cycle_hits": counters.get("ocg_odd_cycle_hits_total", 0.0),
            "core.flip.cache_hit_ratio": ratio(
                counters.get("flip_cache_hits_total", 0.0),
                counters.get("flip_cache_lookups_total", 0.0),
            ),
            "grid.cells_written": agg.get("grid.occupy_many", {}).get("cells", 0),
            "decompose.targets": masks.get("targets", 0),
            "decompose.bitmap_px_computed": masks.get("bitmap_px_computed", 0),
            "decompose.physical_cut_conflicts": traced.physical.get("physical_cut_conflicts", 0),
            "decompose.physical_hard_overlays": traced.physical.get("physical_hard_overlays", 0),
            "tracing.overhead_ratio": overhead,
        }
    )
    for name, value in traced.layer.items():
        if name in out:
            out[name] = value
    return out


# ---------------------------------------------------------------------- #
# Passes
# ---------------------------------------------------------------------- #


def traced_pass(workload: str, seed: int, workdir: str) -> Tuple[Pass, List[Dict], Dict[str, float]]:
    """One round of the workload with every layer entry point wrapped.

    The program's own counters are read from an observability session in
    this process and, for service jobs, from the job snapshots.
    """
    from repro import obs

    recorder = SpanRecorder()
    span_dir = os.path.join(workdir, "spans")
    os.makedirs(span_dir)
    recorder.install()
    recorder.install_job_hook(span_dir)
    try:
        with obs.session() as ob:
            p = WORKLOADS[workload](workload, seed, 0.0, workdir=workdir, recorder=recorder)
        counters = counter_totals(ob.registry)
    finally:
        recorder.uninstall()
    spans = recorder.to_dicts()
    for entry in sorted(os.listdir(span_dir)):
        spans.extend(load_spans(os.path.join(span_dir, entry)))
    for name, value in p.layer.items():
        if name.startswith("counter."):
            key = name[len("counter."):]
            counters[key] = counters.get(key, 0.0) + value
    return p, spans, counters


def host_record() -> Dict[str, Any]:
    import importlib.util

    import numpy
    import scipy

    mem_kb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit("."),
    }


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git (the
    benchmark's checkout is usually not a repository: then None)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args: argparse.Namespace, workdir: str) -> Dict[str, Any]:
    """Run the passes; returns the run's record (result line included)."""
    plain = WORKLOADS[args.workload](
        args.workload, args.seed, args.seconds, workdir=os.path.join(workdir, "plain")
    )
    rss = peak_rss_mb()
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_record(),
        "report": dict(plain.report, op_tail=tail(plain.op_times)[1], **plain.physical),
    }
    attempted, failed = plain.attempted, plain.failed
    problems = [msg for ps in plain.problems for msg in ps]
    if args.trace:
        traced, spans, counters = traced_pass(
            args.workload, args.seed, os.path.join(workdir, "traced")
        )
        attempted += traced.attempted
        failed += traced.failed
        problems += [msg for ps in traced.problems for msg in ps]
        if (traced.quality, traced.physical) != (plain.quality, plain.physical):
            failed += 1
            problems.append(
                f"traced results {traced.quality} {traced.physical} differ from "
                f"untraced {plain.quality} {plain.physical}"
            )
        overhead = statistics.median(traced.op_times) / statistics.median(plain.op_times)
        values = per_layer(spans, counters, traced, overhead)
        units = dict(PER_LAYER)
        record["spans"] = spans
    else:
        values = end_to_end(plain, rss)
        units = dict(END_TO_END)
    record["problems"] = problems
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    return record


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    # Each run starts cold: its own artifact store and run ledger.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.environ["REPRO_LEDGER_DIR"] = os.path.join(workdir, "ledger")
    try:
        record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = record.pop("spans", None)
    if spans is not None:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    print(f"report: {json.dumps(record['report'], sort_keys=True)}")
    for problem in record["problems"][:10]:
        print(f"problem: {problem}")
        # Also on stderr, where a harness that keeps only the result
        # line from standard output still shows why a run failed.
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

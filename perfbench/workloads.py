"""The benchmark's workloads, each driving the program's public API.

A workload turns ``(seed, seconds)`` into a :class:`Pass`: the wall
time of every unit of work it timed, its set-up times, the quality of
what it produced, and the problems the outside-in checks found. The
router is always built as plain ``SadpRouter(grid, netlist)``, the way a
user builds it, so no knob of the program is pinned here.

Inputs come from ``repro.bench.workloads.generate_benchmark``; design
``i`` of a run with seed ``s`` uses generator seed ``16 * s + i``.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import check_jobs, check_routing, check_signoff

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9

#: name -> (circuit, scale, designs per round). Several designs per run
#: average out the seed-to-seed spread of the inputs.
ROUTING_WORKLOADS: Dict[str, Tuple[str, float, int]] = {
    "dense_fixed": ("Test5", 0.25, 1),
    "sparse_multi": ("Test9", 0.36, 4),
}
#: (circuit, scale, layouts routed, layouts signed off). Routing many
#: small layouts keeps the quality figures steady across seeds; mask
#: synthesis is the costly part, so only the first few are signed off.
SIGNOFF_DESIGN: Tuple[str, float, int, int] = ("Test1", 0.2, 16, 6)
#: Closed-loop service mix: jobs, client threads, service workers,
#: duplicate share, and the jobs' design.
SERVICE_MIX = {
    "jobs": 120,
    "clients": 2,
    "workers": 2,
    # One job in three resubmits a design, so the median job is a store
    # miss; at one in two it sits on the boundary between the fast hits
    # and the slow misses and swings between them from seed to seed.
    "duplicates": 1 / 3,
    "circuit": "Test1",
    "scale": 0.15,
}
#: Per-job wait bound; a job still running after it fails the run.
JOB_TIMEOUT_S = 60.0


def design_seed(seed: int, index: int) -> int:
    return 16 * seed + index


@dataclass
class Pass:
    """One pass of a workload (the untraced one, or the traced one)."""

    op_times: List[float] = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)
    #: Timed seconds the ops ran in (``ops_per_s`` denominator).
    busy_s: float = 0.0
    #: Quality of everything routed: routability_pct, overlay_units,
    #: wirelength, vias; plus physical counts where masks were verified.
    quality: Dict[str, float] = field(default_factory=dict)
    physical: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    #: Problems per unit of work (empty list: it passed every check).
    problems: List[List[str]] = field(default_factory=list)
    #: Named values for the human-readable report.
    report: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer numbers gathered outside the spans (counters, snapshots).
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


# ---------------------------------------------------------------------- #
# Shared pieces
# ---------------------------------------------------------------------- #


def build(circuit: str, scale: float, seed: int):
    """Input generation plus router construction: the set-up."""
    from repro.bench.workloads import generate_benchmark, spec_by_name
    from repro.router import SadpRouter

    grid, netlist = generate_benchmark(spec_by_name(circuit), scale=scale, seed=seed)
    return grid, netlist, SadpRouter(grid, netlist)


def sample_setup(p: Pass, circuit: str, scale: float, seed: int) -> None:
    """Time SETUP_SAMPLES set-ups of one design, each from a collected
    heap, so a garbage collection of earlier work does not land in one."""
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        t0 = time.perf_counter()
        build(circuit, scale, seed)
        p.setup_times.append(time.perf_counter() - t0)


def quality_of(results) -> Dict[str, float]:
    nets = sum(len(r.routes) for r in results)
    routed = sum(r.routed_count for r in results)
    return {
        "routability_pct": 100.0 * routed / nets if nets else 0.0,
        "overlay_units": float(sum(r.overlay_units for r in results)),
        "wirelength": float(sum(r.total_wirelength for r in results)),
        "vias": float(sum(r.total_vias for r in results)),
    }


def fingerprint(result) -> Tuple:
    """What a re-run of the same design must reproduce exactly."""
    return (
        result.routed_count,
        result.overlay_units,
        result.total_wirelength,
        result.total_vias,
        result.cut_conflicts,
        result.hard_overlays,
    )


def rounds_left(started: float, round_s: float, seconds: float) -> bool:
    """Start another round only if it should end within ``seconds``."""
    return time.perf_counter() - started + round_s <= seconds


# ---------------------------------------------------------------------- #
# Routing: dense_fixed, sparse_multi
# ---------------------------------------------------------------------- #


def run_routing(
    name: str, seed: int, seconds: float, recorder=None, **_: Any
) -> Pass:
    """Route the workload's designs in rounds; one ``route_all`` is one
    unit of work. Later rounds must reproduce round one exactly."""
    circuit, scale, designs = ROUTING_WORKLOADS[name]
    seeds = [design_seed(seed, i) for i in range(designs)]
    p = Pass()
    sample_setup(p, circuit, scale, seeds[0])
    first: List[Tuple] = []
    results = []
    started = time.perf_counter()
    while True:
        round_t0 = time.perf_counter()
        for i, s in enumerate(seeds):
            if recorder is not None:
                recorder.run_id = f"{name}:{s}"
            _grid, netlist, router = build(circuit, scale, s)
            t0 = time.perf_counter()
            result = router.route_all()
            p.op_times.append(time.perf_counter() - t0)
            p.attempted += 1
            problems = check_routing(result, netlist)
            if len(first) < len(seeds):
                first.append(fingerprint(result))
                results.append(result)
            elif fingerprint(result) != first[i]:
                problems.append(f"design {s} routed differently on a re-run")
            p.problems.append(problems)
        if not rounds_left(started, time.perf_counter() - round_t0, seconds):
            break
    p.busy_s = sum(p.op_times)
    p.quality = quality_of(results)
    p.report = {
        "route_s": statistics.median(p.op_times),
        "rip_ups": sum(r.total_ripups for r in results),
        "designs": f"{len(seeds)} x {circuit}@{scale}",
    }
    return p


# ---------------------------------------------------------------------- #
# Mask signoff
# ---------------------------------------------------------------------- #


def signoff_layout(grid, result) -> List:
    """``routing_to_targets`` -> ``synthesize_masks`` ->
    ``verify_decomposition`` on every layer with wires; returns
    ``(layer, DecompositionReport)`` pairs."""
    import repro.decompose as decompose

    reports = []
    for layer in range(grid.num_layers):
        targets = decompose.routing_to_targets(grid, result, layer)
        if targets:
            masks = decompose.synthesize_masks(targets, grid.rules)
            reports.append((layer, decompose.verify_decomposition(masks)))
    return reports


def run_signoff(
    name: str, seed: int, seconds: float, recorder=None, **_: Any
) -> Pass:
    """Route the layouts (untimed), then sign the first few off; one
    layout's decompose+verify pass is one timed unit of work. Each route
    is an operation too, checked like the routing workloads'."""
    circuit, scale, routed, signed = SIGNOFF_DESIGN
    seeds = [design_seed(seed, i) for i in range(routed)]
    p = Pass()
    sample_setup(p, circuit, scale, seeds[0])
    layouts = []
    route_times = []
    for s in seeds:
        if recorder is not None:
            recorder.run_id = f"{name}:route:{s}"
        grid, netlist, router = build(circuit, scale, s)
        t0 = time.perf_counter()
        result = router.route_all()
        route_times.append(time.perf_counter() - t0)
        layouts.append((grid, netlist, result))
        p.attempted += 1
        p.problems.append(check_routing(result, netlist))
    p.quality = quality_of([result for _, _, result in layouts])
    layouts = layouts[:signed]
    first: List[Tuple] = []
    cut = hard = 0
    started = time.perf_counter()
    while True:
        round_t0 = time.perf_counter()
        for i, (grid, netlist, result) in enumerate(layouts):
            if recorder is not None:
                recorder.run_id = f"{name}:signoff:{seeds[i]}"
            t0 = time.perf_counter()
            reports = signoff_layout(grid, result)
            p.op_times.append(time.perf_counter() - t0)
            p.attempted += 1
            problems = check_signoff(reports)
            physical = (
                sum(len(r.cut_conflicts) for _, r in reports),
                sum(r.overlay.hard_overlay_count for _, r in reports),
            )
            if len(first) < len(layouts):
                first.append(physical)
                cut += physical[0]
                hard += physical[1]
            elif physical != first[i]:
                problems.append(f"layout {seeds[i]} verified differently on a re-run")
            p.problems.append(problems)
        if not rounds_left(started, time.perf_counter() - round_t0, seconds):
            break
    p.busy_s = sum(p.op_times)
    p.physical = {"physical_cut_conflicts": cut, "physical_hard_overlays": hard}
    p.report = {
        "signoff_s": statistics.median(p.op_times),
        "route_s": statistics.median(route_times),
        "designs": f"{routed} x {circuit}@{scale}, {signed} signed off",
    }
    return p


# ---------------------------------------------------------------------- #
# Job service
# ---------------------------------------------------------------------- #


def service_submissions(seed: int, jobs: int, duplicates: float) -> List[Dict[str, Any]]:
    """The duplicate/fresh interleaving of ``repro.bench.load`` (no RNG):
    duplicates all share one design, fresh jobs each get their own."""
    circuit, scale = SERVICE_MIX["circuit"], SERVICE_MIX["scale"]
    out = []
    acc = 0.0
    for i in range(jobs):
        acc += duplicates
        if acc >= 1.0 - 1e-9:
            acc -= 1.0
            job_seed = design_seed(seed, 0)
        else:
            job_seed = design_seed(seed, 1 + i)
        out.append({"circuit": circuit, "scale": scale, "seed": job_seed})
    return out


def start_service(workdir: str, workers: int):
    from repro.service import RoutingService

    return RoutingService(
        port=0,
        workers=workers,
        cache_dir=os.path.join(workdir, "cache"),
        spool_dir=os.path.join(workdir, "spool"),
        ledger_dir=os.path.join(workdir, "ledger"),
        max_active_per_tenant=0,
    ).start_background()


def closed_loop(url: str, submissions, clients: int) -> Tuple[List[Dict], float]:
    """Each client submits its next job only after the previous one
    finished. Returns the terminal snapshots (in submission order) and
    the loop's wall time."""
    from repro.service import ServiceClient

    snapshots: List[Optional[Dict]] = [None] * len(submissions)
    lock = threading.Lock()
    cursor = [0]
    errors: List[BaseException] = []

    def client_loop(n: int) -> None:
        client = ServiceClient(url, timeout_s=JOB_TIMEOUT_S, tenant=f"client{n}")
        while True:
            with lock:
                i = cursor[0]
                if i >= len(submissions) or errors:
                    return
                cursor[0] += 1
            try:
                job = client.submit(dict(submissions[i]))
                snapshots[i] = client.wait(job["job_id"], timeout_s=JOB_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 - reported by the caller
                with lock:
                    errors.append(exc)
                return

    threads = [threading.Thread(target=client_loop, args=(n,)) for n in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise RuntimeError(f"service client failed: {errors[0]!r}")
    return snapshots, wall


def _job_results(service, snapshots, submissions):
    """Routing results and verify reports of each distinct design, read
    back through the job API (the first job of each design)."""
    from repro.router.io import result_from_dict
    from repro.service import ServiceClient

    client = ServiceClient(service.url, timeout_s=JOB_TIMEOUT_S)
    seen: Dict[Tuple, int] = {}
    out = []
    for index, (snap, sub) in enumerate(zip(snapshots, submissions)):
        key = (sub["circuit"], sub["scale"], sub["seed"])
        if key in seen or snap.get("status") != "done":
            continue
        seen[key] = index
        routing = client.artifact(snap["job_id"], "routing")["payload"]
        verify = client.artifact(snap["job_id"], "verify")["payload"]
        out.append((index, sub, result_from_dict(routing["result"]), verify))
    return out


def run_service(
    name: str,
    seed: int,
    seconds: float,
    workdir: str = ".",
    **_: Any,
) -> Pass:
    """A closed loop of client threads against an internal service; one
    job (submit -> terminal) is one unit of work. The job count is
    fixed, so the run takes as long as the mix takes."""
    from repro.bench.workloads import generate_benchmark, spec_by_name

    mix = SERVICE_MIX
    p = Pass()
    # Service start (worker fork + listening socket) is the set-up;
    # earlier samples are started and stopped again.
    service = None
    for sample in range(SETUP_SAMPLES):
        sample_dir = os.path.join(workdir, f"service{sample}")
        gc.collect()
        t0 = time.perf_counter()
        service = start_service(sample_dir, mix["workers"])
        p.setup_times.append(time.perf_counter() - t0)
        if sample < SETUP_SAMPLES - 1:
            service.stop()
    submissions = service_submissions(seed, mix["jobs"], mix["duplicates"])
    try:
        snapshots, wall = closed_loop(service.url, submissions, mix["clients"])
        designs = _job_results(service, snapshots, submissions)
    finally:
        service.stop()
    p.busy_s = wall
    p.attempted = len(submissions)
    p.problems = check_jobs(snapshots, submissions)
    results = []
    cut = hard = 0
    for index, sub, result, verify in designs:
        _grid, netlist = generate_benchmark(
            spec_by_name(sub["circuit"]), scale=sub["scale"], seed=sub["seed"]
        )
        p.problems[index].extend(check_routing(result, netlist))
        results.append(result)
        cut += sum(layer["cut_conflicts"] for layer in verify["layers"])
        hard += sum(layer["hard_overlay_count"] for layer in verify["layers"])
    p.op_times = [s["finished_unix"] - s["created_unix"] for s in snapshots]
    p.quality = quality_of(results)
    p.physical = {"physical_cut_conflicts": cut, "physical_hard_overlays": hard}
    p.layer = service_layer_metrics(snapshots)
    p.report = {
        "jobs_per_s": len(snapshots) / wall,
        "designs": f"{len(results)} distinct {mix['circuit']}@{mix['scale']}",
    }
    return p


def service_layer_metrics(snapshots) -> Dict[str, float]:
    """Pipeline and service numbers, read from the job snapshots."""
    out: Dict[str, float] = {}
    statuses = {"run": 0, "hit": 0, "coalesced": 0}
    published = 0
    for snap in snapshots:
        for stage in snap.get("stages", []):
            key = f"pipeline.{stage['stage']}.seconds"
            out[key] = out.get(key, 0.0) + float(stage.get("seconds", 0.0))
            status = stage.get("status", "")
            statuses[status] = statuses.get(status, 0) + 1
            if status == "run":
                published += int(stage.get("bytes", 0))
                if stage["stage"] == "route":
                    out["pipeline.route_stage_runs"] = out.get("pipeline.route_stage_runs", 0) + 1
        for name, value in (snap.get("counters") or {}).items():
            out[f"counter.{name}"] = out.get(f"counter.{name}", 0.0) + float(value)
    total = sum(statuses.values())
    for status, n in statuses.items():
        out[f"pipeline.stages_{status}"] = float(n)
    out["pipeline.stage_cache_ratio"] = (
        (statuses["hit"] + statuses["coalesced"]) / total if total else 0.0
    )
    out["pipeline.bytes_published"] = float(published)
    out["service.queue_wait_s"] = statistics.median(
        s["started_unix"] - s["created_unix"] for s in snapshots
    )
    out["service.job_run_s"] = statistics.median(
        s["finished_unix"] - s["started_unix"] for s in snapshots
    )
    return out


WORKLOADS: Dict[str, Callable[..., Pass]] = {
    "dense_fixed": run_routing,
    "sparse_multi": run_routing,
    "signoff": run_signoff,
    "service_mix": run_service,
}

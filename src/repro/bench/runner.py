"""Run routers on benchmarks and collect the tables' columns.

Cells go through the staged pipeline (:func:`run_cell`): a benchmark
instance is one ``PipelineConfig``, so every router variant routed on the
same circuit/scale/seed shares the cached design and grid artifacts, and
repeated sweeps of the same cell are pure cache hits when a persistent
store is passed.

With observability enabled (``repro.obs.enable()`` or the CLI's
``--metrics`` / ``--trace``), each row also carries the per-phase runtime
split (A* search vs. constraint-graph maintenance vs. color flipping)
measured by the span tracer, and the table grows the matching columns —
the per-stage breakdown the TRIAD/TPL papers report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..obs.export import phase_totals
from ..router.result import RoutingResult
from .workloads import BenchmarkSpec, generate_benchmark


@dataclass
class BenchRow:
    """One (circuit, router) cell group of Table III/IV."""

    circuit: str
    router: str
    num_nets: int
    routability_pct: float
    overlay_nm: float
    overlay_units: float
    conflicts: int
    cpu_s: float
    wirelength: int = 0
    vias: int = 0
    #: Per-phase runtime split (zero when observability is off).
    search_s: float = 0.0
    graph_s: float = 0.0
    flip_s: float = 0.0
    commit_s: float = 0.0

    @classmethod
    def from_result(
        cls, circuit: str, router: str, result: RoutingResult
    ) -> "BenchRow":
        return cls(
            circuit=circuit,
            router=router,
            num_nets=len(result.routes),
            routability_pct=result.routability * 100.0,
            overlay_nm=result.overlay_nm,
            overlay_units=result.overlay_units,
            conflicts=result.cut_conflicts,
            cpu_s=result.cpu_seconds,
            wirelength=result.total_wirelength,
            vias=result.total_vias,
        )

    @property
    def has_phases(self) -> bool:
        return (self.search_s + self.graph_s + self.flip_s + self.commit_s) > 0.0

    def to_dict(self, **meta) -> Dict:
        """The row as a flat JSON-ready dict; ``meta`` (e.g. scale/seed)
        is merged in, so trajectory tooling sees the full context."""
        out = asdict(self)
        out.update(meta)
        return out


def _fill_phases(row: BenchRow, before: Dict[str, float]) -> BenchRow:
    """Attach the tracer's phase deltas accumulated during one run."""
    after = phase_totals()
    if after:
        row.search_s = after.get("search", 0.0) - before.get("search", 0.0)
        row.graph_s = after.get("graph", 0.0) - before.get("graph", 0.0)
        row.flip_s = after.get("flip", 0.0) - before.get("flip", 0.0)
        row.commit_s = after.get("commit", 0.0) - before.get("commit", 0.0)
    return row


def run_cell(
    spec: BenchmarkSpec,
    router: str = "ours",
    label: Optional[str] = None,
    scale: float = 1.0,
    seed: int = 2014,
    store: Optional[Any] = None,
    router_options: Optional[Dict[str, Any]] = None,
) -> BenchRow:
    """Route one (circuit, router) table cell through the staged pipeline.

    ``store`` defaults to a fresh in-memory store (a live run, like the
    legacy behavior); pass a shared ``MemoryStore``/``ArtifactStore`` to
    reuse the design/grid artifacts across router variants of the same
    instance, or to make repeated sweeps cache-hit entirely.
    """
    from ..pipeline import MemoryStore, Pipeline, PipelineConfig

    config = PipelineConfig(
        circuit=spec.name,
        scale=scale,
        seed=seed,
        router=router,
        router_options=dict(router_options) if router_options else None,
    )
    before = phase_totals()
    run = Pipeline(config, store=store if store is not None else MemoryStore()).run(
        targets=("route",)
    )
    # A live run leaves the exact RoutingResult in the context; a cache
    # hit deserializes it (identical content, zero routing work).
    result = run.context.get("result") or run.artifact("routing").result()
    row = BenchRow.from_result(spec.name, label or router, result)
    return _fill_phases(row, before)


def run_proposed(
    spec: BenchmarkSpec, scale: float = 1.0, seed: int = 2014, **router_kwargs
) -> BenchRow:
    """Route a benchmark with the proposed overlay-aware router."""
    return run_cell(
        spec,
        router="ours",
        scale=scale,
        seed=seed,
        router_options=router_kwargs or None,
    )


#: Baseline router classes the pipeline's route stage knows by name.
def _router_name_for(factory: Callable) -> Optional[str]:
    from ..baselines import CutNoMergeRouter, DuTrimRouter, GaoPanTrimRouter
    from ..router import SadpRouter

    return {
        SadpRouter: "ours",
        GaoPanTrimRouter: "gao-pan",
        CutNoMergeRouter: "cut16",
        DuTrimRouter: "du",
    }.get(factory)


def run_baseline(
    router_factory: Callable,
    label: str,
    spec: BenchmarkSpec,
    scale: float = 1.0,
    seed: int = 2014,
    **kwargs,
) -> BenchRow:
    """Route a benchmark with one of the baseline routers.

    ``router_factory(grid, netlist, **kwargs)`` must build the router;
    the same seed reproduces the identical instance the proposed router
    saw, so rows are directly comparable. Known router classes go through
    the pipeline (sharing cached upstream artifacts); unrecognized
    factories fall back to direct routing.
    """
    name = _router_name_for(router_factory)
    if name is not None:
        return run_cell(
            spec,
            router=name,
            label=label,
            scale=scale,
            seed=seed,
            router_options=kwargs or None,
        )
    grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
    before = phase_totals()
    result = router_factory(grid, nets, **kwargs).route_all()
    return _fill_phases(BenchRow.from_result(spec.name, label, result), before)


def run_matrix(
    specs: List[BenchmarkSpec],
    routers: List[str],
    scale: float = 1.0,
    seed: int = 2014,
    store: Optional[Any] = None,
) -> List[BenchRow]:
    """Every (circuit, router) cell, sharing one artifact store so each
    circuit's design/grid artifacts are generated once."""
    from ..pipeline import MemoryStore

    shared = store if store is not None else MemoryStore()
    return [
        run_cell(spec, router=router, scale=scale, seed=seed, store=shared)
        for spec in specs
        for router in routers
    ]


def rows_to_table(rows: List[BenchRow], caption: str = "") -> str:
    """Format rows like the paper's tables (grouped by circuit).

    Rows carrying per-phase timings grow search/graph/flip columns; the
    base layout is unchanged otherwise, so untimed tables print exactly
    as before.
    """
    with_phases = any(row.has_phases for row in rows)
    header = (
        f"{'Circuit':8s} {'Router':10s} {'#Net':>6s} {'Rout.%':>7s} "
        f"{'Overlay(nm)':>12s} {'Units':>8s} {'#C':>5s} {'CPU(s)':>8s}"
    )
    if with_phases:
        header += (
            f" {'search(s)':>10s} {'graph(s)':>9s} {'flip(s)':>8s}"
            f" {'commit(s)':>10s}"
        )
    lines = []
    if caption:
        lines.append(caption)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        line = (
            f"{row.circuit:8s} {row.router:10s} {row.num_nets:6d} "
            f"{row.routability_pct:7.1f} {row.overlay_nm:12.0f} "
            f"{row.overlay_units:8.0f} {row.conflicts:5d} {row.cpu_s:8.2f}"
        )
        if with_phases:
            line += (
                f" {row.search_s:10.4f} {row.graph_s:9.4f} {row.flip_s:8.4f}"
                f" {row.commit_s:10.4f}"
            )
        lines.append(line)
    return "\n".join(lines)


ROWS_SCHEMA = "repro-bench-rows/1"


def rows_to_json(rows: List[BenchRow], caption: str = "", **meta) -> str:
    """The rows as a JSON document (machine-readable table twin)."""
    payload = {
        "schema": ROWS_SCHEMA,
        "caption": caption,
        "rows": [row.to_dict(**meta) for row in rows],
    }
    return json.dumps(payload, indent=2)


def append_rows_json(path: Union[str, Path], rows: List[BenchRow], **meta) -> None:
    """Accumulate rows into a JSON artifact next to a text table.

    The benchmark scripts append one circuit at a time to their
    ``results/*.txt`` tables; this mirrors each append into a sibling
    ``*.json`` so perf-trajectory tooling gets structured data without
    parsing the fixed-width tables. The file is a single JSON document
    (``schema``/``rows``), re-read and rewritten per append — benchmark
    cadence, not hot-path cadence.
    """
    path = Path(path)
    if path.exists():
        payload = json.loads(path.read_text())
    else:
        payload = {"schema": ROWS_SCHEMA, "rows": []}
    payload["rows"].extend(row.to_dict(**meta) for row in rows)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def comparison_summary(ours: List[BenchRow], theirs: List[BenchRow]) -> str:
    """The paper's 'Comp.' row: ratios of baseline over ours."""
    pairs = list(zip(ours, theirs))
    if not pairs:
        return "no data"
    rout = _safe_mean([b.routability_pct / a.routability_pct for a, b in pairs])
    ovl = _safe_mean(
        [b.overlay_nm / a.overlay_nm for a, b in pairs if a.overlay_nm > 0]
    )
    cpu = _safe_mean([b.cpu_s / a.cpu_s for a, b in pairs if a.cpu_s > 0])
    return (
        f"baseline/ours ratios: routability {rout:.3f}x, "
        f"overlay {ovl:.2f}x, cpu {cpu:.2f}x"
    )


def _safe_mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else float("nan")

"""Spans recorded from outside the program, for the traced runs.

:class:`SpanRecorder` wraps the public entry points of the program's
modules (see :data:`LAYER_ENTRY_POINTS`) with timers for the duration of
a traced pass and restores the originals afterwards. A wrapper calls the
original with the same arguments and returns its result unchanged, so a
traced pass computes exactly what an untraced one does.

Spans (name, start, end, parent, run id) are kept in memory and written
out as JSON lines when the run ends. A layer's self time is its spans'
durations minus the part of each interval its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, span name). A dotted attribute path names a
#: method on a class; a bare name a module-level function. Entry points
#: missing from the program (renamed or deleted by a later change) are
#: skipped, and their layer reads zero calls.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.router.sadp_router", "SadpRouter.route_all", "router.route_all"),
    ("repro.router.sadp_router", "SadpRouter.route_net", "router.route_net"),
    ("repro.router.sadp_router", "SadpRouter.rip_up_net", "router.rip_up_net"),
    ("repro.router.astar", "AStarRouter.search", "astar.search"),
    ("repro.router.astar", "future_cost_map", "guidance.future_cost_map"),
    ("repro.router.kernel", "future_cost_map", "guidance.future_cost_map"),
    ("repro.core.scenario_detect", "ScenarioDetector.add_net", "core.detect.add_net"),
    ("repro.core.scenario_detect", "VectorScenarioDetector.add_net", "core.detect.add_net"),
    ("repro.core.constraint_graph_soa", "SoAOverlayConstraintGraph.add_scenarios", "core.ocg.add_scenarios"),
    ("repro.core.constraint_graph", "OverlayConstraintGraph.add_edges", "core.ocg.add_scenarios"),
    ("repro.core.constraint_graph_soa", "SoAOverlayConstraintGraph.add_edges", "core.ocg.add_scenarios"),
    ("repro.core.constraint_graph", "OverlayConstraintGraph.remove_net", "core.ocg.remove_net"),
    ("repro.core.constraint_graph_soa", "SoAOverlayConstraintGraph.remove_net", "core.ocg.remove_net"),
    # The hard-constraint checks, and the lazy union-find rebuild they
    # (and edge insertion) trigger after a rip-up touched a hard edge.
    ("repro.core.constraint_graph", "OverlayConstraintGraph.has_hard_odd_cycle", "core.ocg.hard_check"),
    ("repro.core.constraint_graph_soa", "SoAOverlayConstraintGraph.has_hard_odd_cycle", "core.ocg.hard_check"),
    ("repro.core.constraint_graph", "OverlayConstraintGraph.would_violate", "core.ocg.hard_check"),
    ("repro.core.constraint_graph", "OverlayConstraintGraph._rebuild_hard_uf", "core.ocg.hard_check"),
    ("repro.core.constraint_graph_soa", "SoAOverlayConstraintGraph._rebuild_hard_uf", "core.ocg.hard_check"),
    ("repro.router.sadp_router", "flip_colors", "core.flip"),
    ("repro.router.sadp_router", "pseudo_color", "core.pseudo_color"),
    ("repro.core.cut_conflict", "CutConflictChecker.conflicts_with", "core.cut.conflicts_with"),
    ("repro.grid.routing_grid", "RoutingGrid.occupy_many", "grid.occupy_many"),
    ("repro.grid.routing_grid", "RoutingGrid.release_net", "grid.release_net"),
    ("repro.decompose", "routing_to_targets", "decompose.routing_to_targets"),
    ("repro.decompose", "synthesize_masks", "decompose.synthesize_masks"),
    ("repro.decompose", "verify_decomposition", "decompose.verify"),
)

#: Every span name, in report order.
LAYER_SPANS: Tuple[str, ...] = tuple(dict.fromkeys(n for _, _, n in LAYER_ENTRY_POINTS))


def _count_cells(args, kwargs, result) -> Dict[str, int]:
    cells = args[1] if len(args) > 1 else kwargs.get("cells", ())
    return {"cells": len(cells) if hasattr(cells, "__len__") else 0}


def _found(args, kwargs, result) -> Dict[str, int]:
    return {"found": int(result is not None)}


def _mask_size(args, kwargs, result) -> Dict[str, int]:
    """Targets in, and bitmap pixels computed from the window and the
    resolution (one bitmap; synthesis allocates several of that size)."""
    if result is None:
        return {}
    window, res = result.window, result.resolution
    return {
        "targets": len(result.targets),
        "bitmap_px_computed": (window.width // res) * (window.height // res),
    }


#: Span attributes taken from a call's arguments or result.
_ATTRS: Dict[str, Callable[..., Dict[str, int]]] = {
    "astar.search": _found,
    "grid.occupy_many": _count_cells,
    "decompose.synthesize_masks": _mask_size,
}


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it.

    Spans are tuples ``(name, start, end, parent, run_id, attrs)`` where
    ``parent`` is the sequence number of the enclosing span of the same
    thread (-1 for a root); span ``i`` of :attr:`spans` has sequence
    number ``base + i``. Each process keeps its own list: a forked
    worker starts from an empty one.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, str, Dict[str, int]]] = []
        #: Sequence number of ``spans[0]`` (spans already written out by
        #: :meth:`dump` keep theirs).
        self.base = 0
        self.run_id = ""
        self._local = threading.local()
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _own_process(self) -> None:
        if self._pid != os.getpid():
            # Forked child: the parent's spans are not ours to report.
            self._pid = os.getpid()
            self.spans = []
            self.base = 0
            self._local = threading.local()

    def _stack(self) -> List[int]:
        self._own_process()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn: Callable, args, kwargs, attrs_of=None):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, {}))
        stack.append(self.base + index)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else {}
            _, _, _, parent, run_id, _ = self.spans[index]
            self.spans[index] = (name, start, end, parent, run_id, attrs)

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #

    def install(
        self, entry_points: Iterable[Tuple[str, str, str]] = LAYER_ENTRY_POINTS
    ) -> None:
        """Wrap every entry point that exists in the program."""
        for module_name, path, name in entry_points:
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            # Only what ``owner`` defines itself: wrapping an inherited
            # method here would shadow the base-class wrapper.
            original = vars(owner).get(attr) if owner is not None else None
            if original is None or not callable(original):
                continue
            self._patch(owner, attr, self._wrapper(name, original))

    def install_job_hook(self, span_dir: str) -> None:
        """Make service workers forked after this call write their spans
        to ``span_dir`` after each job, under the job's id."""
        import repro.service.worker as worker

        original = vars(worker).get("execute_job")
        if original is None:
            return
        recorder = self

        def traced_job(task, emit):
            recorder.run_id = str(task.get("job_id", ""))
            try:
                return original(task, emit)
            finally:
                recorder.dump(os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"))

        self._patch(worker, "execute_job", traced_job)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrapper(self, name: str, original: Callable) -> Callable:
        recorder = self
        attrs_of = _ATTRS.get(name)

        def traced(*args, **kwargs):
            return recorder.record(name, original, args, kwargs, attrs_of)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Spans with process-qualified ids: ``"pid:seq"``."""
        pid = os.getpid()
        return [
            {
                "id": f"{pid}:{self.base + i}",
                "name": name,
                "start": start,
                "end": end,
                "parent": f"{pid}:{parent}" if parent >= 0 else None,
                "run_id": run_id,
                **({"attrs": attrs} if attrs else {}),
            }
            for i, (name, start, end, parent, run_id, attrs) in enumerate(self.spans)
        ]

    def dump(self, path: str) -> None:
        """Append the closed spans to ``path`` as JSON lines and forget
        them (call between operations, with no span open)."""
        self._own_process()
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.to_dicts():
                fh.write(json.dumps(span) + "\n")
        self.base += len(self.spans)
        self.spans = []


def load_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``, plus the sum
    of every numeric attribute.

    ``total_s`` counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice; ``self_s`` is each span's
    duration minus the union of its children's intervals (clipped to the
    span), summed.
    """
    by_id = {span["id"]: span for span in spans}
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        start, end = span["start"], span["end"]
        row["calls"] += 1
        inner = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span["id"], ())
            if hi > start and lo < end
        ]
        row["self_s"] += (end - start) - _covered(inner)
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != span["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            row["total_s"] += end - start
        for key, value in (span.get("attrs") or {}).items():
            row[key] = row.get(key, 0) + value
    return out

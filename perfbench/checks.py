"""Outside-in correctness checks on the program's outputs.

Every check here reads only what a user of the program gets back — the
``RoutingResult`` (its routes, segments and vias), the netlist that was
routed, the mask verifier's reports and the service's job snapshots —
never the router's internal bookkeeping. Each function returns a list of
human-readable problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

Cell = Tuple[int, int, int]


def _route_cells(route) -> Tuple[Set[Cell], Dict[Cell, Set[Cell]]]:
    """Cells a committed route claims, and its adjacency (wires + vias)."""
    cells: Set[Cell] = set()
    adj: Dict[Cell, Set[Cell]] = {}

    def link(a: Cell, b: Cell) -> None:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for seg in route.segments:
        prev = None
        for p in seg.points():
            cell = (seg.layer, p.x, p.y)
            cells.add(cell)
            adj.setdefault(cell, set())
            if prev is not None:
                link(prev, cell)
            prev = cell
    for via in route.vias:
        link((via.lower, via.at.x, via.at.y), (via.lower + 1, via.at.x, via.at.y))
    return cells, adj


def _connected(
    start: Set[Cell], adj: Dict[Cell, Set[Cell]]
) -> Set[Cell]:
    seen = set(c for c in start if c in adj)
    todo = deque(seen)
    while todo:
        cell = todo.popleft()
        for nxt in adj[cell]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def check_routing(result, netlist) -> List[str]:
    """The paper's guarantees plus geometric sanity, re-derived from
    ``result.routes`` alone.

    * zero cut conflicts and zero hard overlays, as the result reports;
    * no grid cell is claimed by the committed segments of two nets;
    * each routed net's segments and vias form one connected tree that
      touches a candidate of every pin (source, target and taps).
    """
    problems: List[str] = []
    if result.cut_conflicts != 0:
        problems.append(f"{result.cut_conflicts} cut conflicts")
    if result.hard_overlays != 0:
        problems.append(f"{result.hard_overlays} hard overlays")
    owner: Dict[Cell, int] = {}
    for net in netlist:
        route = result.routes.get(net.net_id)
        if route is None:
            problems.append(f"net {net.net_id} missing from the result")
            continue
        if not route.success:
            continue
        cells, adj = _route_cells(route)
        for cell in cells:
            other = owner.setdefault(cell, net.net_id)
            if other != net.net_id:
                problems.append(
                    f"cell {cell} claimed by nets {other} and {net.net_id}"
                )
        pins = (net.source, net.target, *net.taps)
        pin_cells = [
            {(pin.layer, p.x, p.y) for p in pin.candidates} for pin in pins
        ]
        reached = _connected(pin_cells[0], adj)
        if not reached:
            problems.append(f"net {net.net_id} does not start at its source")
            continue
        if reached != set(adj):
            problems.append(f"net {net.net_id} is not one connected path")
        for i, candidates in enumerate(pin_cells[1:], start=1):
            if not candidates & reached:
                problems.append(f"net {net.net_id} does not reach pin {i}")
    return problems


def check_signoff(reports) -> List[str]:
    """Every signed-off layer must print correctly."""
    return [
        f"layer {layer} does not print correctly"
        for layer, report in reports
        if not report.prints_correctly
    ]


def check_jobs(snapshots, submissions) -> List[List[str]]:
    """Per job: it ended ``done``, and a resubmitted design resolved to
    the artifact hashes of that design's first submission."""
    out: List[List[str]] = []
    first: Dict[Tuple, Dict[str, str]] = {}
    for snap, sub in zip(snapshots, submissions):
        problems: List[str] = []
        out.append(problems)
        if snap.get("status") != "done":
            problems.append(
                f"job {snap.get('job_id')} ended {snap.get('status')}: "
                f"{snap.get('error', '')}"
            )
            continue
        key = (sub["circuit"], sub["scale"], sub["seed"])
        hashes = dict(snap.get("artifact_hashes") or {})
        if first.setdefault(key, hashes) != hashes:
            problems.append(
                f"job {snap.get('job_id')} artifacts differ from the first "
                f"submission of {key}"
            )
    return out

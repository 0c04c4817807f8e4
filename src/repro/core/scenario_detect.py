"""Incremental detection of potential overlay scenarios between nets.

After each net is routed, its wire segments are fragmented into rectangles
(Theorem 3) and checked against every existing rectangle within the
independence radius (Theorem 1) using a bucketed spatial index. Each
dependent pair maps to a scenario type (Theorem 2) and becomes a constraint
edge. Rip-up removes a net's shapes and the scenarios they induced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..geometry import GridIndex, Rect, Segment
from .edge_store import SCENARIO_INDEX, SCENARIO_ORDER
from .relation import classify_relation
from .scenarios import (
    SCENARIO_RULES,
    ScenarioType,
    _ORTHOGONAL_MAP,
    _PARALLEL_MAP,
    scenario_for_relation,
)


@dataclass(frozen=True)
class ShapeRecord:
    """One wire fragment registered in the index."""

    net_id: int
    rect: Rect  # grid-cell footprint (track coordinates)
    horizontal: bool
    layer: int


@dataclass(frozen=True)
class DetectedScenario:
    """A scenario instance between net_a's fragment and net_b's fragment."""

    layer: int
    net_a: int
    net_b: int
    scenario: ScenarioType
    a_is_tip_owner: bool
    overlap: int
    rect_a: Rect
    rect_b: Rect


class ScenarioDetector:
    """Per-layer spatial index + pairwise scenario classification.

    The detector is the geometry front-end of the overlay constraint graph:
    ``add_net`` returns the new scenario instances the net creates, and
    ``remove_net`` forgets a ripped-up net.
    """

    #: Query radius in tracks; Theorem 1/2 guarantee independence beyond it.
    NEIGHBOUR_RADIUS = 3

    def __init__(self, num_layers: int, include_trivial: bool = False) -> None:
        self._indexes: List[GridIndex[ShapeRecord]] = [
            GridIndex(bucket_size=8) for _ in range(num_layers)
        ]
        self._shapes_by_net: Dict[int, List[ShapeRecord]] = {}
        # Types 2-c, 2-d and 3-e never induce side overlay; the paper drops
        # them from the constraint graph ("the three scenarios are not
        # considered"). Pass include_trivial=True to see them anyway.
        self._include_trivial = include_trivial

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_net(
        self, net_id: int, segments: Iterable[Segment]
    ) -> List[DetectedScenario]:
        """Register a routed net's segments; returns the induced scenarios."""
        records = [
            ShapeRecord(
                net_id=net_id,
                rect=seg.to_rect(),
                horizontal=seg.horizontal,
                layer=seg.layer,
            )
            for seg in segments
        ]
        detected = []
        for record in records:
            detected.extend(self._scan(record))
        for record in records:
            self._indexes[record.layer].insert(record.rect, record)
        self._shapes_by_net.setdefault(net_id, []).extend(records)
        return detected

    def remove_net(self, net_id: int) -> int:
        """Forget a net's shapes; returns how many fragments were removed."""
        records = self._shapes_by_net.pop(net_id, [])
        for record in records:
            self._indexes[record.layer].remove(record.rect, record)
        return len(records)

    def shapes_of(self, net_id: int) -> List[ShapeRecord]:
        return list(self._shapes_by_net.get(net_id, []))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def probe_segments(
        self, net_id: int, segments: Iterable[Segment]
    ) -> List[DetectedScenario]:
        """What scenarios *would* these segments create? (no mutation)

        The router's what-if analysis during rip-up & reroute uses this to
        price candidate paths without committing them.
        """
        detected = []
        for seg in segments:
            record = ShapeRecord(
                net_id=net_id,
                rect=seg.to_rect(),
                horizontal=seg.horizontal,
                layer=seg.layer,
            )
            detected.extend(self._scan(record))
        return detected

    def _scan(self, record: ShapeRecord) -> List[DetectedScenario]:
        """Scenarios between ``record`` and existing fragments of other nets."""
        index = self._indexes[record.layer]
        out: List[DetectedScenario] = []
        for rect, other in index.neighbours(record.rect, self.NEIGHBOUR_RADIUS):
            if other.net_id == record.net_id:
                continue
            rel = classify_relation(
                record.rect, record.horizontal, rect, other.horizontal
            )
            if rel is None:
                continue
            stype = scenario_for_relation(rel)
            if stype is None:
                continue
            if not self._include_trivial and SCENARIO_RULES[stype].is_trivial:
                continue
            out.append(
                DetectedScenario(
                    layer=record.layer,
                    net_a=record.net_id,
                    net_b=other.net_id,
                    scenario=stype,
                    a_is_tip_owner=rel.a_is_tip_owner,
                    overlap=rel.overlap,
                    rect_a=record.rect,
                    rect_b=rect,
                )
            )
        return out


def _scenario_code_tables():
    """Dense (along, across) -> scenario-index tables from the rule maps."""
    par = np.full((3, 3), -1, dtype=np.int8)
    orth = np.full((3, 3), -1, dtype=np.int8)
    for (along, across), stype in _PARALLEL_MAP.items():
        par[along, across] = SCENARIO_INDEX[stype]
    for (along, across), stype in _ORTHOGONAL_MAP.items():
        orth[along, across] = SCENARIO_INDEX[stype]
    trivial = np.array(
        [SCENARIO_RULES[s].is_trivial for s in SCENARIO_ORDER], dtype=bool
    )
    return par, orth, trivial


_PAR_CODE, _ORTH_CODE, _SCEN_TRIVIAL = _scenario_code_tables()
_PAR_CODE_PY = _PAR_CODE.tolist()
_ORTH_CODE_PY = _ORTH_CODE.tolist()
_SCEN_TRIVIAL_PY = _SCEN_TRIVIAL.tolist()

#: Candidate-count threshold below which the per-net scan runs as a
#: plain Python loop — the vector pass costs ~35 numpy dispatches per
#: net regardless of width, so the loop wins until the candidate batch
#: amortises them.
_SMALL_SCAN = 160


class _LayerShapes:
    """One layer's fragments in columnar form + the bucket grid.

    Mirrors a ``GridIndex[ShapeRecord]`` exactly: rows appended in
    insertion order, each row registered in every bucket its rect spans,
    removed rows dropped from the bucket lists (relative order kept).
    """

    def __init__(self, bucket_size: int = 8) -> None:
        self.bucket = bucket_size
        cap = 64
        self.xlo = np.empty(cap, dtype=np.int64)
        self.ylo = np.empty(cap, dtype=np.int64)
        self.xhi = np.empty(cap, dtype=np.int64)
        self.yhi = np.empty(cap, dtype=np.int64)
        self.net = np.empty(cap, dtype=np.int64)
        self.horiz = np.empty(cap, dtype=bool)
        # Python mirrors of the columns — the scalar small-scan path
        # reads these to avoid numpy scalar extraction per pair.
        self.xlo_l: List[int] = []
        self.ylo_l: List[int] = []
        self.xhi_l: List[int] = []
        self.yhi_l: List[int] = []
        self.net_l: List[int] = []
        self.horiz_l: List[bool] = []
        self.rects: List[Rect] = []
        self.size = 0
        self._cap = cap
        self.buckets: Dict[Tuple[int, int], List[int]] = {}

    def _keys(self, rect: Rect):
        b = self.bucket
        for bx in range(rect.xlo // b, (rect.xhi - 1) // b + 1):
            for by in range(rect.ylo // b, (rect.yhi - 1) // b + 1):
                yield bx, by

    def insert(self, rect: Rect, net_id: int, horizontal: bool) -> int:
        if self.size == self._cap:
            self._cap *= 2
            for name in ("xlo", "ylo", "xhi", "yhi", "net", "horiz"):
                old = getattr(self, name)
                fresh = np.empty(self._cap, dtype=old.dtype)
                fresh[: self.size] = old[: self.size]
                setattr(self, name, fresh)
        row = self.size
        self.xlo[row] = rect.xlo
        self.ylo[row] = rect.ylo
        self.xhi[row] = rect.xhi
        self.yhi[row] = rect.yhi
        self.net[row] = net_id
        self.horiz[row] = horizontal
        self.xlo_l.append(rect.xlo)
        self.ylo_l.append(rect.ylo)
        self.xhi_l.append(rect.xhi)
        self.yhi_l.append(rect.yhi)
        self.net_l.append(net_id)
        self.horiz_l.append(horizontal)
        self.rects.append(rect)
        self.size += 1
        for key in self._keys(rect):
            self.buckets.setdefault(key, []).append(row)
        return row

    def remove(self, row: int) -> None:
        rect = self.rects[row]
        for key in self._keys(rect):
            lst = self.buckets.get(key)
            if lst is not None:
                lst.remove(row)
                if not lst:
                    del self.buckets[key]

    def candidate_rows(self, region: Rect) -> List[int]:
        """Rows whose bucket ranges meet ``region``, in GridIndex query
        order (bucket-scan order, first occurrence kept).

        Single-bucket queries return the bucket list itself — callers
        must treat the result as read-only.
        """
        b = self.bucket
        bx_lo, bx_hi = region.xlo // b, (region.xhi - 1) // b
        by_lo, by_hi = region.ylo // b, (region.yhi - 1) // b
        if bx_lo == bx_hi and by_lo == by_hi:
            return self.buckets.get((bx_lo, by_lo)) or []
        seen: set = set()
        out: List[int] = []
        for bx in range(bx_lo, bx_hi + 1):
            for by in range(by_lo, by_hi + 1):
                rows = self.buckets.get((bx, by))
                if rows:
                    for row in rows:
                        if row not in seen:
                            seen.add(row)
                            out.append(row)
        return out


class VectorScenarioDetector:
    """Array-backed scenario detector, bit-identical to ScenarioDetector.

    Candidate gathering walks the same uniform buckets in the same
    order; the per-pair relation classification (Theorems 1/2 and the
    scenario tables) runs as one vector pass per net instead of one
    ``classify_relation`` call per candidate pair. The emitted
    ``DetectedScenario`` list is identical, element for element and in
    order, to the object detector's — that order feeds rip-up and
    repair decisions downstream, so it is part of the contract.
    """

    NEIGHBOUR_RADIUS = ScenarioDetector.NEIGHBOUR_RADIUS

    def __init__(self, num_layers: int, include_trivial: bool = False) -> None:
        self._layers = [_LayerShapes(bucket_size=8) for _ in range(num_layers)]
        self._rows_by_net: Dict[int, List[Tuple[int, int]]] = {}
        self._include_trivial = include_trivial

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_net(
        self, net_id: int, segments: Iterable[Segment]
    ) -> List[DetectedScenario]:
        records = [
            (seg.layer, seg.to_rect(), seg.horizontal) for seg in segments
        ]
        detected = self._scan_records(net_id, records)
        rows = self._rows_by_net.setdefault(net_id, [])
        for layer, rect, horizontal in records:
            row = self._layers[layer].insert(rect, net_id, horizontal)
            rows.append((layer, row))
        return detected

    def remove_net(self, net_id: int) -> int:
        rows = self._rows_by_net.pop(net_id, [])
        for layer, row in rows:
            self._layers[layer].remove(row)
        return len(rows)

    def shapes_of(self, net_id: int) -> List[ShapeRecord]:
        out = []
        for layer, row in self._rows_by_net.get(net_id, ()):
            shapes = self._layers[layer]
            out.append(
                ShapeRecord(
                    net_id=net_id,
                    rect=shapes.rects[row],
                    horizontal=bool(shapes.horiz[row]),
                    layer=layer,
                )
            )
        return out

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def probe_segments(
        self, net_id: int, segments: Iterable[Segment]
    ) -> List[DetectedScenario]:
        records = [
            (seg.layer, seg.to_rect(), seg.horizontal) for seg in segments
        ]
        return self._scan_records(net_id, records)

    def _scan_records(
        self, net_id: int, records: List[Tuple[int, Rect, bool]]
    ) -> List[DetectedScenario]:
        """Vectorized twin of ScenarioDetector._scan over a record batch.

        Candidates from *all* of the net's records are concatenated
        (record-major, bucket-scan order within each record — exactly the
        object detector's nested loop order) so the geometric
        classification runs as one numpy pass per net, not one per
        fragment. Per-record work is limited to the bucket walk and six
        small column gathers.
        """
        radius = self.NEIGHBOUR_RADIUS
        # (layer, rect, a_h, shapes, cand) per record with any candidates.
        metas = []
        total = 0
        for layer, rect, a_h in records:
            shapes = self._layers[layer]
            if shapes.size == 0 or not shapes.buckets:
                continue
            cand = shapes.candidate_rows(rect.inflated(radius))
            if cand:
                metas.append((layer, rect, a_h, shapes, cand))
                total += len(cand)
        if not metas:
            return []
        if total < _SMALL_SCAN:
            return self._scan_scalar(net_id, metas)
        counts = [len(m[4]) for m in metas]
        rec_of = np.repeat(np.arange(len(metas)), counts)
        metas = [
            (layer, rect, a_h, shapes, np.asarray(cand, dtype=np.int64))
            for layer, rect, a_h, shapes, cand in metas
        ]
        cand = np.concatenate([m[4] for m in metas])
        bxlo = np.concatenate([m[3].xlo[m[4]] for m in metas])
        bylo = np.concatenate([m[3].ylo[m[4]] for m in metas])
        bxhi = np.concatenate([m[3].xhi[m[4]] for m in metas])
        byhi = np.concatenate([m[3].yhi[m[4]] for m in metas])
        bnet = np.concatenate([m[3].net[m[4]] for m in metas])
        b_h = np.concatenate([m[3].horiz[m[4]] for m in metas])
        axlo = np.repeat(
            np.array([m[1].xlo for m in metas], dtype=np.int64), counts
        )
        aylo = np.repeat(
            np.array([m[1].ylo for m in metas], dtype=np.int64), counts
        )
        axhi = np.repeat(
            np.array([m[1].xhi for m in metas], dtype=np.int64), counts
        )
        ayhi = np.repeat(
            np.array([m[1].yhi for m in metas], dtype=np.int64), counts
        )
        a_h = np.repeat(np.array([m[2] for m in metas], dtype=bool), counts)

        # GridIndex.query keeps rects overlapping the inflated region;
        # neighbours() then bounds the rectilinear gap to the rect.
        keep = (
            (bxlo < axhi + radius)
            & (axlo - radius < bxhi)
            & (bylo < ayhi + radius)
            & (aylo - radius < byhi)
        )
        gx = np.maximum(0, np.maximum(axlo, bxlo) - np.minimum(axhi, bxhi))
        gy = np.maximum(0, np.maximum(aylo, bylo) - np.minimum(ayhi, byhi))
        keep &= np.maximum(gx, gy) < radius
        keep &= bnet != net_id
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return []
        rec_of, cand, bnet, b_h = rec_of[idx], cand[idx], bnet[idx], b_h[idx]
        bxlo, bylo, bxhi, byhi = bxlo[idx], bylo[idx], bxhi[idx], byhi[idx]
        axlo, aylo, axhi, ayhi = axlo[idx], aylo[idx], axhi[idx], ayhi[idx]
        a_h = a_h[idx]

        # Theorem-2 track differences over inclusive spans.
        ax0, ax1 = axlo, axhi - 1
        ay0, ay1 = aylo, ayhi - 1
        bx0, bx1 = bxlo, bxhi - 1
        by0, by1 = bylo, byhi - 1
        dx = np.where(ax1 < bx0, bx0 - ax1, np.where(bx1 < ax0, ax0 - bx1, 0))
        dy = np.where(ay1 < by0, by0 - ay1, np.where(by1 < ay0, ay0 - by1, 0))

        aligned = (dx == 0) | (dy == 0)
        dmax = np.maximum(dx, dy)
        dependent = np.where(
            (dx == 0) & (dy == 0),
            False,
            np.where(aligned, dmax < 3, ~((dx >= 2) & (dy >= 2)) & (dmax < 3)),
        )
        if not np.any(dependent):
            return []
        parallel = b_h == a_h

        # Parallel: wire-local (along, across) + overlap scaling. For a
        # horizontal wire A the along axis is x; o_along_a/o_across_a of
        # the orthogonal case are the same projections, so they share the
        # arrays.
        p_along = np.where(a_h, dx, dy)
        p_across = np.where(a_h, dy, dx)
        ov = np.where(
            a_h,
            np.minimum(ax1, bx1) - np.maximum(ax0, bx0) + 1,
            np.minimum(ay1, by1) - np.maximum(ay0, by0) + 1,
        )
        overlap = np.where(parallel & (p_along == 0), np.maximum(ov, 1), 1)

        # Orthogonal: sorted tuple + tip ownership.
        tip = np.where(parallel, True, p_along >= p_across)
        lo = np.minimum(dx, dy)

        code = np.where(
            dependent,
            np.where(
                parallel,
                _PAR_CODE[np.clip(p_along, 0, 2), np.clip(p_across, 0, 2)],
                _ORTH_CODE[np.clip(lo, 0, 2), np.clip(dmax, 0, 2)],
            ),
            -1,
        )
        keep2 = code >= 0
        if not self._include_trivial:
            keep2 &= ~_SCEN_TRIVIAL[np.clip(code, 0, len(_SCEN_TRIVIAL) - 1)]

        out: List[DetectedScenario] = []
        for i in np.flatnonzero(keep2):
            layer, rect, _, shapes, _ = metas[rec_of[i]]
            out.append(
                DetectedScenario(
                    layer=layer,
                    net_a=net_id,
                    net_b=int(bnet[i]),
                    scenario=SCENARIO_ORDER[code[i]],
                    a_is_tip_owner=bool(tip[i]),
                    overlap=int(overlap[i]),
                    rect_a=rect,
                    rect_b=shapes.rects[cand[i]],
                )
            )
        return out

    def _scan_scalar(
        self, net_id: int, metas: List[tuple]
    ) -> List[DetectedScenario]:
        """Scalar twin of the vector classification for tiny candidate
        sets, where numpy per-op overhead dominates.

        The bucket pre-filters (region overlap, rectilinear gap) are
        subsumed by the dependence test — ``max(dx, dy) < 3`` implies a
        gap below the neighbour radius — so only the net filter and the
        Theorem-2 classification remain. Pair order matches the vector
        path's record-major, bucket-scan order exactly.
        """
        skip_trivial = not self._include_trivial
        out: List[DetectedScenario] = []
        for layer, rect, a_h, shapes, cand in metas:
            ax0, ax1 = rect.xlo, rect.xhi - 1
            ay0, ay1 = rect.ylo, rect.yhi - 1
            xlo, ylo = shapes.xlo_l, shapes.ylo_l
            xhi, yhi = shapes.xhi_l, shapes.yhi_l
            net, horiz = shapes.net_l, shapes.horiz_l
            for row in cand:
                if net[row] == net_id:
                    continue
                bx0, bx1 = xlo[row], xhi[row] - 1
                by0, by1 = ylo[row], yhi[row] - 1
                if ax1 < bx0:
                    dx = bx0 - ax1
                elif bx1 < ax0:
                    dx = ax0 - bx1
                else:
                    dx = 0
                if ay1 < by0:
                    dy = by0 - ay1
                elif by1 < ay0:
                    dy = ay0 - by1
                else:
                    dy = 0
                if dx == 0 and dy == 0:
                    continue
                if dx >= 3 or dy >= 3:
                    continue
                if dx >= 2 and dy >= 2:
                    continue
                if a_h:
                    along, across = dx, dy
                else:
                    along, across = dy, dx
                if horiz[row] == a_h:
                    if along == 0:
                        if a_h:
                            ov = min(ax1, bx1) - max(ax0, bx0) + 1
                        else:
                            ov = min(ay1, by1) - max(ay0, by0) + 1
                        overlap = ov if ov > 1 else 1
                    else:
                        overlap = 1
                    tip = True
                    code = _PAR_CODE_PY[along if along < 2 else 2][
                        across if across < 2 else 2
                    ]
                else:
                    overlap = 1
                    tip = along >= across
                    lo = dx if dx < dy else dy
                    hi = dx if dx > dy else dy
                    code = _ORTH_CODE_PY[lo if lo < 2 else 2][
                        hi if hi < 2 else 2
                    ]
                if code < 0:
                    continue
                if skip_trivial and _SCEN_TRIVIAL_PY[code]:
                    continue
                out.append(
                    DetectedScenario(
                        layer=layer,
                        net_a=net_id,
                        net_b=net[row],
                        scenario=SCENARIO_ORDER[code],
                        a_is_tip_owner=tip,
                        overlap=overlap,
                        rect_a=rect,
                        rect_b=shapes.rects[row],
                    )
                )
        return out

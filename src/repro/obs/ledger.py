"""Append-only run ledger: every run recorded, attributed, diffable.

The ledger is the repo's memory of its own performance. Every CLI
``route`` / ``pipeline run`` / ``bench`` invocation and every service
job appends one :class:`RunRecord` — config hash, workload, git sha +
package provenance, per-phase seconds, counter totals, resource peaks,
outcome — so regressions can be attributed run over run instead of
eyeballed from a point-in-time snapshot.

Storage layout under ``.repro_runs/`` (override with ``--ledger-dir``
or ``REPRO_LEDGER_DIR``):

* ``records.jsonl`` — the source of truth, strictly append-only: one
  JSON object per line, never rewritten.
* ``index.sqlite`` — a derived index (run id, timestamp, workload,
  config hash, byte offset/length into the JSONL) for fast history
  queries; deleting it is safe, :meth:`Ledger.reindex` rebuilds it from
  the JSONL.

:func:`diff_runs` compares two records — per-phase time deltas, counter
deltas, peak-RSS deltas — against :class:`DiffThresholds` and produces
a machine-checkable regression verdict (the CLI ``repro obs diff`` exit
code and the CI obs-smoke job both consume it).
"""

from __future__ import annotations

import json
import os
import secrets
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .provenance import collect_provenance

#: Default ledger location; ``REPRO_LEDGER_DIR`` overrides it (used by
#: CI and the test suite to keep run records out of the working tree).
DEFAULT_LEDGER_DIR = ".repro_runs"

RECORDS_FILE = "records.jsonl"
INDEX_FILE = "index.sqlite"

RECORD_SCHEMA = 1


def default_ledger_dir() -> str:
    return os.environ.get("REPRO_LEDGER_DIR") or DEFAULT_LEDGER_DIR


def _new_run_id(ts: float) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(ts))
    return f"r{stamp}-{secrets.token_hex(3)}"


@dataclass
class RunRecord:
    """One ledger entry; everything JSON-serialisable by construction."""

    run_id: str
    ts: float  # wall-clock epoch seconds
    command: str  # "route" | "pipeline run" | "bench" | "service" | ...
    workload: str  # netlist path, "Test1@0.2", or workload-list string
    config_hash: str
    outcome: str = "ok"  # "ok" | "error" | "regression"
    wall_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    resources: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, str] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA,
            "run_id": self.run_id,
            "ts": self.ts,
            "command": self.command,
            "workload": self.workload,
            "config_hash": self.config_hash,
            "outcome": self.outcome,
            "wall_s": round(self.wall_s, 6),
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "counters": self.counters,
            "resources": self.resources,
            "provenance": self.provenance,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(data.get("run_id", "")),
            ts=float(data.get("ts", 0.0)),
            command=str(data.get("command", "")),
            workload=str(data.get("workload", "")),
            config_hash=str(data.get("config_hash", "")),
            outcome=str(data.get("outcome", "ok")),
            wall_s=float(data.get("wall_s", 0.0)),
            phases=dict(data.get("phases") or {}),
            counters=dict(data.get("counters") or {}),
            resources=dict(data.get("resources") or {}),
            provenance=dict(data.get("provenance") or {}),
            meta=dict(data.get("meta") or {}),
        )

    @property
    def when(self) -> str:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.ts))

    @property
    def peak_rss_mb(self) -> float:
        return float(self.resources.get("peak_rss_mb", 0.0))

    def one_line(self) -> str:
        rss = f" {self.peak_rss_mb:7.1f}MB" if self.resources else " " * 10
        return (
            f"{self.run_id:28s} {self.when} {self.command:12s} "
            f"{self.workload:20.20s} {self.config_hash:12.12s} "
            f"{self.wall_s:8.3f}s{rss} {self.outcome}"
        )


def make_record(
    command: str,
    workload: str,
    config: Dict[str, Any],
    ts: Optional[float] = None,
    **fields: Any,
) -> RunRecord:
    """Build a record with a fresh run id, config hash and provenance."""
    import hashlib

    ts = time.time() if ts is None else ts
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:12]
    meta = fields.pop("meta", {})
    return RunRecord(
        run_id=_new_run_id(ts),
        ts=ts,
        command=command,
        workload=workload,
        config_hash=digest,
        provenance=collect_provenance(),
        meta={"config": config, **meta},
        **fields,
    )


# ---------------------------------------------------------------------- #
# Storage
# ---------------------------------------------------------------------- #

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    ts          REAL NOT NULL,
    command     TEXT NOT NULL,
    workload    TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    git_sha     TEXT,
    outcome     TEXT NOT NULL,
    wall_s      REAL NOT NULL,
    peak_rss_mb REAL,
    offset      INTEGER NOT NULL,
    length      INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_ts ON runs (ts);
CREATE INDEX IF NOT EXISTS runs_workload ON runs (workload, config_hash, ts);
"""


class Ledger:
    """SQLite-indexed, JSONL-backed append-only run store."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root if root is not None else default_ledger_dir())
        self.root.mkdir(parents=True, exist_ok=True)
        self.records_path = self.root / RECORDS_FILE
        self.index_path = self.root / INDEX_FILE
        self._db = sqlite3.connect(str(self.index_path))
        self._db.executescript(_TABLE_SQL)
        if not self.records_path.exists():
            self.records_path.touch()
        self._sync_index()

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        (n,) = self._db.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(n)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def record(self, record: RunRecord) -> str:
        """Append one record; returns its run id."""
        payload = json.dumps(record.to_dict(), sort_keys=True, default=str)
        data = payload.encode("utf-8") + b"\n"
        with self.records_path.open("ab") as fh:
            offset = fh.tell()
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        self._index_row(record, offset, len(data))
        self._db.commit()
        return record.run_id

    def _index_row(self, record: RunRecord, offset: int, length: int) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO runs (run_id, ts, command, workload, "
            "config_hash, git_sha, outcome, wall_s, peak_rss_mb, offset, length) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.run_id,
                record.ts,
                record.command,
                record.workload,
                record.config_hash,
                record.provenance.get("git_sha"),
                record.outcome,
                record.wall_s,
                record.peak_rss_mb,
                offset,
                length,
            ),
        )

    def _sync_index(self) -> None:
        """Catch the index up with the JSONL (e.g. after a deleted or
        stale ``index.sqlite`` — the JSONL is the source of truth)."""
        row = self._db.execute(
            "SELECT COALESCE(MAX(offset + length), 0) FROM runs"
        ).fetchone()
        indexed_to = int(row[0])
        size = self.records_path.stat().st_size
        if size > indexed_to:
            self._reindex_from(indexed_to)
        elif size < indexed_to:  # truncated/replaced JSONL: rebuild fully
            self._db.execute("DELETE FROM runs")
            self._reindex_from(0)

    def _reindex_from(self, offset: int) -> None:
        with self.records_path.open("rb") as fh:
            fh.seek(offset)
            while True:
                start = fh.tell()
                raw = fh.readline()
                if not raw:
                    break
                if not raw.strip():
                    continue
                try:
                    record = RunRecord.from_dict(json.loads(raw.decode("utf-8")))
                except (json.JSONDecodeError, UnicodeDecodeError, TypeError):
                    continue
                if record.run_id:
                    self._index_row(record, start, len(raw))
        self._db.commit()

    def reindex(self) -> int:
        """Full rebuild of the SQLite index from the JSONL; returns the
        number of indexed records."""
        self._db.execute("DELETE FROM runs")
        self._reindex_from(0)
        return len(self)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def _load(self, offset: int, length: int) -> RunRecord:
        with self.records_path.open("rb") as fh:
            fh.seek(offset)
            raw = fh.read(length)
        return RunRecord.from_dict(json.loads(raw.decode("utf-8")))

    def get(self, run_id: str) -> RunRecord:
        """Fetch by exact id or unique prefix; raises KeyError otherwise."""
        rows = self._db.execute(
            "SELECT run_id, offset, length FROM runs WHERE run_id = ?",
            (run_id,),
        ).fetchall()
        if not rows:
            rows = self._db.execute(
                "SELECT run_id, offset, length FROM runs WHERE run_id LIKE ? "
                "ORDER BY ts",
                (run_id + "%",),
            ).fetchall()
        if not rows:
            raise KeyError(f"no run {run_id!r} in {self.root}")
        if len(rows) > 1:
            ids = ", ".join(row[0] for row in rows)
            raise KeyError(f"run id prefix {run_id!r} is ambiguous: {ids}")
        return self._load(rows[0][1], rows[0][2])

    def history(
        self,
        limit: int = 20,
        workload: Optional[str] = None,
        command: Optional[str] = None,
    ) -> List[RunRecord]:
        """Most recent runs first, optionally filtered."""
        sql = "SELECT offset, length FROM runs"
        clauses, params = [], []
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        if command is not None:
            clauses.append("command = ?")
            params.append(command)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY ts DESC, run_id DESC LIMIT ?"
        params.append(int(limit))
        rows = self._db.execute(sql, params).fetchall()
        return [self._load(offset, length) for offset, length in rows]

    def latest(
        self,
        workload: Optional[str] = None,
        config_hash: Optional[str] = None,
        command: Optional[str] = None,
        outcome: Optional[str] = None,
        before_ts: Optional[float] = None,
    ) -> Optional[RunRecord]:
        """Most recent record matching every given filter, or None."""
        sql = "SELECT offset, length FROM runs"
        clauses, params = [], []
        for column, value in (
            ("workload", workload),
            ("config_hash", config_hash),
            ("command", command),
            ("outcome", outcome),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if before_ts is not None:
            clauses.append("ts < ?")
            params.append(before_ts)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY ts DESC, run_id DESC LIMIT 1"
        row = self._db.execute(sql, params).fetchone()
        return self._load(row[0], row[1]) if row else None


# ---------------------------------------------------------------------- #
# Diffing
# ---------------------------------------------------------------------- #


@dataclass
class DiffThresholds:
    """What counts as a regression (fractional growth + absolute floor).

    Both conditions must hold — a phase that grew 40% but only by 2 ms
    is runner noise, not a regression; so is a counter that went from
    2 to 4.
    """

    wall_pct: float = 0.20
    wall_min_s: float = 0.05
    phase_pct: float = 0.25
    phase_min_s: float = 0.02
    counter_pct: float = 0.25
    counter_min: float = 32.0
    rss_pct: float = 0.25
    rss_min_mb: float = 16.0


@dataclass
class DiffRow:
    """One compared quantity."""

    section: str  # "wall" | "phase" | "counter" | "resource"
    name: str
    a: float
    b: float
    flag: str  # "ok" | "regression" | "improvement"

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def pct(self) -> Optional[float]:
        if self.a == 0:
            return None
        return 100.0 * self.delta / self.a


def _flag(a: float, b: float, pct: float, floor: float) -> str:
    delta = b - a
    if abs(delta) < floor:
        return "ok"
    if a <= 0:
        return "regression" if delta > 0 else "improvement"
    if delta > a * pct:
        return "regression"
    if -delta > a * pct:
        return "improvement"
    return "ok"


@dataclass
class RunDiff:
    """The comparison of two ledger records, B (new) against A (old)."""

    a: RunRecord
    b: RunRecord
    rows: List[DiffRow]
    comparable: bool  # same workload + config hash

    @property
    def regressions(self) -> List[DiffRow]:
        return [row for row in self.rows if row.flag == "regression"]

    @property
    def improvements(self) -> List[DiffRow]:
        return [row for row in self.rows if row.flag == "improvement"]

    @property
    def verdict(self) -> str:
        return "regression" if self.regressions else "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": self.a.run_id,
            "b": self.b.run_id,
            "comparable": self.comparable,
            "verdict": self.verdict,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "rows": [
                {
                    "section": row.section,
                    "name": row.name,
                    "a": row.a,
                    "b": row.b,
                    "delta": round(row.delta, 6),
                    "pct": None if row.pct is None else round(row.pct, 2),
                    "flag": row.flag,
                }
                for row in self.rows
            ],
        }

    def to_text(self) -> str:
        a, b = self.a, self.b
        lines = [
            f"run diff: A {a.run_id} ({a.when}) -> B {b.run_id} ({b.when})",
            f"workload  A {a.workload} [{a.config_hash}]  "
            f"B {b.workload} [{b.config_hash}]"
            + ("" if self.comparable else "  ** configs differ — deltas indicative only **"),
        ]
        prov_keys = sorted(set(a.provenance) | set(b.provenance))
        changed = [
            f"{k}: {a.provenance.get(k, '-')} -> {b.provenance.get(k, '-')}"
            for k in prov_keys
            if a.provenance.get(k) != b.provenance.get(k)
        ]
        if changed:
            lines.append("environment changed: " + "; ".join(changed))
        header = (
            f"{'section':9s} {'name':28s} {'A':>12s} {'B':>12s} "
            f"{'delta':>12s} {'pct':>8s}  flag"
        )
        lines += [header, "-" * len(header)]
        for row in self.rows:
            pct = f"{row.pct:+7.1f}%" if row.pct is not None else "       -"
            flag = "" if row.flag == "ok" else f"  {row.flag.upper()}"
            lines.append(
                f"{row.section:9s} {row.name:28.28s} {row.a:12.4f} "
                f"{row.b:12.4f} {row.delta:+12.4f} {pct}{flag}"
            )
        lines.append(
            f"verdict: {self.verdict} ({len(self.regressions)} regressions, "
            f"{len(self.improvements)} improvements)"
        )
        return "\n".join(lines)


def diff_runs(
    a: RunRecord, b: RunRecord, thresholds: Optional[DiffThresholds] = None
) -> RunDiff:
    """Compare run B (new) against run A (baseline)."""
    th = thresholds or DiffThresholds()
    rows: List[DiffRow] = [
        DiffRow(
            "wall",
            "wall_s",
            a.wall_s,
            b.wall_s,
            _flag(a.wall_s, b.wall_s, th.wall_pct, th.wall_min_s),
        )
    ]
    for phase in sorted(set(a.phases) | set(b.phases)):
        pa = float(a.phases.get(phase, 0.0))
        pb = float(b.phases.get(phase, 0.0))
        rows.append(
            DiffRow(
                "phase", phase, pa, pb, _flag(pa, pb, th.phase_pct, th.phase_min_s)
            )
        )
    for name in sorted(set(a.counters) | set(b.counters)):
        ca = float(a.counters.get(name, 0.0))
        cb = float(b.counters.get(name, 0.0))
        rows.append(
            DiffRow(
                "counter",
                name,
                ca,
                cb,
                _flag(ca, cb, th.counter_pct, th.counter_min),
            )
        )
    for name in ("peak_rss_mb", "mean_rss_mb"):
        if name in a.resources or name in b.resources:
            ra = float(a.resources.get(name, 0.0))
            rb = float(b.resources.get(name, 0.0))
            flag = _flag(ra, rb, th.rss_pct, th.rss_min_mb)
            if name == "mean_rss_mb" and flag == "regression":
                flag = "ok"  # peak is the gated quantity; mean is context
            rows.append(DiffRow("resource", name, ra, rb, flag))
    comparable = (
        a.workload == b.workload and a.config_hash == b.config_hash
    )
    return RunDiff(a=a, b=b, rows=rows, comparable=comparable)

"""Minimal stdlib HTTP client for the routing service.

Shared by the benchmark's ``service_mix`` workload, the CI
service-smoke job, and the tests — one connection per request (the server always
answers ``Connection: close``), JSON in/out, and a blocking
:meth:`ServiceClient.wait` that polls a job to its terminal state.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from .jobs import ServiceError, TERMINAL_STATUSES


class ServiceClient:
    """Talk to a :class:`~repro.service.RoutingService` at ``base_url``."""

    def __init__(self, base_url: str, timeout_s: float = 30.0, tenant: str = "") -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("http", ""):
            raise ServiceError(f"unsupported scheme {parts.scheme!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout_s = timeout_s
        self.tenant = tenant

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        headers = {"Connection": "close"}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok: Tuple[int, ...] = (200, 202),
    ) -> Dict[str, Any]:
        status, raw = self._request(method, path, body)
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            obj = {"error": raw.decode("utf-8", "replace")[:200]}
        if status not in ok:
            raise ServiceError(
                f"{method} {path} → {status}: {obj.get('error', obj)}",
                status=status,
            )
        return obj

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._json("POST", "/jobs", body=payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self._json("GET", path)["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def wait(
        self, job_id: str, timeout_s: float = 300.0, poll_s: float = 0.05
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state (or time out)."""
        deadline = time.monotonic() + timeout_s
        while True:
            snap = self.job(job_id)
            if snap["status"] in TERMINAL_STATUSES:
                return snap
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {snap['status']} after {timeout_s}s",
                    status=504,
                )
            time.sleep(poll_s)

    def events(self, job_id: str, wait: bool = True) -> List[Dict[str, Any]]:
        """The job's full event log; with ``wait`` the call streams until
        the job is terminal (mirrors the live progress a UI would show)."""
        suffix = "" if wait else "?wait=0"
        status, raw = self._request("GET", f"/jobs/{job_id}/events{suffix}")
        if status != 200:
            raise ServiceError(f"events → {status}", status=status)
        return [
            json.loads(line)
            for line in raw.decode("utf-8").splitlines()
            if line.strip()
        ]

    def artifact(self, job_id: str, kind: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}/artifacts/{kind}")

    def artifact_bytes(self, job_id: str, kind: str) -> bytes:
        """The raw artifact response body — byte-identical across jobs
        that resolved to the same content hash."""
        status, raw = self._request("GET", f"/jobs/{job_id}/artifacts/{kind}")
        if status != 200:
            raise ServiceError(f"artifact {kind} → {status}", status=status)
        return raw

    def metrics(self) -> str:
        status, raw = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"/metrics → {status}", status=status)
        return raw.decode("utf-8")

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

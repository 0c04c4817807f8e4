"""HTTP API behaviour against an embedded inline-worker service."""

import pytest

from repro.obs.prom import validate_prometheus_text
from repro.service import RoutingService, ServiceClient, ServiceError

DESIGN = "n0 L0 1,2 -> L0 9,2\nn1 L0 4,4 -> L0 4,11\n"


class TestValidation:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/nope")
        assert err.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("jmissing")
        assert err.value.status == 404

    def test_submission_needs_a_source(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({})
        assert err.value.status == 400

    def test_design_text_needs_dimensions(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"design_text": DESIGN})
        assert err.value.status == 400
        assert "width" in str(err.value)

    def test_unknown_targets_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit(
                {"circuit": "Test1", "scale": 0.1, "targets": ["teleport"]}
            )
        assert err.value.status == 400

    def test_removed_router_knob_rejected(self, client):
        for key, value in (("workers", 4), ("guidance", "off")):
            with pytest.raises(ServiceError) as err:
                client.submit({"circuit": "Test1", "scale": 0.1, key: value})
            assert err.value.status == 400
            assert f"'{key}'" in str(err.value)

    def test_misspelt_key_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"circuit": "Test1", "sclae": 0.1})
        assert err.value.status == 400
        assert "'sclae'" in str(err.value)
        assert "'scale'" in str(err.value)  # the accepted keys are listed

    def test_every_known_key_accepted(self, client):
        job = client.submit(
            {
                "tenant": "t",
                "circuit": "Test1",
                "scale": 0.1,
                "seed": 7,
                "targets": ["load_design"],
                "router": "ours",
                "order": "hpwl",
                "num_layers": 3,
            }
        )
        assert client.wait(job["job_id"], timeout_s=60)["status"] == "done"

    def test_bad_json_body_rejected(self, client):
        status, raw = client._request("POST", "/jobs")
        # empty body parses as {} → missing source, still a clean 400
        assert status == 400
        assert b"error" in raw

    def test_method_not_allowed(self, client):
        status, _ = client._request("DELETE", "/jobs")
        assert status == 405


class TestJobFlow:
    def test_submit_wait_fetch(self, client):
        job = client.submit(
            {"design_text": DESIGN, "width": 16, "height": 16, "tenant": "acme"}
        )
        assert job["status"] == "queued"
        assert job["design"].startswith("design:")
        snap = client.wait(job["job_id"], timeout_s=120)
        assert snap["status"] == "done"
        assert snap["executed"] + snap["cached"] == 6
        assert [s["stage"] for s in snap["stages"]][:2] == [
            "load_design",
            "build_grid",
        ]
        assert set(snap["artifact_hashes"]) >= {"design", "routing", "report"}

        art = client.artifact(job["job_id"], "report")
        assert art["hash"] == snap["artifact_hashes"]["report"]
        assert art["kind"] == "report"

    def test_jobs_list_filters_by_tenant(self, client):
        a = client.submit(
            {"design_text": DESIGN, "width": 16, "height": 16, "tenant": "a"}
        )
        client.wait(a["job_id"], timeout_s=120)
        assert {j["tenant"] for j in client.jobs()} >= {"a"}
        assert all(j["tenant"] == "a" for j in client.jobs(tenant="a"))
        assert client.jobs(tenant="nobody") == []

    def test_tenant_header_labels_job(self, service):
        client = ServiceClient(service.url, tenant="hdr-tenant")
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        assert job["tenant"] == "hdr-tenant"
        client.wait(job["job_id"], timeout_s=120)

    def test_unknown_artifact_kind_404_after_done(self, client):
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        client.wait(job["job_id"], timeout_s=120)
        with pytest.raises(ServiceError) as err:
            client.artifact(job["job_id"], "blueprint")
        assert err.value.status == 404

    def test_events_stream_ends_with_terminal_event(self, client):
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        events = client.events(job["job_id"])  # streams until terminal
        kinds = [e["event"] for e in events]
        assert kinds[0] == "job_queued"
        assert kinds[-1] in ("job_done", "job_failed")
        ends = [e for e in events if e["event"] == "stage_end"]
        assert {e["span"] for e in ends} == {
            f"stage:{e['stage']}" for e in ends
        }

    def test_events_nowait_returns_immediately(self, client):
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        events = client.events(job["job_id"], wait=False)
        assert events and events[0]["event"] == "job_queued"
        client.wait(job["job_id"], timeout_s=120)


class TestQuota:
    def test_second_submission_hits_quota(self, tmp_path):
        """Pool never started → the first job stays queued and holds the
        tenant's only slot; admission must answer 429."""
        svc = RoutingService(
            port=0,
            workers=0,
            cache_dir=str(tmp_path / "cache"),
            max_active_per_tenant=1,
            ledger=False,
        )
        svc.submit({"circuit": "Test1", "scale": 0.1}, tenant="t")
        with pytest.raises(ServiceError) as err:
            svc.submit({"circuit": "Test1", "scale": 0.1}, tenant="t")
        assert err.value.status == 429
        # a different tenant is still admitted
        svc.submit({"circuit": "Test1", "scale": 0.1}, tenant="u")


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_labelled(self, client):
        job = client.submit(
            {"design_text": DESIGN, "width": 16, "height": 16, "tenant": "m"}
        )
        client.wait(job["job_id"], timeout_s=120)
        text = client.metrics()
        assert validate_prometheus_text(text) == []
        assert "service_jobs_submitted_total" in text
        assert 'tenant="m"' in text
        assert "service_http_requests_total" in text

    def test_healthz(self, client):
        assert client.healthz()["ok"] is True

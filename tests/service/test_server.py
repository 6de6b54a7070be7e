"""Wire-level tests: JSON-lines server, synchronous client, error paths."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import (
    WIRE_VERSION,
    CheckServer,
    CheckService,
    JobRequest,
    ServiceClient,
    ServiceClientError,
    plan_from_dict,
)

CELL = "multicast-2-1-0-1"


def with_server(driver, **service_kwargs):
    """Run ``driver(client)`` on a thread against a live server."""

    async def scenario():
        server = CheckServer(CheckService(**service_kwargs), port=0)
        await server.start()
        try:
            loop = asyncio.get_running_loop()

            def drive():
                with ServiceClient(port=server.port) as client:
                    return driver(client)

            return await loop.run_in_executor(None, drive)
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestWire:
    def test_ping(self):
        assert with_server(lambda c: c.ping()) == WIRE_VERSION

    def test_submit_wait_returns_the_verdict_record(self):
        record = with_server(lambda c: c.submit(CELL))
        assert record["status"] == "done"
        assert record["outcome"] == "verified"
        assert record["complete"] is True
        assert record["cache_hit"] is False
        assert record["states_visited"] == 45
        assert record["request"]["cell"] == CELL

    def test_second_submission_is_a_cache_hit(self):
        def driver(client):
            client.submit(CELL)
            return client.submit(CELL)

        record = with_server(driver)
        assert record["cache_hit"] is True
        assert record["outcome"] == "verified"

    def test_budget_truncated_submission_is_inconclusive_on_the_wire(self):
        record = with_server(
            lambda c: c.submit(CELL, budgets={"max_states": 10})
        )
        assert record["outcome"] == "inconclusive"
        assert record["complete"] is False
        assert record["telemetry"]  # statistics + telemetry travel with it

    def test_async_submit_then_result(self):
        def driver(client):
            queued = client.submit(CELL, wait=False)
            final = client.result(queued["job"])
            return queued, final

        queued, final = with_server(driver)
        assert queued["status"] in ("queued", "running", "done")
        assert final["status"] == "done"
        assert final["outcome"] == "verified"

    def test_events_op_streams_the_job_scoped_log(self):
        def driver(client):
            record = client.submit(CELL)
            return client.events(record["job"])

        events = with_server(driver)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "job-submitted"
        assert "search-started" in kinds
        assert kinds[-1] == "job-finished"

    def test_health_op(self):
        def driver(client):
            client.submit(CELL)
            return client.health()

        health = with_server(driver)
        assert health["status"] == "ok"
        assert health["engine_runs"] == 1
        assert health["cache"]["entries"] == 1

    def test_invalidate_op(self):
        def driver(client):
            client.submit(CELL)
            removed = client.invalidate()
            rerun = client.submit(CELL)
            return removed, rerun

        removed, rerun = with_server(driver)
        assert removed == 1
        assert rerun["cache_hit"] is False


class TestWireErrors:
    def test_unsupported_plan_is_a_structured_wire_error(self):
        def driver(client):
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(CELL, plan={"shape": "bfs", "reduction": "spor"})
            return excinfo.value

        error = with_server(driver)
        assert error.kind == "UnsupportedPlanError"
        assert error.axis is not None
        assert error.alternative is not None

    def test_a_plan_refused_for_its_protocol_is_refused_at_the_door(self):
        # The protocol-aware refusal (no stubborn sets across work-stealing
        # workers on a cyclic protocol) answers ok: false instead of
        # queueing a job that is bound to fail.
        def driver(client):
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit("crashrecovery-2-1", wait=False,
                              plan={"reduction": "spor", "workers": 2})
            return excinfo.value

        error = with_server(driver)
        assert error.kind == "UnsupportedPlanError"
        assert error.axis == "reduction"
        assert error.alternative is not None

    def test_unknown_plan_field_is_refused(self):
        def driver(client):
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(CELL, plan={"sharpe": "dfs"})
            return excinfo.value

        error = with_server(driver)
        assert "sharpe" in str(error)

    def test_unknown_op(self):
        def driver(client):
            with pytest.raises(ServiceClientError) as excinfo:
                client.request("frobnicate")
            return excinfo.value

        assert "unknown op" in str(with_server(driver))

    def test_malformed_json_is_an_error_response_not_a_dropped_connection(self):
        def driver(client):
            client._file.write(b"not json\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            # The connection survives: a well-formed request still works.
            return client.ping()

        assert with_server(driver) == WIRE_VERSION


class TestPlanFromDict:
    def test_round_trips_the_settable_axes(self):
        plan = plan_from_dict({"shape": "bfs", "workers": 2, "goal": "invariant"})
        assert plan.shape == "bfs"
        assert plan.workers == 2

    def test_unknown_fields_raise(self):
        with pytest.raises(ValueError, match="unknown plan field"):
            plan_from_dict({"max_states": 10})

    def test_request_round_trip(self):
        request = JobRequest.from_dict(
            {
                "cell": CELL,
                "model": "single",
                "plan": {"shape": "bfs"},
                "budgets": {"max_states": 5},
            }
        )
        assert request.to_dict()["model"] == "single"
        assert request.effective_plan().max_states == 5
        assert JobRequest.from_dict(request.to_dict()) == request

"""Journaled jobs over the REST API: record, interrupt, inspect.

A job submitted with a ``journal`` path writes the run journal as it
progresses; DELETE /jobs/<id> interrupts the run at the next epoch
boundary and leaves a well-formed, truncation-marked journal behind.
"""

import time

import pytest

from repro.runtime import read_journal
from repro.server.background import BackgroundServer
from repro.server.client import ServerError

from tests.server.conftest import tiny_spec


class TestJournaledJobs:
    @pytest.fixture(scope="class")
    def server(self):
        with BackgroundServer(workers=1) as instance:
            yield instance

    def test_completed_job_leaves_full_journal(self, server, tmp_path):
        client = server.client()
        path = tmp_path / "done.jsonl"
        job = client.submit(tiny_spec(name="journaled", duration_s=25.0),
                            journal=str(path))
        assert job["journal"] == str(path)
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["journal"] == str(path)
        records = read_journal(path)
        assert records[0]["t"] == "run-start"
        assert records[0]["spec"]["name"] == "journaled"
        assert records[-1]["t"] == "run-end"
        assert any(r["t"] == "epoch" for r in records)

    def test_cancel_truncates_journal_at_epoch_boundary(self, server,
                                                        tmp_path,
                                                        hold_jobs):
        """The satellite contract: DELETE on a running journaled job
        stops it at the next epoch boundary; every journal line parses
        and the final record is the ``truncated`` marker."""
        client = server.client()
        path = tmp_path / "cancelled.jsonl"
        hold_jobs.hold("long")
        job = client.submit(
            tiny_spec(name="long", homes=4, duration_s=90.0),
            journal=str(path))
        deadline = time.monotonic() + 60
        while client.job(job["id"])["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        summary = client.cancel(job["id"])
        assert summary["cancel_requested"]
        hold_jobs.release()
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "cancelled"
        # read_journal raises on any malformed (non-final) line, so a
        # clean parse is itself the "no torn writes" assertion.
        records = read_journal(path)
        assert records[-1]["t"] == "truncated"
        assert "cancelled" in records[-1]["reason"]
        assert any(r["t"] == "epoch" for r in records)
        assert not any(r["t"] == "run-end" for r in records)

    def test_unjournaled_job_summary_has_no_path(self, server):
        client = server.client()
        job = client.submit(tiny_spec(name="plain", duration_s=25.0))
        assert job["journal"] is None
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"

    def test_journal_must_be_a_string(self, server):
        client = server.client()
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/jobs",
                            body={"spec": tiny_spec(), "journal": 7})
        assert excinfo.value.status == 400

    def test_journal_must_be_non_empty(self, server):
        client = server.client()
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/jobs",
                            body={"spec": tiny_spec(), "journal": "  "})
        assert excinfo.value.status == 400

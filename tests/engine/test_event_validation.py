"""Event-kind validation in ``emit`` and the ProgressPrinter rendering."""

from __future__ import annotations

import io

import pytest

from repro.engine import events
from repro.engine.events import (
    EVENT_KINDS,
    JOB_EVENT_KINDS,
    CollectingObserver,
    ProgressPrinter,
    emit,
)


class TestEmitValidation:
    def test_every_documented_kind_passes(self):
        observer = CollectingObserver()
        for kind in EVENT_KINDS:
            emit(observer, kind)
        assert observer.kinds() == list(EVENT_KINDS)

    def test_unknown_kind_raises(self):
        observer = CollectingObserver()
        with pytest.raises(ValueError, match="unknown event kind 'serach-started'"):
            emit(observer, "serach-started")
        assert observer.events == []

    def test_the_error_lists_the_known_kinds(self):
        with pytest.raises(ValueError) as excinfo:
            emit(CollectingObserver(), "nope")
        message = str(excinfo.value)
        for kind in EVENT_KINDS:
            assert kind in message

    def test_every_kind_is_documented(self):
        # The module docstring is the event reference; the job-* kinds are
        # documented together under one ``job-*`` entry.
        doc = events.__doc__
        for kind in EVENT_KINDS:
            if kind in JOB_EVENT_KINDS:
                kind = "job-*"
            assert f"``{kind}``" in doc, kind

    def test_no_observer_skips_validation_entirely(self):
        # The ``observer is None`` early-out comes first: the no-sink hot
        # path must not pay for (or trip over) kind validation.
        emit(None, "definitely-not-a-kind")  # must not raise


class TestProgressPrinterRendering:
    def render(self, kind, **payload):
        stream = io.StringIO()
        emit(ProgressPrinter(stream), kind, **payload)
        return stream.getvalue()

    def test_search_started_prints_every_plan_axis(self):
        # Regression: the axes line used to stop at the backend, silently
        # dropping the successors and goal axes added by later plans.
        output = self.render(
            "search-started",
            engine="serial-ndfs",
            protocol="crash-recovery-2-1",
            plan={
                "shape": "dfs", "reduction": "none", "store": "fingerprint",
                "backend": "serial", "workers": 1, "successors": "fast",
                "goal": "liveness", "stateful": True,
            },
        )
        assert "dfs/none/fingerprint/serial/fast/liveness" in output
        assert "[serial-ndfs]" in output
        assert "crash-recovery-2-1" in output

    def test_search_started_appends_worker_multiplicity(self):
        plan = {"shape": "dfs", "reduction": "none", "store": "full",
                "backend": "worksteal", "workers": 4, "successors": "object",
                "goal": "invariant"}
        assert " x4 " in self.render(
            "search-started", engine="worksteal-dfs", protocol="p", plan=plan
        )
        plan_serial = dict(plan, backend="serial", workers=1)
        assert " x1 " not in self.render(
            "search-started", engine="serial-dfs", protocol="p", plan=plan_serial
        )

    def test_worker_stalled_renders_loudly(self):
        output = self.render("worker-stalled", worker=2, idle_seconds=6.25)
        assert "!! worker 2 stalled" in output
        assert "6.2s" in output

    @pytest.mark.parametrize(
        "kind", ["span-started", "span-finished", "worker-telemetry"]
    )
    def test_high_frequency_telemetry_kinds_stay_silent(self, kind):
        assert self.render(kind, span="search", worker=0) == ""

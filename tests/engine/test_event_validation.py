"""Event-kind validation in ``emit`` and the ProgressPrinter rendering."""

from __future__ import annotations

import io

import pytest

from repro.engine.events import (
    EVENT_KINDS,
    EVENT_VALIDATION_ENV,
    CollectingObserver,
    ProgressPrinter,
    emit,
    known_event_kinds,
    register_event_kind,
)


class TestEmitValidation:
    def test_every_documented_kind_passes(self):
        observer = CollectingObserver()
        for kind in EVENT_KINDS:
            emit(observer, kind)
        assert observer.kinds() == list(EVENT_KINDS)

    def test_unknown_kind_raises_by_default(self, monkeypatch):
        monkeypatch.delenv(EVENT_VALIDATION_ENV, raising=False)
        observer = CollectingObserver()
        with pytest.raises(ValueError, match="unknown event kind 'serach-started'"):
            emit(observer, "serach-started")
        assert observer.events == []

    def test_the_error_names_the_escape_hatches(self, monkeypatch):
        monkeypatch.delenv(EVENT_VALIDATION_ENV, raising=False)
        with pytest.raises(ValueError, match="register_event_kind"):
            emit(CollectingObserver(), "nope")
        with pytest.raises(ValueError, match=EVENT_VALIDATION_ENV):
            emit(CollectingObserver(), "nope")

    def test_no_observer_skips_validation_entirely(self, monkeypatch):
        # The ``observer is None`` early-out comes first: the no-sink hot
        # path must not pay for (or trip over) kind validation.
        monkeypatch.delenv(EVENT_VALIDATION_ENV, raising=False)
        emit(None, "definitely-not-a-kind")  # must not raise

    def test_warn_mode_delivers_with_a_runtime_warning(self, monkeypatch):
        monkeypatch.setenv(EVENT_VALIDATION_ENV, "warn")
        observer = CollectingObserver()
        with pytest.warns(RuntimeWarning, match="unknown event kind"):
            emit(observer, "from-the-future", value=1)
        assert observer.kinds() == ["from-the-future"]

    @pytest.mark.parametrize("mode", ["off", "OFF", "0", "false"])
    def test_off_modes_deliver_silently(self, monkeypatch, mode):
        monkeypatch.setenv(EVENT_VALIDATION_ENV, mode)
        observer = CollectingObserver()
        emit(observer, "from-the-future")
        assert observer.kinds() == ["from-the-future"]

    def test_registered_extension_kinds_pass_strict_validation(self, monkeypatch):
        monkeypatch.delenv(EVENT_VALIDATION_ENV, raising=False)
        register_event_kind("custom-engine-tick")
        try:
            observer = CollectingObserver()
            emit(observer, "custom-engine-tick", value=3)
            assert observer.kinds() == ["custom-engine-tick"]
            assert "custom-engine-tick" in known_event_kinds()
        finally:
            from repro.engine import events

            events._known_kinds.discard("custom-engine-tick")

    def test_register_event_kind_rejects_empty(self):
        with pytest.raises(ValueError):
            register_event_kind("")

    def test_known_kinds_cover_the_documented_tuple(self):
        assert set(EVENT_KINDS) <= known_event_kinds()


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

"""Fault plans and the worker-side chaos hook.

The plan layer's promise is determinism: a spec parses to exactly the
crashes it spells, and the hook crashes exactly the worker the plan names
— at the command index it names — with nothing left to timing.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosHook,
    FaultInjection,
    FaultPlan,
    FaultPlanError,
    chaos_hook_for_worker,
)


class TestFaultPlanParse:
    def test_none_and_empty_mean_no_plan(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None

    def test_explicit_crash(self):
        plan = FaultPlan.parse("crash:1@3")
        assert plan.injections == (FaultInjection(worker=1, at_command=3),)

    def test_several_injections_in_order(self):
        plan = FaultPlan.parse("crash:1@3, crash:0@2,crash:2@5")
        assert [(inj.worker, inj.at_command) for inj in plan.injections] == [
            (1, 3), (0, 2), (2, 5),
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:1@3",        # unknown kind
            "crash:1",            # missing @nth
            "crash:x@3",          # non-integer worker
            "crash:1@0",          # commands count from 1
            "crash:-1@3",         # negative worker
            "crash:1@3:30",       # no seconds suffix
            "stall:0@2:soon",     # only crashes are injected
            ",",                  # no injections
            "seed:abc",           # no seeded spelling
            "seed:1:boom=2",
            "seed:1:crash",
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)


class TestChaosHook:
    def test_crash_fires_at_exact_command(self):
        exits = []
        hook = ChaosHook(FaultPlan.parse("crash:0@3"), worker=0, exit=exits.append)
        hook.on_command()
        hook.on_command()
        assert exits == []
        hook.on_command()
        assert exits == [1]

    def test_other_workers_injections_never_fire(self):
        exits = []
        hook = ChaosHook(FaultPlan.parse("crash:1@1"), worker=0, exit=exits.append)
        for _ in range(5):
            hook.on_command()
        assert exits == []

    def test_each_planned_command_crashes(self):
        exits = []
        hook = ChaosHook(
            FaultPlan.parse("crash:0@4,crash:1@3,crash:0@2"), worker=0,
            exit=exits.append,
        )
        for _ in range(5):
            hook.on_command()
        assert exits == [1, 1]

    def test_multiple_injections_same_command(self):
        exits = []
        hook = ChaosHook(
            FaultPlan.parse("crash:0@2,crash:0@2"), worker=0, exit=exits.append,
        )
        hook.on_command()
        hook.on_command()
        assert exits == [1]


class TestHookConstruction:
    def test_no_spec_means_none(self):
        assert chaos_hook_for_worker(None, 0) is None

    def test_spec_arms_the_named_worker(self):
        hook = chaos_hook_for_worker("crash:2@4", 2)
        assert hook is not None
        assert hook._pending == {4}

    def test_invalid_spec_raises(self):
        # A typo'd plan must fail loudly, not make chaos tests pass vacuously.
        with pytest.raises(FaultPlanError):
            chaos_hook_for_worker("kaboom:0@1", 0)

"""Fault plans and the worker-side injection hook.

A :class:`FaultPlan` is a deterministic list of :class:`FaultInjection`
records — *which worker* crashes at *which command* — with a compact
string spelling so a plan travels as one hashable value in
``CheckPlan.chaos``:

``"crash:1@3"``
    Comma-separated injections ``crash:worker@nth``: worker ``worker``
    dies with ``os._exit`` (the hard death the OOM killer delivers, never
    reaching Python cleanup) when it receives its ``nth`` command.

The worker loop calls :meth:`ChaosHook.on_command` once per protocol
command (or per walk, for swarm workers); the hook counts commands and
fires the matching injection.  With no plan the hook is ``None`` and the
loops pay nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple


class FaultPlanError(ValueError):
    """A fault-plan spec string does not parse."""


@dataclass(frozen=True)
class FaultInjection:
    """One planned crash: worker ``worker`` at its ``at_command``-th command.

    ``at_command`` counts from 1: the first command a worker receives is
    command 1.
    """

    worker: int
    at_command: int


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable set of worker crashes."""

    injections: Tuple[FaultInjection, ...] = ()

    @classmethod
    def parse(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """Build a plan from its string spelling; ``None``/empty means none.

        Injections naming workers outside the pool simply never fire.
        """
        if not spec:
            return None
        injections = tuple(
            _parse_injection(part.strip())
            for part in spec.split(",") if part.strip()
        )
        if not injections:
            raise FaultPlanError(f"fault plan {spec!r} names no injections")
        return cls(injections=injections)


def _parse_injection(part: str) -> FaultInjection:
    kind, _, target = part.partition(":")
    worker_raw, at, command_raw = target.partition("@")
    if kind != "crash" or not at:
        raise FaultPlanError(
            f"fault injection {part!r} must spell crash:worker@nth"
        )
    try:
        worker = int(worker_raw)
        at_command = int(command_raw)
    except ValueError:
        raise FaultPlanError(
            f"fault injection {part!r}: worker and command must be integers"
        ) from None
    if worker < 0 or at_command < 1:
        raise FaultPlanError(
            f"fault injection {part!r}: worker must be >= 0 and command >= 1"
        )
    return FaultInjection(worker=worker, at_command=at_command)


class ChaosHook:
    """Worker-side injector: counts commands, fires planned crashes.

    Built once per worker process; ``on_command`` runs at the top of the
    worker's command loop.  Crashes use ``os._exit`` so no ``finally``
    block, queue flush or exception-reply path softens them — exactly the
    failure mode a supervised runtime must survive.
    """

    def __init__(self, plan: FaultPlan, worker: int, exit=os._exit) -> None:
        self.commands_seen = 0
        self._pending = {inj.at_command for inj in plan.injections
                         if inj.worker == worker}
        self._exit = exit

    def on_command(self) -> None:
        """Count one command; crash when an injection names it."""
        self.commands_seen += 1
        if self.commands_seen in self._pending:
            self._exit(1)


def chaos_hook_for_worker(spec: Optional[str], worker: int) -> Optional[ChaosHook]:
    """The worker's hook for a spec; ``None`` — zero overhead — without one."""
    plan = FaultPlan.parse(spec)
    return None if plan is None else ChaosHook(plan, worker)

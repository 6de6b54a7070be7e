"""Counterexamples: violating paths through the state graph.

Invariant counterexamples are plain finite paths: the final state of the
last step violates the property.  Liveness counterexamples are *lassos* — a
finite stem followed by a cycle along which the goal predicate never holds
(``cycle_start`` marks where the cycle begins).  The stutter-extension
convention represents a violating *terminal* state as a lasso with an empty
cycle: the run ends, and ending without reaching the goal is the violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..mp.state import GlobalState
from ..mp.transition import Execution


@dataclass(frozen=True)
class Step:
    """One step of a counterexample: an execution and the state it reaches."""

    execution: Execution
    state: GlobalState


@dataclass(frozen=True)
class Counterexample:
    """A path from the initial state to a property violation.

    Attributes:
        initial_state: The initial state of the protocol.
        steps: The executed transitions with the states they lead to.  For
            invariant violations the final state of the last step violates
            the property; for lassos the final state closes the cycle (it
            equals the state at index ``cycle_start``).
        property_name: Name of the violated property.
        cycle_start: ``None`` for ordinary finite counterexamples.  For a
            lasso, the index into the state sequence (0 = initial state,
            ``i`` = state reached by ``steps[i - 1]``) where the cycle
            starts: ``steps[:cycle_start]`` is the stem and
            ``steps[cycle_start:]`` the cycle.  ``cycle_start == len(steps)``
            encodes the empty cycle of a stuttering terminal state.
    """

    initial_state: GlobalState
    steps: Tuple[Step, ...]
    property_name: str
    cycle_start: Optional[int] = None

    @property
    def length(self) -> int:
        """Number of transitions on the violating path."""
        return len(self.steps)

    @property
    def is_lasso(self) -> bool:
        """Whether this is a stem+cycle liveness counterexample."""
        return self.cycle_start is not None

    @property
    def violating_state(self) -> GlobalState:
        """The final, property-violating state.

        For lassos this is the state closing the cycle (equal to the state
        the cycle started from), or the stuttering terminal state when the
        cycle is empty.
        """
        if not self.steps:
            return self.initial_state
        return self.steps[-1].state

    def state_at(self, index: int) -> GlobalState:
        """The state at position ``index`` of the path (0 = initial state)."""
        if index == 0:
            return self.initial_state
        return self.steps[index - 1].state

    @property
    def cycle_steps(self) -> Tuple[Step, ...]:
        """The cycle of a lasso; empty for a stuttering terminal state."""
        if self.cycle_start is None:
            return ()
        return self.steps[self.cycle_start:]

    def executions(self) -> Tuple[Execution, ...]:
        """The executed transitions along the path, in order."""
        return tuple(step.execution for step in self.steps)

    def transition_names(self) -> Tuple[str, ...]:
        """The names of the executed transitions along the path, in order."""
        return tuple(step.execution.transition.name for step in self.steps)

    def replay(self, protocol) -> Tuple[GlobalState, ...]:
        """Re-execute the counterexample from the initial state.

        ``protocol`` may be any build of the model that produced the trace.
        Returns the full state sequence (initial state first).  Raises
        :class:`ValueError` if any recorded execution is not enabled where
        the trace claims it fired, if a reached state differs from the
        recorded one, or if a lasso's cycle does not close — i.e. the trace
        is only accepted when its re-execution is deterministic and lands
        exactly where the search said it would.
        """
        from ..mp.semantics import SuccessorEngine

        engine = SuccessorEngine(protocol)
        states = [self.initial_state]
        for index, step in enumerate(self.steps):
            current = states[-1]
            # By name and consumed messages: a rebuilt protocol's transitions
            # are equal in both, but their guard and action closures are not.
            recorded = (step.execution.transition.name, step.execution.messages)
            execution = next(
                (candidate for candidate in engine.enabled(current)
                 if (candidate.transition.name, candidate.messages) == recorded),
                None,
            )
            if execution is None:
                raise ValueError(
                    f"replay diverged at step {index + 1}: "
                    f"{step.execution.describe()} is not enabled"
                )
            successor = engine.successor(current, execution)
            if successor != step.state:
                raise ValueError(
                    f"replay diverged at step {index + 1}: reached a state "
                    "different from the recorded one"
                )
            states.append(successor)
        if self.cycle_start is not None and self.cycle_steps:
            if states[-1] != self.state_at(self.cycle_start):
                raise ValueError("lasso cycle does not close on replay")
        return tuple(states)

    def format(self, include_states: bool = False) -> str:
        """Render the counterexample for human consumption.

        Args:
            include_states: If True, print every intermediate state; by
                default only the executions and the final state are shown.
        """
        if self.cycle_start is None:
            lines = [f"counterexample for property '{self.property_name}' "
                     f"({self.length} steps):"]
        else:
            stem, cycle = self.cycle_start, self.length - self.cycle_start
            lines = [f"lasso counterexample for property "
                     f"'{self.property_name}' ({stem}-step stem + "
                     f"{cycle}-step cycle):"]
        if include_states:
            lines.append(self.initial_state.describe())
        for index, step in enumerate(self.steps, start=1):
            marker = ""
            if self.cycle_start is not None and index == self.cycle_start + 1:
                marker = "  <- cycle starts"
            lines.append(f"  {index:3d}. {step.execution.describe()}{marker}")
            if include_states:
                lines.append(_indent(step.state.describe(), 6))
        if self.cycle_start is not None and self.cycle_start == self.length:
            lines.append("  (terminal state; run ends without reaching the goal)")
        if not include_states:
            lines.append("violating " + self.violating_state.describe())
        return "\n".join(lines)


def _indent(text: str, amount: int) -> str:
    prefix = " " * amount
    return "\n".join(prefix + line for line in text.splitlines())

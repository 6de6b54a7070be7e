"""Byzantine attack behaviours for the Echo Multicast models.

The paper models specific attack strategies rather than fully general
Byzantine behaviour (Section V-A, "Process faults"):

* a **Byzantine initiator** equivocates — it sends one message to one group
  of honest receivers and a different message to the other group (plus both
  to every Byzantine receiver), then tries to commit both;
* a **Byzantine receiver** sends invalid confirmations to honest initiators
  and cooperates with Byzantine initiators by echoing (signing) both of
  their conflicting messages.

Because commits are only possible with a full echo quorum (cryptographic
signatures make echoes unforgeable, which the model inherits by simply not
giving Byzantine processes a way to fabricate them), the attack succeeds
only when the number of Byzantine receivers exceeds the assumed threshold.
"""

from __future__ import annotations

from ...mp.transition import ActionContext
from .config import ByzantineInitiatorState, ByzantineReceiverState, MulticastConfig


# --------------------------------------------------------------------------- #
# Byzantine initiator
# --------------------------------------------------------------------------- #
def byz_start_guard(local: ByzantineInitiatorState, _messages) -> bool:
    return local.phase == "idle"


def make_byz_start_action(config: MulticastConfig, initiator: str):
    """Equivocation kick-off: different INIT messages to the two groups."""
    value_x, value_y = config.equivocation_values(initiator)
    group_x, group_y = config.equivocation_groups()
    byz_receivers = config.byzantine_receiver_ids()

    def action(local: ByzantineInitiatorState, _messages, ctx: ActionContext):
        for receiver in group_x:
            ctx.send(receiver, "INIT", value=value_x)
        for receiver in group_y:
            ctx.send(receiver, "INIT", value=value_y)
        for receiver in byz_receivers:
            ctx.send(receiver, "INIT", value=value_x)
            ctx.send(receiver, "INIT", value=value_y)
        return local.update(phase="active")

    return action


def make_byz_echo_guard(value: str, label: str):
    """Quorum guard: every echo confirms ``value`` and it was not committed yet."""

    def guard(local: ByzantineInitiatorState, messages) -> bool:
        if local.phase != "active" or label in local.committed:
            return False
        return all(message["value"] == value for message in messages)

    return guard


def make_byz_commit_action(config: MulticastConfig, value: str, label: str):
    """Commit ``value`` to every honest receiver once a full echo quorum is held."""
    honest_receivers = config.honest_receiver_ids()

    def action(local: ByzantineInitiatorState, _messages, ctx: ActionContext):
        for receiver in honest_receivers:
            ctx.send(receiver, "COMMIT", value=value)
        return local.update(committed=local.committed | {label})

    return action


def make_byz_echo_single_action(config: MulticastConfig, initiator: str):
    """Single-message echo counting for the Byzantine initiator.

    Keeps one counter per conflicting message and commits a message once its
    counter reaches the echo quorum (Figure 3 pattern applied to the attack).
    """
    value_x, value_y = config.equivocation_values(initiator)
    quorum = config.echo_quorum
    honest_receivers = config.honest_receiver_ids()

    def action(local: ByzantineInitiatorState, messages, ctx: ActionContext):
        if local.phase != "active":
            return local
        (message,) = messages
        value = message["value"]
        if value == value_x and "X" not in local.committed:
            count = local.x_echo_count + 1
            if count >= quorum:
                for receiver in honest_receivers:
                    ctx.send(receiver, "COMMIT", value=value_x)
                return local.update(committed=local.committed | {"X"}, x_echo_count=0)
            return local.update(x_echo_count=count)
        if value == value_y and "Y" not in local.committed:
            count = local.y_echo_count + 1
            if count >= quorum:
                for receiver in honest_receivers:
                    ctx.send(receiver, "COMMIT", value=value_y)
                return local.update(committed=local.committed | {"Y"}, y_echo_count=0)
            return local.update(y_echo_count=count)
        return local

    return action


# --------------------------------------------------------------------------- #
# Byzantine receiver
# --------------------------------------------------------------------------- #
def make_byz_receiver_init_action(config: MulticastConfig):
    """Byzantine receiver INIT handling.

    Echo the received value faithfully when it came from a Byzantine
    initiator (cooperation: both conflicting messages get signed) and send a
    useless, invalid confirmation to honest initiators.
    """
    byzantine_initiators = frozenset(config.byzantine_initiator_ids())

    def action(local: ByzantineReceiverState, messages, ctx: ActionContext):
        (message,) = messages
        if message.sender in byzantine_initiators:
            ctx.send(message.sender, "ECHO", value=message["value"])
        else:
            ctx.send(message.sender, "ECHO", value=f"invalid[{ctx.process_id}]")
        return local

    return action
